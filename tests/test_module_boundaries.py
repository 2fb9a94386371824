"""No module of the package reaches into a sibling's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "switchstab"


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(path: Path) -> list[str]:
    """``from .sibling import _name`` and ``sibling._name`` in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, sibling_modules = [], set()
    for node in ast.walk(tree):
        in_package = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "switchstab"
        )
        if in_package:
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.module in (None, "switchstab"):  # `from . import sibling`
                    sibling_modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in sibling_modules):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_private_name_of_a_sibling():
    paths = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in paths
    assert [use for path in paths for use in private_uses(path)] == []
