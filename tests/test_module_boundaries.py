"""No module of the package reaches into a sibling's private names, and
every private name of the package is used by the package."""

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


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST, ast.ClassDef | None]]:
    """Each private module-level name and private method of a module, with
    its defining node and, for a method, its class."""
    found = []
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        found += [(name, node, None) for name in names if is_private(name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item, node) for item in node.body
                      if isinstance(item, ast.FunctionDef) and is_private(item.name)]
    return found


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute and imported name of a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names]
    return found


def test_every_private_name_is_used_by_the_package():
    """A private helper that no code of the package reads, such as one that
    only tests call, is dead. Uses inside the definition itself do not count,
    and for a method neither do those inside another class that defines a
    method of the same name, where ``self.<name>`` is that class's own."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    definitions = [(path, *d) for path, tree in trees.items() for d in private_definitions(tree)]
    uses = [(path, *r) for path, tree in trees.items() for r in references(tree)]
    unused = []
    for path, name, node, owner in definitions:
        skipped = [(path, node)]
        if owner is not None:
            skipped += [(p, cls) for p, n, _, cls in definitions if n == name and cls not in (None, owner)]
        if not any(
            use == name and not any(p == where and s.lineno <= line <= s.end_lineno for p, s in skipped)
            for where, use, line in uses
        ):
            unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_the_stability_decision_lives_in_radius():
    """Only ``radius`` reads the decision band, and ``lyapunov`` calls no
    ``spectrum``: its refusals read the p-radius from ``radius``."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    readers = sorted(name for name, tree in trees.items()
                     if any(use == "DECISION_MARGIN" for use, _ in references(tree)))
    assert readers == ["radius.py"]
    assert [line for use, line in references(trees["lyapunov.py"]) if use == "spectrum"] == []
