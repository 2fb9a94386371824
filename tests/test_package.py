"""The package namespace: every public name, bound on first access."""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchstab

#: the public names of the package, sorted as ``__all__`` lists them
PUBLIC = [
    "AssumptionError", "AssumptionPath", "AtomicDistribution", "ConeFlags", "ConeNormCertificate",
    "ConeRadius", "DecayEstimate", "DimensionCapError", "InstabilityError", "JsrBounds",
    "LimitSequence", "MarkovJumpSystem", "MatrixDistribution", "MomentSeries", "PRadiusResult",
    "QRecursionReport", "QuadraticCertificate", "SchemaError", "SimulationPlan", "SimulationResult",
    "SolverFailureError", "Spectrum", "StabilityReport", "SwitchstabError",
    "UniformEntriesDistribution", "ValidationReport", "Verdict", "apply_feedback",
    "certificate_from_dict", "certificate_to_dict", "check_mean_stability", "check_q_recursion",
    "cone_spectral_radius", "dump_problem", "errors", "estimate_decay_rate", "evaluate",
    "evaluate_rows", "jsr_bounds", "kron_power", "lifting_identity_check", "limit_sequence",
    "linalg", "load_problem", "lyapunov",
    "markov_stability", "markov_tp_spectral_radius", "mcsim",
    "models", "p_radius", "problem_to_json", "propagate_conditional_moments", "radius",
    "sample_matrix", "simulate_iid", "simulate_markov", "simulate_paths", "spectrum",
    "synthesize_cone_norm", "synthesize_degree_p", "synthesize_quadratic", "validate_certificate",
    "write_moment_csv",
]
SUBMODULES = {"errors", "linalg", "lyapunov", "mcsim", "models", "radius"}


def test_all_lists_the_public_names():
    assert switchstab.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_the_object_its_submodule_defines(name):
    value = getattr(switchstab, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"switchstab.{name}")
    else:
        assert value.__module__.startswith("switchstab.")
        assert getattr(importlib.import_module(value.__module__), name) is value
        assert vars(switchstab)[name] is value  # kept after the first access


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from switchstab import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert set(PUBLIC) <= set(dir(switchstab))


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        switchstab.no_such_name
    assert not hasattr(switchstab, "cli_main")


def first_use_check(cwd):
    """A fresh interpreter that imports the package, then one submodule."""
    check = (
        "import sys, switchstab\n"
        "loaded = lambda: sorted(m for m in sys.modules if m == 'numpy' or m.startswith('switchstab'))\n"
        "assert loaded() == ['switchstab', 'switchstab.errors'], loaded()\n"
        "module = switchstab.radius\n"
        "assert module is sys.modules['switchstab.radius']\n"
        "assert 'switchstab.mcsim' not in sys.modules and 'numpy' in sys.modules\n"
        "assert switchstab.p_radius is module.p_radius and 'p_radius' in vars(switchstab)\n"
        "assert not hasattr(switchstab, 'no_such_name')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=path), timeout=120)


@pytest.mark.spawns(job=first_use_check)
def test_importing_the_package_loads_its_modules_on_first_use(spawned):
    assert spawned.returncode == 0, spawned.stderr


def test_an_outside_wrapper_is_not_kept_once_it_is_removed(monkeypatch):
    from switchstab import radius

    original = radius.p_radius
    monkeypatch.delitem(vars(switchstab), "p_radius", raising=False)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radius, "p_radius", wrapper)
        assert switchstab.p_radius is wrapper
    assert switchstab.p_radius is original
    assert vars(switchstab)["p_radius"] is original
