"""Mean-stability analysis of stochastic switched linear systems.

Decides p-th mean stability of x(k+1) = A_k x(k) through the p-radius
rho(E[A^(kron p)])^(1/p), synthesizes homogeneous Lyapunov certificates,
brackets the joint spectral radius, and analyzes Markov jump systems via
their lifted transition operator.

Importing the package loads only :mod:`switchstab.errors`. Every other
public name is looked up on first access (PEP 562): that imports its
submodule, and numpy with it, and keeps the name in the package namespace.
"""

from importlib import import_module as _import_module

from .errors import (
    AssumptionError,
    DimensionCapError,
    InstabilityError,
    SchemaError,
    SolverFailureError,
    SwitchstabError,
)

#: the submodule that defines each lazily bound public name
_LAZY = {
    "linalg": (
        "ConeRadius",
        "Spectrum",
        "cone_spectral_radius",
        "kron_power",
        "spectrum",
    ),
    "lyapunov": (
        "ConeNormCertificate",
        "QuadraticCertificate",
        "ValidationReport",
        "certificate_from_dict",
        "certificate_to_dict",
        "evaluate",
        "evaluate_rows",
        "synthesize_cone_norm",
        "synthesize_degree_p",
        "synthesize_quadratic",
        "validate_certificate",
    ),
    "mcsim": (
        "DecayEstimate",
        "MomentSeries",
        "QRecursionReport",
        "SimulationPlan",
        "SimulationResult",
        "check_q_recursion",
        "estimate_decay_rate",
        "propagate_conditional_moments",
        "sample_matrix",
        "simulate_iid",
        "simulate_markov",
        "simulate_paths",
        "write_moment_csv",
    ),
    "models": (
        "AtomicDistribution",
        "ConeFlags",
        "MarkovJumpSystem",
        "MatrixDistribution",
        "UniformEntriesDistribution",
        "apply_feedback",
        "dump_problem",
        "load_problem",
        "problem_to_json",
    ),
    "radius": (
        "AssumptionPath",
        "JsrBounds",
        "LimitSequence",
        "PRadiusResult",
        "StabilityReport",
        "Verdict",
        "check_mean_stability",
        "jsr_bounds",
        "lifting_identity_check",
        "limit_sequence",
        "markov_stability",
        "markov_tp_spectral_radius",
        "p_radius",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(
    [
        "errors",
        "AssumptionError",
        "DimensionCapError",
        "InstabilityError",
        "SchemaError",
        "SolverFailureError",
        "SwitchstabError",
        *_LAZY,
        *_MODULE_OF,
    ]
)


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    if not hasattr(value, "__wrapped__"):
        # a wrapper set on the submodule from outside (a tracer, a test
        # double) is returned but not kept, so removing it restores this name
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
