"""Mean-stability analysis of stochastic switched linear systems.

Decides p-th mean stability of x(k+1) = A_k x(k) through the p-radius
rho(E[A^(kron p)])^(1/p), synthesizes homogeneous Lyapunov certificates,
brackets the joint spectral radius, and analyzes Markov jump systems via
their lifted transition operator.
"""

from .errors import (
    AssumptionError,
    DimensionCapError,
    InstabilityError,
    SchemaError,
    SolverFailureError,
    SwitchstabError,
)
from .linalg import (
    ConeRadius,
    Spectrum,
    cone_spectral_radius,
    dominant_left_eigenvector,
    kron_power,
    spectrum,
)
from .lyapunov import (
    ConeNormCertificate,
    QuadraticCertificate,
    ValidationReport,
    certificate_from_dict,
    certificate_to_dict,
    evaluate,
    evaluate_rows,
    synthesize_cone_norm,
    synthesize_degree_p,
    synthesize_quadratic,
    validate_certificate,
)
from .mcsim import (
    DecayEstimate,
    MomentSeries,
    QRecursionReport,
    SimulationPlan,
    SimulationResult,
    check_q_recursion,
    estimate_decay_rate,
    propagate_conditional_moments,
    sample_matrix,
    simulate_iid,
    simulate_markov,
    write_moment_csv,
)
from .models import (
    AtomicDistribution,
    ConeFlags,
    MarkovJumpSystem,
    MatrixDistribution,
    UniformEntriesDistribution,
    apply_feedback,
    dump_problem,
    load_problem,
    problem_to_json,
)
from .radius import (
    AssumptionPath,
    JsrBounds,
    LimitSequence,
    PRadiusResult,
    StabilityReport,
    Verdict,
    check_mean_stability,
    jsr_bounds,
    lifting_identity_check,
    limit_sequence,
    markov_p_radius,
    markov_stability,
    markov_tp,
    markov_tp_spectral_radius,
    p_radius,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
