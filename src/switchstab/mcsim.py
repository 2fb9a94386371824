"""Monte Carlo simulation with reproducible, chunked random streams.

Paths are drawn in fixed-size chunks; chunk c draws from a Philox
counter-based stream spawned as SeedSequence(seed, spawn_key=(c,)).
:func:`_lockstep` advances every path one step at a time: at step k each
chunk draws its step-k matrices and updates its rows of one (paths, d)
state array, and each consumer, a plain loop over the steps, reduces the
values of that step (the norm and, given a certificate, its value, each
computed from its own row alone) at once. Sums over paths add the paths in
order, as numpy's axis-0 sum of a whole (paths, horizon+1) array adds its
rows. So the working set is the current states, one (paths,) array per
series and the temporaries of one chunk-step, and no path is kept;
:func:`simulate_paths` returns the states (and modes) of the same paths.
Everything runs on the calling thread, and no value passes through BLAS,
so output is bit-identical for any BLAS thread count; the ``threads``
arguments are accepted and not used.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssumptionError
from .linalg import check_entry_cap
from .models import (
    AtomicDistribution,
    MarkovJumpSystem,
    MatrixDistribution,
    UniformEntriesDistribution,
)

if TYPE_CHECKING:
    from .lyapunov import LyapunovCertificate

#: paths per RNG chunk; fixed so results do not depend on how paths are run
CHUNK = 1024


@dataclass(frozen=True)
class SimulationPlan:
    paths: int
    horizon: int
    seed: int
    initial_state: np.ndarray
    initial_mode: int | None = None  # 1-based, Markov runs only
    moment_exponent: int = 1

    def __post_init__(self):
        if self.paths < 1 or self.horizon < 1:
            raise ValueError("need at least one path and one step")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.moment_exponent < 1:
            raise ValueError("moment exponent must be >= 1")
        x0 = np.asarray(self.initial_state, dtype=float)
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise ValueError("initial state must be a finite vector")
        object.__setattr__(self, "initial_state", x0)


@dataclass(frozen=True)
class MomentSeries:
    """Per-step sample means with standard errors.

    Paths that overflowed are excluded from step k onward and counted in
    ``truncated_paths``; ``n_valid[k]`` is the sample size actually used.
    """

    means: np.ndarray
    stderrs: np.ndarray
    norm_label: str
    n_valid: np.ndarray
    truncated_paths: int = 0

    def __len__(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class SimulationResult:
    """The moment series of a simulation; its paths are not kept."""

    euclidean: MomentSeries
    certificate: MomentSeries | None = None


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def _inverse_cdf(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Index drawn by each uniform ``u`` from the cumulative probabilities
    ``cum`` along their last axis (one row per draw, or one row for all):
    the count of the first m-1 cumulative values at or below u. That is
    min(#{j : u >= cum[j]}, m-1), so a total that rounds below 1 still
    draws the last index, without an (n, m) comparison array."""
    idx = np.zeros(u.shape, dtype=np.int64)
    for column in cum.T[:-1]:
        idx += u >= column
    return idx


def atom_indices(dist: AtomicDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """Indices of ``n`` atoms drawn from a finite law, advancing ``rng`` as
    :func:`sample_matrix` does for the same draws."""
    return _inverse_cdf(rng.random(n), np.cumsum(dist.probabilities))


def sample_matrix(
    dist: MatrixDistribution, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw ``size`` matrices (or one, if size is None) from the law,
    advancing ``rng`` deterministically."""
    n = 1 if size is None else int(size)
    if isinstance(dist, AtomicDistribution):
        out = dist.atoms[atom_indices(dist, rng, n)]
    elif isinstance(dist, UniformEntriesDistribution):
        width = dist.upper - dist.lower
        out = dist.lower + rng.random((n, dist.dim, dist.dim)) * width
    else:
        raise TypeError(f"cannot sample from {type(dist).__name__}")
    return out[0] if size is None else out


def _chunks(n: int) -> list[slice]:
    """The path slices of the RNG chunks of n paths, in path order."""
    return [slice(start, min(start + CHUNK, n)) for start in range(0, n, CHUNK)]


def _fold(terms: np.ndarray) -> np.ndarray:
    """Sum over paths (axis 0) of ``terms`` in path order from +0.0, the
    order in which numpy's axis-0 sum adds the rows of a 2-D array (a 1-D
    sum adds pairwise). The cumulative sum starts from the first path;
    adding 0.0 maps a -0.0 total to the +0.0 that a sum from +0.0 gives."""
    return np.cumsum(terms, axis=0)[-1] + 0.0


class _MomentFold:
    """One value per path per step, reduced to a :class:`MomentSeries` step
    by step: the mean over the paths that are still finite, then the sum of
    squared deviations from it. A path is excluded from its first
    non-finite value onward."""

    def __init__(self, n: int, horizon: int, label: str):
        self.values = np.empty(n)  # the step's values, written before reduce
        self.alive = np.ones(n, dtype=bool)
        self.n_valid = np.zeros(horizon + 1, dtype=np.int64)
        self.means = np.empty(horizon + 1)
        self.squares = np.empty(horizon + 1)
        self.label = label

    def reduce(self, k: int) -> None:
        v, alive = self.values, self.alive
        alive &= np.isfinite(v)
        count = self.n_valid[k] = np.count_nonzero(alive)
        mean = self.means[k] = _fold(np.where(alive, v, 0.0)) / max(count, 1)
        deviations = v - mean
        deviations[~alive] = 0.0
        self.squares[k] = _fold(np.square(deviations, out=deviations))

    def series(self) -> MomentSeries:
        n_valid = self.n_valid
        var = self.squares / np.maximum(n_valid - 1, 1)
        stderrs = np.sqrt(var / np.maximum(n_valid, 1))
        return MomentSeries(
            means=np.where(n_valid > 0, self.means, np.nan),
            stderrs=np.where(n_valid > 1, stderrs, 0.0),
            norm_label=self.label,
            n_valid=n_valid.astype(int),
            truncated_paths=int(self.alive.size - n_valid[-1]),
        )


def _check_plan(plan: SimulationPlan, d: int, width: int, context: str) -> None:
    """Reject an initial state of the wrong dimension, then ``width``
    entries per path beyond the entry cap."""
    if plan.initial_state.shape != (d,):
        raise ValueError(f"initial state must have dimension {d}")
    check_entry_cap(plan.paths * width, context)


def _lockstep(problem: MatrixDistribution | MarkovJumpSystem, plan: SimulationPlan):
    """Yield ``(k, x, modes)`` for k = 0..horizon, running x(k+1) = A_k x(k)
    over all of the plan's paths one step at a time.

    ``x`` is the (paths, d) state array and, for a Markov system, ``modes``
    the (paths,) array of current 0-based modes from the plan's initial mode
    (None for an i.i.d. law); the next step updates both in place. Overflowed
    paths are expected and truncated by the moment series, so floating-point
    errors of a step are ignored.
    """
    slices = _chunks(plan.paths)
    rngs = [_chunk_rng(plan.seed, c) for c in range(len(slices))]
    x = np.broadcast_to(plan.initial_state, (plan.paths, problem.dim)).copy()
    modes = None
    if isinstance(problem, MarkovJumpSystem):
        sigma0 = _initial_mode(problem, plan.initial_mode, "Markov simulation")
        cum_rows = np.cumsum(problem.transition, axis=1)
        modes = np.full(plan.paths, sigma0 - 1)
    yield 0, x, modes
    for k in range(1, plan.horizon + 1):
        with np.errstate(all="ignore"):
            for sl, rng in zip(slices, rngs):
                if modes is None:
                    matrices = sample_matrix(problem, rng, size=sl.stop - sl.start)
                else:
                    sigma = modes[sl]
                    matrices = problem.modes[sigma]
                    modes[sl] = _inverse_cdf(rng.random(sigma.size), cum_rows[sigma])
                x[sl] = np.einsum("nij,nj->ni", matrices, x[sl])
        yield k, x, modes


def _simulate(
    problem: MatrixDistribution | MarkovJumpSystem, plan: SimulationPlan, certificate=None
) -> SimulationResult:
    """Simulate the plan's paths of a law or a Markov system and reduce them
    to moment series.

    At each step the Euclidean norm to the plan's exponent and, given a
    certificate, its value are computed one chunk of paths at a time and
    reduced over all paths.
    """
    n, p, d = plan.paths, plan.moment_exponent, problem.dim
    # the states and the values of one step
    _check_plan(plan, d, d + 1 + (certificate is not None), "simulation states and values")
    norms = _MomentFold(n, plan.horizon, f"euclidean^{p}")
    folds = [norms]
    if certificate is not None:
        from .lyapunov import evaluate_rows

        # the monomials of one step of a chunk
        check_entry_cap(min(n, CHUNK) * len(certificate.weights), "simulated certificate rows")
        cert_values = _MomentFold(n, plan.horizon, "certificate")
        folds.append(cert_values)
    slices = _chunks(n)
    with np.errstate(all="ignore"):
        for k, x, _ in _lockstep(problem, plan):
            for sl in slices:
                norms.values[sl] = np.linalg.norm(x[sl], axis=1) ** p
                if certificate is not None:
                    cert_values.values[sl] = evaluate_rows(certificate, x[sl])
            for fold in folds:
                fold.reduce(k)
    return SimulationResult(*(fold.series() for fold in folds))


def _initial_mode(system: MarkovJumpSystem, sigma0: int | None, needed_by: str) -> int:
    """The 1-based initial mode ``sigma0``, else the system's, checked to lie
    in 1..N; ``needed_by`` names the computation in the error for neither."""
    sigma0 = system.initial_mode if sigma0 is None else sigma0
    if sigma0 is None:
        raise AssumptionError(f"{needed_by} requires an initial mode")
    if not 1 <= sigma0 <= system.n_modes:
        raise ValueError(f"initial mode must lie in 1..{system.n_modes}")
    return sigma0


def simulate_iid(
    dist: MatrixDistribution,
    plan: SimulationPlan,
    certificate: LyapunovCertificate | None = None,
    threads: int = 1,
) -> SimulationResult:
    """Simulate x(k+1) = A_k x(k) with A_k drawn independently from the law.

    Returns the sample moments of the Euclidean norm raised to the plan's
    exponent and optionally the certificate-value series; the paths
    themselves are not kept (see :func:`simulate_paths`). ``threads`` is
    not used.
    """
    return _simulate(dist, plan, certificate)


def simulate_markov(
    system: MarkovJumpSystem, plan: SimulationPlan, threads: int = 1
) -> SimulationResult:
    """Simulate x(k+1) = M_(mode k) x(k) with the mode chain driven by the
    transition matrix from the plan's initial mode, and return the moment
    series of the Euclidean norm; neither paths nor modes are kept.
    ``threads`` is not used."""
    return _simulate(system, plan)


def simulate_paths(
    problem: MatrixDistribution | MarkovJumpSystem, plan: SimulationPlan, threads: int = 1
) -> tuple[np.ndarray, np.ndarray | None]:
    """The states of every simulated path, (paths, horizon+1, d), and for a
    Markov system the 0-based mode of every path at every step,
    (paths, horizon+1), int8 up to 128 modes (None for an i.i.d. law).

    The paths are those that :func:`simulate_iid` and
    :func:`simulate_markov` reduce, bit for bit; the entry cap counts the
    states. ``threads`` is not used.
    """
    d = problem.dim
    _check_plan(plan, d, (plan.horizon + 1) * d, "simulation paths")
    states = np.empty((plan.paths, plan.horizon + 1, d))
    modes = None
    if isinstance(problem, MarkovJumpSystem):
        modes = np.empty(states.shape[:2], dtype=np.min_scalar_type(-problem.n_modes))
    for k, x, current in _lockstep(problem, plan):
        states[:, k] = x
        if modes is not None:
            modes[:, k] = current
    return states, modes


# ---------------------------------------------------------------------------
# Conditional-moment recursion
# ---------------------------------------------------------------------------


def propagate_conditional_moments(
    system: MarkovJumpSystem, x0: np.ndarray, sigma0: int, horizon: int
) -> np.ndarray:
    """Exact conditional first moments Q_i(k) = E[x(k) 1{mode k = i}].

    Q_i(0) is x0 for the initial mode and zero elsewhere, and
    Q_j(k+1) = sum_i P[i, j] M_i Q_i(k). The entry cap counts the
    (horizon+1) N d moments.
    """
    x0 = np.asarray(x0, dtype=float)
    n_modes, d = system.n_modes, system.dim
    sigma0 = _initial_mode(system, sigma0, "conditional-moment propagation")
    check_entry_cap((horizon + 1) * n_modes * d, "conditional moments")
    q = np.zeros((horizon + 1, n_modes, d))
    q[0, sigma0 - 1] = x0
    for k in range(horizon):
        pushed = np.einsum("iab,ib->ia", system.modes, q[k])
        q[k + 1] = np.einsum("ij,ia->ja", system.transition, pushed)
    return q


@dataclass(frozen=True)
class QRecursionReport:
    # analytic vec identity: max over steps of |Q(k+1) - T_1 Q(k)|_inf over
    # | |T_1| |Q(k)| |_inf, taken as 0 where that is 0; nan when a step's
    # moments are not finite, so that it could not be checked
    max_residual: float
    mc_max_sigma: float  # worst |MC - analytic| in standard errors
    mc_agrees: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_q_recursion(system: MarkovJumpSystem, plan: SimulationPlan) -> QRecursionReport:
    """Verify that stacked conditional moments evolve by the lifted operator
    T_1, the system's ``expected_symmetric_power(1)``.

    The analytic residual max_k ||vec Q(k+1) - T_1 vec Q(k)|| is an exact
    algebraic identity, each step's taken relative to || |T_1| |vec Q(k)| ||
    (max norms), the sum of the absolute terms, so it sits at rounding level
    however large Q grows and where the terms cancel; it is nan from a step
    whose moments or terms are not finite, which is unchecked. The Monte
    Carlo cross-check compares simulated conditional moments against the
    analytic ones within four standard errors, so it needs at least 2 paths.
    The entry cap counts the 2 d states and terms per path, and the (horizon+1)
    N d entries that Q, its Monte Carlo means and their errors each hold.
    """
    if plan.paths < 2:
        raise ValueError(f"the conditional-moment check needs at least 2 paths, got {plan.paths}")
    sigma0 = _initial_mode(system, plan.initial_mode, "the conditional-moment check")
    d, n = system.dim, plan.paths
    _check_plan(plan, d, 2 * d, "conditional-moment states and terms")
    q = propagate_conditional_moments(system, plan.initial_state, sigma0, plan.horizon)
    t1 = system.expected_symmetric_power(1)  # T_1: Sym^1 is R^d
    abs_t1, residual = np.abs(t1), 0.0
    with np.errstate(all="ignore"):
        for k in range(plan.horizon):
            x = q[k].reshape(-1)
            scale = float(np.max(abs_t1 @ np.abs(x)))
            error = float(np.max(np.abs(q[k + 1].reshape(-1) - t1 @ x)))
            if not np.isfinite([scale, error]).all():
                residual = np.nan
                break
            if scale > 0.0:
                residual = max(residual, error / scale)

    # simulated Q_i(k): the mean over all paths of x(k) 1{mode k = i}, with
    # its ddof-1 standard deviation, each summed as numpy's mean and std sum
    q_mc = np.zeros_like(q)
    stderr = np.zeros_like(q)
    with np.errstate(all="ignore"):
        for k, x, modes in _lockstep(system, plan):
            for i in range(system.n_modes):
                terms = x * (modes == i)[:, None]
                mean = q_mc[k, i] = _fold(terms) / n
                np.square(np.subtract(terms, mean, out=terms), out=terms)
                stderr[k, i] = np.sqrt(_fold(terms) / (n - 1)) / np.sqrt(n)
    diff = np.abs(q_mc - q)
    # deterministic components (stderr 0) must agree to rounding noise
    scale = np.maximum(np.abs(q), 1.0)
    sigma = diff / np.maximum(stderr, 1e-12 * scale)
    max_sigma = float(sigma.max())
    return QRecursionReport(
        max_residual=residual, mc_max_sigma=max_sigma, mc_agrees=bool(max_sigma <= 4.0)
    )


# ---------------------------------------------------------------------------
# Decay-rate readout and CSV emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayEstimate:
    rate: float
    rate_stderr: float
    slope: float
    slope_stderr: float

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_decay_rate(series: MomentSeries) -> DecayEstimate:
    """Per-step decay rate from ordinary least squares on the log means.

    Uses the second half of the horizon, where the dominant mode has
    settled. The rate is exp(slope) with a delta-method standard error.
    """
    means = series.means
    ks = np.arange(means.shape[0])
    start = means.shape[0] // 2
    ks, ys = ks[start:], means[start:]
    keep = np.isfinite(ys) & (ys > 0)
    ks, ys = ks[keep], np.log(ys[keep])
    if ks.size < 3:
        raise ValueError("not enough positive entries for a decay fit")
    design = np.stack([ks, np.ones_like(ks)], axis=1).astype(float)
    coef, res, *_ = np.linalg.lstsq(design, ys, rcond=None)
    slope = float(coef[0])
    dof = ks.size - 2
    sse = float(res[0]) if res.size else float(np.sum((ys - design @ coef) ** 2))
    slope_var = sse / dof / float(np.sum((ks - ks.mean()) ** 2)) if dof > 0 else 0.0
    slope_se = float(np.sqrt(slope_var))
    rate = float(np.exp(slope))
    return DecayEstimate(
        rate=rate, rate_stderr=rate * slope_se, slope=slope, slope_stderr=slope_se
    )


def write_moment_csv(path, series: MomentSeries) -> None:
    """One row per step: k, mean, stderr. Full-precision decimal notation."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mean", "stderr"])
        for k in range(len(series)):
            writer.writerow([k, repr(float(series.means[k])), repr(float(series.stderrs[k]))])
