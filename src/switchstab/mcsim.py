"""Monte Carlo simulation with reproducible, worker-count-invariant streams.

Paths are processed in fixed-size chunks; chunk c draws from a Philox
counter-based stream spawned as SeedSequence(seed, spawn_key=(c,)). The
chunk workers of :func:`simulate_iid` and :func:`simulate_markov` keep only
each step's states (and current modes), and write each path's values at
that step into (paths, horizon+1) buffers: the norm, and the certificate
value, which is computed from its own row alone and so does not depend on
how many paths a chunk holds. Each moment series is reduced from its buffer
CHUNK paths at a time, and sums over paths add the rows in path order
exactly as numpy's axis-0 sum of the whole array does. So the working set
is one or two value buffers and per-chunk temporaries, and no path is kept;
:func:`simulate_paths` returns the states (and modes) of the same paths.
Chunking is independent of the thread count and no value passes through
BLAS, so output is bit-identical for any ``threads`` setting and BLAS
thread count.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
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

#: paths per RNG chunk; fixed so results do not depend on the worker count
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


def _path_sum(n: int, shape: tuple[int, ...], fill) -> np.ndarray:
    """Sum over n paths of the per-path rows that ``fill(sl, out)`` writes
    into ``out`` for the paths of slice ``sl``, CHUNK paths at a time.

    Each block goes into rows 1.. of a buffer whose row 0 holds the running
    total, and each block sum adds its rows in order. numpy's axis-0 sum of
    the whole (n, *shape) array adds rows in the same order whenever a row
    holds at least two values, so the two sums agree bit for bit.
    """
    buf = np.empty((CHUNK + 1, *shape))
    first = 1  # the first block has no running total before it
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        fill(slice(start, stop), buf[1 : stop - start + 1])
        buf[0] = buf[first : stop - start + 1].sum(axis=0)
        first = 0
    return buf[0].copy()


def _moment_series(values: np.ndarray, label: str) -> MomentSeries:
    """Reduce the (paths, horizon+1) per-path values in fixed path order,
    CHUNK paths at a time in each of the two passes."""
    n, width = values.shape
    n_valid = np.zeros(width, dtype=np.int64)

    def chunk(sl):
        """Values of the paths of slice sl, and the steps each counts at: a
        path is excluded from its first non-finite step onward."""
        v = values[sl]
        return v, np.logical_and.accumulate(np.isfinite(v), axis=1)

    def masked(sl, out):
        v, valid = chunk(sl)
        n_valid[:] += valid.sum(axis=0)
        np.copyto(out, v)
        out[~valid] = 0.0

    with np.errstate(invalid="ignore", divide="ignore"):
        means = _path_sum(n, (width,), masked) / np.maximum(n_valid, 1)

        def squared_deviations(sl, out):
            v, valid = chunk(sl)
            np.subtract(v, means, out=out)
            out[~valid] = 0.0
            np.square(out, out=out)

        var = _path_sum(n, (width,), squared_deviations) / np.maximum(n_valid - 1, 1)
        stderrs = np.sqrt(var / np.maximum(n_valid, 1))
    means = np.where(n_valid > 0, means, np.nan)
    stderrs = np.where(n_valid > 1, stderrs, 0.0)
    return MomentSeries(
        means=means,
        stderrs=stderrs,
        norm_label=label,
        n_valid=n_valid.astype(int),
        truncated_paths=int(n - n_valid[-1]),
    )


def _check_plan(plan: SimulationPlan, d: int, width: int, context: str) -> None:
    """Reject an initial state of the wrong dimension, then per-path arrays
    of (horizon+1) x ``width`` entries larger than the entry cap."""
    if plan.initial_state.shape != (d,):
        raise ValueError(f"initial state must have dimension {d}")
    check_entry_cap(plan.paths * (plan.horizon + 1) * width, context)


def _run_chunks(plan: SimulationPlan, d: int, threads: int, start, record) -> None:
    """Run x(k+1) = A_k x(k) over the plan's paths in fixed-size chunks.

    ``start(rng, sl)`` is called once per chunk with the chunk's stream and
    path slice, and returns ``draw(k)``: the stack of step-k matrices,
    A_(k-1), for the chunk's paths. ``record(sl, k, x)`` is given the
    chunk's states at each step k in turn. Each worker sets its own error
    state: overflowed paths are expected and truncated by the moment series.
    """
    n, h = plan.paths, plan.horizon

    def worker(chunk_idx: int) -> None:
        sl = slice(chunk_idx * CHUNK, min((chunk_idx + 1) * CHUNK, n))
        draw = start(_chunk_rng(plan.seed, chunk_idx), sl)
        x = np.broadcast_to(plan.initial_state, (sl.stop - sl.start, d)).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(h + 1):
                if k:
                    x = np.einsum("nij,nj->ni", draw(k), x)
                record(sl, k, x)

    chunks = range((n + CHUNK - 1) // CHUNK)
    if threads <= 1:
        for c in chunks:
            worker(c)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, chunks))


def _simulate(
    plan: SimulationPlan, d: int, threads: int, start, certificate=None
) -> SimulationResult:
    """Simulate the paths of a checked plan and reduce them to moment series.

    The chunk workers write each step's Euclidean norm to the plan's
    exponent and, given a certificate, its value into (paths, horizon+1)
    buffers; a worker holds the states of one step of its chunk. The series
    are reduced from these buffers.
    """
    n, h, p = plan.paths, plan.horizon, plan.moment_exponent
    if certificate is not None:
        from .lyapunov import evaluate_rows

        # the monomials of one step of a chunk
        check_entry_cap(min(n, CHUNK) * len(certificate.weights), "simulated certificate rows")
        cert_values = np.empty((n, h + 1))
    norms = np.empty((n, h + 1))

    def record(sl, k, x):
        norms[sl, k] = np.linalg.norm(x, axis=1) ** p
        if certificate is not None:
            cert_values[sl, k] = evaluate_rows(certificate, x)

    _run_chunks(plan, d, threads, start, record)
    euclid = _moment_series(norms, f"euclidean^{p}")
    cert_series = None if certificate is None else _moment_series(cert_values, "certificate")
    return SimulationResult(euclidean=euclid, certificate=cert_series)


def _iid_start(dist: MatrixDistribution):
    def start(rng, sl):
        return lambda k: sample_matrix(dist, rng, size=sl.stop - sl.start)

    return start


def simulate_iid(
    dist: MatrixDistribution,
    plan: SimulationPlan,
    certificate: LyapunovCertificate | None = None,
    threads: int = 1,
) -> SimulationResult:
    """Simulate x(k+1) = A_k x(k) with A_k drawn independently from the law.

    Returns the sample moments of the Euclidean norm raised to the plan's
    exponent and optionally the certificate-value series; the paths
    themselves are not kept (see :func:`simulate_paths`).
    """
    _check_plan(plan, dist.dim, 1, "simulation values")
    return _simulate(plan, dist.dim, threads, _iid_start(dist), certificate)


def _initial_mode(system: MarkovJumpSystem, sigma0: int | None, needed_by: str) -> int:
    """The 1-based initial mode ``sigma0``, else the system's, checked to lie
    in 1..N; ``needed_by`` names the computation in the error for neither."""
    sigma0 = system.initial_mode if sigma0 is None else sigma0
    if sigma0 is None:
        raise AssumptionError(f"{needed_by} requires an initial mode")
    if not 1 <= sigma0 <= system.n_modes:
        raise ValueError(f"initial mode must lie in 1..{system.n_modes}")
    return sigma0


def _markov_start(system: MarkovJumpSystem, plan: SimulationPlan, modes: np.ndarray | None):
    """Chunk start for the mode chain from the plan's initial mode: each
    chunk keeps its paths' current modes and, given ``modes``, writes the
    0-based mode of every step there."""
    sigma0 = _initial_mode(system, plan.initial_mode, "Markov simulation")
    cum_rows = np.cumsum(system.transition, axis=1)

    def start(rng, sl):
        m = sl.stop - sl.start
        sigma = np.full(m, sigma0 - 1)
        if modes is not None:
            modes[sl, 0] = sigma

        def draw(k):
            nonlocal sigma
            matrices = system.modes[sigma]
            sigma = _inverse_cdf(rng.random(m), cum_rows[sigma])
            if modes is not None:
                modes[sl, k] = sigma
            return matrices

        return draw

    return start


def simulate_markov(
    system: MarkovJumpSystem, plan: SimulationPlan, threads: int = 1
) -> SimulationResult:
    """Simulate x(k+1) = M_(mode k) x(k) with the mode chain driven by the
    transition matrix from the plan's initial mode, and return the moment
    series of the Euclidean norm; neither paths nor modes are kept."""
    _check_plan(plan, system.dim, 1, "simulation values")
    return _simulate(plan, system.dim, threads, _markov_start(system, plan, None))


def simulate_paths(
    problem: MatrixDistribution | MarkovJumpSystem, plan: SimulationPlan, threads: int = 1
) -> tuple[np.ndarray, np.ndarray | None]:
    """The states of every simulated path, (paths, horizon+1, d), and for a
    Markov system the 0-based mode of every path at every step,
    (paths, horizon+1), int8 up to 128 modes (None for an i.i.d. law).

    The paths are those that :func:`simulate_iid` and
    :func:`simulate_markov` reduce, bit for bit, at any thread count; the
    entry cap counts the states.
    """
    d = problem.dim
    _check_plan(plan, d, d, "simulation paths")
    states = np.empty((plan.paths, plan.horizon + 1, d))
    modes = None
    if isinstance(problem, MarkovJumpSystem):
        dtype = np.min_scalar_type(-problem.n_modes)
        modes = np.empty((plan.paths, plan.horizon + 1), dtype=dtype)
        start = _markov_start(problem, plan, modes)
    else:
        start = _iid_start(problem)

    def record(sl, k, x):
        states[sl, k] = x

    _run_chunks(plan, d, threads, start, record)
    return states, modes


# ---------------------------------------------------------------------------
# Conditional-moment recursion
# ---------------------------------------------------------------------------


def propagate_conditional_moments(
    system: MarkovJumpSystem, x0: np.ndarray, sigma0: int, horizon: int
) -> np.ndarray:
    """Exact conditional first moments Q_i(k) = E[x(k) 1{mode k = i}].

    Q_i(0) is x0 for the initial mode and zero elsewhere, and
    Q_j(k+1) = sum_i P[i, j] M_i Q_i(k).
    """
    x0 = np.asarray(x0, dtype=float)
    n_modes, d = system.n_modes, system.dim
    sigma0 = _initial_mode(system, sigma0, "conditional-moment propagation")
    q = np.zeros((horizon + 1, n_modes, d))
    q[0, sigma0 - 1] = x0
    for k in range(horizon):
        pushed = np.einsum("iab,ib->ia", system.modes, q[k])
        q[k + 1] = np.einsum("ij,ia->ja", system.transition, pushed)
    return q


def _mode_terms(states: np.ndarray, modes: np.ndarray, i: int, mean: np.ndarray | None = None):
    """Fill for :func:`_path_sum` with the terms x(k) 1{mode k = i} of each
    path or, given their mean, the squared deviations from it."""

    def fill(sl, out):
        np.multiply(states[sl], (modes[sl] == i)[:, :, None], out=out)
        if mean is not None:
            np.subtract(out, mean, out=out)
            np.square(out, out=out)

    return fill


@dataclass(frozen=True)
class QRecursionReport:
    max_residual: float  # analytic vec identity, max over steps
    mc_max_sigma: float  # worst |MC - analytic| in standard errors
    mc_agrees: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_q_recursion(system: MarkovJumpSystem, plan: SimulationPlan) -> QRecursionReport:
    """Verify that stacked conditional moments evolve by the lifted operator.

    The analytic residual max_k ||vec Q(k+1) - T_1 vec Q(k)|| is an exact
    algebraic identity and should sit at rounding level. The Monte Carlo
    cross-check compares simulated conditional moments against the analytic
    ones within four standard errors, so it needs at least 2 paths.
    """
    from .radius import markov_tp

    if plan.paths < 2:
        raise ValueError(f"the conditional-moment check needs at least 2 paths, got {plan.paths}")
    sigma0 = _initial_mode(system, plan.initial_mode, "the conditional-moment check")
    q = propagate_conditional_moments(system, plan.initial_state, sigma0, plan.horizon)
    t1 = markov_tp(system, 1)
    residual = 0.0
    for k in range(plan.horizon):
        lhs = q[k + 1].reshape(-1)
        rhs = t1 @ q[k].reshape(-1)
        residual = max(residual, float(np.max(np.abs(lhs - rhs))))

    states, modes = simulate_paths(system, plan)
    n, shape = plan.paths, (plan.horizon + 1, system.dim)
    # simulated Q_i(k): the mean over all paths of x(k) 1{mode k = i}, with
    # its ddof-1 standard deviation, each summed as numpy's mean and std sum
    q_mc = np.zeros_like(q)
    stderr = np.zeros_like(q)
    for i in range(system.n_modes):
        mean = _path_sum(n, shape, _mode_terms(states, modes, i)) / n
        var = _path_sum(n, shape, _mode_terms(states, modes, i, mean)) / (n - 1)
        q_mc[:, i, :] = mean
        stderr[:, i, :] = np.sqrt(var) / np.sqrt(n)
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
