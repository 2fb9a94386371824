"""Monte Carlo simulation with reproducible, worker-count-invariant streams.

Paths are processed in fixed-size chunks; chunk c draws from a Philox
counter-based stream spawned as SeedSequence(seed, spawn_key=(c,)). Chunking
is independent of the thread count and all reductions run serially over the
per-path arrays in path order, so output is bit-identical for any
``threads`` setting.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import AssumptionError
from .linalg import check_entry_cap
from .lyapunov import LyapunovCertificate, evaluate_rows
from .models import (
    AtomicDistribution,
    MarkovJumpSystem,
    MatrixDistribution,
    UniformEntriesDistribution,
)
from .radius import markov_tp

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
    paths: np.ndarray  # (n_paths, horizon+1, d)
    euclidean: MomentSeries
    certificate: MomentSeries | None = None
    modes: np.ndarray | None = None  # (n_paths, horizon+1), 0-based; Markov runs only


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def atom_indices(dist: AtomicDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """Indices of ``n`` atoms drawn from a finite law, advancing ``rng`` as
    :func:`sample_matrix` does for the same draws."""
    cum = np.cumsum(dist.probabilities)
    return np.minimum((rng.random(n)[:, None] >= cum[None, :]).sum(axis=1), len(cum) - 1)


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


def _moment_series(values: np.ndarray, label: str) -> MomentSeries:
    """Reduce per-path values (n_paths, horizon+1) in fixed path order."""
    finite = np.isfinite(values)
    # a path is excluded from its first non-finite step onward
    valid = np.logical_and.accumulate(finite, axis=1)
    n_valid = valid.sum(axis=0)
    masked = np.where(valid, values, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = masked.sum(axis=0) / np.maximum(n_valid, 1)
        centered = np.where(valid, values - means[None, :], 0.0)
        var = (centered**2).sum(axis=0) / np.maximum(n_valid - 1, 1)
        stderrs = np.sqrt(var / np.maximum(n_valid, 1))
    means = np.where(n_valid > 0, means, np.nan)
    stderrs = np.where(n_valid > 1, stderrs, 0.0)
    truncated = int(values.shape[0] - valid[:, -1].sum())
    return MomentSeries(
        means=means,
        stderrs=stderrs,
        norm_label=label,
        n_valid=n_valid.astype(int),
        truncated_paths=truncated,
    )


def _check_plan(plan: SimulationPlan, d: int) -> None:
    """Reject an initial state of the wrong dimension, then a path array
    larger than the entry cap (the Markov mode array is no larger)."""
    if plan.initial_state.shape != (d,):
        raise ValueError(f"initial state must have dimension {d}")
    check_entry_cap(plan.paths * (plan.horizon + 1) * d, "simulation paths")


def _simulate(
    plan: SimulationPlan, d: int, threads: int, start, certificate=None
) -> SimulationResult:
    """Run x(k+1) = A_k x(k) over the plan's paths in fixed-size chunks.

    ``start(rng, sl)`` is called once per chunk with the chunk's stream and
    path slice, and returns ``draw(k)``: the stack of step-k matrices,
    A_(k-1), for the chunk's paths. Returns the paths with their Euclidean
    moment series and, given a certificate, its value series.
    """
    n, h, p = plan.paths, plan.horizon, plan.moment_exponent
    if certificate is not None:
        # evaluate_rows lifts every state to d^q coordinates
        check_entry_cap(n * (h + 1) * d**certificate.lift_power, "simulated certificate rows")
    states = np.empty((n, h + 1, d))

    def worker(chunk_idx: int) -> None:
        sl = slice(chunk_idx * CHUNK, min((chunk_idx + 1) * CHUNK, n))
        draw = start(_chunk_rng(plan.seed, chunk_idx), sl)
        x = np.broadcast_to(plan.initial_state, (sl.stop - sl.start, d)).copy()
        states[sl, 0] = x
        for k in range(1, h + 1):
            x = np.einsum("nij,nj->ni", draw(k), x)
            states[sl, k] = x

    chunks = range((n + CHUNK - 1) // CHUNK)
    if threads <= 1:
        for c in chunks:
            worker(c)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, chunks))

    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(states, axis=2) ** p
    euclid = _moment_series(norms, f"euclidean^{p}")
    cert_series = None
    if certificate is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = evaluate_rows(certificate, states.reshape(-1, d)).reshape(n, h + 1)
        cert_series = _moment_series(vals, "certificate")
    return SimulationResult(paths=states, euclidean=euclid, certificate=cert_series)


def simulate_iid(
    dist: MatrixDistribution,
    plan: SimulationPlan,
    certificate: LyapunovCertificate | None = None,
    threads: int = 1,
) -> SimulationResult:
    """Simulate x(k+1) = A_k x(k) with A_k drawn independently from the law.

    Returns the raw paths, the sample moments of the Euclidean norm raised
    to the plan's exponent, and optionally the certificate-value series.
    """
    d = dist.dim
    _check_plan(plan, d)

    def start(rng, sl):
        return lambda k: sample_matrix(dist, rng, size=sl.stop - sl.start)

    return _simulate(plan, d, threads, start, certificate)


def _initial_mode(system: MarkovJumpSystem, sigma0: int | None, needed_by: str) -> int:
    """The 1-based initial mode ``sigma0``, else the system's, checked to lie
    in 1..N; ``needed_by`` names the computation in the error for neither."""
    sigma0 = system.initial_mode if sigma0 is None else sigma0
    if sigma0 is None:
        raise AssumptionError(f"{needed_by} requires an initial mode")
    if not 1 <= sigma0 <= system.n_modes:
        raise ValueError(f"initial mode must lie in 1..{system.n_modes}")
    return sigma0


def simulate_markov(
    system: MarkovJumpSystem, plan: SimulationPlan, threads: int = 1
) -> SimulationResult:
    """Simulate x(k+1) = M_(mode k) x(k) with the mode chain driven by the
    transition matrix from the plan's initial mode; the result carries the
    0-based mode of every path at every step."""
    _check_plan(plan, system.dim)
    sigma0 = _initial_mode(system, plan.initial_mode, "Markov simulation")
    modes = np.empty((plan.paths, plan.horizon + 1), dtype=np.int64)
    cum_rows = np.cumsum(system.transition, axis=1)

    def start(rng, sl):
        m = sl.stop - sl.start
        modes[sl, 0] = sigma0 - 1

        def draw(k):
            sigma = modes[sl, k - 1]
            u = rng.random(m)
            modes[sl, k] = np.minimum(
                (u[:, None] >= cum_rows[sigma]).sum(axis=1), system.n_modes - 1
            )
            return system.modes[sigma]

        return draw

    return replace(_simulate(plan, system.dim, threads, start), modes=modes)


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


@dataclass(frozen=True)
class QRecursionReport:
    max_residual: float  # analytic vec identity, max over steps
    mc_max_sigma: float  # worst |MC - analytic| in standard errors
    mc_agrees: bool

    def to_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "mc_max_sigma": self.mc_max_sigma,
            "mc_agrees": self.mc_agrees,
        }


def check_q_recursion(system: MarkovJumpSystem, plan: SimulationPlan) -> QRecursionReport:
    """Verify that stacked conditional moments evolve by the lifted operator.

    The analytic residual max_k ||vec Q(k+1) - T_1 vec Q(k)|| is an exact
    algebraic identity and should sit at rounding level. The Monte Carlo
    cross-check compares simulated conditional moments against the analytic
    ones within four standard errors.
    """
    sigma0 = _initial_mode(system, plan.initial_mode, "the conditional-moment check")
    q = propagate_conditional_moments(system, plan.initial_state, sigma0, plan.horizon)
    t1 = markov_tp(system, 1)
    residual = 0.0
    for k in range(plan.horizon):
        lhs = q[k + 1].reshape(-1)
        rhs = t1 @ q[k].reshape(-1)
        residual = max(residual, float(np.max(np.abs(lhs - rhs))))

    sim = simulate_markov(system, plan)
    # simulated Q_i(k): the mean over all paths of x(k) 1{mode k = i}
    q_mc = np.zeros_like(q)
    stderr = np.zeros_like(q)
    for i in range(system.n_modes):
        vals = sim.paths * (sim.modes == i)[:, :, None]
        q_mc[:, i, :] = vals.mean(axis=0)
        stderr[:, i, :] = vals.std(axis=0, ddof=1) / np.sqrt(plan.paths)
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
        return {
            "rate": self.rate,
            "rate_stderr": self.rate_stderr,
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
        }


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
