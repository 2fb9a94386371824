import contextlib
import ctypes
import glob
import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from switchstab import (
    AssumptionError,
    AtomicDistribution,
    MarkovJumpSystem,
    UniformEntriesDistribution,
)


@pytest.fixture
def interval_box():
    """2x2 interval-box benchmark: entries uniform on the stated ranges."""
    return UniformEntriesDistribution(
        lower=np.zeros((2, 2)),
        upper=np.array([[1.5, 1.8], [0.15, 1.2]]),
    )


@pytest.fixture
def three_mode_system():
    """Three-mode jump benchmark with input vectors and a feedback row."""
    return MarkovJumpSystem(
        transition=np.array([[0.3, 0.5, 0.2], [0.5, 0.3, 0.2], [0.2, 0.2, 0.6]]),
        modes=np.array(
            [
                [[0.32, 0.49], [0.24, 0.33]],
                [[0.53, 0.65], [0.75, 0.85]],
                [[1.50, 0.51], [0.18, 0.69]],
            ]
        ),
        input_vectors=np.array([[-0.56, 0.39], [0.40, -1.70], [-0.37, -0.49]]),
        feedback=np.array([0.36, 0.50]),
        initial_mode=1,
    )


def scalar_uniform(gamma: float) -> UniformEntriesDistribution:
    return UniformEntriesDistribution(
        lower=np.array([[0.0]]), upper=np.array([[float(gamma)]])
    )


def random_atomic(rng, n_atoms=2, dim=2, target_r2=None):
    """Random finite law; optionally rescaled to a given mean-square radius."""
    from switchstab import p_radius

    probs = rng.dirichlet(np.ones(n_atoms))
    # keep probabilities clear of 0 so they stay in (0, 1]
    probs = 0.9 * probs + 0.1 / n_atoms
    probs /= probs.sum()
    atoms = rng.standard_normal((n_atoms, dim, dim))
    dist = AtomicDistribution(probabilities=probs, atoms=atoms)
    if target_r2 is not None:
        r2 = p_radius(dist, 2).value
        dist = AtomicDistribution(probabilities=probs, atoms=atoms * (target_r2 / r2))
    return dist


def expected_matrix(dist):
    """Exact E[A] for an atomic law or a uniform box, without moment tables:
    the probability-weighted atoms or the interval midpoints."""
    if isinstance(dist, AtomicDistribution):
        return np.einsum("n,nij->ij", dist.probabilities, dist.atoms)
    return 0.5 * (dist.lower + dist.upper)


def expected_sandwich(dist, x):
    """Exact E[A.T @ x @ A] for an atomic law or a uniform box, computed
    without Kronecker lifts: the independent oracle of the certificate
    equation H = I + E[A.T H A]."""
    x = np.asarray(x, dtype=float)
    if isinstance(dist, AtomicDistribution):
        return np.einsum("n,nki,kl,nlj->ij", dist.probabilities, dist.atoms, x, dist.atoms)
    # E[(A.T X A)_ij] = sum_{k,l} X_kl E[a_ki a_lj]; entries factor except
    # when (k,i) == (l,j), which contributes the per-entry variance.
    mean = expected_matrix(dist)
    var = dist.entry_moment(2) - mean**2
    out = mean.T @ x @ mean
    out[np.diag_indices_from(out)] += np.diagonal(x) @ var
    return out


def is_positive_semidefinite(s, tol):
    """True iff the symmetric part of s has minimum eigenvalue >= -tol.

    s must be symmetric to within tol; larger asymmetry is a usage error.
    """
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix contains non-finite entries")
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if float(np.max(np.abs(s - s.T))) > tol:
        raise AssumptionError("matrix is asymmetric beyond the stated tolerance")
    sym = 0.5 * (s + s.T)
    return float(np.linalg.eigvalsh(sym).min()) >= -tol


# ---------------------------------------------------------------------------
# Monte Carlo oracles: the simulator with whole-array draws and reductions
# ---------------------------------------------------------------------------


def _first_index_oracle(u, cum):
    """Index drawn by each uniform from cumulative probabilities along the
    last axis, from the full (n, m) comparison array."""
    return np.minimum((u[:, None] >= cum).sum(axis=-1), cum.shape[-1] - 1)


def simulate_paths_oracle(law, plan, mode_dtype=None):
    """Paths and, for a Markov system, modes of a simulation: chunk c of
    ``CHUNK`` paths draws from the Philox stream SeedSequence(seed,
    spawn_key=(c,)), one step of every path of the chunk at a time. Modes
    are drawn as int64 and returned as ``mode_dtype``, by default the
    smallest signed integer dtype that holds N - 1."""
    from switchstab.mcsim import CHUNK

    markov = isinstance(law, MarkovJumpSystem)
    n, h, d = plan.paths, plan.horizon, law.dim
    paths = np.empty((n, h + 1, d))
    modes = np.empty((n, h + 1), dtype=np.int64) if markov else None
    for c, start in enumerate(range(0, n, CHUNK)):
        sl = slice(start, min(start + CHUNK, n))
        m = sl.stop - sl.start
        ss = np.random.SeedSequence(entropy=plan.seed, spawn_key=(c,))
        rng = np.random.Generator(np.random.Philox(ss))
        x = np.broadcast_to(plan.initial_state, (m, d)).copy()
        paths[sl, 0] = x
        if markov:
            modes[sl, 0] = (plan.initial_mode or law.initial_mode) - 1
        for k in range(1, h + 1):
            if markov:
                sigma = modes[sl, k - 1]
                cum = np.cumsum(law.transition, axis=1)[sigma]
                modes[sl, k] = _first_index_oracle(rng.random(m), cum)
                draws = law.modes[sigma]
            elif isinstance(law, AtomicDistribution):
                draws = law.atoms[_first_index_oracle(rng.random(m), np.cumsum(law.probabilities))]
            else:
                draws = law.lower + rng.random((m, d, d)) * (law.upper - law.lower)
            x = np.einsum("nij,nj->ni", draws, x)
            paths[sl, k] = x
    if markov:
        modes = modes.astype(mode_dtype or np.min_scalar_type(-law.n_modes))
    return paths, modes


def moment_series_oracle(values, label):
    """Moment series of per-path values (n_paths, horizon+1) from whole-array
    masked sums."""
    from switchstab import MomentSeries

    finite = np.isfinite(values)
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
        means=means, stderrs=stderrs, norm_label=label, n_valid=n_valid.astype(int),
        truncated_paths=truncated,
    )


def simulation_oracle(law, plan, certificate=None):
    """``(paths, modes, euclidean, certificate)`` of a simulation, with the
    norms and certificate values of all paths built as whole arrays."""
    from switchstab import evaluate_rows

    paths, modes = simulate_paths_oracle(law, plan)
    n, h, p = plan.paths, plan.horizon, plan.moment_exponent
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(paths, axis=2) ** p
        values = None
        if certificate is not None:
            values = evaluate_rows(certificate, paths.reshape(-1, law.dim)).reshape(n, h + 1)
    euclid = moment_series_oracle(norms, f"euclidean^{p}")
    cert = None if values is None else moment_series_oracle(values, "certificate")
    return paths, modes, euclid, cert


def q_recursion_oracle(system, plan):
    """The conditional-moment report with each mode's simulated mean and
    ddof-1 deviation taken by numpy over the whole masked path array of
    :func:`simulate_paths_oracle`, and each step's analytic residual taken
    relative to the max norm of |T_1| |Q(k)|; nan from the first step whose
    moments or terms are not finite."""
    from switchstab import QRecursionReport, propagate_conditional_moments

    sigma0 = plan.initial_mode or system.initial_mode
    q = propagate_conditional_moments(system, plan.initial_state, sigma0, plan.horizon)
    t1 = system.expected_kron_power(1)
    residual = 0.0
    with np.errstate(all="ignore"):
        for k in range(plan.horizon):
            lhs, rhs = q[k + 1].reshape(-1), t1 @ q[k].reshape(-1)
            scale = float(np.max(np.abs(t1) @ np.abs(q[k].reshape(-1))))
            error = float(np.max(np.abs(lhs - rhs)))
            if not (math.isfinite(scale) and math.isfinite(error)):
                residual = math.nan
                break
            if scale > 0.0:
                residual = max(residual, error / scale)
    paths, modes = simulate_paths_oracle(system, plan)
    q_mc = np.zeros_like(q)
    stderr = np.zeros_like(q)
    for i in range(system.n_modes):
        vals = paths * (modes == i)[:, :, None]
        q_mc[:, i, :] = vals.mean(axis=0)
        stderr[:, i, :] = vals.std(axis=0, ddof=1) / np.sqrt(plan.paths)
    diff = np.abs(q_mc - q)
    scale = np.maximum(np.abs(q), 1.0)
    sigma = diff / np.maximum(stderr, 1e-12 * scale)
    max_sigma = float(sigma.max())
    return QRecursionReport(
        max_residual=residual, mc_max_sigma=max_sigma, mc_agrees=bool(max_sigma <= 4.0)
    )


def _bundled_openblas():
    """``(get, set)`` thread-count functions of the OpenBLAS that a numpy
    wheel bundles in ``numpy.libs``, or None where there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n):
    """Run the block with BLAS at ``n`` threads where the bundled OpenBLAS
    can be reached, and at its default elsewhere; yields whether it was set."""
    functions = _bundled_openblas()
    if functions is None:
        yield False
        return
    get, set_ = functions
    before = get()
    set_(n)
    try:
        yield True
    finally:
        set_(before)


def traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` executes."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Fresh-interpreter jobs, run side by side
# ---------------------------------------------------------------------------


#: the environment at collection: spawned processes run beside in-process
#: tests, whose monkeypatched variables (such as a lowered entry cap) they
#: must not inherit
SESSION_ENV = dict(os.environ)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "spawns(job): job(cwd, **params) runs fresh interpreters in cwd; "
        "the test reads what it returns from the `spawned` fixture",
    )


@pytest.fixture(scope="session", autouse=True)
def _spawned_jobs(request, tmp_path_factory):
    """Futures of the ``spawns`` jobs of every selected test, by node id.
    All are submitted when the session starts and run at most
    ``os.cpu_count()`` at a time, each in a directory of its own and with
    its test's parameters, so interpreter start-ups overlap one another and
    the in-process tests."""
    marked = [(item, item.get_closest_marker("spawns")) for item in request.session.items]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        yield {
            item.nodeid: pool.submit(
                mark.kwargs["job"],
                tmp_path_factory.mktemp("spawned"),
                **(item.callspec.params if hasattr(item, "callspec") else {}),
            )
            for item, mark in marked
            if mark is not None
        }


@pytest.fixture
def spawned(request, _spawned_jobs):
    """What the test's ``spawns`` job returned; its errors are raised here."""
    return _spawned_jobs[request.node.nodeid].result()
