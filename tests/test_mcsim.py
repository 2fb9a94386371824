import sys
import tempfile
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchstab import (
    AssumptionError,
    AtomicDistribution,
    ConeNormCertificate,
    DimensionCapError,
    MarkovJumpSystem,
    QuadraticCertificate,
    SimulationPlan,
    UniformEntriesDistribution,
    apply_feedback,
    check_q_recursion,
    estimate_decay_rate,
    p_radius,
    propagate_conditional_moments,
    sample_matrix,
    simulate_iid,
    simulate_markov,
    simulate_paths,
    synthesize_cone_norm,
    write_moment_csv,
)
from conftest import (
    blas_threads,
    q_recursion_oracle,
    scalar_uniform,
    simulate_paths_oracle,
    simulation_oracle,
)


def single_atom(m):
    return AtomicDistribution(probabilities=np.array([1.0]), atoms=np.array([m]))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_single_atom_is_constant():
    m = np.array([[0.1, 0.2], [0.3, 0.4]])
    rng = np.random.default_rng(0)
    out = sample_matrix(single_atom(m), rng, size=50)
    assert np.all(out == m)


def test_sample_degenerate_uniform_is_constant():
    from switchstab import UniformEntriesDistribution

    m = np.array([[0.5, -1.0], [2.0, 0.0]])
    dist = UniformEntriesDistribution(lower=m, upper=m)
    rng = np.random.default_rng(0)
    out = sample_matrix(dist, rng, size=20)
    assert np.all(out == m)


def test_sample_atomic_frequencies():
    m1, m2 = np.eye(2), np.zeros((2, 2))
    dist = AtomicDistribution(probabilities=np.array([0.25, 0.75]), atoms=np.array([m1, m2]))
    rng = np.random.default_rng(17)
    out = sample_matrix(dist, rng, size=100_000)
    freq = np.mean(out[:, 0, 0] == 1.0)
    assert abs(freq - 0.25) <= 0.006  # binomial four-sigma band


def test_sample_advances_state_deterministically():
    dist = scalar_uniform(1.0)
    a = sample_matrix(dist, np.random.default_rng(5), size=4)
    b = sample_matrix(dist, np.random.default_rng(5), size=4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# iid simulation
# ---------------------------------------------------------------------------


def test_deterministic_contraction_series_is_exact():
    plan = SimulationPlan(paths=50, horizon=12, seed=1, initial_state=np.array([1.0, 0.0]))
    result = simulate_iid(single_atom(0.5 * np.eye(2)), plan)
    expected = 0.5 ** np.arange(13)
    assert np.array_equal(result.euclidean.means, expected)
    assert np.all(result.euclidean.stderrs == 0.0)
    assert result.euclidean.truncated_paths == 0


@pytest.mark.parametrize("p", [1, 2])
def test_scalar_uniform_moments_match_recursion(p):
    g = 1.0
    plan = SimulationPlan(
        paths=100_000, horizon=10, seed=42, initial_state=np.array([1.0]), moment_exponent=p
    )
    result = simulate_iid(scalar_uniform(g), plan)
    exact = (g**p / (p + 1)) ** np.arange(11)
    z = np.abs(result.euclidean.means - exact) / np.maximum(result.euclidean.stderrs, 1e-300)
    assert np.all(z[1:] <= 4.0)
    assert result.euclidean.means[0] == 1.0


def test_reproducible_across_thread_counts():
    plan = SimulationPlan(
        paths=10_000, horizon=8, seed=7, initial_state=np.array([1.0]), moment_exponent=2
    )
    dist = scalar_uniform(0.9)
    r1 = simulate_iid(dist, plan, threads=1)
    r4 = simulate_iid(dist, plan, threads=4)
    assert np.array_equal(r1.euclidean.means, r4.euclidean.means)
    assert np.array_equal(r1.euclidean.stderrs, r4.euclidean.stderrs)
    assert np.array_equal(simulate_paths(dist, plan)[0], simulate_paths(dist, plan, threads=4)[0])


def test_interval_box_certificate_series_decays(interval_box):
    cert = synthesize_cone_norm(interval_box)
    plan = SimulationPlan(paths=200, horizon=30, seed=7, initial_state=np.array([0.0, 1.0]))
    result = simulate_iid(interval_box, plan, certificate=cert)
    means = result.certificate.means
    ks = np.arange(means.shape[0])
    slope = np.polyfit(ks, np.log(means), 1)[0]
    assert np.log(0.90) <= slope <= np.log(0.99)
    # per-step bound: the certificate mean never exceeds its decay forecast
    bound = cert.gamma ** ks * means[0] + 4.0 * result.certificate.stderrs
    assert np.all(means <= bound + 1e-12)


def test_moment_exponent_slope_matches_radius():
    dist = scalar_uniform(1.0)
    for p in (1, 2):
        plan = SimulationPlan(
            paths=100_000, horizon=10, seed=9, initial_state=np.array([1.0]), moment_exponent=p
        )
        result = simulate_iid(dist, plan)
        decay = estimate_decay_rate(result.euclidean)
        target = p * np.log(p_radius(dist, p).value)
        assert abs(decay.slope - target) <= 4.0 * decay.slope_stderr


def test_unstable_paths_truncate_with_flag():
    plan = SimulationPlan(paths=8, horizon=400, seed=3, initial_state=np.array([1.0]))
    result = simulate_iid(single_atom(np.array([[10.0]])), plan)
    assert result.euclidean.truncated_paths == 8
    assert result.euclidean.n_valid[-1] == 0
    finite_prefix = result.euclidean.n_valid > 0
    assert np.all(np.isfinite(result.euclidean.means[finite_prefix]))


def test_overflowing_runs_restore_the_error_state():
    # |x(k)| = 2^(300 k) overflows at step 4; the two modes cancel in the
    # conditional moments, which are exactly 0 from step 2 on (powers of two,
    # so every product is exact). The box's width overflows at every draw.
    atoms = np.array([[[2.0**300]], [[-(2.0**300)]]])
    law = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms)
    box = UniformEntriesDistribution(lower=np.full((1, 1), -1e308), upper=np.full((1, 1), 1e308))
    system = MarkovJumpSystem(transition=np.full((2, 2), 0.5), modes=atoms, initial_mode=1)
    plan = SimulationPlan(paths=50, horizon=6, seed=3, initial_state=np.array([1.0]))
    before = np.geterr()
    assert simulate_iid(law, plan).euclidean.truncated_paths == 50
    assert np.geterr() == before
    assert simulate_markov(system, plan).euclidean.truncated_paths == 50
    assert np.geterr() == before
    for problem in (law, box, system):
        assert np.isinf(simulate_paths(problem, plan)[0][:, -1]).all()
        assert np.geterr() == before
    assert check_q_recursion(system, plan).max_residual == 0.0
    assert np.geterr() == before


def test_certificate_series_matches_pointwise_evaluation(interval_box):
    from switchstab import UniformEntriesDistribution, evaluate, synthesize_degree_p

    shrunk = UniformEntriesDistribution(lower=interval_box.lower, upper=0.8 * interval_box.upper)
    law, _, cone = cone_case()
    cases = [
        (shrunk, synthesize_degree_p(shrunk, 4), np.array([0.3, 1.0])),  # lifted shape
        (law, cone, np.array([0.3, 1.0, -0.5])),  # a d = 3, lift-2 cone norm
    ]
    for dist, cert, x0 in cases:
        plan = SimulationPlan(paths=5, horizon=4, seed=19, initial_state=x0)
        result = simulate_iid(dist, plan, certificate=cert)
        assert result.certificate is not None
        states, _ = simulate_paths(dist, plan)
        values = np.array(
            [[evaluate(cert, states[n, k]) for k in range(5)] for n in range(5)]
        )
        assert np.array_equal(values.mean(axis=0), result.certificate.means)


def test_certificate_decay_pathwise_expectation():
    rng = np.random.default_rng(31)
    atoms = np.abs(rng.standard_normal((2, 2, 2)))
    dist = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms)
    scale = 0.8 / p_radius(dist, 1).value
    dist = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms * scale)
    cert = synthesize_cone_norm(dist)
    plan = SimulationPlan(paths=64, horizon=5, seed=11, initial_state=np.array([1.0, 2.0]))
    states, _ = simulate_paths(dist, plan)
    from switchstab import evaluate

    for path in states[:16]:
        for x in path:
            one_step = sum(
                w * evaluate(cert, m @ x) for w, m in zip(dist.probabilities, dist.atoms)
            )
            assert one_step <= cert.gamma * evaluate(cert, x) * (1 + 1e-9)


def scalar_markov():
    return MarkovJumpSystem(
        transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
        modes=np.array([[[0.9]], [[0.5]]]),
        initial_mode=1,
    )


@pytest.mark.parametrize("markov", [False, True])
def test_simulation_paths_respect_the_entry_cap(monkeypatch, markov):
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")

    def simulate(paths):
        plan = SimulationPlan(
            paths=paths, horizon=10, seed=1, initial_state=np.array([1.0]), initial_mode=1
        )
        if markov:
            return simulate_markov(scalar_markov(), plan)
        return simulate_iid(scalar_uniform(0.5), plan)

    simulate(500)
    with pytest.raises(DimensionCapError) as info:
        simulate(501)  # 501 paths x one state at d = 1 and one norm
    assert info.value.requested == 1002


@pytest.mark.parametrize("markov", [False, True])
def test_the_entry_cap_counts_one_step_not_the_paths(monkeypatch, three_mode_system, markov):
    # d = 2: a step holds 2 states and a norm per path, and an i.i.d. run
    # with a certificate one value more, at any horizon; the path simulator
    # holds 11 steps of 2 states per path, 1980 entries for 90 paths
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    if markov:
        law, simulate, fits, requested = three_mode_system, simulate_markov, 333, 1002
    else:
        fits, requested = 250, 1004
        law, cert = single_atom(0.5 * np.eye(2)), QuadraticCertificate(h=np.eye(2), gamma=0.5)

        def simulate(law, plan):
            return simulate_iid(law, plan, certificate=cert)

    def plan(paths, horizon=10):
        return SimulationPlan(
            paths=paths, horizon=horizon, seed=1, initial_state=np.array([1.0, 0.0]),
            initial_mode=1,
        )

    assert simulate(law, plan(fits, horizon=100)).euclidean.n_valid[-1] == fits
    with pytest.raises(DimensionCapError) as info:
        simulate_paths(law, plan(90))
    assert info.value.requested == 1980
    with pytest.raises(DimensionCapError) as info:
        simulate(law, plan(fits + 1))
    assert info.value.requested == requested
    if markov:  # the check holds the states and one mode's terms, 4 per path
        check_q_recursion(law, plan(250, horizon=100))
        with pytest.raises(DimensionCapError) as info:
            check_q_recursion(law, plan(251))
        assert info.value.requested == 1004


def test_certificate_rows_respect_the_entry_cap(monkeypatch):
    # each step of a chunk of 201 paths at d = 2 is evaluated as 201 rows of
    # the 5 monomials of a degree-4 quadratic, 1005 entries; the states and
    # values of a step are 804
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    cert = QuadraticCertificate(h=np.eye(4), gamma=0.5, lift_power=2)
    plan = SimulationPlan(paths=201, horizon=1, seed=1, initial_state=np.array([1.0, 0.0]))
    dist = single_atom(0.5 * np.eye(2))
    assert simulate_iid(dist, plan).euclidean.n_valid[-1] == 201
    assert simulate_iid(dist, replace(plan, paths=200), certificate=cert).certificate is not None
    with pytest.raises(DimensionCapError) as info:
        simulate_iid(dist, plan, certificate=cert)
    assert info.value.requested == 1005
    # more paths than a chunk: the rows of one chunk, 1024 x 5, are counted,
    # beside the 2100 x 4 states and values of a step
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "8400")
    assert simulate_iid(dist, replace(plan, paths=2100), certificate=cert).certificate is not None


# ---------------------------------------------------------------------------
# Markov simulation
# ---------------------------------------------------------------------------


def test_markov_single_mode_is_deterministic_product():
    m = np.array([[0.9, 0.1], [0.0, 0.8]])
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]), initial_mode=1)
    plan = SimulationPlan(paths=3, horizon=6, seed=2, initial_state=np.array([1.0, 1.0]))
    states, modes = simulate_paths(system, plan)
    assert np.all(modes == 0)
    x = np.array([1.0, 1.0])
    for k in range(7):
        assert np.allclose(states[:, k, :], x, rtol=1e-15)
        x = m @ x


def test_markov_requires_initial_mode(three_mode_system):
    system = MarkovJumpSystem(
        transition=three_mode_system.transition, modes=three_mode_system.modes
    )
    plan = SimulationPlan(paths=2, horizon=2, seed=1, initial_state=np.array([1.0, 1.0]))
    with pytest.raises(AssumptionError):
        simulate_markov(system, plan)


@pytest.mark.parametrize("mode", [0, 4])
def test_plan_initial_mode_outside_the_modes(three_mode_system, mode):
    plan = SimulationPlan(
        paths=2, horizon=2, seed=1, initial_state=np.array([1.0, 1.0]), initial_mode=mode
    )
    for run in (simulate_markov, check_q_recursion):
        with pytest.raises(ValueError, match=r"initial mode must lie in 1\.\.3"):
            run(three_mode_system, plan)
    with pytest.raises(ValueError, match=r"initial mode must lie in 1\.\.3"):
        propagate_conditional_moments(three_mode_system, np.array([1.0, 1.0]), mode, horizon=2)


def test_conditional_moment_check_requires_initial_mode(three_mode_system):
    system = MarkovJumpSystem(
        transition=three_mode_system.transition, modes=three_mode_system.modes
    )
    plan = SimulationPlan(paths=2, horizon=2, seed=1, initial_state=np.array([1.0, 1.0]))
    with pytest.raises(AssumptionError, match="conditional-moment check requires an initial mode"):
        check_q_recursion(system, plan)


def test_markov_open_loop_trends_upward(three_mode_system):
    plan = SimulationPlan(
        paths=2_000, horizon=25, seed=5, initial_state=np.array([1.0, 1.0]), initial_mode=1
    )
    result = simulate_markov(three_mode_system, plan)
    decay = estimate_decay_rate(result.euclidean)
    assert decay.rate > 1.0
    assert result.euclidean.means[-1] > result.euclidean.means[0]


def test_markov_closed_loop_decay_rate(three_mode_system):
    closed = apply_feedback(three_mode_system)
    rho = p_radius(closed, 1).value
    plan = SimulationPlan(
        paths=10_000, horizon=40, seed=42, initial_state=np.array([1.0, 1.0]), initial_mode=1
    )
    result = simulate_markov(closed, plan)
    decay = estimate_decay_rate(result.euclidean)
    assert decay.rate < 1.0
    assert abs(decay.rate - rho) <= 4.0 * decay.rate_stderr
    assert abs(decay.rate - rho) <= 0.05 * rho


def test_markov_reproducible_across_threads(three_mode_system):
    plan = SimulationPlan(
        paths=4_000, horizon=10, seed=8, initial_state=np.array([1.0, 0.0]), initial_mode=2
    )
    r1 = simulate_markov(three_mode_system, plan, threads=1)
    r8 = simulate_markov(three_mode_system, plan, threads=8)
    assert np.array_equal(r1.euclidean.means, r8.euclidean.means)
    assert np.array_equal(r1.euclidean.stderrs, r8.euclidean.stderrs)
    paths1, modes1 = simulate_paths(three_mode_system, plan, threads=1)
    paths8, modes8 = simulate_paths(three_mode_system, plan, threads=8)
    assert np.array_equal(paths1, paths8)
    assert np.array_equal(modes1, modes8)


@pytest.mark.parametrize("n_modes, dtype", [(128, np.int8), (129, np.int16)])
def test_modes_are_stored_in_the_smallest_dtype_that_holds_them(n_modes, dtype):
    rng = np.random.default_rng(n_modes)
    system = MarkovJumpSystem(
        transition=rng.dirichlet(np.ones(n_modes), size=n_modes),
        modes=rng.uniform(0.5, 1.0, (n_modes, 1, 1)),
        initial_mode=n_modes,
    )
    plan = SimulationPlan(paths=50, horizon=40, seed=3, initial_state=np.array([1.0]))
    _, modes = simulate_paths(system, plan, threads=2)
    _, wide = simulate_paths_oracle(system, plan, mode_dtype=np.int64)
    assert modes.dtype == dtype and wide.max() == n_modes - 1
    assert np.array_equal(modes, wide)


# ---------------------------------------------------------------------------
# conditional-moment recursion
# ---------------------------------------------------------------------------


def test_q_recursion_initialization(three_mode_system):
    x0 = np.array([0.5, -1.0])
    q = propagate_conditional_moments(three_mode_system, x0, sigma0=2, horizon=3)
    assert np.array_equal(q[0, 1], x0)
    assert np.all(q[0, [0, 2]] == 0.0)


def test_q_recursion_identity_three_mode(three_mode_system):
    plan = SimulationPlan(
        paths=10_000, horizon=20, seed=2024, initial_state=np.array([1.0, 1.0]), initial_mode=1
    )
    report = check_q_recursion(three_mode_system, plan)
    assert report.max_residual <= 1e-10
    assert report.mc_agrees
    assert report.mc_max_sigma <= 4.0


def test_q_recursion_residual_is_relative_to_the_moments(three_mode_system):
    # open loop, Q grows to about 5e7 by step 100; the identity still holds
    # to rounding relative to |Q|
    plan = SimulationPlan(
        paths=250, horizon=100, seed=1, initial_state=np.array([1.0, 0.0]), initial_mode=1
    )
    assert check_q_recursion(three_mode_system, plan).max_residual <= 1e-14


@pytest.mark.parametrize("horizon", [10, 40])
def test_q_recursion_reports_overflowing_moments_as_unchecked(horizon):
    # the exact conditional moments overflow within a few steps: those steps
    # were not checked, so the residual is nan, with no warning raised
    modes = 1e60 * np.random.default_rng(0).standard_normal((2, 2, 2))
    transition = np.array([[0.5, 0.5], [0.3, 0.7]])
    system = MarkovJumpSystem(transition=transition, modes=modes, initial_mode=1)
    plan = SimulationPlan(paths=50, horizon=horizon, seed=1, initial_state=np.array([1.0, -1.0]))
    with np.errstate(all="ignore"):
        q = propagate_conditional_moments(system, plan.initial_state, 1, horizon)
    assert not np.isfinite(q).all()
    assert np.isnan(check_q_recursion(system, plan).max_residual)


def test_q_recursion_residual_stays_at_rounding_where_the_terms_cancel():
    # the two modes' terms cancel at step 2, so one side of the identity is 0
    # and the other rounding noise; relative to the absolute terms that is
    # rounding, where relative to the larger side it read 1.0
    atoms = np.array([[[1e100]], [[-1e100]]])
    system = MarkovJumpSystem(transition=np.full((2, 2), 0.5), modes=atoms, initial_mode=1)
    plan = SimulationPlan(paths=50, horizon=6, seed=3, initial_state=np.array([1.0]))
    assert check_q_recursion(system, plan).max_residual <= 1e-15


def test_q_recursion_single_mode_degenerates():
    m = np.array([[0.7, 0.2], [0.1, 0.6]])
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]), initial_mode=1)
    x0 = np.array([1.0, -1.0])
    q = propagate_conditional_moments(system, x0, sigma0=1, horizon=5)
    x = x0.copy()
    for k in range(6):
        assert np.allclose(q[k, 0], x, atol=1e-14)
        x = m @ x


def test_conditional_moments_respect_the_entry_cap(monkeypatch, three_mode_system):
    # N = 3 modes of d = 2: (horizon+1) 6 moments, and as many simulated
    # means and standard errors; the states and terms of 2 paths are 8
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    x0 = np.array([1.0, 1.0])
    plan = SimulationPlan(paths=2, horizon=165, seed=1, initial_state=x0, initial_mode=1)
    assert propagate_conditional_moments(three_mode_system, x0, 1, 165).size == 996
    assert check_q_recursion(three_mode_system, plan).max_residual <= 1e-14
    for horizon, requested in ((166, 1002), (1000, 6006)):
        with pytest.raises(DimensionCapError, match="in conditional moments") as info:
            propagate_conditional_moments(three_mode_system, x0, 1, horizon)
        assert info.value.requested == requested
        with pytest.raises(DimensionCapError, match="in conditional moments") as info:
            check_q_recursion(three_mode_system, replace(plan, horizon=horizon))
        assert info.value.requested == requested


def test_q_vec_identity_matches_lifted_operator(three_mode_system):
    q = propagate_conditional_moments(
        three_mode_system, np.array([1.0, 1.0]), sigma0=3, horizon=6
    )
    t1 = three_mode_system.expected_kron_power(1)
    for k in range(6):
        lhs = q[k + 1].reshape(-1)
        rhs = t1 @ q[k].reshape(-1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_moment_csv_round_trip(tmp_path):
    plan = SimulationPlan(paths=100, horizon=5, seed=21, initial_state=np.array([1.0]))
    result = simulate_iid(scalar_uniform(0.8), plan)
    path = tmp_path / "series.csv"
    write_moment_csv(path, result.euclidean)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "k,mean,stderr"
    assert len(lines) == 7
    for k, line in enumerate(lines[1:]):
        kk, mean, stderr = line.split(",")
        assert int(kk) == k
        assert float(mean) == result.euclidean.means[k]
        assert float(stderr) == result.euclidean.stderrs[k]


# ---------------------------------------------------------------------------
# chunked kernel: bit identity with whole-array reductions, and memory
# ---------------------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def csv_bytes(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_moment_csv(path, series)
        return path.read_bytes()


def assert_same_series(series, oracle):
    for field in ("means", "stderrs", "n_valid"):
        assert same_bits(getattr(series, field), getattr(oracle, field)), field
    assert series.truncated_paths == oracle.truncated_paths
    assert series.norm_label == oracle.norm_label
    assert csv_bytes(series) == csv_bytes(oracle)


@st.composite
def simulation_cases(draw):
    """A law, a plan and, for i.i.d. laws, maybe a certificate. Scaled laws
    overflow within a few steps, so their paths truncate."""
    kind = draw(st.sampled_from(["atomic", "box", "markov"]))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1.0, 1e60])) / np.sqrt(d)
    if kind == "atomic":
        m = draw(st.integers(1, 4))
        law = AtomicDistribution(
            probabilities=rng.dirichlet(np.ones(m)), atoms=scale * rng.standard_normal((m, d, d))
        )
    elif kind == "box":
        lower = scale * rng.standard_normal((d, d))
        law = UniformEntriesDistribution(lower=lower, upper=lower + scale * rng.random((d, d)))
    else:
        n_modes = draw(st.integers(1, 4))
        law = MarkovJumpSystem(
            transition=rng.dirichlet(np.ones(n_modes), size=n_modes),
            modes=scale * rng.standard_normal((n_modes, d, d)),
            initial_mode=draw(st.integers(1, n_modes)),
        )
    plan = SimulationPlan(
        paths=draw(st.sampled_from([1, 2, 7, 1023, 1025, 2100])),
        horizon=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**64 - 1)),
        initial_state=rng.standard_normal(d),
        moment_exponent=draw(st.integers(1, 3)),
    )
    cert = None
    shape = draw(st.sampled_from([None, "quadratic", "cone"]))
    if kind != "markov" and shape is not None:
        q = draw(st.integers(1, 3))
        size = d**q
        if size <= 27:
            if shape == "quadratic":
                g = rng.standard_normal((size, size))
                cert = QuadraticCertificate(h=g @ g.T + np.eye(size), gamma=0.5, lift_power=q)
            else:
                cert = ConeNormCertificate(f=rng.random(size) + 0.1, gamma=0.5, lift_power=q)
    return law, plan, cert


def cone_case():
    """A cone norm with 9 lifted coordinates on two chunks of paths. One
    multithreaded BLAS product over these rows rounds a few of them
    differently from a product at one thread, and here that would move the
    certificate series."""
    rng = np.random.default_rng(2)
    atoms = rng.standard_normal((2, 3, 3)) / 3
    plan = SimulationPlan(paths=1382, horizon=38, seed=2, initial_state=rng.standard_normal(3))
    cert = ConeNormCertificate(f=rng.random(9) + 0.1, gamma=0.5, lift_power=2)
    return AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms), plan, cert


def last_path_case():
    """A cone norm on 1025 paths: the second chunk holds one path, whose
    certificate values must be those its rows get among many."""
    law, _, _ = cone_case()
    rng = np.random.default_rng(0)
    plan = SimulationPlan(paths=1025, horizon=6, seed=0, initial_state=rng.standard_normal(3))
    return law, plan, ConeNormCertificate(f=rng.random(9) + 0.1, gamma=0.5, lift_power=2)


def one_step_quadratic_case():
    """A d = 2, lift-1 quadratic on 1025 paths at horizon 1: the second
    chunk evaluates the two steps of one path."""
    rng = np.random.default_rng(1)
    atoms = rng.standard_normal((2, 2, 2))
    g = rng.standard_normal((2, 2))
    plan = SimulationPlan(paths=1025, horizon=1, seed=1, initial_state=rng.standard_normal(2))
    law = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms)
    return law, plan, QuadraticCertificate(h=g @ g.T + np.eye(2), gamma=0.5)


@settings(max_examples=30, deadline=None)
@given(simulation_cases(), st.integers(1, 3), st.booleans())
@example(cone_case(), 2, False)
@example(last_path_case(), 1, True)
@example(one_step_quadratic_case(), 1, False)
def test_chunked_kernel_equals_whole_array_reductions(case, threads, one_blas_thread):
    law, plan, cert = case
    with blas_threads(1) if one_blas_thread else nullcontext(), np.errstate(all="ignore"):
        paths, modes, euclid, cert_series = simulation_oracle(law, plan, cert)
        states, simulated_modes = simulate_paths(law, plan, threads=threads)
        if isinstance(law, MarkovJumpSystem):
            result = simulate_markov(law, plan, threads=threads)
            assert same_bits(simulated_modes, modes)
            if plan.paths == 1:  # one path has no standard error
                with pytest.raises(ValueError, match="at least 2 paths, got 1"):
                    check_q_recursion(law, plan)
            else:
                report, oracle = check_q_recursion(law, plan), q_recursion_oracle(law, plan)
                assert same_bits(
                    [report.max_residual, report.mc_max_sigma],
                    [oracle.max_residual, oracle.mc_max_sigma],
                )
                assert report.mc_agrees == oracle.mc_agrees
        else:
            result = simulate_iid(law, plan, certificate=cert, threads=threads)
            assert (result.certificate is None) == (cert is None)
            if cert is not None:
                assert_same_series(result.certificate, cert_series)
            assert simulated_modes is None
    assert same_bits(states, paths)
    assert_same_series(result.euclidean, euclid)


def test_series_are_the_same_bits_when_eight_workers_switch_often(interval_box):
    # the workers write disjoint rows of the shared value buffers; a lost or
    # misplaced row would move a series
    cert = synthesize_cone_norm(interval_box)
    plan = SimulationPlan(paths=6000, horizon=10, seed=4, initial_state=np.array([1.0, 0.5]))
    one = simulate_iid(interval_box, plan, certificate=cert)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        eight = simulate_iid(interval_box, plan, certificate=cert, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert_same_series(eight.euclidean, one.euclidean)
    assert_same_series(eight.certificate, one.certificate)


def test_cone_norm_series_do_not_depend_on_the_blas_thread_count():
    law, plan, cert = cone_case()
    series = []
    for n in (1, 2):
        with blas_threads(n):
            series.append(simulate_iid(law, plan, certificate=cert).certificate)
    assert_same_series(*series)


def test_conditional_moment_check_needs_two_paths(three_mode_system):
    plan = SimulationPlan(
        paths=1, horizon=3, seed=1, initial_state=np.array([1.0, 0.0]), initial_mode=1
    )
    with pytest.raises(ValueError, match="at least 2 paths, got 1"):
        check_q_recursion(three_mode_system, plan)
    assert check_q_recursion(three_mode_system, replace(plan, paths=2)).max_residual < 1e-12


def test_index_draws_equal_the_full_comparison_count():
    from switchstab.mcsim import _inverse_cdf, atom_indices

    def full_count(u, cum):
        return np.minimum((u[:, None] >= cum).sum(axis=-1), cum.shape[-1] - 1)

    rng = np.random.default_rng(8)
    probs = np.array([0.1, 0.3, 1e-12, 0.2, 0.4 - 1e-12])
    cum = np.cumsum(probs)
    # ties with every cumulative weight, and uniforms above a total below 1
    u = np.concatenate([rng.random(5000), cum, [np.nextafter(1.0, 0.0)]])
    assert same_bits(_inverse_cdf(u, cum), full_count(u, cum))
    rows = np.cumsum(rng.dirichlet(np.ones(4), size=u.size), axis=1)  # one law per draw
    assert same_bits(_inverse_cdf(u, rows), full_count(u, rows))
    dist = AtomicDistribution(probabilities=probs, atoms=np.zeros((5, 1, 1)))
    drawn = atom_indices(dist, np.random.default_rng(9), 1000)
    assert same_bits(drawn, full_count(np.random.default_rng(9).random(1000), cum))


def traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` executes."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quadratic_d3_run():
    """A d = 3 law, a quadratic certificate and a 10000 x 50 plan."""
    rng = np.random.default_rng(6)
    law = AtomicDistribution(
        probabilities=np.array([0.2, 0.3, 0.5]), atoms=0.3 * rng.standard_normal((3, 3, 3))
    )
    g = rng.standard_normal((3, 3))
    cert = QuadraticCertificate(h=g @ g.T + np.eye(3), gamma=0.5)
    plan = SimulationPlan(paths=10_000, horizon=50, seed=5, initial_state=np.array([1.0, 0.5, -0.5]))
    return law, plan, cert


@pytest.mark.parametrize("run", ["iid", "markov", "q_recursion"])
def test_a_simulation_holds_one_step_of_its_paths(three_mode_system, run):
    law, plan, cert = quadratic_d3_run()
    if run != "iid":
        plan = replace(plan, initial_state=np.array([1.0, -0.5]), initial_mode=1)
    call = {
        "iid": lambda: simulate_iid(law, plan, certificate=cert, threads=2),
        "markov": lambda: simulate_markov(three_mode_system, plan, threads=2),
        "q_recursion": lambda: check_q_recursion(three_mode_system, plan),
    }[run]
    values = plan.paths * (plan.horizon + 1) * 8  # bytes of one (paths, horizon+1) array
    # the (paths, d) states, the current modes, a (paths,) array per series
    # and the temporaries of one step
    assert traced_peak(call) < values / 4


@pytest.mark.parametrize("markov", [False, True])
def test_a_simulation_result_holds_its_series_and_not_its_paths(three_mode_system, markov):
    law, plan, cert = quadratic_d3_run()
    if markov:
        plan = replace(plan, initial_state=np.array([1.0, -0.5]), initial_mode=1)
    values = plan.paths * (plan.horizon + 1) * 8
    tracemalloc.start()
    try:
        if markov:
            result = simulate_markov(three_mode_system, plan, threads=2)
        else:
            result = simulate_iid(law, plan, certificate=cert, threads=2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.euclidean) == plan.horizon + 1
    assert held < values
