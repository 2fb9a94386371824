import numpy as np
import pytest

from switchstab import (
    AssumptionError,
    AtomicDistribution,
    DimensionCapError,
    MarkovJumpSystem,
    QuadraticCertificate,
    SimulationPlan,
    apply_feedback,
    check_q_recursion,
    estimate_decay_rate,
    markov_p_radius,
    markov_tp,
    p_radius,
    propagate_conditional_moments,
    sample_matrix,
    simulate_iid,
    simulate_markov,
    synthesize_cone_norm,
    write_moment_csv,
)
from conftest import scalar_uniform


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
    assert np.array_equal(r1.paths, r4.paths)


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


def test_certificate_series_matches_pointwise_evaluation(interval_box):
    from switchstab import UniformEntriesDistribution, evaluate, synthesize_degree_p

    shrunk = UniformEntriesDistribution(lower=interval_box.lower, upper=0.8 * interval_box.upper)
    cert = synthesize_degree_p(shrunk, 4)  # lifted shape
    plan = SimulationPlan(paths=5, horizon=4, seed=19, initial_state=np.array([0.3, 1.0]))
    result = simulate_iid(shrunk, plan, certificate=cert)
    assert result.certificate is not None
    values = np.array(
        [[evaluate(cert, result.paths[n, k]) for k in range(5)] for n in range(5)]
    )
    assert np.allclose(values.mean(axis=0), result.certificate.means, rtol=1e-12)


def test_certificate_decay_pathwise_expectation():
    rng = np.random.default_rng(31)
    atoms = np.abs(rng.standard_normal((2, 2, 2)))
    dist = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms)
    scale = 0.8 / p_radius(dist, 1).value
    dist = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms * scale)
    cert = synthesize_cone_norm(dist)
    plan = SimulationPlan(paths=64, horizon=5, seed=11, initial_state=np.array([1.0, 2.0]))
    result = simulate_iid(dist, plan)
    from switchstab import evaluate

    for path in result.paths[:16]:
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

    simulate(90)
    with pytest.raises(DimensionCapError) as info:
        simulate(100)  # 100 paths x 11 states x d = 1
    assert info.value.requested == 1100


def test_certificate_rows_respect_the_entry_cap(monkeypatch):
    # 100 paths x 5 states x d = 2 is 1000 entries; lifted to d^2 they are 2000
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    cert = QuadraticCertificate(h=np.eye(4), gamma=0.5, lift_power=2)
    plan = SimulationPlan(paths=100, horizon=4, seed=1, initial_state=np.array([1.0, 0.0]))
    dist = single_atom(0.5 * np.eye(2))
    assert simulate_iid(dist, plan).paths.size == 1000
    with pytest.raises(DimensionCapError) as info:
        simulate_iid(dist, plan, certificate=cert)
    assert info.value.requested == 2000


# ---------------------------------------------------------------------------
# Markov simulation
# ---------------------------------------------------------------------------


def test_markov_single_mode_is_deterministic_product():
    m = np.array([[0.9, 0.1], [0.0, 0.8]])
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]), initial_mode=1)
    plan = SimulationPlan(paths=3, horizon=6, seed=2, initial_state=np.array([1.0, 1.0]))
    result = simulate_markov(system, plan)
    x = np.array([1.0, 1.0])
    for k in range(7):
        assert np.allclose(result.paths[:, k, :], x, rtol=1e-15)
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
    rho = markov_p_radius(closed, 1).value
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
    assert np.array_equal(r1.paths, r8.paths)
    assert np.array_equal(r1.modes, r8.modes)


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


def test_q_recursion_single_mode_degenerates():
    m = np.array([[0.7, 0.2], [0.1, 0.6]])
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]), initial_mode=1)
    x0 = np.array([1.0, -1.0])
    q = propagate_conditional_moments(system, x0, sigma0=1, horizon=5)
    x = x0.copy()
    for k in range(6):
        assert np.allclose(q[k, 0], x, atol=1e-14)
        x = m @ x


def test_q_vec_identity_matches_lifted_operator(three_mode_system):
    q = propagate_conditional_moments(
        three_mode_system, np.array([1.0, 1.0]), sigma0=3, horizon=6
    )
    t1 = markov_tp(three_mode_system, 1)
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
