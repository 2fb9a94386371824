import numpy as np
import pytest

from switchstab import (
    AssumptionError,
    AssumptionPath,
    AtomicDistribution,
    MarkovJumpSystem,
    Verdict,
    apply_feedback,
    check_mean_stability,
    jsr_bounds,
    lifting_identity_check,
    limit_sequence,
    markov_p_radius,
    markov_stability,
    markov_tp,
    markov_tp_spectral_radius,
    p_radius,
    spectrum,
)
from conftest import random_atomic, scalar_uniform


def single_atom(m):
    return AtomicDistribution(probabilities=np.array([1.0]), atoms=np.array([m]))


INTERVAL_BOX_RHO1 = (1.35 + np.sqrt(1.35**2 - 4 * 0.3825)) / 2  # quadratic formula


# ---------------------------------------------------------------------------
# p-radius
# ---------------------------------------------------------------------------


def test_p_radius_scalar_uniform_closed_form():
    for g in (0.5, 1.0, 2.0):
        dist = scalar_uniform(g)
        for p in range(1, 13):
            result = p_radius(dist, p)
            assert result.assumption_path in (
                AssumptionPath.EVEN_P,
                AssumptionPath.ORTHANT_INVARIANT,
            )
            assert result.value == pytest.approx(g * (p + 1) ** (-1.0 / p), rel=1e-10)


def test_p_radius_interval_box(interval_box):
    result = p_radius(interval_box, 1)
    assert result.assumption_path is AssumptionPath.ORTHANT_INVARIANT
    assert result.value == pytest.approx(INTERVAL_BOX_RHO1, rel=1e-9)
    assert result.lifted_dim == 2


def test_p_radius_single_atom_even_p():
    m = np.array([[0.2, 1.0], [-0.3, 0.4]])
    rho = spectrum(m).spectral_radius
    for p in (2, 4):
        result = p_radius(single_atom(m), p)
        assert result.assumption_path is AssumptionPath.EVEN_P
        assert result.value == pytest.approx(rho, rel=1e-9)


def test_p_radius_unsupported_is_typed():
    dist = single_atom(np.array([[0.5, -0.1], [0.0, 0.5]]))
    result = p_radius(dist, 3)
    assert result.assumption_path is AssumptionPath.UNSUPPORTED
    assert result.value is None


def test_stability_verdicts(interval_box):
    assert check_mean_stability(scalar_uniform(0.5), 1).verdict is Verdict.STABLE
    assert check_mean_stability(scalar_uniform(0.5), 1).p_radius.value == pytest.approx(0.25)
    assert check_mean_stability(interval_box, 1).verdict is Verdict.STABLE
    assert check_mean_stability(single_atom(2 * np.eye(2)), 2).verdict is Verdict.UNSTABLE
    assert check_mean_stability(single_atom(np.eye(2)), 2).verdict is Verdict.MARGINAL
    report = check_mean_stability(single_atom(np.array([[0.5, -1.0], [0.0, 0.5]])), 3)
    assert report.verdict is Verdict.UNSUPPORTED


def test_stability_report_embeds_flags(interval_box):
    report = check_mean_stability(interval_box, 2)
    assert report.cone_flags.orthant_invariant
    assert report.cone_flags.expectation_positive[1]
    assert 2 in report.cone_flags.expectation_positive
    assert report.p_radius.p == 2


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stability_builds_the_lift_once(monkeypatch, interval_box, p):
    atomic = AtomicDistribution(
        probabilities=np.array([0.4, 0.6]),
        atoms=np.array([[[0.2, 0.5], [0.3, 0.1]], [[0.6, 0.0], [0.1, 0.4]]]),
    )
    for dist in (atomic, interval_box):
        cls = type(dist)
        expected = {q: bool(np.all(dist.expected_kron_power(q) > 0)) for q in {1, p}}
        calls = []
        original = cls.expected_kron_power

        def counting(self, q, original=original):
            calls.append(q)
            return original(self, q)

        monkeypatch.setattr(cls, "expected_kron_power", counting)
        report = check_mean_stability(dist, p)
        monkeypatch.undo()
        # the p-fold lift serves both the radius and its positivity flag;
        # for p > 1 the mean is built once more for the p = 1 flag
        assert calls.count(p) == 1
        assert sorted(calls) == sorted({1, p})
        assert report.cone_flags.expectation_positive == expected
        assert report.p_radius.value == pytest.approx(p_radius(dist, p).value, rel=1e-15)


# ---------------------------------------------------------------------------
# Markov lifts
# ---------------------------------------------------------------------------


def test_markov_tp_single_mode_is_kron_power():
    m = np.array([[0.3, 0.1], [0.0, 0.5]])
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]))
    for p in (1, 2):
        from switchstab import kron_power

        assert np.allclose(markov_tp(system, p), kron_power(m, p), atol=1e-15)


def test_markov_tp_scalar_modes_block_structure():
    p_mat = np.array([[0.2, 0.8], [0.6, 0.4]])
    modes = np.array([[[2.0]], [[3.0]]])
    system = MarkovJumpSystem(transition=p_mat, modes=modes)
    t1 = markov_tp(system, 1)
    for i in range(2):
        for j in range(2):
            assert t1[j, i] == pytest.approx(p_mat[i, j] * modes[i, 0, 0])


def test_markov_tp_three_mode_block(three_mode_system):
    t1 = markov_tp(three_mode_system, 1)
    assert t1.shape == (6, 6)
    assert np.allclose(t1[0:2, 2:4], 0.5 * three_mode_system.modes[1], atol=1e-15)


def _oracle_t1(system):
    # independent assembly: kron against an explicit block diagonal
    n, d = system.n_modes, system.dim
    diag = np.zeros((n * d, n * d))
    for i in range(n):
        diag[i * d : (i + 1) * d, i * d : (i + 1) * d] = system.modes[i]
    return np.kron(system.transition.T, np.eye(d)) @ diag


def test_markov_radius_open_loop(three_mode_system):
    oracle = spectrum(_oracle_t1(three_mode_system)).spectral_radius
    result = markov_p_radius(three_mode_system, 1)
    assert result.assumption_path is AssumptionPath.ORTHANT_INVARIANT
    assert result.value == pytest.approx(oracle, rel=1e-12)
    assert result.value == pytest.approx(1.2210121637370406, rel=1e-10)
    assert markov_stability(three_mode_system, 1).verdict is Verdict.UNSTABLE


def test_markov_radius_closed_loop(three_mode_system):
    closed = apply_feedback(three_mode_system)
    oracle = spectrum(_oracle_t1(closed)).spectral_radius
    result = markov_p_radius(closed, 1)
    assert result.value == pytest.approx(oracle, rel=1e-12)
    assert result.value == pytest.approx(0.9590612286010841, rel=1e-10)
    assert markov_stability(closed, 1).verdict is Verdict.STABLE


def test_markov_radius_p1_needs_nonnegative_modes():
    system = MarkovJumpSystem(
        transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
        modes=np.array([[[0.5, -0.1], [0.0, 0.5]], [[0.4, 0.0], [0.0, 0.4]]]),
    )
    result = markov_p_radius(system, 1)
    assert result.assumption_path is AssumptionPath.UNSUPPORTED
    assert result.value is None
    # p = 2 carries no sign hypothesis
    assert markov_p_radius(system, 2).value is not None


def test_markov_radius_deterministic_contraction():
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([0.5 * np.eye(2)]))
    assert markov_p_radius(system, 2).value == pytest.approx(0.5, rel=1e-12)


def test_markov_general_p_is_fenced():
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([0.5 * np.eye(2)]))
    with pytest.raises(ValueError):
        markov_p_radius(system, 3)
    assert markov_tp_spectral_radius(system, 3) == pytest.approx(0.5, rel=1e-10)


def test_markov_single_mode_matches_iid_atom():
    m = np.array([[0.6, 0.2], [0.1, 0.3]])
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]))
    dist = single_atom(m)
    for p in (1, 2):
        assert markov_p_radius(system, p).value == pytest.approx(
            p_radius(dist, p).value, abs=1e-10
        )


# ---------------------------------------------------------------------------
# JSR brackets
# ---------------------------------------------------------------------------


def test_jsr_singleton_bracket():
    m = np.array([[0.5, 1.0], [0.0, 0.5]])
    rho = spectrum(m).spectral_radius
    at_depth_1 = jsr_bounds(np.array([m]), depth=1)
    assert at_depth_1.lower == pytest.approx(rho, rel=1e-12)
    assert at_depth_1.upper == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)
    deep = jsr_bounds(np.array([m]), depth=12)
    assert deep.lower == pytest.approx(rho, rel=1e-12)
    assert deep.lower <= deep.upper
    assert deep.upper < at_depth_1.upper  # tightens with depth


def test_jsr_zero_and_identity():
    bounds = jsr_bounds(np.array([np.zeros((2, 2)), np.eye(2)]), depth=5)
    assert bounds.lower == pytest.approx(1.0, rel=1e-12)
    assert bounds.upper >= 1.0


def test_jsr_three_mode_support(three_mode_system):
    bounds = jsr_bounds(three_mode_system.modes, depth=6)
    max_mode_rho = max(spectrum(m).spectral_radius for m in three_mode_system.modes)
    assert bounds.lower <= bounds.upper
    assert bounds.lower >= max_mode_rho - 1e-12
    assert bounds.upper >= max_mode_rho


def test_jsr_monotone_in_depth():
    rng = np.random.default_rng(8)
    atoms = np.abs(rng.standard_normal((2, 2, 2)))
    prev = None
    for depth in range(1, 7):
        bounds = jsr_bounds(atoms, depth=depth)
        if prev is not None:
            assert bounds.lower >= prev.lower - 1e-12
            assert bounds.upper <= prev.upper + 1e-12
        prev = bounds


def test_jsr_budget_truncation():
    atoms = np.abs(np.random.default_rng(9).standard_normal((3, 2, 2)))
    bounds = jsr_bounds(atoms, depth=10, budget=3 + 9 + 27)
    assert bounds.truncated
    assert bounds.depth == 3


# ---------------------------------------------------------------------------
# limit sequence and lifting identity
# ---------------------------------------------------------------------------


def test_limit_sequence_scalar_uniform_climbs_to_support_radius():
    g = 1.7
    seq = limit_sequence(scalar_uniform(g), p_max=12)
    values = [v for _, v in seq.entries]
    assert len(values) == 12
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(g * 13 ** (-1.0 / 12), rel=1e-10)
    assert abs(values[-1] - g) / g < 0.2


def test_limit_sequence_single_atom_constant():
    m = np.array([[0.3, 0.2], [0.1, 0.4]])
    seq = limit_sequence(single_atom(m), p_max=5)
    rho = spectrum(m).spectral_radius
    for _, v in seq.entries:
        assert v == pytest.approx(rho, rel=1e-9)


def test_limit_sequence_dominated_by_jsr_upper():
    rng = np.random.default_rng(10)
    atoms = np.abs(rng.standard_normal((2, 2, 2)))
    dist = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms)
    seq = limit_sequence(dist, p_max=6, jsr_depth=8)
    assert seq.jsr_reference is not None
    for _, v in seq.entries:
        assert v <= seq.jsr_reference.upper + 1e-9


def test_limit_sequence_monotone_even_entries():
    rng = np.random.default_rng(12)
    for trial in range(5):
        dist = random_atomic(rng, n_atoms=2, dim=2, target_r2=0.8)
        seq = limit_sequence(dist, p_max=8, even_only=True)
        values = [v for _, v in seq.entries]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9


def test_limit_sequence_odd_p_requires_orthant():
    dist = single_atom(np.array([[0.5, -0.2], [0.0, 0.5]]))
    with pytest.raises(AssumptionError):
        limit_sequence(dist, p_max=4, even_only=False)
    seq = limit_sequence(dist, p_max=4, even_only=True)
    assert [p for p, _ in seq.entries] == [2, 4]


def test_limit_sequence_cap_truncates(monkeypatch, interval_box):
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "300")
    seq = limit_sequence(interval_box, p_max=8)
    assert seq.truncated
    assert [p for p, _ in seq.entries] == [1, 2, 3, 4]  # 4^5 entries break the cap


def test_lifting_identity_trivial_k():
    dist = single_atom(np.array([[1.2]]))
    assert lifting_identity_check(dist, p=3, k=1) == 0.0


def test_lifting_identity_scalar_uniform(interval_box):
    # on a box both sides would read the same E[A^(kron p)], proving nothing
    for box in (scalar_uniform(1.0), interval_box):
        with pytest.raises(AssumptionError):
            lifting_identity_check(box, p=2, k=2)


def test_lifting_identity_atomic_pairs():
    rng = np.random.default_rng(13)
    for trial in range(5):
        dist = random_atomic(rng, n_atoms=2, dim=2, target_r2=0.9)
        assert lifting_identity_check(dist, p=4, k=2) <= 1e-8


def test_monotone_p_radius_even_steps():
    rng = np.random.default_rng(14)
    for trial in range(5):
        dist = random_atomic(rng, n_atoms=3, dim=2, target_r2=0.7)
        r2 = p_radius(dist, 2).value
        r4 = p_radius(dist, 4).value
        assert r2 <= r4 + 1e-9
