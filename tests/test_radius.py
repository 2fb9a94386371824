from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import switchstab.radius as radius_module
from switchstab import (
    AssumptionError,
    AssumptionPath,
    AtomicDistribution,
    JsrBounds,
    MarkovJumpSystem,
    UniformEntriesDistribution,
    Verdict,
    apply_feedback,
    check_mean_stability,
    jsr_bounds,
    lifting_identity_check,
    limit_sequence,
    markov_stability,
    markov_tp_spectral_radius,
    p_radius,
    spectrum,
)
from switchstab.linalg import sorted_indices
from conftest import random_atomic, scalar_uniform
from test_models import count_array_box_lift, sym_fold


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


@pytest.mark.parametrize(
    "lower, upper", [(0.3, 0.3 + 1e-9), (1e4, 1e4 + 1e-6), (0.9999999945, 0.9999999955)]
)
def test_p_radius_of_a_narrow_box_is_its_exact_moment(lower, upper):
    # the closed form (u^(p+1) - l^(p+1)) / ((p+1)(u-l)) cancels on these
    box = UniformEntriesDistribution(lower=np.array([[lower]]), upper=np.array([[upper]]))
    lo, up = Fraction(lower), Fraction(upper)
    for p in range(1, 5):
        moment = (up ** (p + 1) - lo ** (p + 1)) / ((p + 1) * (up - lo))
        assert p_radius(box, p).value == pytest.approx(float(moment) ** (1.0 / p), rel=1e-14)
        # the last box lies 4.5e-9 to 5.5e-9 below 1, outside the marginal band
        verdict = Verdict.STABLE if upper < 1 else Verdict.UNSTABLE
        assert check_mean_stability(box, p).verdict is verdict


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
    signed = single_atom(np.array([[0.5, -0.2], [0.1, 0.3]]))
    for dist in (atomic, interval_box, signed):
        cls = type(dist)
        licensed = p % 2 == 0 or dist.support_nonnegative()
        orders = sorted({p, 1} if licensed else {1}, reverse=True)
        expected = {q: bool(np.all(dist.expected_symmetric_power(q) > 0)) for q in orders}
        calls = {"expected_symmetric_power": [], "expected_kron_power": []}
        for name, log in calls.items():

            def counting(self, q, original=getattr(cls, name), log=log):
                log.append(q)
                return original(self, q)

            monkeypatch.setattr(cls, name, counting)
        report = check_mean_stability(dist, p)
        built, full = list(calls["expected_symmetric_power"]), list(calls["expected_kron_power"])
        for log in calls.values():
            log.clear()
        radius = p_radius(dist, p)
        monkeypatch.undo()
        # one Sym^p matrix serves the radius and its flag, the mean adds the
        # flag of p = 1, an unsupported p builds no Sym^p matrix, and the
        # d^p x d^p lift is never built
        assert built == orders
        assert full == []
        assert calls == {"expected_symmetric_power": [p] if licensed else [],
                         "expected_kron_power": []}
        assert report.cone_flags.expectation_positive == expected
        if licensed:
            assert report.p_radius.value == pytest.approx(radius.value, rel=1e-15)
        else:
            assert report.p_radius.value is None and radius.value is None


def test_each_radius_names_its_cone(monkeypatch, three_mode_system):
    """Nonnegative supports solve on the orthant at any p, signed laws on
    the PSD cone at p = 2 and densely at p >= 4; Markov radii likewise, on
    N-tuples of PSD blocks at p = 2."""
    routes = []
    cone_radius = radius_module.cone_spectral_radius

    def spy(m, psd_side=None):
        result = cone_radius(m, psd_side)
        routes.append((m.shape[0], psd_side))
        return result

    monkeypatch.setattr(radius_module, "cone_spectral_radius", spy)
    rng = np.random.default_rng(6)
    nonneg = AtomicDistribution(np.array([0.5, 0.5]), rng.uniform(size=(2, 3, 3)))
    signed = AtomicDistribution(np.array([0.5, 0.5]), rng.standard_normal((2, 3, 3)))
    for dist, p, route in (
        (nonneg, 3, [(10, None)]),
        (nonneg, 2, [(6, None)]),
        (signed, 2, [(6, 3)]),
        (signed, 4, []),
    ):
        routes.clear()
        check_mean_stability(dist, p)
        assert routes == route
    signed = MarkovJumpSystem(three_mode_system.transition, -three_mode_system.modes)
    for system, p, route in (
        (three_mode_system, 1, [(6, None)]),
        (three_mode_system, 2, [(9, None)]),
        (three_mode_system, 3, [(12, None)]),
        (signed, 2, [(9, 2)]),
        (signed, 4, []),
    ):
        routes.clear()
        markov_stability(system, p)
        assert routes == route


# ---------------------------------------------------------------------------
# Markov lifts
# ---------------------------------------------------------------------------


def test_markov_tp_single_mode_is_kron_power():
    m = np.array([[0.3, 0.1], [0.0, 0.5]])
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]))
    for p in (1, 2):
        from switchstab import kron_power

        assert np.allclose(system.expected_kron_power(p), kron_power(m, p), atol=1e-15)


def test_markov_tp_scalar_modes_block_structure():
    p_mat = np.array([[0.2, 0.8], [0.6, 0.4]])
    modes = np.array([[[2.0]], [[3.0]]])
    system = MarkovJumpSystem(transition=p_mat, modes=modes)
    t1 = system.expected_kron_power(1)
    for i in range(2):
        for j in range(2):
            assert t1[j, i] == pytest.approx(p_mat[i, j] * modes[i, 0, 0])


def test_markov_tp_three_mode_block(three_mode_system):
    t1 = three_mode_system.expected_kron_power(1)
    assert t1.shape == (6, 6)
    assert np.allclose(t1[0:2, 2:4], 0.5 * three_mode_system.modes[1], atol=1e-15)


def test_markov_tp_is_its_blocks_bit_for_bit():
    # block (j, i) is P[i, j] M_i^(kron p), one product per entry, with
    # zero transitions and zero mode entries
    from switchstab import kron_power

    rng = np.random.default_rng(21)
    for _ in range(60):
        n, d, p = (int(k) for k in rng.integers(1, [5, 4, 4]))
        transition = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        transition[:, 0] += transition.sum(axis=1) == 0
        transition /= transition.sum(axis=1, keepdims=True)
        modes = rng.standard_normal((n, d, d)) * (rng.random((n, d, d)) < 0.7)
        system = MarkovJumpSystem(transition=transition, modes=modes)
        dp = d**p
        blocks = np.zeros((n * dp, n * dp))
        for i in range(n):
            for j in range(n):
                blocks[j * dp : (j + 1) * dp, i * dp : (i + 1) * dp] = (
                    transition[i, j] * kron_power(modes[i], p)
                )
        assert np.array_equal(system.expected_kron_power(p), blocks)


def _oracle_t1(system):
    # independent assembly: kron against an explicit block diagonal
    n, d = system.n_modes, system.dim
    diag = np.zeros((n * d, n * d))
    for i in range(n):
        diag[i * d : (i + 1) * d, i * d : (i + 1) * d] = system.modes[i]
    return np.kron(system.transition.T, np.eye(d)) @ diag


def test_markov_radius_open_loop(three_mode_system):
    oracle = spectrum(_oracle_t1(three_mode_system)).spectral_radius
    result = p_radius(three_mode_system, 1)
    assert result.assumption_path is AssumptionPath.ORTHANT_INVARIANT
    assert result.value == pytest.approx(oracle, rel=1e-12)
    assert result.value == pytest.approx(1.2210121637370406, rel=1e-10)
    assert markov_stability(three_mode_system, 1).verdict is Verdict.UNSTABLE


def test_markov_radius_closed_loop(three_mode_system):
    closed = apply_feedback(three_mode_system)
    oracle = spectrum(_oracle_t1(closed)).spectral_radius
    result = p_radius(closed, 1)
    assert result.value == pytest.approx(oracle, rel=1e-12)
    assert result.value == pytest.approx(0.9590612286010841, rel=1e-10)
    assert markov_stability(closed, 1).verdict is Verdict.STABLE


def test_markov_radius_p1_needs_nonnegative_modes(monkeypatch):
    system = MarkovJumpSystem(
        transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
        modes=np.array([[[0.5, -0.1], [0.0, 0.5]], [[0.4, 0.0], [0.0, 0.4]]]),
    )
    built = []
    build = MarkovJumpSystem.expected_symmetric_power
    monkeypatch.setattr(
        MarkovJumpSystem,
        "expected_symmetric_power",
        lambda system, p: built.append(p) or build(system, p),
    )
    for p in (1, 3, 5):
        result = p_radius(system, p)
        assert result.assumption_path is AssumptionPath.UNSUPPORTED
        assert result.value is None
        assert markov_stability(system, p).verdict is Verdict.UNSUPPORTED
    # an unsupported p builds no operator; each report reads T_1 for its flag
    assert built == [1, 1, 1]
    # even p carries no sign hypothesis
    for p in (2, 4):
        assert p_radius(system, p).assumption_path is AssumptionPath.EVEN_P
    assert built == [1, 1, 1, 2, 4]


def test_markov_radius_deterministic_contraction():
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([0.5 * np.eye(2)]))
    assert p_radius(system, 2).value == pytest.approx(0.5, rel=1e-12)


def test_markov_general_p_is_fenced():
    """Odd p is fenced by the licence, not by its value: p = 3 answers on
    nonnegative modes and is unsupported with a negative entry, where only
    the full lift's rho(T_3)^(1/3) is read."""
    system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([0.5 * np.eye(2)]))
    result = p_radius(system, 3)
    assert result.assumption_path is AssumptionPath.ORTHANT_INVARIANT
    assert result.value == pytest.approx(0.5, rel=1e-12)
    assert result.lifted_dim == 8
    flipped = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([-0.5 * np.eye(2)]))
    assert p_radius(flipped, 3).value is None
    assert markov_tp_spectral_radius(flipped, 3) == pytest.approx(0.5, rel=1e-10)
    with pytest.raises(ValueError):
        p_radius(system, 0)


def test_markov_single_mode_matches_iid_atom():
    """A law is the one-mode chain P = [[1]]: the chain and the law of M give
    the same matrices, radii and reports, cone flags included."""
    for m in (
        np.array([[0.6, 0.2], [0.1, 0.3]]),
        np.array([[0.6, -0.2], [0.1, 0.3]]),
        np.array([[0.5, 0.0, 1.2], [0.3, 0.9, 0.0], [0.0, 0.2, 0.4]]),
    ):
        system = MarkovJumpSystem(transition=np.array([[1.0]]), modes=np.array([m]))
        dist = single_atom(m)
        assert system.n_modes == dist.n_modes == 1
        assert system.support_nonnegative() == dist.support_nonnegative()
        for p in range(1, 6):
            assert np.array_equal(
                system.expected_symmetric_power(p), dist.expected_symmetric_power(p)
            )
            assert np.array_equal(system.expected_kron_power(p), dist.expected_kron_power(p))
            assert p_radius(system, p).to_dict() == p_radius(dist, p).to_dict()
            report = check_mean_stability(system, p).to_dict()
            assert report == check_mean_stability(dist, p).to_dict()


def test_limit_sequence_of_a_markov_system(three_mode_system):
    closed = apply_feedback(three_mode_system)
    seq = limit_sequence(closed, p_max=5)
    assert seq.entries == [(p, p_radius(closed, p).value) for p in range(1, 6)]
    assert seq.jsr_reference is None and not seq.truncated


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


def full_enumeration_jsr_bounds(atoms, depth: int, budget: int = 1_000_000) -> JsrBounds:
    """Reference: one eigvals and one svd on every product up to ``depth``."""
    mats = np.asarray(atoms, dtype=float)
    m = mats.shape[0]
    lower = 0.0
    upper = np.inf
    produced = 0
    truncated = False
    level = mats
    completed = 0
    for length in range(1, depth + 1):
        if length > 1:
            if produced + level.shape[0] * m > budget:
                truncated = True
                break
            level = np.einsum("aij,bjk->abik", level, mats).reshape(-1, *mats.shape[1:])
        elif level.shape[0] > budget:
            truncated = True
            break
        produced += level.shape[0]
        eigs = np.linalg.eigvals(level)
        lower = max(lower, float(np.max(np.abs(eigs)) ** (1.0 / length)))
        norms = np.linalg.svd(level, compute_uv=False)[:, 0]
        upper = min(upper, float(np.max(norms) ** (1.0 / length)))
        completed = length
    return JsrBounds(lower=lower, upper=upper, depth=completed, truncated=truncated)


def jsr_outcome(bracket, *args, **kwargs):
    """The bracket's fields, or the type of the exception it raises."""
    try:
        bounds = bracket(*args, **kwargs)
    except ValueError as exc:  # LinAlgError is one
        return type(exc)
    return bounds.lower, bounds.upper, bounds.depth, bounds.truncated


@st.composite
def jsr_supports(draw):
    """m <= 3 atoms of size d <= 5 and a depth <= 8: signed, nonnegative or
    jointly nilpotent (strictly upper triangular in a common rotated basis),
    scaled by 1 or e^(+-30)."""
    m, d, depth = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.standard_normal((m, d, d))
    kind = draw(st.sampled_from(["signed", "nonnegative", "nilpotent"]))
    if kind == "nonnegative":
        atoms = np.abs(atoms)
    elif kind == "nilpotent":
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        atoms = basis @ np.triu(atoms, 1) @ basis.T
    return atoms * draw(st.sampled_from([1.0, np.exp(30.0), np.exp(-30.0)])), depth


@settings(max_examples=60, deadline=None)
@given(jsr_supports())
def test_jsr_bracket_equals_full_enumeration(support):
    atoms, depth = support
    assert jsr_outcome(jsr_bounds, atoms, depth) == jsr_outcome(
        full_enumeration_jsr_bounds, atoms, depth
    )


@pytest.mark.parametrize("scale", [1e-40, 1.0, 1e40])
def test_jsr_bracket_equals_full_enumeration_where_squares_leave_the_range(scale):
    # at 1e+-40 the depth-5 products reach 1e+-200, whose squares overflow
    # or underflow, so the Frobenius norms are only trusted where finite
    atoms = scale * np.random.default_rng(21).standard_normal((2, 3, 3))
    atoms[1] *= 1e3
    assert jsr_outcome(jsr_bounds, atoms, 5) == jsr_outcome(full_enumeration_jsr_bounds, atoms, 5)


def test_jsr_budget_truncation_equals_full_enumeration():
    atoms = np.random.default_rng(9).standard_normal((3, 3, 3))
    bounds = jsr_outcome(jsr_bounds, atoms, 10, budget=3 + 9 + 27 + 81)
    assert bounds == jsr_outcome(full_enumeration_jsr_bounds, atoms, 10, budget=3 + 9 + 27 + 81)
    assert bounds[2:] == (4, True)


def test_jsr_overflowing_products_enumerate_on_rescaled_atoms():
    atoms = np.array([[[1e200, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1e200]]])
    with pytest.raises(np.linalg.LinAlgError):
        full_enumeration_jsr_bounds(atoms, 3)
    # 2^-665 brings max|a| into [0.5, 1); scaling back by 2^665 is exact
    shift = int(np.frexp(1e200)[1])
    rescaled = full_enumeration_jsr_bounds(np.ldexp(atoms, -shift), 3)
    assert jsr_outcome(jsr_bounds, atoms, 3) == (
        np.ldexp(rescaled.lower, shift), np.ldexp(rescaled.upper, shift), 3, False
    )


def test_jsr_level_stops_under_the_entry_cap(monkeypatch):
    atoms = np.random.default_rng(4).standard_normal((2, 3, 3))
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", str(2**5 * 9))
    bounds = jsr_bounds(atoms, depth=8)
    assert (bounds.depth, bounds.truncated) == (5, True)
    reference = full_enumeration_jsr_bounds(atoms, 5)
    assert (bounds.lower, bounds.upper) == (reference.lower, reference.upper)


def test_jsr_solves_only_products_that_can_move_the_bracket(monkeypatch):
    solved = {"eigvals": 0, "svd": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            solved[name] += a.shape[0] if a.ndim == 3 else 1
            return original(a, *args, **kwargs)

        return wrapper

    atoms = np.random.default_rng(3).standard_normal((2, 4, 4))
    reference = full_enumeration_jsr_bounds(atoms, 14)
    for name in solved:
        monkeypatch.setattr(radius_module.np.linalg, name, counting(name))
    bounds = jsr_bounds(atoms, 14)
    assert (bounds.lower, bounds.upper) == (reference.lower, reference.upper)
    # the full enumeration solves each of the 2^15 - 2 products twice
    full_enumeration = 2 * (2**15 - 2)
    assert full_enumeration == 65_532
    assert solved["eigvals"] + solved["svd"] < 0.05 * full_enumeration


def test_jsr_bracket_check_is_relative():
    # rho(P) = ||P|| for a 1 x 1 atom, so the bounds differ by rounding only
    bounds = jsr_bounds(np.array([[[1.1e6]]]), 3)
    assert bounds.lower == pytest.approx(1.1e6, rel=1e-15)
    assert bounds.upper == pytest.approx(1.1e6, rel=1e-15)
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        JsrBounds(lower=1.0 + 1e-11, upper=1.0, depth=1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.floats(-6.0, 6.0),
)
@example(1, 1, 3, 0, True, 6.0)
def test_jsr_bracket_is_absolutely_homogeneous(m, d, depth, seed, nonnegative, log_c):
    atoms = np.random.default_rng(seed).standard_normal((m, d, d))
    if nonnegative:
        atoms = np.abs(atoms)
    c = 10.0**log_c
    bounds, scaled = jsr_bounds(atoms, depth), jsr_bounds(c * atoms, depth)
    assert scaled.lower == pytest.approx(c * bounds.lower, rel=1e-12)
    assert scaled.upper == pytest.approx(c * bounds.upper, rel=1e-12)
    assert (scaled.depth, scaled.truncated) == (bounds.depth, bounds.truncated)


@pytest.mark.parametrize("scale", [1e-70, 1e80])
def test_jsr_bracket_at_extreme_scales_is_the_scaled_bracket(scale):
    # depth-6 products of the scaled atoms reach 1e-420 or 1e480, outside
    # the range of doubles, unless the enumeration rescales the atoms
    atoms = np.random.default_rng(0).standard_normal((2, 2, 2))
    bounds, scaled = jsr_bounds(atoms, 6), jsr_bounds(scale * atoms, 6)
    assert scaled.lower == pytest.approx(scale * bounds.lower, rel=1e-12)
    assert scaled.upper == pytest.approx(scale * bounds.upper, rel=1e-12)
    assert (scaled.depth, scaled.truncated) == (6, False)



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
    seq = limit_sequence(dist, p_max=6)
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
    # the table of multisets of p cells holds C(p+3, 3) p entries: 280 at
    # p = 5, 504 at p = 6
    assert [p for p, _ in seq.entries] == [1, 2, 3, 4, 5]


def test_limit_sequence_reaches_p12_at_the_default_cap(monkeypatch):
    # the full lift at p = 12 has 4^12 > 10^7 entries; Sym^12 has dimension 13
    monkeypatch.delenv("SWITCHSTAB_MAX_LIFT_ENTRIES", raising=False)
    probs = np.array([0.3, 0.7])
    diagonals = np.array([[0.9, 0.4], [0.5, 1.1]])
    dist = AtomicDistribution(probabilities=probs, atoms=np.array([np.diag(x) for x in diagonals]))
    seq = limit_sequence(dist, p_max=12)
    assert not seq.truncated
    assert [p for p, _ in seq.entries] == list(range(1, 13))
    a, b = diagonals.T
    for p, value in seq.entries:
        closed = max(probs @ (a**m * b ** (p - m)) for m in range(p + 1)) ** (1.0 / p)
        assert value == pytest.approx(closed, rel=1e-12)


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


# ---------------------------------------------------------------------------
# properties of the Sym^p route against the dense lift
# ---------------------------------------------------------------------------


def dense_lift(dist, p):
    """E[A^(kron p)] built densely: np.kron powers of the atoms, or the
    count-array lift of a box."""
    if isinstance(dist, UniformEntriesDistribution):
        return count_array_box_lift(dist, p)
    out = 0.0
    for w, m in zip(dist.probabilities, dist.atoms):
        k = m
        for _ in range(p - 1):
            k = np.kron(k, m)
        out = out + w * k
    return out


def dense_radius(dist, p):
    """rho(E[A^(kron p)])^(1/p) from the dense lift, with the tolerance of
    :func:`radius_with_allowance`."""
    return radius_with_allowance(dense_lift(dist, p), p)


def radius_with_allowance(lift, p):
    """rho(lift)^(1/p), with the relative tolerance a comparison with it
    needs: 1e-12, or more where the dominant eigenvalue is ill conditioned.
    There the first-order Bauer-Fike bound
    eps * cond(V) * ||T|| / (p * rho(T)) applies, and the dense and the
    Sym^p routes both lose digits (near-defective atoms, such as a matrix
    close to a nilpotent one)."""
    eigenvalues, vectors = np.linalg.eig(lift)
    rho = float(np.max(np.abs(eigenvalues)))
    bound = np.finfo(float).eps * np.linalg.cond(vectors) * np.linalg.norm(lift, 2) / (p * rho)
    return rho ** (1.0 / p), max(1e-12, bound)


#: (d, p) with d <= 4, p <= 6 and a dense lift of at most 256 x 256
SIZES = [(d, p) for d in range(1, 5) for p in range(1, 7) if d**p <= 256]
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def licensed_laws(draw):
    """A law and a licensed p: signed atoms at even p, nonnegative atoms or
    boxes at odd p, with entries drawn from a drawn seed."""
    d, p = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 4.0))
    if p % 2 and draw(st.booleans()):
        lower = scale * rng.uniform(0.0, 1.0, (d, d))
        upper = lower + scale * rng.uniform(0.0, 1.0, (d, d))
        return UniformEntriesDistribution(lower=lower, upper=upper), p
    n_atoms = draw(st.integers(1, 3))
    probs = rng.dirichlet(np.ones(n_atoms)) * 0.9 + 0.1 / n_atoms
    atoms = scale * rng.standard_normal((n_atoms, d, d))
    if p % 2:
        atoms = np.abs(atoms)
    return AtomicDistribution(probabilities=probs / probs.sum(), atoms=atoms), p


@PROPERTY_SETTINGS
@given(licensed_laws())
def test_sym_route_matches_the_dense_lift(law):
    dist, p = law
    report = check_mean_stability(dist, p)
    value, rel = dense_radius(dist, p)
    assert report.p_radius.value == pytest.approx(value, rel=rel)
    assert report.p_radius.lifted_dim == dist.dim**p
    assert report.cone_flags.expectation_positive == {
        q: bool(np.all(sym_fold(dense_lift(dist, q), dist.dim, q) > 0)) for q in {1, p}
    }


@PROPERTY_SETTINGS
@given(licensed_laws(), st.floats(0.2, 5.0), st.booleans())
def test_p_radius_is_absolutely_homogeneous(law, c, negate):
    dist, p = law
    if isinstance(dist, AtomicDistribution):
        # a negative factor keeps odd p licensed only on the orthant, so
        # it is tried at even p
        c = -c if negate and p % 2 == 0 else c
        scaled = AtomicDistribution(probabilities=dist.probabilities, atoms=c * dist.atoms)
    else:
        scaled = UniformEntriesDistribution(lower=c * dist.lower, upper=c * dist.upper)
    rel = dense_radius(dist, p)[1]
    assert p_radius(scaled, p).value == pytest.approx(abs(c) * p_radius(dist, p).value, rel=rel)


@PROPERTY_SETTINGS
@given(st.sampled_from(SIZES), st.integers(0, 2**32 - 1))
def test_degenerate_box_is_its_single_atom(size, seed):
    d, p = size
    m = np.random.default_rng(seed).standard_normal((d, d))
    if p % 2:
        m = np.abs(m)
    box = UniformEntriesDistribution(lower=m, upper=m)
    atom = single_atom(m)
    box_report, atom_report = check_mean_stability(box, p), check_mean_stability(atom, p)
    rel = dense_radius(atom, p)[1]
    assert box_report.p_radius.value == pytest.approx(atom_report.p_radius.value, rel=rel)
    assert box_report.cone_flags == atom_report.cone_flags


@PROPERTY_SETTINGS
@given(licensed_laws(), st.integers(0, 2**32 - 1))
def test_p_radius_is_invariant_under_a_common_similarity(law, seed):
    """rho_p is unchanged when every atom A becomes T A T^-1, because
    E[(T A T^-1)^(kron p)] is similar to E[A^(kron p)] through T^(kron p).
    T has singular values in [1/2, 2]. At odd p it is a positive diagonal,
    which keeps the law on the orthant and maps a box to a box."""
    dist, p = law
    rng = np.random.default_rng(seed)
    d = dist.dim
    scales = rng.uniform(0.5, 2.0, d)
    if isinstance(dist, UniformEntriesDistribution):
        # entry (i, j) of D A D^-1 is a_ij s_i / s_j
        ratio = scales[:, None] / scales[None, :]
        similar = UniformEntriesDistribution(lower=ratio * dist.lower, upper=ratio * dist.upper)
    else:
        t = np.diag(scales)
        if p % 2 == 0:
            left, _ = np.linalg.qr(rng.standard_normal((d, d)))
            right, _ = np.linalg.qr(rng.standard_normal((d, d)))
            t = left @ t @ right
        atoms = t @ dist.atoms @ np.linalg.inv(t)
        similar = AtomicDistribution(probabilities=dist.probabilities, atoms=atoms)
    rel = dense_radius(dist, p)[1] + dense_radius(similar, p)[1]
    assert p_radius(similar, p).value == pytest.approx(p_radius(dist, p).value, rel=rel)


@st.composite
def positive_laws_and_permutations(draw):
    """A law with strictly positive entries (atoms with d <= 4 and m <= 3, or
    a box), the same law under a permutation similarity P A P^T, and p."""
    d, p = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = np.array(draw(st.permutations(range(d))))

    def permuted(a):  # P a P^T, on the last two axes
        return a[..., perm, :][..., :, perm]

    if draw(st.booleans()):
        lower = rng.uniform(0.05, 1.0, (d, d))
        upper = lower + rng.uniform(0.0, 1.0, (d, d))
        box = UniformEntriesDistribution(lower=lower, upper=upper)
        return box, UniformEntriesDistribution(lower=permuted(lower), upper=permuted(upper)), p
    m = draw(st.integers(1, 3))
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    probs /= probs.sum()
    atoms = rng.uniform(0.05, 2.0, (m, d, d))
    return (
        AtomicDistribution(probabilities=probs, atoms=atoms),
        AtomicDistribution(probabilities=probs, atoms=permuted(atoms)),
        p,
    )


@PROPERTY_SETTINGS
@given(positive_laws_and_permutations())
def test_p_radius_is_invariant_under_a_permutation_similarity(laws):
    """E[(P A P^T)^(kron p)] is E[A^(kron p)] with its rows and columns
    permuted by P^(kron p), so its Sym^p matrix is permuted likewise.
    Positive entries keep the Perron root simple, hence well conditioned."""
    dist, permuted, p = laws
    assert p_radius(permuted, p).value == pytest.approx(p_radius(dist, p).value, rel=1e-12)


@st.composite
def markov_systems(draw):
    """N <= 4 modes of size d <= 3, signed or nonnegative, with a transition
    matrix that may have zero entries."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transition = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) >= 0.3)
    transition[np.arange(n), rng.integers(0, n, n)] += 0.1
    modes = rng.standard_normal((n, d, d))
    if draw(st.booleans()):
        modes = np.abs(modes)
    return MarkovJumpSystem(transition=transition / transition.sum(axis=1, keepdims=True), modes=modes)


@PROPERTY_SETTINGS
@given(markov_systems(), st.integers(1, 5))
def test_markov_sym2_radius_matches_the_dense_t2(system, p):
    """At every licensed p the spectral radius of T_p is attained on
    Sym^p (x) R^N."""
    assume(system.dim**p * system.n_modes <= 256)
    result = p_radius(system, p)
    assert result.lifted_dim == system.n_modes * system.dim**p
    if p % 2 and np.any(system.modes < 0):
        assert result.value is None
        return
    value, rel = radius_with_allowance(system.expected_kron_power(p), p)
    assert result.value == pytest.approx(value, rel=rel)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_markov_sym_operator_propagates_the_conditional_moments(n, p):
    """E[m_p(x(k)) 1{sigma_k = j}], summed over every mode sequence, is the
    Sym^p (x) R^N operator applied k times to m_p(x0) in block sigma_0, for
    k <= 8: the identity that licenses the Markov verdicts."""
    rng = np.random.default_rng(10 * n + p)
    transition = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) >= 0.3)
    transition[np.arange(n), rng.integers(0, n, n)] += 0.1
    system = MarkovJumpSystem(
        transition=transition / transition.sum(axis=1, keepdims=True),
        modes=rng.standard_normal((n, 2, 2)),
    )
    exponents = sorted_indices(2, p)

    def monomial_blocks(states, modes, weights):
        # the weighted m_p(x) of every sequence, summed by its current mode
        terms = weights[:, None] * np.prod(states[:, exponents], axis=2)
        return np.stack([terms[modes == j].sum(axis=0) for j in range(n)]).reshape(-1)

    operator = system.expected_symmetric_power(p)
    sigma0, x0 = n - 1, np.array([0.8, -0.6])
    states, modes, weights = x0[None], np.array([sigma0]), np.ones(1)
    moments = monomial_blocks(states, modes, weights)
    for k in range(1, 9):
        # x(k) = M_{sigma_(k-1)} x(k-1), and sigma_k follows the chain
        states = np.repeat(np.einsum("sab,sb->sa", system.modes[modes], states), n, axis=0)
        weights = (weights[:, None] * system.transition[modes]).reshape(-1)
        modes = np.tile(np.arange(n), modes.size)
        moments = operator @ moments
        exact = monomial_blocks(states, modes, weights)
        assert np.allclose(moments, exact, rtol=1e-12, atol=1e-12 * np.max(np.abs(exact)))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3]))
@example(1, 263259, 0.3)
def test_p_radius_climbs_to_p40_below_the_jsr(m, seed, zeros):
    """rho_p is an L^p norm of the growth rate, so it is nondecreasing in p,
    and it never exceeds the joint spectral radius of the support.

    Near p = 40 the double eigensolve of S_p loses digits on non-normal
    atoms: the single atom [[0.00316, 0.685], [0.0121, 0]] (m=1,
    seed=263259, zeros=0.3) reads 1.06e-11 lower at p = 39 than at p = 38,
    its exact rho_p being constant. Steps are checked to 1e-9, above every
    drop seen on 1500 random laws (at most 1.7e-12) and that one."""
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(0.0, 1.0, (m, 2, 2)) * (rng.uniform(size=(m, 2, 2)) >= zeros)
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    dist = AtomicDistribution(probabilities=probs / probs.sum(), atoms=atoms)
    seq = limit_sequence(dist, p_max=40)
    assert not seq.truncated and len(seq.entries) == 40
    values = [value for _, value in seq.entries]
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(values, values[1:]))
    assert values[-1] <= seq.jsr_reference.upper * (1.0 + 1e-12)
