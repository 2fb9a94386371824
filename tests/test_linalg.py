import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchstab import (
    AssumptionError,
    AtomicDistribution,
    DimensionCapError,
    MarkovJumpSystem,
    UniformEntriesDistribution,
    cone_spectral_radius,
    dominant_left_eigenvector,
    kron_power,
    spectrum,
)
import switchstab.linalg as linalg_module
import switchstab.radius as radius_module
from switchstab.linalg import monomials, orbit_index, sorted_indices, symmetric_power
from conftest import is_positive_semidefinite


def test_kron_against_index_formula():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kron_power(m, 2)
    # independent oracle: entry ((i1,i2),(j1,j2)) = m[i1,j1] * m[i2,j2]
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert out[2 * i1 + i2, 2 * j1 + j2] == m[i1, j1] * m[i2, j2]
    assert np.array_equal(out[0:2, 2:4], 2 * m)  # block (1, 2)


@pytest.mark.parametrize("d, p", [(1, 4), (2, 3), (3, 2), (3, 4), (4, 1)])
def test_symmetric_orbits_group_indices_by_sorted_digits(d, p):
    # multi-indices in the flat order of kron_power: the first factor is
    # the most significant digit
    indices = list(itertools.product(range(d), repeat=p))
    reps = list(itertools.combinations_with_replacement(range(d), p))
    assert [tuple(r) for r in sorted_indices(d, p)] == reps
    orbit = orbit_index(d, p)
    assert [reps[o] for o in orbit] == [tuple(sorted(i)) for i in indices]
    # each monomial's first Kronecker coordinate is its sorted multi-index
    first = [indices.index(r) for r in reps]
    assert [int(np.flatnonzero(orbit == o)[0]) for o in range(len(reps))] == first
    # counting each orbit's coordinates gives the multinomial sizes
    tables = monomials(d, p)
    sizes = [sum(tuple(sorted(i)) == r for i in indices) for r in reps]
    assert np.bincount(orbit, minlength=len(reps)).tolist() == sizes
    assert tables.sizes.tolist() == sizes
    assert not tables.sizes.flags.writeable
    assert monomials(d, p) is tables


def folded_kron_power(m, p):
    """Oracle: the rows of m^(kron p) at the sorted multi-indices, with the
    columns of each orbit (flat indices with equal sorted digits) summed."""
    d = m.shape[0]
    lift = kron_power(m, p)
    indices = list(itertools.product(range(d), repeat=p))
    reps = list(itertools.combinations_with_replacement(range(d), p))
    number = {r: k for k, r in enumerate(reps)}
    rows = [indices.index(r) for r in reps]
    out = np.zeros((len(reps), len(reps)))
    for j, index in enumerate(indices):
        out[:, number[tuple(sorted(index))]] += lift[rows, j]
    return out


@st.composite
def matrix_pairs(draw):
    """Two d x d matrices (d <= 3), signed or nonnegative, with some zero
    entries, and p <= 6."""
    d, p = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = rng.standard_normal((2, d, d))
    if draw(st.booleans()):
        pair = np.abs(pair)
    pair *= rng.uniform(size=pair.shape) >= draw(st.sampled_from([0.0, 0.3]))
    return pair, p


@settings(max_examples=60, deadline=None)
@given(matrix_pairs(), st.floats(-3.0, 3.0))
def test_symmetric_power_is_the_folded_kron_power_and_multiplicative(case, c):
    (a, b), p = case
    s_a, s_b, s_ab = symmetric_power(np.stack([a, b, a @ b]), p)
    # rounding scale: the same products on absolute values, with no cancellation
    scale = symmetric_power(np.abs(np.stack([a, b])), p)
    assert np.max(np.abs(s_a - folded_kron_power(a, p))) <= 1e-12 * max(1.0, np.max(scale[0]))
    assert np.max(np.abs(s_ab - s_a @ s_b)) <= 1e-12 * max(1.0, np.max(scale[0] @ scale[1]))
    s_ca = symmetric_power((c * a)[None], p)[0]
    assert np.max(np.abs(s_ca - c**p * s_a)) <= 1e-12 * max(1.0, abs(c) ** p * np.max(scale[0]))


def test_symmetric_power_maps_monomials():
    # m_p(A x) = S_p(A) m_p(x) with m_p(x) the monomials at the sorted indices
    rng = np.random.default_rng(4)
    a, x = rng.standard_normal((3, 3)), rng.standard_normal(3)
    reps = sorted_indices(3, 4)
    monomial = lambda v: np.prod(v[reps], axis=1)
    s = symmetric_power(a[None], 4)[0]
    assert np.allclose(monomial(a @ x), s @ monomial(x), rtol=1e-13, atol=1e-13)
    assert np.array_equal(symmetric_power(a[None], 1)[0], a)


def test_symmetric_power_respects_the_entry_cap(monkeypatch):
    # two 2x2 matrices at p = 3: a 2 x 4 x 4 result
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "31")
    with pytest.raises(DimensionCapError, match="symmetric power"):
        symmetric_power(np.ones((2, 2, 2)), 3)
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "32")
    assert symmetric_power(np.ones((2, 2, 2)), 3).shape == (2, 4, 4)


def test_symmetric_power_in_row_blocks_is_the_same(monkeypatch):
    mats = np.random.default_rng(8).standard_normal((2, 3, 3))
    whole = symmetric_power(mats, 5)
    monkeypatch.setattr(linalg_module, "GATHER_BLOCK", 100)  # a few rows per block
    assert np.array_equal(symmetric_power(mats, 5), whole)


def test_kron_dimension_cap(monkeypatch):
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "8")
    with pytest.raises(DimensionCapError) as err:
        kron_power(np.eye(3), 2)
    assert "81" in str(err.value)
    monkeypatch.delenv("SWITCHSTAB_MAX_LIFT_ENTRIES")
    kron_power(np.eye(3), 2)  # default cap admits it


def test_kron_rejects_non_finite():
    with pytest.raises(ValueError):
        kron_power(np.array([[np.nan]]), 2)


def test_kron_rectangular_factors():
    # vectors lift too: x^(kron 2) lists x_i x_j in row-major order
    assert np.array_equal(kron_power(np.array([1.0, 10.0]), 2), [1.0, 10.0, 10.0, 100.0])
    out = kron_power(np.array([[1.0, 2.0, 3.0]]), 2)
    assert out.shape == (1, 9)
    assert np.array_equal(out, [[1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 3.0, 6.0, 9.0]])


def test_kron_power_identity_and_scalar():
    assert np.array_equal(kron_power(np.eye(3), 2), np.eye(9))
    g = 0.7
    assert np.allclose(kron_power(np.array([[g]]), 5), [[g**5]], rtol=0, atol=0)
    assert np.array_equal(kron_power(np.eye(2), 1), np.eye(2))


def test_kron_power_mixed_product_property():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        for p in (2, 3):
            m = rng.standard_normal((d, d))
            n = rng.standard_normal((d, d))
            left = kron_power(m @ n, p)
            right = kron_power(m, p) @ kron_power(n, p)
            rel = np.linalg.norm(left - right) / np.linalg.norm(left)
            assert rel <= 1e-12


def test_spectrum_diagonal_and_rotation():
    assert spectrum(np.diag([1.0, 2.0, 3.0])).spectral_radius == pytest.approx(3.0)
    eig = sorted(spectrum(np.array([[0.0, 1.0], [-1.0, 0.0]])).eigenvalues, key=lambda z: z.imag)
    assert eig[0] == pytest.approx(-1j, abs=1e-12)
    assert eig[1] == pytest.approx(1j, abs=1e-12)


def test_spectrum_of_interval_box_mean():
    # roots of z^2 - 1.35 z + 0.3825 via the quadratic formula
    oracle = (1.35 + np.sqrt(1.35**2 - 4 * 0.3825)) / 2
    rho = spectrum(np.array([[0.75, 0.9], [0.075, 0.6]])).spectral_radius
    assert rho == pytest.approx(oracle, rel=1e-12)
    assert rho == pytest.approx(0.945416, abs=5e-7)


def test_spectrum_radius_of_kron_power_is_power():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        m = rng.standard_normal((d, d))
        base = spectrum(m).spectral_radius
        for p in (2, 3):
            lifted = spectrum(kron_power(m, p)).spectral_radius
            assert lifted == pytest.approx(base**p, rel=1e-8)


def test_spectrum_requires_square():
    with pytest.raises(ValueError):
        spectrum(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# spectral radii on cones: shifted solves and Collatz-Wielandt brackets
# ---------------------------------------------------------------------------


def markov_t2(transition, modes):
    """T_2 on Sym^2 (x) R^N: block (j, i) is P[i, j] S_2(M_i)."""
    return radius_module.markov_on_sym(MarkovJumpSystem(transition, modes), 2)


def cone_radius_everywhere(m, psd_side=None):
    """The routine with the crossover at 0, so that even small matrices
    take the iterative route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg_module, "CONE_CROSSOVER", 0)
        return cone_spectral_radius(m, psd_side)


def assert_bracketed(result, m):
    """A closed bracket holds the value, and the value is the dense one."""
    dense = spectrum(m).spectral_radius
    assert result.route != "dense"
    assert result.lower <= result.value <= result.upper
    assert result.upper - result.lower <= linalg_module.CONE_TOL * result.upper
    assert abs(result.value - dense) <= 1e-12 * dense
    slack = 1e-12 * result.upper
    assert result.lower - slack <= dense <= result.upper + slack


@st.composite
def nonnegative_laws(draw):
    """Nonnegative atomic laws and boxes, d <= 8 and p <= 5, with and without
    zero entries, whose Sym^p matrix has at most 130 rows."""
    d = draw(st.integers(1, 8))
    p = draw(st.integers(1, 5).filter(lambda p: math.comb(d + p - 1, p) <= 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.2, 0.5]))
    if draw(st.booleans()):
        atoms = rng.uniform(0.01, 1.0, (3, d, d)) * (rng.uniform(size=(3, d, d)) >= zeros)
        law = AtomicDistribution(probabilities=np.full(3, 1.0 / 3.0), atoms=atoms)
    else:
        lower = rng.uniform(0.01, 1.0, (d, d)) * (rng.uniform(size=(d, d)) >= zeros)
        width = rng.uniform(0.0, 0.5, (d, d)) * (rng.uniform(size=(d, d)) >= zeros)
        law = UniformEntriesDistribution(lower=lower, upper=lower + width)
    return law.expected_symmetric_power(p), zeros == 0.0


@settings(max_examples=80, deadline=None)
@given(nonnegative_laws())
def test_orthant_radius_is_bracketed_and_dense(case):
    m, positive = case
    result = cone_radius_everywhere(m)
    if result.route == "dense":  # a reducible law; a positive one closes
        assert not positive
        assert result.value == spectrum(m).spectral_radius
    else:
        assert result.route == "orthant"
        assert_bracketed(result, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4))
def test_collatz_wielandt_bounds_hold_at_any_point_inside_the_cone(seed, d, blocks):
    rng = np.random.default_rng(seed)
    bounds = linalg_module._collatz_wielandt
    m = rng.uniform(size=(d, d)) * (rng.uniform(size=(d, d)) >= 0.3)
    rho = spectrum(m).spectral_radius
    v = rng.uniform(0.01, 1.0, d)
    lo, hi = bounds(m, v, None)
    assert lo * (1 - 1e-12) <= rho <= hi * (1 + 1e-12) + 1e-300
    v[rng.integers(d)] = 0.0
    assert bounds(m, v, None) is None
    # T_2 of a chain with `blocks` modes at a positive definite point
    transition = rng.dirichlet(np.ones(blocks), size=blocks)
    t2 = markov_t2(transition, rng.standard_normal((blocks, d, d)))
    rho = spectrum(t2).spectral_radius
    sym = linalg_module.shift_up(d, 2)
    roots = rng.standard_normal((blocks, d, d))
    points = roots @ roots.transpose(0, 2, 1) + 0.1 * np.eye(d)
    size = d * (d + 1) // 2
    v = np.zeros((blocks, size))
    v[:, sym] = points
    lo, hi = bounds(t2, v.reshape(-1), sym)
    assert lo * (1 - 1e-10) <= rho <= hi * (1 + 1e-10) + 1e-300
    points[0] -= 2.0 * np.linalg.eigvalsh(points[0])[-1] * np.eye(d)  # not PSD
    v[:, sym] = points
    assert bounds(t2, v.reshape(-1), sym) is None


@st.composite
def psd_operators(draw):
    """E[S_2(A)] of signed atomic laws (d <= 8) and T_2 of Markov systems
    (N <= 6, d <= 4) with sparse transition matrices, with the side d."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = draw(st.integers(1, 8))
        atoms = rng.standard_normal((3, d, d))
        law = AtomicDistribution(probabilities=np.full(3, 1.0 / 3.0), atoms=atoms)
        return law.expected_symmetric_power(2), d
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    transition = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) >= 0.5)
    transition[np.arange(n), rng.integers(0, n, n)] += 0.1  # no zero row
    transition /= transition.sum(axis=1, keepdims=True)
    return markov_t2(transition, rng.standard_normal((n, d, d))), d


@settings(max_examples=80, deadline=None)
@given(psd_operators())
def test_psd_radius_is_bracketed_and_dense(case):
    m, d = case
    result = cone_radius_everywhere(m, d)
    if result.route == "dense":  # a reducible chain
        assert result.value == spectrum(m).spectral_radius
    else:
        assert result.route == "psd"
        assert_bracketed(result, m)


def test_cone_radius_is_dense_below_the_crossover_and_bracketed_above():
    rng = np.random.default_rng(3)
    small, large = (
        UniformEntriesDistribution(lower=low, upper=low + 0.3).expected_symmetric_power(3)
        for low in (rng.uniform(size=(2, 2)), rng.uniform(size=(8, 8)))
    )
    assert small.shape[0] < linalg_module.CONE_CROSSOVER <= large.shape[0]
    below = cone_spectral_radius(small)
    assert below.route == "dense" and below.solves == 0
    assert below.value == below.lower == below.upper == spectrum(small).spectral_radius
    above = cone_spectral_radius(large)
    assert above.route == "orthant" and above.solves <= linalg_module.CONE_STEPS
    assert_bracketed(above, large)
    atoms = rng.standard_normal((3, 16, 16))  # Sym^2 of R^16: 136 rows
    signed = AtomicDistribution(np.full(3, 1.0 / 3.0), atoms).expected_symmetric_power(2)
    assert_bracketed(cone_spectral_radius(signed, psd_side=16), signed)


@pytest.mark.parametrize("seed", range(4))
def test_warmed_brackets_of_benchmark_laws_close_within_the_step_cap(seed):
    # boxes and a Markov chain drawn as the benchmark draws them, before its
    # rescaling onto a target radius, which leaves the solve count alone
    rng = np.random.default_rng(seed)
    cases = []
    for d, p, low in ((8, 3, 0.0), (16, 2, -0.5)):
        lower = rng.uniform(low, 0.5, (d, d))
        box = UniformEntriesDistribution(lower=lower, upper=lower + rng.uniform(0.0, 0.6, (d, d)))
        cases.append((box.expected_symmetric_power(p), None if low == 0.0 else d))
    transition = rng.uniform(0.05, 1.0, (10, 10))
    transition /= transition.sum(axis=1, keepdims=True)
    cases.append((markov_t2(transition, rng.standard_normal((10, 4, 4))), 4))
    for m, psd_side in cases:
        assert m.shape[0] >= linalg_module.CONE_CROSSOVER
        result = cone_spectral_radius(m, psd_side)
        assert result.solves <= linalg_module.CONE_STEPS
        assert_bracketed(result, m)


def test_power_steps_stop_quietly_at_a_zero_image():
    # m v = 0 after one step; the point then lies on the boundary
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    with np.errstate(all="raise"):
        result = cone_radius_everywhere(nilpotent)
    assert (result.value, result.route, result.solves) == (0.0, "dense", 0)


def test_reducible_law_takes_the_dense_route():
    # upper-triangular atoms leave the monomials of x_5 ... invariant: the
    # bracket cannot close at a point inside the orthant, and the
    # irreducibility test sends the matrix to the dense route unsolved
    for seed in (5, 9):
        atoms = np.triu(np.random.default_rng(seed).uniform(0.1, 1.0, (2, 6, 6)))
        m = AtomicDistribution(np.array([0.5, 0.5]), atoms).expected_symmetric_power(3)
        assert m.shape[0] >= linalg_module.CONE_CROSSOVER
        result = cone_spectral_radius(m)
        assert (result.route, result.solves) == ("dense", 0)
        assert result.value == spectrum(m).spectral_radius
        assert not linalg_module._irreducible(m)
    cycle = np.roll(np.eye(5), 1, axis=1)  # irreducible, with zero entries
    assert linalg_module._irreducible(cycle)
    assert not linalg_module._irreducible(np.kron(np.eye(2), cycle))


def test_cone_radius_of_zero_and_of_a_fixed_point():
    assert cone_radius_everywhere(np.zeros((3, 3))).value == 0.0
    # E[S_2] of the permutation law [[0, 1], [1, 0]], I fixes the all-ones vector
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = AtomicDistribution(np.array([0.5, 0.5]), np.stack([swap, np.eye(2)]))
    for psd_side in (None, 2):
        result = cone_radius_everywhere(m.expected_symmetric_power(2), psd_side)
        assert (result.value, result.lower, result.upper, result.solves) == (1.0, 1.0, 1.0, 0)


def test_cone_radius_rejects_a_cone_it_cannot_hold():
    with pytest.raises(ValueError, match="nonnegative"):
        cone_radius_everywhere(-np.eye(3))
    with pytest.raises(ValueError, match="Sym\\^2"):
        cone_radius_everywhere(np.eye(4), psd_side=2)


def test_dominant_left_eigenvector_interval_box_mean():
    lam, f = dominant_left_eigenvector(np.array([[0.75, 0.9], [0.075, 0.6]]))
    assert f[1] == pytest.approx(1.0)
    assert f[0] == pytest.approx(0.3838, abs=5e-5)
    assert lam == pytest.approx(0.9454163456597993, abs=1e-8)


def test_dominant_left_eigenvector_symmetric_case():
    lam, f = dominant_left_eigenvector(np.ones((2, 2)))
    assert lam == pytest.approx(2.0)
    assert np.allclose(f, [1.0, 1.0])


def test_dominant_left_eigenvector_residual_bound():
    rng = np.random.default_rng(2)
    m = rng.uniform(0.1, 2.0, size=(3, 3))
    lam, f = dominant_left_eigenvector(m)
    assert np.all(f > 0)
    assert f.max() == pytest.approx(1.0)
    assert np.max(np.abs(f @ m - lam * f)) <= 1e-9 * lam


def test_dominant_left_eigenvector_rejects_nonpositive():
    with pytest.raises(AssumptionError):
        dominant_left_eigenvector(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_is_positive_semidefinite():
    assert is_positive_semidefinite(np.eye(2), 1e-12)
    assert not is_positive_semidefinite(np.diag([1.0, -1.0]), 1e-12)
    with pytest.raises(AssumptionError):
        is_positive_semidefinite(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-12)
