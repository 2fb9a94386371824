import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchstab import (
    AssumptionError,
    DimensionCapError,
    dominant_left_eigenvector,
    kron_power,
    spectrum,
)
import switchstab.linalg as linalg_module
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
