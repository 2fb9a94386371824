import itertools

import numpy as np
import pytest

from switchstab import (
    AssumptionError,
    DimensionCapError,
    dominant_left_eigenvector,
    kron_power,
    spectrum,
)
from switchstab.linalg import symmetric_orbits
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
    orbits = symmetric_orbits(d, p)
    # multi-indices in the flat order of kron_power: the first factor is
    # the most significant digit
    indices = list(itertools.product(range(d), repeat=p))
    reps = list(itertools.combinations_with_replacement(range(d), p))
    assert [tuple(r) for r in orbits.reps] == reps
    assert [tuple(orbits.reps[o]) for o in orbits.orbit] == [tuple(sorted(i)) for i in indices]
    assert [tuple(x) for x in orbits.digits] == indices
    # summing each orbit's columns of a matrix with equal entries counts it
    sizes = orbits.fold(np.ones((len(reps), d**p)))[0]
    assert sizes.tolist() == [sum(tuple(sorted(i)) == r for i in indices) for r in reps]
    assert not orbits.digits.flags.writeable
    assert symmetric_orbits(d, p) is orbits


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
