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
