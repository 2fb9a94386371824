"""Dense matrix arithmetic: Kronecker calculus, symmetric-power orbit
tables, spectra, Perron vectors.

Spectra and Perron vectors come from one dense LAPACK eigensolve each, with
no iteration budget. All operations are pure functions on ndarrays and are
safe to call concurrently; orbit tables are memoised and read-only. Sizes
of lifted arrays are guarded by an entry cap (default 10^7 entries,
overridable via SWITCHSTAB_MAX_LIFT_ENTRIES).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DimensionCapError, SolverFailureError

DEFAULT_LIFT_ENTRY_CAP = 10_000_000


def lift_entry_cap() -> int:
    """Current cap on the entry count of any lifted matrix."""
    raw = os.environ.get("SWITCHSTAB_MAX_LIFT_ENTRIES")
    if raw is None:
        return DEFAULT_LIFT_ENTRY_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError("SWITCHSTAB_MAX_LIFT_ENTRIES must be positive")
    return cap


def check_entry_cap(n_entries: int, context: str = "") -> None:
    cap = lift_entry_cap()
    if n_entries > cap:
        raise DimensionCapError(n_entries, cap, context)


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def kron_power(m: np.ndarray, p: int) -> np.ndarray:
    """p-fold Kronecker power of a matrix or vector; kron_power(m, 1) is m."""
    if p < 1:
        raise ValueError("Kronecker power requires p >= 1")
    m = check_finite(m, "base")
    check_entry_cap(m.size**p, "kron_power")
    out = m
    for _ in range(p - 1):
        out = np.kron(out, m)
    return out


@dataclass(frozen=True)
class SymmetricOrbits:
    """Orbits of the p-fold index set {0..d-1}^p under permutations of the
    p tensor factors, with indices flattened as in :func:`kron_power`.

    ``reps`` holds one nondecreasing multi-index per orbit, in increasing
    order of the flat index; ``digits`` holds the multi-index of every flat
    index and ``orbit`` its orbit id. The arrays are shared and read-only.
    """

    reps: np.ndarray  # (C(d+p-1, p), p)
    digits: np.ndarray  # (d^p, p)
    orbit: np.ndarray  # (d^p,)
    order: np.ndarray  # flat indices grouped by orbit
    starts: np.ndarray  # first position of each orbit in ``order``

    def fold(self, block: np.ndarray) -> np.ndarray:
        """Sum the columns of each orbit: on rows at ``reps`` of a matrix that
        commutes with the factor permutations, this is the matrix of its
        restriction to the symmetric tensors, in the basis of orbit sums."""
        return np.add.reduceat(block[:, self.order], self.starts, axis=1)

    def expand_left(self, h: np.ndarray) -> np.ndarray:
        """Left eigenvector of the full matrix from a left eigenvector ``h`` of
        its :meth:`fold`, for the same eigenvalue: entry i is
        h[orbit(i)] / |orbit(i)|."""
        sizes = np.diff(self.starts, append=self.order.size)
        return (h / sizes)[self.orbit]


def symmetric_dim(d: int, p: int) -> int:
    """Number of orbits, C(d+p-1, p): the dimension of Sym^p(R^d)."""
    return math.comb(d + p - 1, p)


@functools.lru_cache(maxsize=64)
def symmetric_orbits(d: int, p: int) -> SymmetricOrbits:
    """Orbit table for (d, p); callers check the entry cap first, since the
    table holds d^p * p entries."""
    n = d**p
    weights = d ** np.arange(p - 1, -1, -1)
    flat = np.arange(n)
    digits = np.empty((n, p), dtype=np.min_scalar_type(d - 1))
    for t, w in enumerate(weights):
        digits[:, t] = flat // w % d
    sorted_index = np.sort(digits, axis=1) @ weights
    rep_index = np.flatnonzero(sorted_index == flat)
    lookup = np.empty(n, dtype=np.intp)
    lookup[rep_index] = np.arange(rep_index.size)
    orbit = lookup[sorted_index]
    order = np.argsort(orbit, kind="stable")
    starts = np.searchsorted(orbit[order], np.arange(rep_index.size))
    table = SymmetricOrbits(
        reps=digits[rep_index], digits=digits, orbit=orbit, order=order, starts=starts
    )
    for arr in (table.reps, table.digits, table.orbit, table.order, table.starts):
        arr.flags.writeable = False
    return table


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue list (with multiplicity) and its maximum modulus."""

    eigenvalues: np.ndarray
    spectral_radius: float


def spectrum(m: np.ndarray) -> Spectrum:
    """All eigenvalues of a square matrix, via the dense LAPACK QR solver."""
    m = check_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    try:
        eig = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"eigenvalue iteration did not converge: {exc}") from exc
    return Spectrum(eigenvalues=eig, spectral_radius=float(np.max(np.abs(eig))))


def dominant_left_eigenvector(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and left Perron vector of an entrywise-positive matrix.

    One dense eigensolve of m.T. The returned f is entrywise positive with
    maximum entry 1 and satisfies ``norm(f @ m - lam * f, inf) <= 1e-12 * lam``.

    Raises AssumptionError if m is not entrywise positive (the positivity is
    what guarantees a simple dominant eigenvalue with a positive eigenvector),
    SolverFailureError if the eigensolve fails or misses that residual.
    """
    m = check_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(m > 0):
        raise AssumptionError(
            "dominant_left_eigenvector requires an entrywise-positive matrix"
        )
    try:
        values, vectors = np.linalg.eig(m.T)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"eigenvalue iteration did not converge: {exc}") from exc
    # the Perron root is real and the only eigenvalue of largest real part
    k = int(np.argmax(values.real))
    lam, v = float(values[k].real), vectors[:, k].real
    f = v / v[np.argmax(np.abs(v))]
    if not (np.all(f > 0) and float(np.max(np.abs(f @ m - lam * f))) <= 1e-12 * lam):
        raise SolverFailureError("eigensolve missed the Perron residual bound 1e-12")
    return lam, f
