"""Dense matrix arithmetic: Kronecker calculus, monomial tables and
induced matrices on symmetric powers, spectra, cone spectral radii.

Spectra come from one dense LAPACK eigensolve. The spectral radius of a
matrix that maps a cone into itself comes with a Collatz-Wielandt bracket
and the point inside the cone that backs it, from power steps and a few
shifted LU solves or from one dense eigensolve; after the step cap on the
solves the answer is the dense one, which no bracket checks. All
operations are pure functions on ndarrays and are safe to call
concurrently; monomial tables are memoised and read-only.
Sizes of lifted arrays and of every builder table are guarded by an entry
cap (default 10^7 entries, overridable via SWITCHSTAB_MAX_LIFT_ENTRIES),
checked on every call, also when a table is memoised.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError, SolverFailureError

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


def symmetric_dim(d: int, p: int) -> int:
    """Number of degree-p monomials in d variables, C(d+p-1, p): the
    dimension of Sym^p(R^d)."""
    return math.comb(d + p - 1, p)


class Monomials(NamedTuple):
    """Index tables of the degree-k monomials x^alpha in d variables.

    Monomials are numbered in increasing order of their sorted multi-index
    (x_0^2 x_1 is (0, 0, 1)), which is the order of their first coordinates
    in the flat Kronecker index of :func:`kron_power`. A table refers to the
    numbering of degree k - 1 and holds O(C(d+k-1, k)) entries; the arrays
    are shared and read-only.
    """

    last: np.ndarray  # (C,) largest variable index in alpha
    parent: np.ndarray  # (C,) x^alpha / x_last
    run: np.ndarray  # (C,) exponent alpha_last
    start: np.ndarray  # (C_{k-1},) first monomial whose parent is monomial r
    sizes: np.ndarray  # (C,) k!/prod(alpha_i!), the Kronecker coordinates of x^alpha


def _read_only(tables):
    for arr in tables:
        arr.flags.writeable = False
    return tables


def children(last: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The monomials of degree k as children of those of degree k - 1,
    whose largest variable indices are ``last``: each child appends one
    index >= its parent's last, in the numbering of :class:`Monomials`.
    Returns the parent and the last index of every child."""
    counts = d - last
    parent = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return parent, np.arange(parent.size) - first[parent] + last[parent]


@functools.lru_cache(maxsize=256)
def monomials(d: int, k: int) -> Monomials:
    """Tables of degree k, built from those of degree k - 1; callers walk
    the degrees in ascending order, so the recursion stays shallow, and
    check the entry cap first."""
    if k == 0:
        zero = np.zeros(1, dtype=np.intp)
        return _read_only(Monomials(zero, zero, zero, zero, np.ones(1)))
    prev = monomials(d, k - 1)
    parent, last = children(prev.last, d)
    start = np.searchsorted(parent, np.arange(prev.last.size))
    run = np.where(last == prev.last[parent], prev.run[parent] + 1, 1)
    sizes = prev.sizes[parent] * k / run
    return _read_only(Monomials(last, parent, run, start, sizes))


@functools.lru_cache(maxsize=256)
def shift_up(d: int, k: int) -> np.ndarray:
    """A C(d+k-2, k-1) x d table: entry (r, j) numbers x_j times monomial r
    of degree k - 1 >= 0. Built like :func:`monomials`, shared and
    read-only; callers check the entry cap first."""
    prev, tables = monomials(d, k - 1), monomials(d, k)
    j = np.arange(d)
    prev_last = prev.last[:, None]
    up = tables.start[:, None] + j - prev_last
    if k > 1:
        # x_j below the last index: append the last index to x_j times the
        # parent, a monomial of degree k - 1
        lower = shift_up(d, k - 1)[prev.parent]
        up = np.where(j >= prev_last, up, tables.start[lower] + prev_last - prev.last[lower])
    up.flags.writeable = False
    return up


@functools.lru_cache(maxsize=256)
def shift_down(d: int, k: int) -> np.ndarray:
    """A C(d+k-1, k) x d table: entry (r, j) numbers monomial r of degree
    k >= 1 divided by x_j, or is C(d+k-2, k-1) where x_j does not divide
    it. Shared and read-only; callers check the entry cap first."""
    up, below = shift_up(d, k), monomials(d, k - 1).last.size
    down = np.full((monomials(d, k).last.size, d), below, dtype=np.intp)
    down[up, np.arange(d)] = np.arange(below)[:, None]
    down.flags.writeable = False
    return down


def sorted_indices(d: int, p: int) -> np.ndarray:
    """The sorted multi-index of every degree-p monomial, a C(d+p-1, p) x p
    array in the numbering of :class:`Monomials`; built without memoised
    tables, since its callers keep only what they derive from it."""
    out = np.zeros((1, 0), dtype=np.intp)
    for _ in range(p):
        parent, last = children(out[:, -1] if out.shape[1] else np.zeros(1, np.intp), d)
        out = np.column_stack([out[parent], last])
    return out


def orbit_index(d: int, p: int) -> np.ndarray:
    """Monomial of every Kronecker coordinate: entry i is the number of the
    monomial whose sorted multi-index is the sorted digits of flat index i.
    This d^p array is checked against the entry cap."""
    check_entry_cap(d**p, "orbit index")
    orbit = np.zeros(1, dtype=np.intp)
    for k in range(1, p + 1):
        orbit = shift_up(d, k)[orbit].reshape(-1)
    return orbit


#: products gathered at once by :func:`symmetric_power`; larger degrees are
#: built in blocks of rows, so only the C x C result is counted by the cap
GATHER_BLOCK = 1 << 17


def symmetric_power(mats: np.ndarray, p: int) -> np.ndarray:
    """Induced matrices S_p(A) of a stack of d x d matrices, shape
    (m, C, C) with C = C(d+p-1, p).

    With m_p(x) the vector of degree-p monomials of x, S_p(A) is defined by
    m_p(A x) = S_p(A) m_p(x); it is the restriction of A^(kron p) to the
    symmetric tensors in the basis of orbit sums. It is built degree by
    degree: row alpha of S_k is row alpha - e_last of S_(k-1) times the
    linear form of row ``last`` of A, whose d terms are gathered at once
    for up to ``GATHER_BLOCK`` products. No array has a d^p axis; the entry
    cap bounds the m C^2 entries of the result.
    """
    mats = check_finite(mats, "matrices")
    m, d = mats.shape[0], mats.shape[1]
    check_entry_cap(m * symmetric_dim(d, p) ** 2, "symmetric power")
    out = mats
    for k in range(2, p + 1):
        tables, down = monomials(d, k), shift_down(d, k)
        size = tables.last.size
        # a zero column after the last one stands for the absent x^alpha / x_j
        padded = np.zeros((m, out.shape[1], out.shape[2] + 1))
        padded[:, :, :-1] = out
        forms = np.take(mats, tables.last, axis=1)[..., None]  # (m, C, d, 1)
        out = np.empty((m, size, size))
        step = max(1, GATHER_BLOCK // (m * size * d))
        for r in range(0, size, step):
            rows = np.take(padded, tables.parent[r : r + step], axis=1)
            terms = np.take(rows, down, axis=2)  # (m, rows, C, d)
            out[:, r : r + step] = (terms @ forms[:, r : r + step])[..., 0]
    return out


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


#: rows below which :func:`cone_spectral_radius` hands a matrix to the dense
#: QR eigensolve, the cheaper route there: on a 2-vCPU host with BLAS at one
#: thread, the warmed iteration costs as much as the QR solve near 28 rows on
#: the orthant and near 40 to 48 on PSD blocks, and at 120 to 136 rows a
#: thirtieth to a seventh of it
CONE_CROSSOVER = 36
#: shifted solves after which an open bracket goes to the dense route. After
#: the power steps, of about 2900 random laws with positive Sym^p matrices,
#: whose entries spread over up to seven orders of magnitude, 98.7% closed in
#: at most 8 solves (99.3% of 2500 PSD operators); the cap bounds the time a
#: law whose bracket does not close, such as a reducible chain on PSD blocks,
#: spends before its dense answer
CONE_STEPS = 8
#: power steps taken once, when the bracket at the start point is open
CONE_WARM = 16
#: relative width hi - lo <= CONE_TOL * hi at which a bracket has closed
CONE_TOL = 1e-12


class ConeRadius(NamedTuple):
    """Spectral radius of a cone-preserving matrix, with its bracket and the
    point v inside the cone that backs it, lower v <= m v <= upper v in the
    cone's order; with no point (None, on the dense route) the bracket is
    the eigensolve's value on both sides."""

    value: float
    lower: float
    upper: float
    route: str  # "orthant", "psd" or "dense"
    solves: int  # shifted linear solves made, also before a fallback
    point: np.ndarray | None  # scaled so that its entry of largest modulus is 1


def _collatz_wielandt(m: np.ndarray, v: np.ndarray, sym: np.ndarray | None):
    """Collatz-Wielandt bounds (lo, hi) on rho(m) at a point v inside the
    cone, lo v <= m v <= hi v in the cone's order, or None when v is not
    inside it. ``sym`` is None for the orthant; otherwise v holds blocks of
    sorted-monomial Sym^2 coordinates, and ``sym[i, j]`` numbers x_i x_j."""
    w = m @ v
    if sym is None:
        if not np.all(v > 0):
            return None
        ratios = w / v
        return float(ratios.min()), float(ratios.max())
    size = sym.shape[0] * (sym.shape[0] + 1) // 2
    x, y = v.reshape(-1, size)[:, sym], w.reshape(-1, size)[:, sym]
    try:
        inv = np.linalg.inv(np.linalg.cholesky(x))
    except np.linalg.LinAlgError:
        return None
    # the eigenvalues of the pencil (Y_j, X_j), block by block
    eig = np.linalg.eigvalsh(inv @ y @ inv.transpose(0, 2, 1))
    return max(float(eig[:, 0].min()), 0.0), float(eig[:, -1].max())


def _irreducible(m: np.ndarray) -> bool:
    """Whether the nonnegative square matrix m is irreducible: positive, or
    with the graph of its positive entries (an edge i -> j wherever
    m[i, j] > 0) strongly connected. A breadth-first search from node 0, one
    boolean gather per level, must reach every node along the edges and
    against them."""
    edges = m > 0
    if edges.all():
        return True
    for graph in (edges, edges.T):
        reached = np.zeros(graph.shape[0], dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = graph[frontier].any(axis=0) & ~reached
            reached |= frontier
        if not reached.all():
            return False
    return True


def cone_spectral_radius(m: np.ndarray, psd_side: int | None = None) -> ConeRadius:
    """Spectral radius of a square matrix that maps a cone into itself.

    The caller names the cone: the nonnegative orthant (``psd_side`` None;
    m must be entrywise nonnegative), or N-tuples of positive semidefinite
    matrices of side ``psd_side``, each in sorted-monomial Sym^2
    coordinates (m_2(x) stands for x x.T), so m has N C(d+1, 2) rows.

    Shifted inverse iteration (Noda), warmed by power steps: bound rho by
    the Collatz-Wielandt bounds lo <= rho <= hi at the point v (min and max
    of (m v)_i / v_i, or the extreme eigenvalues of the pencils
    (m(X)_j, X_j)), first at the all-ones vector or the identity in every
    block, then after ``CONE_WARM`` power steps, then after each solve of
    (hi I - m) v' = v. For hi > rho that resolvent maps the cone into
    itself, so v' stays inside; the bounds hold at any point inside the
    cone. The value is the midpoint of the first bracket with
    hi - lo <= ``CONE_TOL`` hi, and the point is v. Below
    ``CONE_CROSSOVER`` rows, and whenever a point leaves the cone's
    interior, a shifted solve is singular or ``CONE_STEPS`` solves leave the
    bracket open, the value is the dense eigensolve's, which nothing checks
    against the bracket: the step cap can change an answer. A reducible matrix
    on the orthant, whose bracket seldom closes, goes there once the bracket
    at the start point is open, with no solve: a matrix with a zero entry is
    first tested for irreducibility. On the orthant the dense route is one
    ``np.linalg.eig``, whose eigenvector of the largest real eigenvalue is
    the point when it lies inside the orthant; on PSD blocks it is
    :func:`spectrum`, with no point.
    """
    m = check_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if psd_side is None and not np.all(m >= 0):
        raise ValueError("the orthant route needs an entrywise-nonnegative matrix")
    solves = 0
    if n >= CONE_CROSSOVER:
        if psd_side is None:
            sym, route, v = None, "orthant", np.ones(n)
        else:
            sym, route = shift_up(psd_side, 2), "psd"
            size = sym.shape[0] * (sym.shape[0] + 1) // 2
            if n % size:
                raise ValueError(f"{n} rows are not blocks of Sym^2(R^{psd_side})")
            v = np.zeros((n // size, size))
            v[:, np.diagonal(sym)] = 1.0
            v = v.reshape(-1)
        eye, warm = np.eye(n), True
        while (bounds := _collatz_wielandt(m, v, sym)) is not None:
            lo, hi = bounds
            if hi - lo <= CONE_TOL * hi:
                return ConeRadius(0.5 * (lo + hi), lo, hi, route, solves, v)
            if warm:  # power steps keep v in the cone; a zero or non-finite image ends them
                if sym is None and not _irreducible(m):
                    break
                for _ in range(CONE_WARM):
                    w = m @ v
                    top = w[np.argmax(np.abs(w))]
                    if not 0.0 < top < np.inf:
                        break
                    v = w / top
                warm = False
                continue
            if solves == CONE_STEPS:
                break
            try:
                v = np.linalg.solve(hi * eye - m, v)
            except np.linalg.LinAlgError:
                break
            solves += 1
            # a positive multiple: the entry of largest modulus of a point
            # in the cone is positive (for a PSD block, on its diagonal)
            v = v / v[np.argmax(np.abs(v))]
            if not np.all(np.isfinite(v)):
                break
    if psd_side is not None:
        rho = spectrum(m).spectral_radius
        return ConeRadius(rho, rho, rho, "dense", solves, None)
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"eigenvalue iteration did not converge: {exc}") from exc
    rho = float(np.max(np.abs(values)))
    # the Perron root is real and the only eigenvalue of largest real part
    v = vectors[:, np.argmax(values.real)].real
    v = v / v[np.argmax(np.abs(v))]
    if (bounds := _collatz_wielandt(m, v, None)) is None:
        return ConeRadius(rho, rho, rho, "dense", solves, None)
    return ConeRadius(rho, *bounds, "dense", solves, v)
