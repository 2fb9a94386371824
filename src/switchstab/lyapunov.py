"""Homogeneous Lyapunov certificates: synthesis, evaluation, validation.

Two certificate shapes cover the stable cases, each a function of the
q-fold Kronecker power y = x^(kron q) of the state, q = ``lift_power`` >= 1:

* a weighted-l1 cone norm V(x) = sum_i f_i |y_i| with f > 0, of degree q, for
  laws whose support preserves the positive orthant (q = p odd);
* a quadratic form V(x) = y.T H y with H positive definite, of degree 2q
  (p = 2q), where H solves H = I + E[B.T H B] for B = A^(kron q).

Every certificate carries a decay factor gamma < 1 with
E[V(A x)] <= gamma * V(x) for all x.

Documents hold f and H on the d^q Kronecker coordinates. Both shapes are
linear forms on the C(d+p-1, p) monomials m_p(x) of their degree p: each
Kronecker coordinate of x^(kron p) is one monomial, so f . |y| = w . |m_q(x)|
and y.T H y = w . m_2q(x). Each certificate folds its document once into
these weights w, and evaluates V at a row x by adding w_j m_j(x) column by
column, with no reduction call: a value depends only on its own row, not
on how rows are batched nor on the BLAS thread count.

Cone norms are solved on Sym^p: the point h > 0 of one cone solve of the
transpose of its C(d+p-1, p) matrix E[S_p(A)], with E[S_p(A)].T h <= gamma h
at the upper end gamma of the solve's bracket, spreads over the Kronecker
coordinates of each monomial, so f and the index array that maps its
coordinates to their monomials are the only d^p-length arrays. The solve
finds such a point for every irreducible E[S_p(A)]; a law without one is
refused. Quadratic certificates solve on the full lift E[A^(kron p)].

Validation reads E[V(A x)] as a weighted mean over one set of matrices
(the atoms, or the Monte Carlo draws of a box), with one readout per shape.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import AssumptionError, InstabilityError, SolverFailureError
from .linalg import (
    check_entry_cap,
    check_finite,
    cone_spectral_radius,
    lift_entry_cap,
    monomials,
    orbit_index,
    spectrum,
    symmetric_dim,
    symmetric_power,
)
from .models import AtomicDistribution, MarkovJumpSystem, MatrixDistribution

#: fixed seed for the default validation sample plan
DEFAULT_VALIDATION_SEED = 1729


def _check_shared_fields(cert, lifted: np.ndarray, orbit: np.ndarray | None = None) -> None:
    """Checks on the fields both shapes share, ``lifted`` being f or H with
    d^q rows; then sets d and the weights on the monomials of the degree p,
    from one ``bincount`` over the d^p Kronecker coordinates: f at p = q, or
    H flattened at p = 2q, whose entry I d^q + J is coordinate (I, J) of
    x^(kron 2q). ``orbit`` is the d^p ``orbit_index`` where the caller has
    built it."""
    if not 0.0 <= cert.gamma < 1.0:
        raise ValueError("decay factor must lie in [0, 1)")
    q = cert.lift_power
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 1:
        raise ValueError(f"lift power must be an integer >= 1, got {q!r}")
    q, size = int(q), lifted.shape[0]
    d = round(size ** (1.0 / q))
    if d**q != size:
        raise ValueError(f"{size} lifted coordinates are not a {q}-fold Kronecker power")
    object.__setattr__(cert, "lift_power", q)
    p = cert.degree
    orbit = orbit_index(d, p) if orbit is None else orbit
    weights = np.bincount(orbit, lifted.reshape(-1), symmetric_dim(d, p))
    for name, value in (("dim", d), ("weights", weights)):
        object.__setattr__(cert, name, value)


@dataclass(frozen=True)
class ConeNormCertificate:
    """V(x) = f . |x^(kron lift_power)|: linear on the positive orthant,
    absolute elsewhere; in the weights on the monomials, weights . |m_q(x)|."""

    f: np.ndarray
    gamma: float
    lift_power: int = 1
    dim: int = field(init=False)  # d, the dimension of the state x
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    _orbit: InitVar[np.ndarray | None] = None  # the orbit index, where synthesis built it

    def __post_init__(self, _orbit):
        f = check_finite(self.f, "cone-norm weights")
        if f.ndim != 1 or not np.all(f > 0):
            raise ValueError("cone-norm weights must be an entrywise-positive vector")
        object.__setattr__(self, "f", f)
        _check_shared_fields(self, f, _orbit)

    @property
    def degree(self) -> int:
        return self.lift_power


@dataclass(frozen=True)
class QuadraticCertificate:
    """V(x) = y.T H y with y = x^(kron lift_power) and H symmetric positive
    definite; in the weights on the monomials, weights . m_2q(x)."""

    h: np.ndarray
    gamma: float
    lift_power: int = 1
    dim: int = field(init=False)  # d, the dimension of the state x
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = check_finite(self.h, "H")
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("H must be square")
        if float(np.max(np.abs(h - h.T))) > 1e-9 * max(1.0, float(np.max(np.abs(h)))):
            raise ValueError("H must be symmetric")
        if float(np.linalg.eigvalsh(0.5 * (h + h.T)).min()) <= 0:
            raise ValueError("H must be positive definite")
        object.__setattr__(self, "h", h)
        _check_shared_fields(self, h)

    @property
    def degree(self) -> int:
        return 2 * self.lift_power


LyapunovCertificate = ConeNormCertificate | QuadraticCertificate


def _monomial_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """The degree-q monomials m_q(x) of every row x, numbered as in linalg."""
    m = rows
    for k in range(2, q + 1):
        tables = monomials(rows.shape[1], k)
        m = m[:, tables.parent] * rows[:, tables.last]
    return m


def evaluate_rows(cert: LyapunovCertificate, rows: np.ndarray) -> np.ndarray:
    """Values of the certificate function at every row, each from its row
    alone: the weighted monomials are added in column order, elementwise,
    so no reduction or BLAS call orders a row's terms by the row count."""
    if rows.ndim != 2 or rows.shape[1] != cert.dim:
        raise ValueError(f"expected vectors of length {cert.dim}")
    m = _monomial_rows(rows, cert.degree)
    if isinstance(cert, ConeNormCertificate):
        m = np.abs(m)
    w = cert.weights
    out = m[:, 0] * w[0]
    for j in range(1, w.size):
        out += m[:, j] * w[j]
    return out


def evaluate(cert: LyapunovCertificate, x: np.ndarray) -> float:
    """Value of the certificate function at the vector x."""
    return float(evaluate_rows(cert, np.asarray(x, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _cone_norm(dist: MatrixDistribution, p: int) -> ConeNormCertificate:
    """Cone norm with lift power p (p odd) for an orthant-invariant law.

    One cone solve of the C(d+p-1, p) matrix F.T, F = E[S_p(A)], gates and
    gives the certificate: where it finds a point h > 0, F.T h <= gamma h
    with gamma the upper end of its bracket on rho(F); it finds one for
    every irreducible F, and a reducible F without one is refused. Then
    f_i = h[r] / |orbit r| at every Kronecker coordinate i of monomial r.
    F is E[A^(kron p)] folded over the orbits, so f E[A^(kron p)] <= gamma f:
    on the orthant the decay factor is gamma, and the d^p x d^p lift is never
    built. f and its index array, built once and also used to fold f onto
    the monomials, are the only d^p-length arrays.
    """
    from .radius import DECISION_MARGIN

    subject = "cone-norm synthesis" if p == 1 else f"odd degree {p}"
    if not dist.support_nonnegative():
        raise AssumptionError(f"{subject} requires an orthant-invariant support")
    cone = cone_spectral_radius(dist.expected_symmetric_power(p).T)
    if cone.value >= 1.0 - DECISION_MARGIN:
        radius = "first-mean" if p == 1 else f"degree-{p}"
        raise InstabilityError(
            f"{radius} radius {cone.value ** (1.0 / p):.6g} is not below 1; no certificate exists"
        )
    if cone.point is None:
        mean = "mean E[A]" if p == 1 else f"Sym^{p} mean E[S_{p}(A)]"
        raise AssumptionError(f"{subject}: no positive cone point exists; the {mean} is reducible")
    if cone.upper >= 1.0:
        raise SolverFailureError(f"{subject}: the cone solve gave no point that certifies decay")
    orbit = orbit_index(dist.dim, p)
    f = (cone.point / monomials(dist.dim, p).sizes)[orbit]
    f /= f.max()
    return ConeNormCertificate(f=f, gamma=cone.upper, lift_power=p, _orbit=orbit)


def synthesize_cone_norm(dist: MatrixDistribution) -> ConeNormCertificate:
    """Weighted-l1 certificate for a first-mean stable orthant-invariant law.

    The weight vector is the point of the cone solve of E[A].T: on the
    orthant the norm of E[A] induced by it is at most the upper end of the
    solve's bracket on rho(E[A]), which becomes the decay factor.
    """
    return synthesize_degree_p(dist, 1)


def _quadratic_from_second_moment(second: np.ndarray, d: int, q: int) -> QuadraticCertificate:
    """Quadratic certificate on x^(kron q), x in R^d, from the second-moment
    matrix ``second`` = E[B kron B] of the law of B = A^(kron q).

    The solve comes first. A positive definite H with E[B.T H B] = H - I
    <= gamma H proves rho(E[B kron B]) = rho_p^p <= gamma (p = 2q), so gamma
    below (1 - DECISION_MARGIN)^p proves rho_p below 1 - DECISION_MARGIN and
    no eigensolve is made. Otherwise rho_p decides, as it would alone.
    """
    from .radius import DECISION_MARGIN

    n, p = d**q, 2 * q
    try:
        h = np.linalg.solve(np.eye(n * n) - second.T, np.eye(n).reshape(-1)).reshape(n, n)
    except np.linalg.LinAlgError:
        h = None  # I - E[B kron B].T is singular: 1 is an eigenvalue
    if h is not None:
        h = 0.5 * (h + h.T)
        eig = np.linalg.eigvalsh(h)
        gamma = 1.0 - 1.0 / float(eig.max())
        if eig.min() > 0 and gamma < (1.0 - DECISION_MARGIN) ** p:
            return QuadraticCertificate(h=h, gamma=gamma, lift_power=q)
    radius = spectrum(second).spectral_radius ** (1.0 / p)
    if h is None or radius >= 1.0 - DECISION_MARGIN:
        name = "mean-square" if p == 2 else f"degree-{p}"
        raise InstabilityError(
            f"{name} radius {radius:.6g} is not below 1; no quadratic certificate exists"
        )
    return QuadraticCertificate(h=h, gamma=gamma, lift_power=q)


def synthesize_quadratic(dist: MatrixDistribution) -> QuadraticCertificate:
    """Quadratic certificate for a mean-square stable law.

    H is the direct solution of H = I + E[A.T H A]. With M2 = E[A kron A]
    and row-major vec, vec(E[A.T H A]) = M2.T vec(H), so one linear solve
    (I - M2.T) vec(H) = vec(I) gives H; its operator is nonsingular because
    rho(M2) = r2^2 < 1. Then E[A.T H A] = H - I exactly and
    gamma = 1 - 1/lambda_max(H) certifies E[(Ax).T H (Ax)] <= gamma x.T H x.
    """
    return synthesize_degree_p(dist, 2)


def synthesize_degree_p(dist: MatrixDistribution, p: int) -> LyapunovCertificate:
    """Homogeneous certificate of degree p.

    Even p = 2q: a quadratic certificate with lift power q, i.e. a quadratic
    certificate for the law of B = A^(kron q) composed with x -> x^(kron q);
    its second moment E[B kron B] is E[A^(kron p)], so no lifted law is
    built. Odd p: a cone norm with lift power p, requiring an
    orthant-invariant support and a positive point of the cone solve of
    E[S_p(A)].T; it is solved on Sym^p, so the entry cap bounds the d^p
    weights and their index. A Markov jump system is refused: it needs
    mode-dependent certificates.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if isinstance(dist, MarkovJumpSystem):
        raise AssumptionError("Markov system certificates are not implemented (ROADMAP item 5)")
    if p % 2 == 0:
        return _quadratic_from_second_moment(dist.expected_kron_power(p), dist.dim, p // 2)
    return _cone_norm(dist, p)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    mode: str
    n_vectors: int
    worst_margin: float  # largest E[V(Ax)] / (gamma V(x)) over the test vectors
    worst_x: np.ndarray

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "n_vectors": self.n_vectors,
            "worst_margin": self.worst_margin,
            "worst_x": self.worst_x.tolist(),
        }


@functools.lru_cache(maxsize=16)
def default_test_vectors(dim: int, count: int = 1000, seed: int = DEFAULT_VALIDATION_SEED):
    """``count`` uniform points on the unit sphere plus the standard basis;
    memoised per (dim, count, seed) and read-only."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    panel = np.vstack([pts, np.eye(dim)])
    panel.flags.writeable = False
    return panel


def _sandwich_terms(cert: QuadraticCertificate, mats: np.ndarray, xs: np.ndarray):
    """Rows vec(B), B = S_q(A).T G S_q(A), per matrix A and w = vec(m m.T),
    m = m_q(x), per vector x: V(A x) = w . vec(B), C^2 entries each. With S
    the orbit indicator, y = S m_q(x) and G = S.T H S, folded from H by one
    ``bincount`` (G = H at q = 1)."""
    q, d = cert.lift_power, cert.dim
    c = symmetric_dim(d, q)
    check_entry_cap(len(mats) * c * c, "validation sandwiches")
    check_entry_cap(xs.shape[0] * c * c, "validation monomial products")
    orbit = orbit_index(d, q)
    pairs = (orbit[:, None] * c + orbit).reshape(-1)
    g = np.bincount(pairs, cert.h.reshape(-1), c * c).reshape(c, c)
    induced = symmetric_power(mats, q)
    sandwiches = (induced.transpose(0, 2, 1) @ g @ induced).reshape(len(mats), -1)
    m = _monomial_rows(xs, q)
    return sandwiches, np.einsum("ni,nj->nij", m, m).reshape(xs.shape[0], -1)


def _moments(cert: LyapunovCertificate, mats: np.ndarray, weights: np.ndarray, n: int, xs):
    """Mean of V(A_k x) over the matrices ``mats``, weighted by ``weights``
    over n, and the weighted sum of squared deviations from it, per row x.

    A quadratic reads both from its sandwiches: with the centred, weighted
    sandwiches D = Q R, the squares w.T D.T D w are |R w|^2, a sum of
    squares that cannot cancel; R has min(len(mats), C^2) rows. A cone norm
    maps each block of vectors by every matrix in one product, a block's
    monomials staying under the cap, and reduces the block's values."""
    if isinstance(cert, QuadraticCertificate):
        sandwiches, w = _sandwich_terms(cert, mats, xs)
        centre = weights @ sandwiches / n
        rw = np.linalg.qr(np.sqrt(weights)[:, None] * (sandwiches - centre), mode="r") @ w.T
        return w @ centre, np.einsum("in,in->n", rw, rw)
    (k, d), c = mats.shape[:2], cert.weights.shape[0]
    check_entry_cap(k * c, "validation mapped monomials")
    flat = mats.reshape(-1, d).T
    mean, squares = np.empty(xs.shape[0]), np.empty(xs.shape[0])
    chunk = max(1, min(int(2e6), lift_entry_cap()) // (k * c))
    for start in range(0, xs.shape[0], chunk):
        block = slice(start, start + chunk)
        mapped = (xs[block] @ flat).reshape(-1, d)  # A_j x_i at row i k + j of the block
        vals = np.ascontiguousarray(evaluate_rows(cert, mapped).reshape(-1, k).T)
        mean[block] = weights @ vals / n
        squares[block] = weights @ (vals - mean[block]) ** 2
    return mean, squares


def validate_certificate(
    cert: LyapunovCertificate,
    dist: MatrixDistribution,
    xs: np.ndarray | None = None,
    mode: str = "exact",
    n_samples: int = 10_000,
    seed: int = DEFAULT_VALIDATION_SEED,
) -> ValidationReport:
    """Check E[V(A x)] <= gamma V(x) over a panel of test vectors.

    Each mode reads E[V(A x)] as a weighted mean over a set of matrices.
    Mode "exact" weights the atoms of a finite law by their probabilities.
    Mode "mc" weights the atoms by the counts of n_samples >= 2 drawn atom
    indices over n_samples or, on a sampled law (a box), n_samples drawn
    matrices by 1 each over n_samples; it allows four standard errors,
    sqrt(squares / (n_samples - 1) / n_samples), on top of the decay
    bound. With C the number of monomials of the certificate's degree, the
    cap counts the n C monomials of the n test vectors; the n_samples atom
    indices or the n_samples d^2 draws; and per matrix, a quadratic's C_q^2
    sandwich entries (C_q monomials of degree q) with C_q^2 more per test
    vector, or a cone norm's C monomials of one mapped test vector.
    ``worst_x`` is the first test vector whose margin is within 1e-12
    relative of the largest.
    """
    dim = dist.dim
    if xs is None:
        xs = default_test_vectors(dim, seed=seed)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise ValueError(f"test vectors must have shape (n, {dim})")
    gamma = cert.gamma
    # the n x C monomials of the test vectors
    check_entry_cap(xs.shape[0] * cert.weights.shape[0], "validation test vectors")
    vx = evaluate_rows(cert, xs)

    if mode == "exact":
        if not isinstance(dist, AtomicDistribution):
            raise AssumptionError("exact validation needs a finite atomic law")
        mats, weights, n = dist.atoms, dist.probabilities, 1
    elif mode == "mc":
        from .mcsim import atom_indices, sample_matrix  # sampling lives with the simulators

        if n_samples < 2:
            raise ValueError("Monte Carlo validation needs at least 2 samples")
        rng, n = np.random.default_rng(seed), n_samples
        if isinstance(dist, AtomicDistribution):
            check_entry_cap(n, "Monte Carlo samples")  # atom indices
            mats = dist.atoms
            weights = np.bincount(atom_indices(dist, rng, n), minlength=len(mats))
        else:
            check_entry_cap(n * dim * dim, "Monte Carlo samples")
            mats, weights = sample_matrix(dist, rng, size=n), np.ones(n)
    else:
        raise ValueError("mode must be 'exact' or 'mc'")
    expected, squares = _moments(cert, mats, weights, n, xs)
    if mode == "exact":
        slack = gamma * vx * (1.0 + 1e-9) + 1e-15 * np.maximum(vx, 1.0)
    else:
        slack = gamma * vx + 4.0 * np.sqrt(squares / (n - 1) / n) + 1e-12 * np.maximum(vx, 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        margins = np.where(vx > 0, expected / np.where(vx > 0, gamma * vx, 1.0), 0.0)
    violations = expected > slack
    # the first vector within rounding of the largest margin: a cone norm
    # has margin 1 on the whole orthant, and argmax alone picks by noise
    top = np.max(margins)
    worst = int(np.argmax(margins >= top * (1.0 - 1e-12)))
    return ValidationReport(
        passed=not bool(violations.any()),
        mode=mode,
        n_vectors=xs.shape[0],
        worst_margin=float(top),
        worst_x=xs[worst].copy(),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: LyapunovCertificate) -> dict:
    out: dict = {"degree": cert.degree, "gamma": cert.gamma}
    if cert.lift_power > 1:
        out["lift_power"] = cert.lift_power
    if isinstance(cert, ConeNormCertificate):
        out["kind"] = "cone_norm"
        out["f"] = cert.f.tolist()
    else:
        out["kind"] = "quadratic"
        out["H"] = cert.h.tolist()
    return out


def certificate_from_dict(doc: dict) -> LyapunovCertificate:
    """Certificate from its document; ValueError names what is malformed."""
    if not isinstance(doc, dict):
        raise ValueError("a certificate document must be a JSON object")
    kind = doc.get("kind")
    shapes = {"cone_norm": (ConeNormCertificate, "f"), "quadratic": (QuadraticCertificate, "H")}
    if kind not in shapes:
        raise ValueError(f"unknown certificate kind {kind!r}")
    cls, weights = shapes[kind]
    for key in ("gamma", weights):
        if key not in doc:
            raise ValueError(f"{kind} certificate document has no '{key}' field")
    try:
        gamma = float(doc["gamma"])
        values = np.asarray(doc[weights], dtype=float)
    except TypeError as exc:
        raise ValueError(f"certificate fields 'gamma' and '{weights}' must be numeric") from exc
    cert = cls(values, gamma, lift_power=doc.get("lift_power", 1))
    if "degree" in doc and doc["degree"] != cert.degree:
        raise ValueError("stated degree is inconsistent with kind and lift power")
    return cert
