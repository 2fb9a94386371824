"""Homogeneous Lyapunov certificates: synthesis, evaluation, validation.

Two certificate shapes cover the stable cases, each a function of the
q-fold Kronecker power y = x^(kron q) of the state, q = ``lift_power`` >= 1:

* a weighted-l1 cone norm V(x) = sum_i f_i |y_i| with f > 0, of degree q, for
  laws whose support preserves the positive orthant (q = p odd);
* a quadratic form V(x) = y.T H y with H positive definite, of degree 2q
  (p = 2q), where H solves H = I + E[B.T H B] for B = A^(kron q).

Every certificate carries a decay factor gamma < 1 with
E[V(A x)] <= gamma * V(x) for all x.

Documents hold f and H on the d^q Kronecker coordinates. With y = S m_q(x),
m_q(x) the C = C(d+q-1, q) degree-q monomials and S the orbit indicator,
each certificate folds them once into weights on the monomials, S.T f or
G = S.T H S, and evaluates V row by row from m_q(x); so values do not depend
on how rows are batched nor on the BLAS thread count.

Cone norms are solved on Sym^p, and need its C(d+p-1, p) matrix E[S_p(A)]
entrywise positive: its left Perron vector spreads over the Kronecker
coordinates of each monomial, so f and the index array that maps its
coordinates to their monomials are the only d^p-length arrays. Quadratic
certificates solve on the full lift E[A^(kron p)].
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import AssumptionError, InstabilityError
from .linalg import (
    check_entry_cap,
    check_finite,
    dominant_left_eigenvector,
    monomials,
    orbit_index,
    spectrum,
    symmetric_dim,
    symmetric_power,
)
from .models import AtomicDistribution, MatrixDistribution

#: fixed seed for the default validation sample plan
DEFAULT_VALIDATION_SEED = 1729


def _check_shared_fields(cert, lifted: np.ndarray, orbit: np.ndarray | None = None) -> None:
    """Checks on the fields both shapes share, ``lifted`` being f or H with
    d^q rows; then sets d and the weights on the C degree-q monomials, from
    one ``bincount``: the orbit sums S.T f, or G = S.T H S (f or H at q = 1).
    ``orbit`` is the d^q ``orbit_index`` where the caller has built it."""
    if not 0.0 <= cert.gamma < 1.0:
        raise ValueError("decay factor must lie in [0, 1)")
    q = cert.lift_power
    if isinstance(q, bool) or not isinstance(q, numbers.Integral) or q < 1:
        raise ValueError(f"lift power must be an integer >= 1, got {q!r}")
    q, size = int(q), lifted.shape[0]
    d = round(size ** (1.0 / q))
    if d**q != size:
        raise ValueError(f"{size} lifted coordinates are not a {q}-fold Kronecker power")
    weights = lifted
    if q > 1:
        orbit = orbit_index(d, q) if orbit is None else orbit
        c = symmetric_dim(d, q)
        if lifted.ndim == 1:
            weights = np.bincount(orbit, lifted, c)
        else:
            pairs = (orbit[:, None] * c + orbit).reshape(-1)
            weights = np.bincount(pairs, lifted.reshape(-1), c * c).reshape(c, c)
    for name, value in (("lift_power", q), ("dim", d), ("weights", weights)):
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
    definite; in the weights on the monomials, m_q(x).T weights m_q(x)."""

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
    """Values of the certificate function at every row, each from its row alone."""
    if rows.ndim != 2 or rows.shape[1] != cert.dim:
        raise ValueError(f"expected vectors of length {cert.dim}")
    m = _monomial_rows(rows, cert.lift_power)
    if isinstance(cert, ConeNormCertificate):
        return np.einsum("ni,i->n", np.abs(m), cert.weights)
    return np.einsum("ni,ij,nj->n", m, cert.weights, m)


def evaluate(cert: LyapunovCertificate, x: np.ndarray) -> float:
    """Value of the certificate function at the vector x."""
    return float(evaluate_rows(cert, np.asarray(x, dtype=float)[None])[0])


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def _cone_norm(dist: MatrixDistribution, p: int) -> ConeNormCertificate:
    """Cone norm with lift power p (p odd) for an orthant-invariant law whose
    Sym^p matrix F = E[S_p(A)] is entrywise positive.

    The left Perron vector h > 0 of the C(d+p-1, p) matrix F gives
    f_i = h[r] / |orbit r| at every Kronecker coordinate i of monomial r.
    F is E[A^(kron p)] folded over the orbits, so f E[A^(kron p)] = rho f:
    on the orthant the decay factor is rho, and the d^p x d^p lift is never
    built. f and its index array, built once and also used to fold f onto
    the monomials, are the only d^p-length arrays.
    """
    from .radius import DECISION_MARGIN

    subject = "cone-norm synthesis" if p == 1 else f"odd degree {p}"
    if not dist.support_nonnegative():
        raise AssumptionError(f"{subject} requires an orthant-invariant support")
    induced = dist.expected_symmetric_power(p)
    if not np.all(induced > 0):
        mean = "mean" if p == 1 else f"Sym^{p} mean E[S_{p}(A)]"
        raise AssumptionError(f"{subject} requires an entrywise-positive {mean}")
    rho, h = dominant_left_eigenvector(induced)
    if rho >= 1.0 - DECISION_MARGIN:
        radius = "first-mean" if p == 1 else f"degree-{p}"
        raise InstabilityError(
            f"{radius} radius {rho ** (1.0 / p):.6g} is not below 1; no certificate exists"
        )
    orbit = orbit_index(dist.dim, p)
    f = (h / monomials(dist.dim, p).sizes)[orbit]
    f /= f.max()
    return ConeNormCertificate(f=f, gamma=rho, lift_power=p, _orbit=orbit)


def synthesize_cone_norm(dist: MatrixDistribution) -> ConeNormCertificate:
    """Weighted-l1 certificate for a first-mean stable orthant-invariant law.

    The weight vector is the dominant left eigenvector of E[A]: on the
    orthant the norm of E[A] induced by it equals rho(E[A]), which becomes
    the decay factor.
    """
    return _cone_norm(dist, 1)


def _quadratic_from_second_moment(second: np.ndarray, d: int, q: int) -> QuadraticCertificate:
    """Quadratic certificate on x^(kron q), x in R^d, from the second-moment
    matrix ``second`` = E[B kron B] of the law of B = A^(kron q).

    The solve comes first. A positive definite H with E[B.T H B] = H - I
    <= gamma H proves rho(E[B kron B]) <= gamma, so gamma below
    (1 - DECISION_MARGIN)^2 proves the radius below 1 - DECISION_MARGIN and
    no eigensolve is made. Otherwise the radius decides, as it would alone.
    """
    from .radius import DECISION_MARGIN

    n = d**q
    try:
        h = np.linalg.solve(np.eye(n * n) - second.T, np.eye(n).reshape(-1)).reshape(n, n)
    except np.linalg.LinAlgError:
        h = None  # I - E[B kron B].T is singular: 1 is an eigenvalue
    if h is not None:
        h = 0.5 * (h + h.T)
        eig = np.linalg.eigvalsh(h)
        gamma = 1.0 - 1.0 / float(eig.max())
        if eig.min() > 0 and gamma < (1.0 - DECISION_MARGIN) ** 2:
            return QuadraticCertificate(h=h, gamma=gamma, lift_power=q)
    r2 = spectrum(second).spectral_radius ** (1.0 / 2)
    if h is None or r2 >= 1.0 - DECISION_MARGIN:
        raise InstabilityError(
            f"mean-square radius {r2:.6g} is not below 1; no quadratic certificate exists"
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
    return _quadratic_from_second_moment(dist.expected_kron_power(2), dist.dim, 1)


def synthesize_degree_p(dist: MatrixDistribution, p: int) -> LyapunovCertificate:
    """Homogeneous certificate of degree p.

    Even p = 2q: a quadratic certificate with lift power q, i.e. a quadratic
    certificate for the law of B = A^(kron q) composed with x -> x^(kron q);
    its second moment E[B kron B] is E[A^(kron p)], so no lifted law is
    built. Odd p: a cone norm with lift power p, requiring an
    orthant-invariant support with entrywise positive E[S_p(A)]; it is
    solved on Sym^p, so the entry cap bounds the d^p weights and their index.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
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


def _mc_estimates(
    cert: LyapunovCertificate, mats: np.ndarray, xs: np.ndarray, index: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and standard error of V(A x) over the draws
    ``mats[index]`` (``mats`` if ``index`` is None), at every row x of
    ``xs``. A quadratic certificate forms one sandwich per matrix of
    ``mats``; on the atoms of a finite law (``index`` given) the moments are
    the count-weighted mean and variance of the per-atom values."""
    n = mats.shape[0] if index is None else index.size
    d, q, c = mats.shape[1], cert.lift_power, cert.weights.shape[0]
    if isinstance(cert, QuadraticCertificate):
        # V(A_s x) = w . vec(B_s) with B_s = S_q(A_s).T G S_q(A_s) and w =
        # vec(m m.T), m = m_q(x); the cap counts the C^2 sandwich entries of
        # every matrix of ``mats``, which bound the min(n, C^2) x C^2
        # triangular factor below, and the C^2 entries of w per vector
        check_entry_cap(len(mats) * c * c, "Monte Carlo sandwiches")
        check_entry_cap(xs.shape[0] * c * c, "Monte Carlo test monomials")
        induced = symmetric_power(mats, q)
        sandwiches = (induced.transpose(0, 2, 1) @ cert.weights @ induced).reshape(len(mats), -1)
        m = _monomial_rows(xs, q)
        w = np.einsum("ni,nj->nij", m, m).reshape(xs.shape[0], -1)
        if index is not None:
            check_entry_cap(len(mats) * xs.shape[0], "Monte Carlo atom values")
            counts = np.bincount(index, minlength=len(mats))
            values = sandwiches @ w.T  # (atoms, vectors)
            mean = counts @ values / n
            var = counts @ (values - mean) ** 2 / (n - 1)
        else:
            # with the centred sandwiches D = Q R, the variance w.T D.T D w
            # / (n-1) is |R w|^2 / (n-1), a sum of squares that cannot cancel
            centre = sandwiches.mean(axis=0)
            rw = np.linalg.qr(sandwiches - centre, mode="r") @ w.T
            mean = w @ centre
            var = np.einsum("in,in->n", rw, rw) / (n - 1)
        return mean, np.sqrt(var / n)
    # cone norms: each chunk of vectors is mapped by every draw in one matrix
    # product, and the values are summed over the draws in draw order
    check_entry_cap(n * c, "Monte Carlo certificate values")
    draws = (mats if index is None else mats[index]).reshape(-1, d).T
    expected, stderr = np.empty(xs.shape[0]), np.empty(xs.shape[0])
    chunk = max(1, int(2e6) // (n * c))
    for start in range(0, xs.shape[0], chunk):
        block = xs[start : start + chunk]
        mapped = (block @ draws).reshape(-1, d)  # A_s x_k, draw-major within each x_k
        vals = np.ascontiguousarray(evaluate_rows(cert, mapped).reshape(-1, n).T)
        expected[start : start + chunk] = vals.mean(axis=0)
        stderr[start : start + chunk] = vals.std(axis=0, ddof=1) / np.sqrt(n)
    return expected, stderr


def validate_certificate(
    cert: LyapunovCertificate,
    dist: MatrixDistribution,
    xs: np.ndarray | None = None,
    mode: str = "exact",
    n_samples: int = 10_000,
    seed: int = DEFAULT_VALIDATION_SEED,
) -> ValidationReport:
    """Check E[V(A x)] <= gamma V(x) over a panel of test vectors.

    mode "exact" evaluates the expectation atom by atom (finite laws only);
    mode "mc" estimates it from n_samples >= 2 draws and allows a four-
    standard-error band on top of the decay bound. A (lifted) quadratic
    certificate gets the sample mean and variance from moment matrices of
    the draws (on a finite law, from one sandwich per atom, weighted by how
    often it was drawn), a cone norm from V at every draw and vector. With
    C the number of degree-q monomials, the entry cap guards the n C
    monomials of the n test vectors in both modes; in mode "mc" also the
    n_samples d^2 draws (n_samples atom indices on a finite law), the C^2
    sandwich entries of each draw or atom, the C^2 products of each test
    vector and the atoms x vectors values, or the n_samples C monomials of
    one vector.
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
    # the n x C monomials of the test vectors, built for V(x) in both modes
    # and per atom in exact mode
    check_entry_cap(xs.shape[0] * cert.weights.shape[0], "validation test vectors")

    if mode == "exact":
        if not isinstance(dist, AtomicDistribution):
            raise AssumptionError("exact validation needs a finite atomic law")
        vx = evaluate_rows(cert, xs)
        expected = np.zeros(xs.shape[0])
        for prob, m in zip(dist.probabilities, dist.atoms):
            expected += prob * evaluate_rows(cert, xs @ m.T)
        slack = gamma * vx * (1.0 + 1e-9) + 1e-15 * np.maximum(vx, 1.0)
    elif mode == "mc":
        from .mcsim import atom_indices, sample_matrix  # sampling lives with the simulators

        if n_samples < 2:
            raise ValueError("Monte Carlo validation needs at least 2 samples")
        rng = np.random.default_rng(seed)
        if isinstance(cert, QuadraticCertificate) and isinstance(dist, AtomicDistribution):
            check_entry_cap(n_samples, "Monte Carlo samples")  # atom indices
            mats, index = dist.atoms, atom_indices(dist, rng, n_samples)  # a sandwich per atom
        else:
            check_entry_cap(n_samples * dim * dim, "Monte Carlo samples")
            mats, index = sample_matrix(dist, rng, size=n_samples), None
        expected, stderr = _mc_estimates(cert, mats, xs, index)
        vx = evaluate_rows(cert, xs)
        slack = gamma * vx + 4.0 * stderr + 1e-12 * np.maximum(vx, 1.0)
    else:
        raise ValueError("mode must be 'exact' or 'mc'")

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
