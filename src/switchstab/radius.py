"""p-radius computations and joint-spectral-radius brackets.

The p-radius of a matrix law is rho(E[A^(kron p)])^(1/p). The formula is
licensed either by an even p or by orthant invariance of the support;
anything else yields a typed "unsupported" result rather than a number,
because the formula is simply not known to hold there.

E[A^(kron p)] commutes with permutations of its p tensor factors, so the
symmetric tensors Sym^p, of dimension C(d+p-1, p) against d^p, are an
invariant subspace. In both licensed cases the spectral radius is attained
there: for even p, E||A_k...A_1 x||^p pairs symmetric tensors; on the
orthant, the all-ones vector is symmetric and positive. So the p-radius of
an i.i.d. law is read from the C(d+p-1, p) square matrix E[S_p(A)] of the
law's ``expected_symmetric_power`` builder, with m_p(A x) = S_p(A) m_p(x)
for the degree-p monomials m_p, and no array of the computation has a d^p
axis. The positivity flag of a report at p is read from that same matrix,
E[S_p(A)] > 0, and the flag at p = 1 from the mean. The entry cap counts
every table and result of the builders.

A Markov jump system is read through the same protocol, and a law is its
one-mode chain P = [[1]]. Its conditional moments
E[x(k)^(kron p) 1{sigma_k = j}] evolve by T_p, whose block (j, i) is
P[i, j] M_i^(kron p), and T_p leaves Sym^p (x) R^N invariant; its
restriction there (the system's ``expected_symmetric_power``) has blocks
P[i, j] S_p(M_i), N C(d+p-1, p) rows, and the same licences: even p, or odd
p with entrywise-nonnegative modes; its flag at p = 1 reads T_1. So
:func:`p_radius` and :func:`check_mean_stability` take either problem. The
full lift ``expected_kron_power`` is read here only for ``--general-p``.

Each of these matrices, when licensed, maps a cone into itself, and
:func:`~switchstab.linalg.cone_spectral_radius` reads its radius from a
Collatz-Wielandt bracket of relative width 1e-12 once it has
``CONE_CROSSOVER`` rows: the Sym^p matrix of a nonnegative support (any p)
preserves the orthant; at p = 2, E[S_2(A)] is X -> E[A X A.T] on symmetric
matrices and the Sym^2 (x) R^N operator maps N-tuples of positive
semidefinite matrices into themselves. Signed laws at even p >= 4, smaller
matrices, reducible laws and ``--general-p`` read the dense eigensolve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DimensionCapError
from .linalg import cone_spectral_radius, kron_power, lift_entry_cap, spectrum
from .models import AtomicDistribution, ConeFlags, MatrixDistribution, Problem

#: half-width of the band around 1 inside which verdicts are "marginal"
DECISION_MARGIN = 1e-9


class AssumptionPath(str, enum.Enum):
    """Which hypothesis licensed the spectral-radius formula."""

    EVEN_P = "even_p"
    ORTHANT_INVARIANT = "orthant_invariant"
    UNSUPPORTED = "unsupported"


class Verdict(str, enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"
    UNSUPPORTED = "unsupported"

    @classmethod
    def of(cls, value: float | None) -> Verdict:
        """The verdict on a p-radius, or on None where no lift licenses one."""
        if value is None:
            return cls.UNSUPPORTED
        if value < 1.0 - DECISION_MARGIN:
            return cls.STABLE
        if value > 1.0 + DECISION_MARGIN:
            return cls.UNSTABLE
        return cls.MARGINAL


@dataclass(frozen=True)
class PRadiusResult:
    p: int
    value: float | None
    lifted_dim: int
    assumption_path: AssumptionPath

    def __post_init__(self):
        if self.assumption_path is AssumptionPath.UNSUPPORTED:
            if self.value is not None:
                raise ValueError("unsupported results carry no value")
        elif self.value is None or self.value < 0:
            raise ValueError("licensed results carry a nonnegative value")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "value": self.value,
            "lifted_dim": self.lifted_dim,
            "assumption_path": self.assumption_path.value,
        }


@dataclass(frozen=True)
class StabilityReport:
    verdict: Verdict
    p_radius: PRadiusResult
    cone_flags: ConeFlags

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "p_radius": self.p_radius.to_dict(),
            "cone_flags": self.cone_flags.to_dict(),
            "decision_margin": DECISION_MARGIN,
        }


@dataclass(frozen=True)
class JsrBounds:
    """Bracket on the joint spectral radius of a finite matrix set.

    lower: best rho(product)^(1/len) seen; upper: best max-norm bound
    min over lengths l of (max over products of length l of ||product||_2)^(1/l).
    Both are valid at any depth; they tighten monotonically as depth grows.
    """

    lower: float
    upper: float
    depth: int
    truncated: bool = False

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-12):
            raise ValueError("lower bound exceeds upper bound")

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "depth": self.depth,
            "truncated": self.truncated,
        }


@dataclass(frozen=True)
class LimitSequence:
    entries: list[tuple[int, float]]
    jsr_reference: JsrBounds | None = None
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "entries": [[p, v] for p, v in self.entries],
            "jsr_reference": self.jsr_reference.to_dict() if self.jsr_reference else None,
            "truncated": self.truncated,
        }


def _sym_p_radius(problem: Problem, p: int) -> tuple[PRadiusResult, np.ndarray | None]:
    """rho(E[S_p])^(1/p) for the problem's Sym^p operator, when p is licensed:
    even p, or odd p on a nonnegative support, with the matrix it read. The
    radius is read on the orthant for a nonnegative support, on N-tuples of
    PSD blocks of side d at p = 2, densely otherwise. An unsupported p builds
    nothing, and its matrix is None."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    nonnegative = problem.support_nonnegative()
    lifted_dim = problem.n_modes * problem.dim**p
    if p % 2 == 0:
        path = AssumptionPath.EVEN_P
    elif nonnegative:
        path = AssumptionPath.ORTHANT_INVARIANT
    else:
        path = AssumptionPath.UNSUPPORTED
        return PRadiusResult(p=p, value=None, lifted_dim=lifted_dim, assumption_path=path), None
    induced = problem.expected_symmetric_power(p)
    if nonnegative:
        rho = cone_spectral_radius(induced).value
    elif p == 2:
        rho = cone_spectral_radius(induced, psd_side=problem.dim).value
    else:
        rho = spectrum(induced).spectral_radius
    value = float(rho ** (1.0 / p))
    return PRadiusResult(p=p, value=value, lifted_dim=lifted_dim, assumption_path=path), induced


def p_radius(problem: Problem, p: int) -> PRadiusResult:
    """p-radius rho_p = rho(E[A^(kron p)])^(1/p) of a law, or rho(T_p)^(1/p)
    of a Markov system, when licensed, computed on the symmetric power.
    ``lifted_dim`` is still N d^p (d^p for a law)."""
    return _sym_p_radius(problem, p)[0]


def check_mean_stability(problem: Problem, p: int) -> StabilityReport:
    """Decide p-th mean stability: stable iff the p-radius is below 1.

    Values within ``DECISION_MARGIN`` of 1 are reported marginal since
    floating point cannot certify a strict inequality at the boundary.
    The flag at a licensed p is read from the Sym^p matrix the radius was
    solved on; the flag of p = 1, in every report, from E[A] (T_1).
    """
    result, induced = _sym_p_radius(problem, p)
    positive = {} if induced is None else {p: bool(np.all(induced > 0))}
    if 1 not in positive:
        positive[1] = bool(np.all(problem.expected_symmetric_power(1) > 0))
    flags = ConeFlags(problem.support_nonnegative(), expectation_positive=positive)
    return StabilityReport(verdict=Verdict.of(result.value), p_radius=result, cone_flags=flags)


#: the Markov name of :func:`check_mean_stability`
markov_stability = check_mean_stability


def markov_tp_spectral_radius(system: Problem, p: int) -> float:
    """rho(T_p)^(1/p) from the full N d^p lift, at any p and with no verdict:
    the reference value of :func:`p_radius` where p is licensed, and the
    only one at odd p with a negative mode entry."""
    rho = spectrum(system.expected_kron_power(p)).spectral_radius
    return float(rho ** (1.0 / p))


# ---------------------------------------------------------------------------
# Joint spectral radius brackets and the p -> infinity limit
# ---------------------------------------------------------------------------

JSR_PRODUCT_BUDGET = 1_000_000

#: a Frobenius norm from a plain sum of squares is exact to rounding inside
#: this range; the squares underflow below about 1e-154 and overflow above
#: about 1e154
_FRO_TRUSTED = (1e-140, 1e140)


def _may_reach(fro: np.ndarray, bound: float) -> np.ndarray:
    """Mask of the products that may have a norm of at least ``bound``: all
    but those whose Frobenius norm ``fro`` is surely below it. A non-finite
    product (NaN or inf norm) is always in the mask."""
    low, high = _FRO_TRUSTED
    if not bound >= low:
        return np.ones(fro.shape, dtype=bool)
    return ~(fro < min(bound, high))


def jsr_bounds(atoms, depth: int, budget: int = JSR_PRODUCT_BUDGET) -> JsrBounds:
    """Bracket the joint spectral radius by enumerating products up to
    ``depth``. The enumeration stops at the deepest completed length, and
    the result is flagged truncated, if the next length would exceed
    ``budget`` products in all or hold more than the lift entry cap of
    doubles (m^l d^2 for m atoms of size d at length l).

    Each length's products are one (m^l, d, d) stack, grown from the last by
    one BLAS matrix product per atom; these two stacks are the only large
    arrays. The bracket's bits do not depend on the BLAS thread count.

    Every product is enumerated, but only those that can move the bracket
    reach LAPACK. Since rho(P) <= ||P||_2 <= ||P||_F, a product cannot raise
    the lower bound if ||P||_F < lower^l, lower being the bound from the
    shorter lengths, and cannot hold the level's largest spectral norm if
    ||P||_F is below the spectral norm of the level's largest-||P||_F product.
    Both tests carry a 1e-9 relative margin, far above the rounding of the
    norms and of the backward-stable eigvals and svd, and each kept product
    is solved on its own, so the bracket is the one that solving every
    product gives, to the last bit.

    When products of the atoms could leave the normal range of doubles
    ((d max|a|)^depth above 1e290 or max|a|^depth below 1e-290), the
    enumeration runs on the atoms times the power of two 2^-e that brings
    max|a| into [0.5, 1), and both bounds are scaled back by 2^e.
    """
    mats = np.asarray(atoms, dtype=float)
    if mats.ndim != 3 or mats.shape[0] == 0 or mats.shape[1] != mats.shape[2]:
        raise ValueError("need a non-empty stack of square matrices")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    m, d = mats.shape[0], mats.shape[1]
    shift = 0
    amax = float(np.max(np.abs(mats)))
    if 0.0 < amax < math.inf and (
        depth * math.log10(d * amax) > 290 or depth * math.log10(amax) < -290
    ):
        shift = int(np.frexp(amax)[1])
        mats = np.ldexp(mats, -shift)
    cap = lift_entry_cap()
    lower = 0.0
    upper = np.inf
    produced = 0
    truncated = False
    level = mats
    completed = 0
    for length in range(1, depth + 1):
        if length > 1:
            count = level.shape[0] * m
            if produced + count > budget or count * d * d > cap:
                truncated = True
                break
            # P A_b for every product P and atom b, at index b n + a
            grown = np.empty((m, level.shape[0] * d, d))
            # a product may overflow; eigvals then raises on it, as on any inf
            with np.errstate(over="ignore", invalid="ignore"):
                for b in range(m):
                    np.matmul(level.reshape(-1, d), mats[b], out=grown[b])
            level = grown.reshape(count, d, d)
        elif level.shape[0] > budget:
            truncated = True
            break
        produced += level.shape[0]
        fro = np.sqrt(np.einsum("nij,nij->n", level, level))
        # eigvals first: it raises LinAlgError on a non-finite product
        with np.errstate(over="ignore", under="ignore"):
            floor = np.float64(lower * (1.0 - 1e-9)) ** length
        reach = _may_reach(fro, floor)
        if reach.any():
            eigs = np.linalg.eigvals(level[reach])
            lower = max(lower, float(np.max(np.abs(eigs)) ** (1.0 / length)))
        top = np.linalg.svd(level[np.argmax(fro)], compute_uv=False)[0]
        reach = _may_reach(fro, top * (1.0 - 1e-9))
        norms = np.linalg.svd(level[reach], compute_uv=False)[:, 0]
        upper = min(upper, float(np.max(norms) ** (1.0 / length)))
        completed = length
    if completed == 0:
        raise AssumptionError(f"product budget {budget} admits no depth-1 enumeration")
    return JsrBounds(math.ldexp(lower, shift), math.ldexp(upper, shift), completed, truncated)


def limit_sequence(dist: Problem, p_max: int, even_only: bool = False) -> LimitSequence:
    """p-radius sequence for p = 1..p_max (or even p only) of a law or a
    Markov system, which climbs toward the joint spectral radius of the
    support (of the mode products the chain allows). An atomic law also gets
    the depth-8 enumeration bracket on that radius as a reference; other
    problems get None.

    even_only works for any problem since even p needs no cone hypothesis;
    the full sequence requires orthant invariance for its odd entries. A
    dimension cap truncates the sequence and flags it.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    ps = range(2, p_max + 1, 2) if even_only else range(1, p_max + 1)
    entries: list[tuple[int, float]] = []
    truncated = False
    for p in ps:
        try:
            result = p_radius(dist, p)
        except DimensionCapError:
            truncated = True
            break
        if result.value is None:
            raise AssumptionError(
                f"p = {p} is unsupported for this problem (odd exponent without "
                "orthant invariance); rerun with even_only"
            )
        entries.append((p, result.value))
    reference = None
    if isinstance(dist, AtomicDistribution):
        reference = jsr_bounds(dist.atoms, depth=8)
    return LimitSequence(entries=entries, jsr_reference=reference, truncated=truncated)


def lifting_identity_check(dist: MatrixDistribution, p: int, k: int) -> float:
    """Residual |rho_p(mu) - rho_{p/k}(lifted mu)^(1/k)| of the exact lifting
    identity, for a finite atomic law mu.

    The right side is the law of the kron-powered atoms A^(kron k), so the
    two sides are computed by independent routes. Any other law would read
    E[A^(kron p)] on both sides, and the residual would prove nothing.
    """
    if k < 1 or p % k:
        raise ValueError("k must be a positive divisor of p")
    if not isinstance(dist, AtomicDistribution):
        raise AssumptionError("the lifting identity check needs a finite atomic law")
    left = p_radius(dist, p)
    lifted = AtomicDistribution(
        probabilities=dist.probabilities,
        atoms=np.stack([kron_power(m, k) for m in dist.atoms]),
    )
    right = p_radius(lifted, p // k)
    if left.value is None or right.value is None:
        raise AssumptionError("both sides of the lifting identity must be licensed")
    return abs(left.value - right.value ** (1.0 / k))
