"""Problem models: matrix distributions, Markov jump systems, JSON ingest.

Two distribution families are supported, and together they keep every
expectation used downstream exactly computable:

* finite atomic laws (a weighted list of matrices), and
* entrywise-independent uniform boxes (each entry uniform on an interval;
  degenerate intervals act as point masses in that entry).

Each law builds the Sym^p matrix E[S_p(A)] (``expected_symmetric_power``)
with no array of length d^p; its entrywise positivity is the cone flag of
a report and the gate of a cone-norm certificate. Atomic laws build
S_p(A_k) degree by degree for all atoms at once; boxes expand (A x)^alpha
over the multisets of p cells, from one memoised table, and add the terms
with one ``bincount``. The entry cap counts each builder's result and
tables on every call.

A Markov jump system has the same ``dim``, ``n_modes`` (1 for a law, the
one-mode chain) and ``support_nonnegative``, and the same two builders for
its operator T_p: on Sym^p (x) R^N, and the full N d^p lift.

Each dataclass checks its own invariants at construction. A broken schema
rule raises :class:`SchemaError` (a ``ValueError``) whose pointer is relative
to the law's or the chain's section of a problem document; the JSON loader
prefixes it with that section's pointer.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AssumptionError, SchemaError
from .linalg import (
    check_entry_cap,
    check_finite,
    kron_power,
    orbit_index,
    shift_up,
    sorted_indices,
    symmetric_dim,
    symmetric_power,
)

PROB_SUM_TOL = 1e-12
ROW_SUM_TOL = 1e-12


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * stack[k], accumulated in order from zero."""
    out = np.zeros(stack.shape[1:])
    for weight, item in zip(weights, stack):
        out += weight * item
    return out


class _CellMultisets(NamedTuple):
    """The C(d^2+p-1, p) sorted multisets T of p cells of a d x d matrix."""

    pair: np.ndarray  # (G,) C * (monomial of the row counts) + (monomial of the column counts)
    coef: np.ndarray  # (G,) prod_i alpha_i! / prod_c T_c!, alpha the row counts
    factors: np.ndarray  # (min(p, d^2), G) order * d^2 + cell of each run of equal cells, then 0


def _cell_multisets(d: int, p: int) -> _CellMultisets:
    """The memoised table, with its C(d^2+p-1, p) p entries checked against
    the entry cap on every call."""
    check_entry_cap(symmetric_dim(d * d, p) * p, "cell multisets")
    return _build_cell_multisets(d, p)


@functools.lru_cache(maxsize=64)
def _build_cell_multisets(d: int, p: int) -> _CellMultisets:
    cells = d * d
    count = symmetric_dim(cells, p)
    # the memoised arrays are allocated before the work arrays, which are
    # freed above them; int32 holds every index below the entry cap
    plan = _CellMultisets(
        pair=np.empty(count, dtype=np.int32),
        coef=np.empty(count),
        factors=np.empty((min(p, cells), count), dtype=np.int32),
    )
    picked = sorted_indices(cells, p)
    rows, cols = np.divmod(picked, d)
    cell_run, row_run = np.ones_like(picked), np.ones_like(picked)
    for t in range(1, p):
        cell_run[:, t] = np.where(picked[:, t] == picked[:, t - 1], cell_run[:, t - 1] + 1, 1)
        row_run[:, t] = np.where(rows[:, t] == rows[:, t - 1], row_run[:, t - 1] + 1, 1)
    ends = np.ones(picked.shape, dtype=bool)
    ends[:, :-1] = picked[:, 1:] != picked[:, :-1]
    # one factor per run of equal cells, in increasing cell order, then
    # factor 0, which is E[a_00^0] = 1.0 and leaves a product unchanged
    factors = np.where(ends, cell_run * cells + picked, 0)
    runs_first = np.argsort(~ends, axis=1, kind="stable")[:, : min(p, cells)]
    factors = np.take_along_axis(factors, runs_first, axis=1)
    plan.factors[:] = factors.T
    plan.coef[:] = np.prod(row_run, axis=1, dtype=float) / np.prod(cell_run, axis=1, dtype=float)
    row_at = col_at = np.zeros(count, dtype=np.intp)
    for t in range(p):
        up = shift_up(d, t + 1)
        row_at, col_at = up[row_at, rows[:, t]], up[col_at, cols[:, t]]
    plan.pair[:] = row_at * symmetric_dim(d, p) + col_at
    for arr in plan:
        arr.flags.writeable = False
    return plan


class MatrixDistribution:
    """Common surface of all distribution families, each a one-mode chain."""

    dim: int
    n_modes = 1

    def expected_kron_power(self, p: int) -> np.ndarray:
        raise NotImplementedError

    def expected_symmetric_power(self, p: int) -> np.ndarray:
        """E[S_p(A)], the C(d+p-1, p) square matrix with
        E[m_p(A x)] = E[S_p(A)] m_p(x) for the degree-p monomials m_p (see
        :func:`~switchstab.linalg.symmetric_power`): the restriction of
        E[A^(kron p)] to the symmetric tensors. At p = 1 it is the mean."""
        raise NotImplementedError

    def support_nonnegative(self) -> bool:
        """Sufficient (and for these families exact) test that every support
        matrix is entrywise nonnegative, i.e. leaves the positive orthant
        invariant."""
        raise NotImplementedError


@dataclass(frozen=True)
class AtomicDistribution(MatrixDistribution):
    """Finite law: matrix ``atoms[i]`` with probability ``probabilities[i]``."""

    probabilities: np.ndarray
    atoms: np.ndarray  # shape (n, d, d)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        atoms = check_finite(np.asarray(self.atoms, dtype=float), "atoms")
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("need at least one atom")
        bad = np.flatnonzero((probs <= 0) | (probs > 1))
        if bad.size:
            raise SchemaError("atom probability must lie in (0, 1]", f"/atoms/{bad[0]}/p")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise SchemaError(f"atom probabilities sum to {float(probs.sum())!r}, not 1", "/atoms")
        if atoms.ndim != 3 or atoms.shape[0] != probs.size or atoms.shape[1] != atoms.shape[2]:
            raise ValueError("atoms must be a stack of square matrices, one per probability")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def expected_kron_power(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError("p must be >= 1")
        check_entry_cap(self.dim ** (2 * p), "expected_kron_power")
        out = np.zeros((self.dim**p, self.dim**p))
        for prob, m in zip(self.probabilities, self.atoms):
            out += prob * kron_power(m, p)
        return out

    def expected_symmetric_power(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError("p must be >= 1")
        return _weighted_sum(self.probabilities, symmetric_power(self.atoms, p))

    def support_nonnegative(self) -> bool:
        return bool(np.all(self.atoms >= 0))


@dataclass(frozen=True)
class UniformEntriesDistribution(MatrixDistribution):
    """Entries mutually independent, entry (i, j) uniform on
    [lower[i, j], upper[i, j]]; equal bounds mean a deterministic entry."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = check_finite(np.asarray(self.lower, dtype=float), "lower")
        upper = check_finite(np.asarray(self.upper, dtype=float), "upper")
        if lower.ndim != 2 or lower.shape[0] != lower.shape[1] or lower.shape != upper.shape:
            raise ValueError("lower and upper must be square arrays of equal shape")
        bad = np.argwhere(lower > upper)
        if bad.size:
            i, j = bad[0]
            raise SchemaError("lower bound exceeds upper bound", f"/upper/{i}/{j}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def entry_moment(self, order: int) -> np.ndarray:
        """Elementwise E[a_ij^order] for a uniform interval, order >= 0: the
        last of :meth:`entry_moments`."""
        return self.entry_moments(order)[order]

    def entry_moments(self, order: int) -> np.ndarray:
        """E[a_ij^k] for k = 0..order, as a new (order + 1, d, d) array.

        The law keeps the stack of the highest order computed so far, and a
        lower order is a copy of its first rows, which are the same bits
        (see :meth:`_entry_moment_stack`): the Sym^p matrix of a report and
        the mean of its flag share one computation.
        """
        kept = self.__dict__.get("_moments")
        if kept is None or kept.shape[0] <= order:
            kept = self._entry_moment_stack(order)
            object.__setattr__(self, "_moments", kept)
        return kept[: order + 1].copy()

    def _entry_moment_stack(self, order: int) -> np.ndarray:
        """E[a_ij^k] for k = 0..order, computed.

        Expanded about the midpoint c with half-width h as the sum over even
        j <= k of C(k, j) c^(k-j) h^j / (j+1). The terms share one sign, so
        narrow intervals do not cancel; a degenerate entry gets exactly l^k,
        and order 1 exactly the midpoint. The powers of c and h come from one
        ``np.power`` over a stacked exponent axis, the arithmetic of
        ``c ** k`` (its square is a product, as in ``c ** 2``), and the
        terms are added from zero in increasing j, so each order is bit for
        bit the sum taken for that order alone.
        """
        c = 0.5 * (self.lower + self.upper)
        h = 0.5 * (self.upper - self.lower)
        base = np.stack([c, h])
        powers = np.power(base, np.arange(order + 1.0)[:, None, None, None])
        if order >= 2:
            powers[2] = base * base  # ``x ** 2`` is numpy's square, not pow
        out = np.zeros((order + 1,) + c.shape)
        for j in range(0, order + 1, 2):
            comb = np.array([math.comb(k, j) for k in range(j, order + 1)], dtype=float)
            out[j:] += comb[:, None, None] * powers[: order + 1 - j, 0] * powers[j, 1] / (j + 1)
        return out

    def expected_kron_power(self, p: int) -> np.ndarray:
        if p < 1:
            raise ValueError("p must be >= 1")
        d = self.dim
        n = d**p
        check_entry_cap(n * n, "expected_kron_power")
        if p == 1:
            return self.entry_moment(1)
        # entry (i, j) is the moment E[a^T] of the multiset T of cells
        # (i_t, j_t): orbit_index numbers T from the cell digits i_t d + j_t,
        # and the transpose puts the row digits i_t before the column digits
        # j_t. The moments are those of expected_symmetric_power, so entries
        # are copied, not recomputed
        moments = self._multiset_moments(_cell_multisets(d, p), p)
        by_cells = moments[orbit_index(d * d, p)].reshape((d, d) * p)
        rows_first = [*range(0, 2 * p, 2), *range(1, 2 * p, 2)]
        return by_cells.transpose(rows_first).reshape(n, n)

    def expected_symmetric_power(self, p: int) -> np.ndarray:
        # (A x)^alpha = prod_i (a_i . x)^(alpha_i) expands into one term per
        # multiset T of p cells with row counts alpha; T contributes
        # prod_i alpha_i! / prod_c T_c! * E[a^T] to the monomial of its
        # column counts, and E[a^T] factors over the independent cells
        if p < 1:
            raise ValueError("p must be >= 1")
        if p == 1:
            return self.entry_moment(1)
        plan = _cell_multisets(self.dim, p)
        size = symmetric_dim(self.dim, p)
        terms = plan.coef * self._multiset_moments(plan, p)
        return np.bincount(plan.pair, weights=terms, minlength=size * size).reshape(size, size)

    def _multiset_moments(self, plan: _CellMultisets, p: int) -> np.ndarray:
        # E[a^T] as the product of single-cell moments in increasing cell
        # order: the value of every entry of E[A^(kron p)] with these cells,
        # bit for bit
        moments = self.entry_moments(p).reshape(-1)
        out = np.take(moments, plan.factors[0])
        for factor in plan.factors[1:]:
            out *= np.take(moments, factor)
        return out

    def support_nonnegative(self) -> bool:
        # the support is the full box, so nonnegative lower bounds are
        # necessary as well as sufficient
        return bool(np.all(self.lower >= 0))


@dataclass(frozen=True)
class ConeFlags:
    """Recomputed (never user-supplied) positivity flags.

    ``expectation_positive[p]`` is the entrywise test "E[S_p(A)] > 0" on the
    Sym^p matrix of the report's radius, "E[A] > 0" at p = 1, and for a Markov
    system "T_p > 0" on Sym^p (x) R^N. True makes it irreducible; cone norms
    are gated by their cone solve, not by the flag, and false proves nothing.
    """

    orthant_invariant: bool
    expectation_positive: dict[int, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "orthant_invariant": self.orthant_invariant,
            "expectation_positive": {str(p): v for p, v in sorted(self.expectation_positive.items())},
        }


@dataclass(frozen=True)
class MarkovJumpSystem:
    """Mode matrices switched by a finite Markov chain.

    ``transition`` is row-stochastic: transition[i, j] is the probability of
    moving from mode i+1 to mode j+1. Modes are 1-based externally, matching
    the input format. ``input_vectors`` and ``feedback`` describe an optional
    static state feedback u(k) = feedback @ x(k) entering through the active
    mode's input vector.
    """

    transition: np.ndarray  # (N, N)
    modes: np.ndarray  # (N, d, d)
    input_vectors: np.ndarray | None = None  # (N, d)
    feedback: np.ndarray | None = None  # (d,)
    initial_mode: int | None = None  # 1-based

    def __post_init__(self):
        p = check_finite(np.asarray(self.transition, dtype=float), "transition matrix")
        modes = check_finite(np.asarray(self.modes, dtype=float), "modes")
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        n = p.shape[0]
        if np.any(p < 0) or np.any(p > 1):
            i, j = np.argwhere((p < 0) | (p > 1))[0]
            raise SchemaError("transition probability outside [0, 1]", f"/P/{i}/{j}")
        bad_rows = np.flatnonzero(np.abs(p.sum(axis=1) - 1.0) > ROW_SUM_TOL)
        if bad_rows.size:
            i = bad_rows[0]
            raise SchemaError(f"row sums to {float(p[i].sum())!r}, not 1", f"/P/{i}")
        if modes.ndim != 3 or modes.shape[0] != n or modes.shape[1] != modes.shape[2]:
            raise ValueError(f"need {n} square mode matrices of a common dimension")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "modes", modes)
        d = modes.shape[1]
        if self.input_vectors is not None:
            iv = check_finite(np.asarray(self.input_vectors, dtype=float), "input vectors")
            if iv.shape != (n, d):
                raise ValueError(f"input vectors must have shape ({n}, {d})")
            object.__setattr__(self, "input_vectors", iv)
        if self.feedback is not None:
            fb = check_finite(np.asarray(self.feedback, dtype=float), "feedback row")
            if fb.shape != (d,):
                raise ValueError(f"feedback row must have length {d}")
            object.__setattr__(self, "feedback", fb)
        if self.initial_mode is not None and not 1 <= self.initial_mode <= n:
            raise SchemaError(f"initial mode must lie in 1..{n}", "/initial_mode")

    @property
    def n_modes(self) -> int:
        return self.transition.shape[0]

    @property
    def dim(self) -> int:
        return self.modes.shape[1]

    def _blocks(self, blocks: np.ndarray) -> np.ndarray:
        """The block matrix whose block (j, i) is P[i, j] blocks[i]."""
        size = blocks.shape[0] * blocks.shape[1]
        return np.einsum("ij,iab->jaib", self.transition, blocks).reshape(size, size)

    def expected_kron_power(self, p: int) -> np.ndarray:
        """T_p, the lifted transition operator (P.T kron I) @ blockdiag of the
        mode powers: block (j, i) is P[i, j] M_i^(kron p), and
        rho(T_p)^(1/p) is the Markovian p-radius."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        check_entry_cap((self.n_modes * self.dim**p) ** 2, "markov_tp")
        return self._blocks(np.stack([kron_power(m, p) for m in self.modes]))

    def expected_symmetric_power(self, p: int) -> np.ndarray:
        """T_p on Sym^p (x) R^N, block (j, i) P[i, j] S_p(M_i); T_1 at p = 1."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        size = self.n_modes * symmetric_dim(self.dim, p)
        check_entry_cap(size * size, "markov Sym^p operator")
        return self._blocks(symmetric_power(self.modes, p))

    def support_nonnegative(self) -> bool:
        return bool(np.all(self.modes >= 0))


def apply_feedback(system: MarkovJumpSystem) -> MarkovJumpSystem:
    """Close the loop: mode i becomes M_i + n_i @ feedback; the input data is
    consumed and cleared in the result."""
    if system.input_vectors is None or system.feedback is None:
        raise AssumptionError("closed loop requires both input vectors and a feedback row")
    closed = system.modes + np.einsum("ni,j->nij", system.input_vectors, system.feedback)
    return MarkovJumpSystem(
        transition=system.transition,
        modes=closed,
        initial_mode=system.initial_mode,
    )


# ---------------------------------------------------------------------------
# JSON problem documents
# ---------------------------------------------------------------------------

Problem = MatrixDistribution | MarkovJumpSystem


def _require(node: dict, key: str, pointer: str):
    if key not in node:
        raise SchemaError(f"missing required field '{key}'", pointer)
    return node[key]


def _as_number(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number", pointer)
    v = float(value)
    if not np.isfinite(v):
        raise SchemaError("number must be finite", pointer)
    return v


def _as_vector(node, length: int, pointer: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != length:
        raise SchemaError(f"expected an array of {length} numbers", pointer)
    return np.array([_as_number(v, f"{pointer}/{i}") for i, v in enumerate(node)])


def _as_matrix(node, rows: int, cols: int, pointer: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != rows:
        raise SchemaError(f"expected an array of {rows} rows", pointer)
    return np.stack([_as_vector(row, cols, f"{pointer}/{i}") for i, row in enumerate(node)])


def _build(cls, pointer: str, **fields):
    """``cls(**fields)``, with a broken schema rule reported under ``pointer``."""
    try:
        return cls(**fields)
    except SchemaError as exc:
        raise SchemaError(exc.message, pointer + exc.pointer) from exc


def _parse_distribution(node, dim: int, pointer: str) -> MatrixDistribution:
    if not isinstance(node, dict):
        raise SchemaError("expected an object", pointer)
    kind = _require(node, "kind", pointer)
    if kind == "atomic":
        atoms_node = _require(node, "atoms", pointer)
        if not isinstance(atoms_node, list) or not atoms_node:
            raise SchemaError("expected a non-empty array of atoms", f"{pointer}/atoms")
        probs, mats = [], []
        for i, atom in enumerate(atoms_node):
            apt = f"{pointer}/atoms/{i}"
            if not isinstance(atom, dict):
                raise SchemaError("expected an object with 'p' and 'M'", apt)
            probs.append(_as_number(_require(atom, "p", apt), f"{apt}/p"))
            mats.append(_as_matrix(_require(atom, "M", apt), dim, dim, f"{apt}/M"))
        return _build(
            AtomicDistribution, pointer, probabilities=np.array(probs), atoms=np.stack(mats)
        )
    if kind == "uniform_entries":
        lower = _as_matrix(_require(node, "lower", pointer), dim, dim, f"{pointer}/lower")
        upper = _as_matrix(_require(node, "upper", pointer), dim, dim, f"{pointer}/upper")
        return _build(UniformEntriesDistribution, pointer, lower=lower, upper=upper)
    raise SchemaError(f"unknown distribution kind {kind!r}", f"{pointer}/kind")


def _parse_markov(node, dim: int, pointer: str) -> MarkovJumpSystem:
    if not isinstance(node, dict):
        raise SchemaError("expected an object", pointer)
    p_node = _require(node, "P", pointer)
    if not isinstance(p_node, list) or not p_node:
        raise SchemaError("expected a non-empty square array", f"{pointer}/P")
    n = len(p_node)
    p = _as_matrix(p_node, n, n, f"{pointer}/P")
    modes_node = _require(node, "modes", pointer)
    if not isinstance(modes_node, list) or len(modes_node) != n:
        raise SchemaError(f"expected {n} mode matrices", f"{pointer}/modes")
    modes = np.stack(
        [_as_matrix(m, dim, dim, f"{pointer}/modes/{i}") for i, m in enumerate(modes_node)]
    )
    inputs = None
    if node.get("inputs") is not None:
        inputs = _as_matrix(node["inputs"], n, dim, f"{pointer}/inputs")
    feedback = None
    if node.get("feedback") is not None:
        feedback = _as_vector(node["feedback"], dim, f"{pointer}/feedback")
    initial = node.get("initial_mode")
    if initial is not None and (isinstance(initial, bool) or not isinstance(initial, int)):
        raise SchemaError("expected an integer", f"{pointer}/initial_mode")
    return _build(
        MarkovJumpSystem,
        pointer,
        transition=p,
        modes=modes,
        input_vectors=inputs,
        feedback=feedback,
        initial_mode=initial,
    )


def load_problem(document: str) -> Problem:
    """Parse and validate a problem document.

    Raises SchemaError with a JSON pointer to the first offending field.
    """
    try:
        root = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(root, dict):
        raise SchemaError("top-level value must be an object")
    kind = _require(root, "type", "")
    if kind not in ("iid", "markov"):
        raise SchemaError("type must be 'iid' or 'markov'", "/type")
    dim = _require(root, "dim", "")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim must be a positive integer", "/dim")
    if ("distribution" in root) == ("markov" in root):
        raise SchemaError("exactly one of 'distribution' or 'markov' must be present")
    if kind == "iid":
        if "distribution" not in root:
            raise SchemaError("type 'iid' requires a 'distribution' section")
        return _parse_distribution(root["distribution"], dim, "/distribution")
    if "markov" not in root:
        raise SchemaError("type 'markov' requires a 'markov' section")
    return _parse_markov(root["markov"], dim, "/markov")


def dump_problem(problem: Problem) -> dict:
    """Problem document for ``problem``; inverse of :func:`load_problem`."""
    if isinstance(problem, AtomicDistribution):
        return {
            "type": "iid",
            "dim": problem.dim,
            "distribution": {
                "kind": "atomic",
                "atoms": [
                    {"p": float(p), "M": m.tolist()}
                    for p, m in zip(problem.probabilities, problem.atoms)
                ],
            },
        }
    if isinstance(problem, UniformEntriesDistribution):
        return {
            "type": "iid",
            "dim": problem.dim,
            "distribution": {
                "kind": "uniform_entries",
                "lower": problem.lower.tolist(),
                "upper": problem.upper.tolist(),
            },
        }
    if isinstance(problem, MarkovJumpSystem):
        markov: dict = {
            "P": problem.transition.tolist(),
            "modes": problem.modes.tolist(),
        }
        if problem.input_vectors is not None:
            markov["inputs"] = problem.input_vectors.tolist()
        if problem.feedback is not None:
            markov["feedback"] = problem.feedback.tolist()
        if problem.initial_mode is not None:
            markov["initial_mode"] = problem.initial_mode
        return {"type": "markov", "dim": problem.dim, "markov": markov}
    raise TypeError(f"cannot serialize {type(problem).__name__}")


def problem_to_json(problem: Problem) -> str:
    return json.dumps(dump_problem(problem), indent=2)
