import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchstab import (
    AssumptionError,
    AtomicDistribution,
    DimensionCapError,
    MarkovJumpSystem,
    SchemaError,
    UniformEntriesDistribution,
    apply_feedback,
    check_mean_stability,
    dump_problem,
    kron_power,
    load_problem,
    p_radius,
    problem_to_json,
    sample_matrix,
)
from switchstab.linalg import orbit_index
from conftest import expected_matrix, expected_sandwich, scalar_uniform


def single_atom(m):
    return AtomicDistribution(probabilities=np.array([1.0]), atoms=np.array([m]))


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def test_expected_matrix_single_atom():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(expected_matrix(single_atom(m)), m)
    assert np.array_equal(single_atom(m).expected_symmetric_power(1), m)


def test_expected_matrix_interval_box_midpoints(interval_box):
    midpoints = np.array([[0.75, 0.9], [0.075, 0.6]])
    assert np.array_equal(expected_matrix(interval_box), midpoints)
    assert np.array_equal(interval_box.expected_symmetric_power(1), midpoints)


def test_expected_matrix_symmetric_atoms_cancel():
    m = np.array([[1.0, -2.0], [0.5, 3.0]])
    dist = AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=np.array([m, -m]))
    assert np.allclose(expected_matrix(dist), 0.0, atol=1e-15)
    assert np.allclose(dist.expected_symmetric_power(1), 0.0, atol=1e-15)


def test_expected_kron_power_single_atom_any_p():
    m = np.array([[0.3, 1.0], [0.0, -0.2]])
    for p in (1, 2, 3):
        assert np.allclose(
            single_atom(m).expected_kron_power(p), kron_power(m, p), rtol=1e-15
        )


def test_expected_kron_power_scalar_uniform_law():
    g = 1.3
    dist = scalar_uniform(g)
    for p in range(1, 13):
        assert dist.expected_kron_power(p)[0, 0] == pytest.approx(
            g**p / (p + 1), rel=1e-13
        )


def test_expected_kron_power_interval_box_second_moment(interval_box):
    # (1,1) entry is the second moment of a uniform [0, 1.5] entry
    assert interval_box.expected_kron_power(2)[0, 0] == pytest.approx(1.5**2 / 3, rel=1e-13)


def test_expected_kron_power_equals_mean_at_p1(interval_box):
    assert np.array_equal(interval_box.expected_kron_power(1), expected_matrix(interval_box))
    dist = AtomicDistribution(
        probabilities=np.array([0.25, 0.75]),
        atoms=np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]]),
    )
    assert np.array_equal(dist.expected_kron_power(1), expected_matrix(dist))


def test_expected_kron_power_atomic_is_weighted_sum():
    rng = np.random.default_rng(5)
    atoms = rng.standard_normal((3, 2, 2))
    probs = np.array([0.2, 0.5, 0.3])
    dist = AtomicDistribution(probabilities=probs, atoms=atoms)
    for p in (2, 3):
        direct = sum(w * kron_power(m, p) for w, m in zip(probs, atoms))
        got = dist.expected_kron_power(p)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_expected_kron_power_uniform_matches_monte_carlo(p):
    rng = np.random.default_rng(11)
    lower = rng.uniform(-1.0, 0.5, (2, 2))
    upper = lower + rng.uniform(0.0, 1.5, (2, 2))
    lower[1, 0] = upper[1, 0]  # one degenerate entry
    dist = UniformEntriesDistribution(lower=lower, upper=upper)
    exact = dist.expected_kron_power(p)

    total = np.zeros_like(exact)
    total_sq = np.zeros_like(exact)
    n = 1_000_000
    chunk = 100_000
    g = np.random.default_rng(99)
    for _ in range(n // chunk):
        a = lower + g.random((chunk, 2, 2)) * (upper - lower)
        k = a
        for _ in range(p - 1):
            k = np.einsum("nij,nkl->nikjl", a, k).reshape(chunk, 2 * k.shape[1], 2 * k.shape[2])
        total += k.sum(axis=0)
        total_sq += (k**2).sum(axis=0)
    mc = total / n
    se = np.sqrt(np.maximum(total_sq / n - mc**2, 0.0) / n)
    # absolute floor guards entries that are deterministic by construction
    assert np.all(np.abs(mc - exact) <= 4.0 * se + 1e-9)


def count_array_box_lift(box, p):
    """Reference E[A^(kron p)] of a uniform box, the former library route:
    an (n, n, d^2) array counts how often each entry pair picks each cell,
    and the moments of those counts are multiplied in increasing cell order."""
    d = box.dim
    n = d**p
    moments = np.stack([box.entry_moment(k).reshape(-1) for k in range(p + 1)])
    digits = np.empty((p, n), dtype=np.int64)
    idx = np.arange(n)
    for t in range(p):
        digits[t] = (idx // d ** (p - 1 - t)) % d
    counts = np.zeros((n, n, d * d), dtype=np.uint8)
    for t in range(p):
        cell = digits[t][:, None] * d + digits[t][None, :]
        for c in range(d * d):
            counts[:, :, c] += cell == c
    out = np.ones((n, n))
    for c in range(d * d):
        out *= moments[counts[:, :, c], c]
    return out


def test_box_lift_is_the_count_array_lift_bit_for_bit(interval_box):
    rng = np.random.default_rng(21)
    lower = rng.uniform(-1.0, 0.5, (3, 3))
    signed = UniformEntriesDistribution(lower=lower, upper=lower + rng.uniform(0.1, 1.5, (3, 3)))
    upper = lower + rng.uniform(0.1, 1.5, (3, 3))
    upper[2, 0] = lower[2, 0]
    degenerate = UniformEntriesDistribution(lower=lower, upper=upper)
    for box in (interval_box, signed, degenerate):
        for p in (1, 2, 3, 4):
            assert np.array_equal(box.expected_kron_power(p), count_array_box_lift(box, p))


@st.composite
def flag_laws(draw):
    """A law with d <= 3 and p <= 6: atoms (m <= 3) or a box, signed or
    nonnegative, with zero entries and, for boxes, degenerate entries."""
    d, p = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = draw(st.booleans())
    zeros = draw(st.sampled_from([0.0, 0.2, 0.5]))
    if draw(st.booleans()):
        lower = rng.uniform(-1.0 if signed else 0.0, 1.0, (d, d))
        upper = lower + rng.uniform(0.0, 1.0, (d, d)) * (rng.uniform(size=(d, d)) >= 0.3)
        keep = rng.uniform(size=(d, d)) >= zeros
        return UniformEntriesDistribution(lower=lower * keep, upper=upper * keep), p
    m = draw(st.integers(1, 3))
    atoms = rng.standard_normal((m, d, d))
    if not signed:
        atoms = np.abs(atoms)
    atoms *= rng.uniform(size=atoms.shape) >= zeros
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    return AtomicDistribution(probabilities=probs / probs.sum(), atoms=atoms), p


def test_box_moments_are_computed_once_per_stability_check(monkeypatch):
    # the Sym^p matrix and the mean of the flags read one stack of moments
    rng = np.random.default_rng(17)
    negative = -rng.uniform(0.5, 1.0, (3, 3))
    tiny = rng.uniform(1e-80, 2e-80, (2, 2))
    cases = [(negative, 0.3, 4), (negative, 0.3, 6), (tiny, tiny, 4), (tiny, tiny, 5)]

    def check(lower, width, p):
        box = UniformEntriesDistribution(lower=lower, upper=lower + width)
        return check_mean_stability(box, p).to_dict()

    stack = UniformEntriesDistribution._entry_moment_stack
    with pytest.MonkeyPatch.context() as patch:  # each call computes its own stack
        patch.setattr(UniformEntriesDistribution, "entry_moments", stack)
        reference = [check(*case) for case in cases]
    orders = []
    monkeypatch.setattr(UniformEntriesDistribution, "_entry_moment_stack",
                        lambda self, order: orders.append(order) or stack(self, order))
    for case, expected in zip(cases, reference):
        orders.clear()
        assert check(*case) == expected
        assert orders == [case[2]]


def per_order_moments(box, order):
    """Reference for ``entry_moments``: each order k summed alone, as a
    Python sum of C(k, j) c^(k-j) h^j / (j+1) over even j."""
    c = 0.5 * (box.lower + box.upper)
    h = 0.5 * (box.upper - box.lower)
    return np.stack([
        sum(math.comb(k, j) * c ** (k - j) * h**j / (j + 1) for j in range(0, k + 1, 2))
        for k in range(order + 1)
    ])


@st.composite
def moment_boxes(draw):
    """Boxes with d <= 3, signed or nonnegative, with degenerate entries and
    scales 10^-3 .. 10^3, and p <= 12 (a Sym^p matrix of at most 45 rows at
    d = 3, p = 8)."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 12 if d < 3 else 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    lower = rng.uniform(-1.0 if draw(st.booleans()) else 0.0, 1.0, (d, d)) * scale
    width = rng.uniform(0.0, 1.0, (d, d)) * (rng.uniform(size=(d, d)) >= 0.3) * scale
    return UniformEntriesDistribution(lower=lower, upper=lower + width), p


@settings(max_examples=80, deadline=None)
@given(moment_boxes())
def test_box_moments_in_one_pass_are_the_per_order_sums(case):
    box, p = case
    moments = box.entry_moments(p)
    reference = per_order_moments(box, p)
    assert np.array_equal(moments, reference)
    assert np.array_equal(np.signbit(moments), np.signbit(reference))
    radii = [check_mean_stability(box, q) for q in range(1, p + 1)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(UniformEntriesDistribution, "entry_moments", per_order_moments)
        for q, report in enumerate(radii, start=1):
            assert report.p_radius.value == p_radius(box, q).value
            assert report.cone_flags == check_mean_stability(box, q).cone_flags


def sym_fold(lift, d, p):
    """The Sym^p matrix of a d^p x d^p lift: row r is the row of the sorted
    multi-index of monomial r, summed over the columns of each monomial."""
    orbit = orbit_index(d, p)
    first = np.unique(orbit, return_index=True)[1]  # the sorted multi-indices
    folded = np.zeros((first.size, first.size))
    np.add.at(folded.T, orbit, lift[first].T)
    return folded


@settings(max_examples=60, deadline=None)
@given(flag_laws())
def test_symmetric_power_of_a_law_is_its_folded_lift(law):
    dist, p = law
    lift = dist.expected_kron_power(p)
    folded = sym_fold(lift, dist.dim, p)
    scale = max(1.0, float(np.max(np.abs(lift))) * dist.dim**p)
    assert np.max(np.abs(dist.expected_symmetric_power(p) - folded)) <= 1e-12 * scale


def test_builder_tables_are_guarded_when_memoised(monkeypatch, interval_box):
    atomic = AtomicDistribution(probabilities=np.array([1.0]), atoms=np.full((1, 2, 2), 0.5))
    box = UniformEntriesDistribution(lower=np.full((2, 2), 0.1), upper=np.full((2, 2), 0.2))
    # build every table under the default cap first, so that each guard
    # below runs on a memoised table
    interval_box.expected_symmetric_power(6)
    atomic.expected_symmetric_power(6)
    orbit_index(2, 6)
    cases = [
        (48, lambda: interval_box.expected_symmetric_power(6), "cell multisets"),  # 84 x 6
        (100, lambda: box.expected_symmetric_power(6), "cell multisets"),
        (48, lambda: atomic.expected_symmetric_power(6), "symmetric power"),  # 7 x 7 x 1 atom
        (48, lambda: orbit_index(2, 6), "orbit index"),  # 2^6
    ]
    for cap, build, context in cases:
        monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", str(cap))
        with pytest.raises(DimensionCapError, match=context):
            build()


def test_sandwich_matches_kron_route():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 2))
    uni = UniformEntriesDistribution(
        lower=rng.uniform(-1, 0, (2, 2)), upper=rng.uniform(0, 1, (2, 2))
    )
    atomic = AtomicDistribution(
        probabilities=np.array([0.4, 0.6]), atoms=rng.standard_normal((2, 2, 2))
    )
    for dist in (uni, atomic):
        via_kron = (dist.expected_kron_power(2).T @ x.reshape(-1)).reshape(2, 2)
        assert np.allclose(expected_sandwich(dist, x), via_kron, atol=1e-12)


# ---------------------------------------------------------------------------
# cone flags
# ---------------------------------------------------------------------------


def test_cone_flags_interval_box(interval_box):
    flags = check_mean_stability(interval_box, 1).cone_flags
    assert flags.orthant_invariant
    assert flags.expectation_positive[1]


def test_cone_flags_negative_atom():
    dist = single_atom(np.array([[1.0, -0.1], [0.0, 1.0]]))
    assert not check_mean_stability(dist, 1).cone_flags.orthant_invariant


def test_cone_flags_nilpotent_atom():
    flags = check_mean_stability(single_atom(np.array([[0.0, 1.0], [0.0, 0.0]])), 1).cone_flags
    assert flags.orthant_invariant
    assert not flags.expectation_positive[1]


def test_orthant_flag_implies_nonnegative_samples(interval_box):
    rng = np.random.default_rng(3)
    atomic = AtomicDistribution(
        probabilities=np.array([0.3, 0.7]),
        atoms=np.array([[[0.0, 1.0], [0.2, 0.0]], [[0.5, 0.0], [0.0, 0.5]]]),
    )
    for dist in (interval_box, atomic):
        assert check_mean_stability(dist, 1).cone_flags.orthant_invariant
        samples = sample_matrix(dist, rng, size=10_000)
        assert np.all(samples >= 0)


# ---------------------------------------------------------------------------
# feedback
# ---------------------------------------------------------------------------


def test_apply_feedback_zero_row_keeps_modes(three_mode_system):
    sys0 = MarkovJumpSystem(
        transition=three_mode_system.transition,
        modes=three_mode_system.modes,
        input_vectors=three_mode_system.input_vectors,
        feedback=np.zeros(2),
    )
    closed = apply_feedback(sys0)
    assert np.array_equal(closed.modes, three_mode_system.modes)
    assert closed.input_vectors is None and closed.feedback is None


def test_apply_feedback_benchmark_arithmetic(three_mode_system):
    closed = apply_feedback(three_mode_system)
    assert np.allclose(
        closed.modes[0], [[0.1184, 0.21], [0.3804, 0.525]], atol=1e-12
    )
    # the closed-loop modes leave the positive orthant invariant (one entry
    # lands exactly on zero)
    assert np.all(closed.modes >= 0)
    assert closed.modes[1][1, 1] == pytest.approx(0.0, abs=1e-15)


def test_apply_feedback_requires_input_data(three_mode_system, interval_box):
    bare = MarkovJumpSystem(
        transition=three_mode_system.transition, modes=three_mode_system.modes
    )
    for problem in (bare, interval_box):  # a law, the one-mode chain, has no input
        with pytest.raises(AssumptionError, match="closed loop requires both"):
            apply_feedback(problem)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def minimal_atomic_doc():
    return {
        "type": "iid",
        "dim": 2,
        "distribution": {
            "kind": "atomic",
            "atoms": [{"p": 1.0, "M": [[0.5, 0.0], [0.0, 0.5]]}],
        },
    }


def test_load_minimal_atomic():
    dist = load_problem(json.dumps(minimal_atomic_doc()))
    assert isinstance(dist, AtomicDistribution)
    assert np.array_equal(dist.atoms[0], 0.5 * np.eye(2))


def test_load_interval_box_document(interval_box):
    doc = {
        "type": "iid",
        "dim": 2,
        "distribution": {
            "kind": "uniform_entries",
            "lower": [[0, 0], [0, 0]],
            "upper": [[1.5, 1.8], [0.15, 1.2]],
        },
    }
    dist = load_problem(json.dumps(doc))
    assert isinstance(dist, UniformEntriesDistribution)
    assert np.array_equal(dist.upper, interval_box.upper)


def test_load_markov_row_sum_error():
    doc = {
        "type": "markov",
        "dim": 1,
        "markov": {"P": [[0.4, 0.5], [0.5, 0.5]], "modes": [[[1.0]], [[2.0]]]},
    }
    with pytest.raises(SchemaError) as err:
        load_problem(json.dumps(doc))
    assert err.value.pointer == "/markov/P/0"


def test_load_probability_sum_error():
    doc = minimal_atomic_doc()
    doc["distribution"]["atoms"][0]["p"] = 0.9
    with pytest.raises(SchemaError) as err:
        load_problem(json.dumps(doc))
    assert err.value.pointer == "/distribution/atoms"


def test_load_bounds_order_error():
    doc = {
        "type": "iid",
        "dim": 1,
        "distribution": {"kind": "uniform_entries", "lower": [[1.0]], "upper": [[0.0]]},
    }
    with pytest.raises(SchemaError) as err:
        load_problem(json.dumps(doc))
    assert err.value.pointer == "/distribution/upper/0/0"


def scalar_pair_doc(**markov):
    """Two-mode scalar Markov document, with ``markov`` fields overridden."""
    section = {"P": [[0.5, 0.5], [0.5, 0.5]], "modes": [[[1.0]], [[2.0]]], **markov}
    return {"type": "markov", "dim": 1, "markov": section}


def two_atom_doc(p0, p1):
    atoms = [{"p": p0, "M": [[1.0]]}, {"p": p1, "M": [[2.0]]}]
    return {"type": "iid", "dim": 1, "distribution": {"kind": "atomic", "atoms": atoms}}


@pytest.mark.parametrize(
    "doc, pointer",
    [
        (two_atom_doc(0.5, 1.5), "/distribution/atoms/1/p"),
        (scalar_pair_doc(P=[[0.5, 0.5], [1.2, -0.2]]), "/markov/P/1/0"),
        (scalar_pair_doc(initial_mode=3), "/markov/initial_mode"),
    ],
)
def test_load_reports_model_invariants_under_their_section(doc, pointer):
    with pytest.raises(SchemaError) as err:
        load_problem(json.dumps(doc))
    assert err.value.pointer == pointer
    assert str(err.value).startswith(f"{pointer}: ")


def atomic_doc_with(**atom):
    """The minimal atomic document as JSON, with its atom's fields overridden
    (a field set to None is dropped)."""
    doc = minimal_atomic_doc()
    fields = {**doc["distribution"]["atoms"][0], **atom}
    doc["distribution"]["atoms"][0] = {k: v for k, v in fields.items() if v is not None}
    return json.dumps(doc)


def with_distribution(distribution, **root):
    return json.dumps({"type": "iid", "dim": 2, "distribution": distribution, **root})


def json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"


@pytest.mark.parametrize(
    "text, pointer, message",
    [
        # _require
        (atomic_doc_with(M=None), "/distribution/atoms/0", "missing required field 'M'"),
        # _as_number
        (atomic_doc_with(p=True), "/distribution/atoms/0/p", "expected a number"),
        (atomic_doc_with(M=[[math.inf, 0.0], [0.0, 0.5]]), "/distribution/atoms/0/M/0/0",
         "number must be finite"),
        # _as_vector
        (atomic_doc_with(M=[[0.5], [0.0, 0.5]]), "/distribution/atoms/0/M/0",
         "expected an array of 2 numbers"),
        # _parse_distribution
        (with_distribution([]), "/distribution", "expected an object"),
        (with_distribution({"kind": "atomic", "atoms": []}), "/distribution/atoms",
         "expected a non-empty array of atoms"),
        (with_distribution({"kind": "atomic", "atoms": [1.0]}), "/distribution/atoms/0",
         "expected an object with 'p' and 'M'"),
        (with_distribution({"kind": "normal"}), "/distribution/kind",
         "unknown distribution kind 'normal'"),
        # _parse_markov
        (json.dumps({"type": "markov", "dim": 1, "markov": []}), "/markov", "expected an object"),
        (json.dumps(scalar_pair_doc(P=[])), "/markov/P", "expected a non-empty square array"),
        (json.dumps(scalar_pair_doc(modes=[[[1.0]]])), "/markov/modes", "expected 2 mode matrices"),
        (json.dumps(scalar_pair_doc(initial_mode=1.0)), "/markov/initial_mode", "expected an integer"),
        # load_problem
        ('{"type": "iid",', "", json_error('{"type": "iid",')),
        ("[]", "", "top-level value must be an object"),
        (with_distribution({}, type="lti"), "/type", "type must be 'iid' or 'markov'"),
        (with_distribution({}, dim=0), "/dim", "dim must be a positive integer"),
        (with_distribution({}, markov={}), "", "exactly one of 'distribution' or 'markov' must be present"),
        (json.dumps({"type": "iid", "dim": 1}), "",
         "exactly one of 'distribution' or 'markov' must be present"),
        (json.dumps({"type": "iid", "dim": 1, "markov": {}}), "",
         "type 'iid' requires a 'distribution' section"),
    ],
)
def test_load_names_each_schema_violation(text, pointer, message):
    with pytest.raises(SchemaError) as err:
        load_problem(text)
    assert (err.value.pointer, err.value.message) == (pointer, message)
    assert str(err.value) == (f"{pointer}: {message}" if pointer else message)


def test_load_dimension_mismatch_error():
    doc = minimal_atomic_doc()
    doc["distribution"]["atoms"][0]["M"] = [[1.0, 0.0]]
    with pytest.raises(SchemaError) as err:
        load_problem(json.dumps(doc))
    assert err.value.pointer.startswith("/distribution/atoms/0/M")


def test_load_rejects_mismatched_sections():
    doc = minimal_atomic_doc()
    doc["type"] = "markov"
    with pytest.raises(SchemaError):
        load_problem(json.dumps(doc))


def test_round_trip_identity(interval_box, three_mode_system):
    atomic = AtomicDistribution(
        probabilities=np.array([0.25, 0.75]),
        atoms=np.array([[[0.1, 0.2], [0.3, 0.4]], [[1.0, 0.0], [0.0, 1.0]]]),
    )
    for problem in (interval_box, atomic, three_mode_system):
        text = problem_to_json(problem)
        again = load_problem(text)
        assert dump_problem(again) == dump_problem(problem)


def finite_arrays(shape):
    return arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def random_problems(draw):
    """An atomic law, a box, or a Markov system with optional inputs,
    feedback and initial mode, its entries any finite doubles."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["atomic", "box", "markov"]))
    if kind == "box":
        a, b = draw(finite_arrays((d, d))), draw(finite_arrays((d, d)))
        return UniformEntriesDistribution(lower=np.minimum(a, b), upper=np.maximum(a, b))
    if kind == "atomic":
        probs = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        return AtomicDistribution(probabilities=probs / probs.sum(), atoms=draw(finite_arrays((n, d, d))))
    return MarkovJumpSystem(
        transition=rng.dirichlet(np.ones(n), size=n),
        modes=draw(finite_arrays((n, d, d))),
        input_vectors=draw(st.none() | finite_arrays((n, d))),
        feedback=draw(st.none() | finite_arrays((d,))),
        initial_mode=draw(st.none() | st.integers(1, n)),
    )


@settings(max_examples=100, deadline=None)
@given(random_problems())
def test_json_round_trip_is_bit_exact(problem):
    again = load_problem(problem_to_json(problem))
    assert type(again) is type(problem)
    for field, value in vars(problem).items():
        other = getattr(again, field)
        if isinstance(value, np.ndarray):
            assert other.shape == value.shape
            assert other.tobytes() == value.tobytes()
        else:
            assert other == value


def test_invariants_rejected_at_construction():
    with pytest.raises(ValueError):
        AtomicDistribution(probabilities=np.array([0.5, 0.4]), atoms=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        UniformEntriesDistribution(lower=np.array([[1.0]]), upper=np.array([[0.5]]))
    with pytest.raises(ValueError):
        AtomicDistribution(
            probabilities=np.array([1.0]), atoms=np.array([[[np.inf, 0], [0, 1]]])
        )
    # a broken schema rule is a ValueError pointing inside the model's section
    with pytest.raises(ValueError) as err:
        MarkovJumpSystem(transition=np.eye(2), modes=np.zeros((2, 1, 1)), initial_mode=0)
    assert isinstance(err.value, SchemaError)
    assert err.value.pointer == "/initial_mode"
