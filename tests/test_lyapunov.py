import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchstab.lyapunov as lyapunov_module
from switchstab import (
    AssumptionError,
    AtomicDistribution,
    ConeNormCertificate,
    DimensionCapError,
    InstabilityError,
    QuadraticCertificate,
    UniformEntriesDistribution,
    certificate_from_dict,
    certificate_to_dict,
    evaluate,
    evaluate_rows,
    p_radius,
    sample_matrix,
    synthesize_cone_norm,
    synthesize_degree_p,
    synthesize_quadratic,
    validate_certificate,
)
from switchstab.mcsim import atom_indices
from switchstab.radius import DECISION_MARGIN
from conftest import (
    expected_matrix,
    expected_sandwich,
    is_positive_semidefinite,
    random_atomic,
    scalar_uniform,
)


def single_atom(m):
    return AtomicDistribution(probabilities=np.array([1.0]), atoms=np.array([m]))


@pytest.fixture
def shrunk_box(interval_box):
    """Interval box scaled to be mean-square stable (the raw one is not)."""
    return UniformEntriesDistribution(lower=interval_box.lower, upper=0.8 * interval_box.upper)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_weighted_l1():
    cert = ConeNormCertificate(f=np.array([1.0, 1.0]), gamma=0.5)
    assert evaluate(cert, np.array([3.0, -4.0])) == pytest.approx(7.0)


def test_evaluate_quadratic_identity_form():
    cert = QuadraticCertificate(h=np.eye(2), gamma=0.5)
    assert evaluate(cert, np.array([3.0, 4.0])) == pytest.approx(25.0)


def test_evaluate_interval_box_certificate_at_basis(interval_box):
    cert = synthesize_cone_norm(interval_box)
    assert evaluate(cert, np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_evaluate_dimension_mismatch():
    cert = ConeNormCertificate(f=np.array([1.0, 1.0]), gamma=0.5)
    with pytest.raises(ValueError):
        evaluate(cert, np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_values_match_the_kronecker_formula(d, q):
    # a document may hold f that is not constant on orbits and H that is
    # not orbit-symmetric: V is folded onto the monomials all the same
    rng = np.random.default_rng(100 * d + q)
    size = d**q
    xs = rng.standard_normal((60, d)) * 10.0 ** rng.uniform(-3, 3, (60, 1))
    ys = np.stack([functools.reduce(np.kron, [x] * q) for x in xs])
    cone = ConeNormCertificate(f=rng.uniform(0.01, 1.0, size), gamma=0.5, lift_power=q)
    g = rng.standard_normal((size, size))
    quadratic = QuadraticCertificate(h=g @ g.T + np.eye(size), gamma=0.5, lift_power=q)
    quadratic_oracle = np.einsum("ni,ij,nj->n", ys, quadratic.h, ys)
    for cert, oracle in [(cone, np.abs(ys) @ cone.f), (quadratic, quadratic_oracle)]:
        np.testing.assert_allclose(evaluate_rows(cert, xs), oracle, rtol=1e-13, atol=0)
    if q == 1:
        assert np.array_equal(evaluate_rows(quadratic, xs), quadratic_oracle)


# ---------------------------------------------------------------------------
# cone-norm synthesis
# ---------------------------------------------------------------------------


def test_cone_norm_interval_box(interval_box):
    cert = synthesize_cone_norm(interval_box)
    assert cert.f[1] == pytest.approx(1.0)
    assert cert.f[0] == pytest.approx(0.3838, abs=5e-5)
    oracle = (1.35 + np.sqrt(1.35**2 - 4 * 0.3825)) / 2
    assert cert.gamma == pytest.approx(oracle, abs=1e-6)


def test_cone_norm_scalar_uniform():
    cert = synthesize_cone_norm(scalar_uniform(0.8))
    assert np.array_equal(cert.f, [1.0])
    assert cert.gamma == pytest.approx(0.4)


def test_cone_norm_near_diagonal_mean():
    # mean = [[a, eps], [eps, b]]: the closed-form dominant left eigenvector
    # of a symmetric 2x2 matrix, which tilts toward the dominant diagonal
    a, b, eps = 0.8, 0.3, 1e-4
    atoms = np.array([[[a, eps], [eps, b]]])
    cert = synthesize_cone_norm(single_atom(atoms[0]))
    lam = (a + b) / 2 + np.sqrt(((a - b) / 2) ** 2 + eps**2)
    direction = np.array([1.0, eps / (lam - b)])
    oracle = direction / direction.max()
    assert np.allclose(cert.f, oracle, atol=1e-8)
    assert cert.gamma == pytest.approx(lam, rel=1e-9)


def test_cone_norm_requires_orthant_and_positive_mean():
    with pytest.raises(AssumptionError):
        synthesize_cone_norm(single_atom(np.array([[0.5, -0.1], [0.1, 0.5]])))
    with pytest.raises(AssumptionError):
        synthesize_cone_norm(single_atom(np.array([[0.5, 0.0], [0.0, 0.5]])))


def test_cone_norm_rejects_unstable(interval_box):
    grown = UniformEntriesDistribution(lower=interval_box.lower, upper=2.0 * interval_box.upper)
    with pytest.raises(InstabilityError):
        synthesize_cone_norm(grown)


def test_cone_norm_eigen_identity_on_orthant(interval_box):
    cert = synthesize_cone_norm(interval_box)
    rng = np.random.default_rng(4)
    mean = expected_matrix(interval_box)
    for _ in range(20):
        x = rng.uniform(0.0, 2.0, size=2)
        lhs = float(cert.f @ (mean @ x))
        rhs = cert.gamma * float(cert.f @ x)
        assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# quadratic synthesis
# ---------------------------------------------------------------------------


def test_quadratic_single_scaled_identity():
    alpha = 0.6
    cert = synthesize_quadratic(single_atom(alpha * np.eye(2)))
    assert np.allclose(cert.h, np.eye(2) / (1 - alpha**2), atol=1e-9)
    assert cert.gamma == pytest.approx(alpha**2, abs=1e-9)


def test_quadratic_rotation_pair():
    beta = 0.8
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    dist = AtomicDistribution(
        probabilities=np.array([0.5, 0.5]), atoms=np.array([beta * rot, beta * rot.T])
    )
    cert = synthesize_quadratic(dist)
    assert np.allclose(cert.h, np.eye(2) / (1 - beta**2), atol=1e-8)


def test_quadratic_fixed_point_identity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        dist = random_atomic(rng, n_atoms=3, dim=2, target_r2=0.85)
        cert = synthesize_quadratic(dist)
        h = cert.h
        residual = np.max(np.abs(expected_sandwich(dist, h) - (h - np.eye(2))))
        assert residual <= 1e-9 * np.max(np.abs(h))
        assert is_positive_semidefinite(cert.gamma * h - expected_sandwich(dist, h), 1e-9)


def test_quadratic_rejects_raw_interval_box(interval_box):
    # the raw box is not mean-square stable (its second radius exceeds 1)
    assert p_radius(interval_box, 2).value > 1
    with pytest.raises(InstabilityError):
        synthesize_quadratic(interval_box)


def test_quadratic_on_shrunk_box(shrunk_box):
    assert p_radius(shrunk_box, 2).value < 1
    cert = synthesize_quadratic(shrunk_box)
    h = cert.h
    assert is_positive_semidefinite(cert.gamma * h - expected_sandwich(shrunk_box, h), 1e-9)


def test_quadratic_rejects_unstable():
    rng = np.random.default_rng(22)
    dist = random_atomic(rng, n_atoms=2, dim=2, target_r2=1.3)
    with pytest.raises(InstabilityError):
        synthesize_quadratic(dist)


def test_quadratic_is_the_direct_solve_near_the_boundary():
    rng = np.random.default_rng(25)
    dist = random_atomic(rng, n_atoms=3, dim=3, target_r2=0.999)
    second = sum(p * np.kron(m, m) for p, m in zip(dist.probabilities, dist.atoms))
    exact = np.linalg.solve(np.eye(9) - second.T, np.eye(3).reshape(-1)).reshape(3, 3)
    exact = 0.5 * (exact + exact.T)
    cert = synthesize_quadratic(dist)
    assert np.max(np.abs(cert.h - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert cert.gamma == pytest.approx(1.0 - 1.0 / np.linalg.eigvalsh(exact).max(), rel=1e-12)


@pytest.fixture
def quadratic_calls(monkeypatch):
    """Counts of the lifts, eigensolves and linear solves of quadratic
    synthesis on a box."""
    calls = {"lift": [], "spectrum": 0, "solve": 0}
    lift, spectrum, solve = (
        UniformEntriesDistribution.expected_kron_power,
        lyapunov_module.spectrum,
        np.linalg.solve,
    )

    def counting_lift(self, p):
        calls["lift"].append(p)
        return lift(self, p)

    def counting_spectrum(m):
        calls["spectrum"] += 1
        return spectrum(m)

    def counting_solve(a, b):
        calls["solve"] += 1
        return solve(a, b)

    monkeypatch.setattr(UniformEntriesDistribution, "expected_kron_power", counting_lift)
    monkeypatch.setattr(lyapunov_module, "spectrum", counting_spectrum)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return calls


def test_quadratic_makes_one_lift_one_solve_and_no_spectrum(quadratic_calls, shrunk_box):
    # the positive definite H with gamma < (1 - margin)^2 proves the radius
    synthesize_quadratic(shrunk_box)
    assert quadratic_calls == {"lift": [2], "spectrum": 0, "solve": 1}


def test_quadratic_refusal_makes_one_spectrum(quadratic_calls, interval_box):
    with pytest.raises(InstabilityError, match="mean-square radius .* is not below 1"):
        synthesize_quadratic(interval_box)
    assert quadratic_calls == {"lift": [2], "spectrum": 1, "solve": 1}


def test_quadratic_certificate_as_when_the_radius_came_first():
    # the former order: the eigensolve decides, then the same solve
    rng = np.random.default_rng(12)
    for scale in (0.3, 0.6, 0.9, 0.99):
        dist = random_atomic(rng, 3, 3, target_r2=scale)
        cert = synthesize_quadratic(dist)
        second = dist.expected_kron_power(2)
        h = np.linalg.solve(np.eye(9) - second.T, np.eye(3).reshape(-1)).reshape(3, 3)
        h = 0.5 * (h + h.T)
        assert np.array_equal(cert.h, h)
        assert cert.gamma == 1.0 - 1.0 / float(np.linalg.eigvalsh(h).max())


def test_default_panel_is_memoised_and_read_only():
    panel = lyapunov_module.default_test_vectors(3)
    assert lyapunov_module.default_test_vectors(3) is panel
    assert not panel.flags.writeable
    with pytest.raises(ValueError):
        panel[0, 0] = 0.0
    rng = np.random.default_rng(lyapunov_module.DEFAULT_VALIDATION_SEED)
    pts = rng.standard_normal((1000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.array_equal(panel, np.vstack([pts, np.eye(3)]))
    assert lyapunov_module.default_test_vectors(3, 10, 5).shape == (13, 3)


def test_quadratic_respects_the_lift_cap(monkeypatch, shrunk_box):
    # E[A kron A] of a 2x2 law has 16 entries
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "8")
    with pytest.raises(DimensionCapError):
        synthesize_quadratic(shrunk_box)


# ---------------------------------------------------------------------------
# degree-p synthesis
# ---------------------------------------------------------------------------


def test_degree_two_is_quadratic(shrunk_box):
    direct = synthesize_quadratic(shrunk_box)
    via = synthesize_degree_p(shrunk_box, 2)
    assert isinstance(via, QuadraticCertificate)
    assert np.allclose(via.h, direct.h, atol=1e-12)


def test_degree_one_is_cone_norm(interval_box):
    direct = synthesize_cone_norm(interval_box)
    via = synthesize_degree_p(interval_box, 1)
    assert isinstance(via, ConeNormCertificate)
    assert np.allclose(via.f, direct.f, atol=1e-12)


def test_degree_four_scaled_identity():
    alpha = 0.7
    cert = synthesize_degree_p(single_atom(alpha * np.eye(2)), 4)
    assert isinstance(cert, QuadraticCertificate) and cert.lift_power == 2
    assert cert.degree == 4
    assert cert.gamma == pytest.approx(alpha**4, abs=1e-9)
    x = np.array([0.6, -0.8])  # unit vector: W(x) = ||x||^4 / (1 - alpha^4)
    assert evaluate(cert, x) == pytest.approx(1.0 / (1 - alpha**4), rel=1e-8)


def test_degree_four_on_signed_box():
    box = UniformEntriesDistribution(
        lower=np.array([[-0.6, -0.3], [-0.2, -0.5]]),
        upper=np.array([[0.5, 0.4], [0.3, 0.6]]),
    )
    assert p_radius(box, 4).value < 1
    cert = synthesize_degree_p(box, 4)
    assert isinstance(cert, QuadraticCertificate)
    assert cert.lift_power == 2
    h = cert.h
    # E[(A kron A).T H (A kron A)] = H - I on the 4-dimensional lift, through
    # the row-major identity vec(B.T H B) = (B kron B).T vec(H)
    sandwich = (box.expected_kron_power(4).T @ h.reshape(-1)).reshape(4, 4)
    residual = np.max(np.abs(sandwich - (h - np.eye(4))))
    assert residual <= 1e-12 * np.max(np.abs(h))
    assert cert.gamma == pytest.approx(1.0 - 1.0 / np.linalg.eigvalsh(h).max(), rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [4, 6])
def test_even_degree_on_signed_atoms_is_the_lifted_solve(dim, p):
    rng = np.random.default_rng(100 * dim + p)
    raw = random_atomic(rng, n_atoms=3, dim=dim)
    dist = AtomicDistribution(
        probabilities=raw.probabilities, atoms=raw.atoms * (0.9 / p_radius(raw, p).value)
    )
    cert = synthesize_degree_p(dist, p)
    q = p // 2
    assert isinstance(cert, QuadraticCertificate) and cert.lift_power == q
    # dense oracle on the law of B = A^(kron q), built with numpy alone
    lifted = []
    for m in dist.atoms:
        b = m
        for _ in range(q - 1):
            b = np.kron(b, m)
        lifted.append(b)
    n = dim**q
    second = sum(w * np.kron(b, b) for w, b in zip(dist.probabilities, lifted))
    exact = np.linalg.solve(np.eye(n * n) - second.T, np.eye(n).reshape(-1)).reshape(n, n)
    exact = 0.5 * (exact + exact.T)
    h = cert.h
    assert np.max(np.abs(h - exact)) <= 1e-12 * np.max(np.abs(exact))
    # E[B.T H B] = H - I, summed atom by atom
    sandwich = sum(w * b.T @ h @ b for w, b in zip(dist.probabilities, lifted))
    assert np.max(np.abs(sandwich - (h - np.eye(n)))) <= 1e-12 * np.max(np.abs(h))


def test_degree_three_orthant_route(shrunk_box):
    cert = synthesize_degree_p(shrunk_box, 3)
    assert isinstance(cert, ConeNormCertificate) and cert.lift_power == 3
    assert cert.degree == 3
    assert cert.gamma == pytest.approx(p_radius(shrunk_box, 3).value ** 3, rel=1e-8)


def kron_oracle_perron(dist, p):
    """Perron pair of the dense np.kron lift by a full numpy eigensolve."""
    lift = sum(w * functools.reduce(np.kron, [a] * p) for w, a in zip(dist.probabilities, dist.atoms))
    values, vectors = np.linalg.eig(lift.T)
    k = int(np.argmax(values.real))
    f = vectors[:, k].real
    return values[k].real, f / f[np.argmax(np.abs(f))]


def stable_nonnegative_law(rng, d, p, radius=0.8):
    """Two positive atoms rescaled so that the p-radius is ``radius``."""
    atoms = rng.uniform(0.1, 1.0, (2, d, d))
    dist = AtomicDistribution(probabilities=np.array([0.3, 0.7]), atoms=atoms)
    scale = radius / p_radius(dist, p).value
    return AtomicDistribution(probabilities=dist.probabilities, atoms=scale * atoms)


@pytest.mark.parametrize("d, p", [(2, 1), (3, 1), (2, 3), (3, 3), (3, 5), (4, 3)])
def test_cone_norm_matches_the_dense_kron_oracle(d, p):
    dist = stable_nonnegative_law(np.random.default_rng(10 * d + p), d, p)
    cert = synthesize_degree_p(dist, p)
    gamma, f = kron_oracle_perron(dist, p)
    assert isinstance(cert, ConeNormCertificate) and cert.lift_power == p
    assert np.max(np.abs(cert.f - f)) <= 1e-12
    assert abs(cert.gamma - gamma) <= 1e-12


def test_cone_norm_near_degenerate_atom_is_one_direct_solve():
    # eigenvalues 1e-5 apart, which a power iteration needs millions of steps to separate
    m = np.array([[0.9, 1e-6], [1e-6, 0.89999]])
    start = time.perf_counter()
    cert = synthesize_cone_norm(single_atom(m))
    assert time.perf_counter() - start < 0.1
    gamma, f = kron_oracle_perron(single_atom(m), 1)
    assert np.max(np.abs(cert.f - f)) <= 1e-12
    assert abs(cert.gamma - gamma) <= 1e-12


def test_degree_thirteen_cone_norm_without_the_full_lift():
    # E[A^(kron 13)] has 2^26 entries, above the default cap; the Sym^13
    # route solves a 14 x 14 matrix and expands its vector to 8192 weights
    dist = stable_nonnegative_law(np.random.default_rng(13), 2, 13, radius=0.95)
    cert = synthesize_degree_p(dist, 13)
    assert cert.lift_power == 13 and cert.f.size == 2**13
    # f . E[A^(kron 13)], matrix-free: contract every tensor axis of f with
    # the atom, then weight by the probability
    tensor = cert.f.reshape((2,) * 13)
    left = np.zeros_like(tensor)
    for w, a in zip(dist.probabilities, dist.atoms):
        t = tensor
        for _ in range(13):
            # contracting the leading axis and appending the new one cycles
            # the axes back into their order after 13 steps
            t = np.tensordot(t, a, axes=([0], [0]))
        left += w * t
    residual = np.max(np.abs(left.reshape(-1) - cert.gamma * cert.f))
    assert residual <= 1e-12 * cert.gamma
    assert cert.gamma == pytest.approx(0.95**13, rel=1e-12)


def test_odd_degree_builds_the_symmetric_power_once(monkeypatch, shrunk_box):
    calls = []
    for name in ("expected_symmetric_power", "expected_kron_power"):
        method = getattr(UniformEntriesDistribution, name)

        def counted(self, p, _name=name, _method=method):
            calls.append((_name, p))
            return _method(self, p)

        monkeypatch.setattr(UniformEntriesDistribution, name, counted)
    synthesize_degree_p(shrunk_box, 3)
    assert calls == [("expected_symmetric_power", 3)]


@st.composite
def sparse_nonnegative_laws(draw):
    """A nonnegative atomic law with zero entries (d <= 3, 1 to 3 atoms) and
    an odd p <= 7 with d^p <= 729, for the dense lift; a law with a positive
    p-radius is rescaled to p-radius 0.5, 0.9 or 1.1."""
    d, p = draw(st.sampled_from([(d, p) for d in (1, 2, 3) for p in (1, 3, 5, 7) if d**p <= 729]))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.2, 0.4, 0.6]))
    atoms = rng.uniform(0.1, 1.0, (m, d, d)) * (rng.uniform(size=(m, d, d)) >= zeros)
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    dist = AtomicDistribution(probabilities=probs / probs.sum(), atoms=atoms)
    radius = p_radius(dist, p).value
    if radius > 0:
        scale = draw(st.sampled_from([0.5, 0.9, 1.1])) / radius
        dist = AtomicDistribution(probabilities=dist.probabilities, atoms=scale * atoms)
    return dist, p


@settings(max_examples=80, deadline=None)
@given(sparse_nonnegative_laws())
def test_cone_norm_certifies_every_stable_law_with_a_positive_sym_p_mean(law):
    dist, p = law
    positive = bool(np.all(dist.expected_symmetric_power(p) > 0))
    stable = p_radius(dist, p).value < 1.0 - DECISION_MARGIN
    try:
        cert = synthesize_degree_p(dist, p)
    except AssumptionError:
        assert not positive
        return
    except InstabilityError:
        assert positive and not stable
        return
    assert positive and stable
    assert np.all(cert.f > 0)
    residual = cert.f @ dist.expected_kron_power(p) - cert.gamma * cert.f
    assert np.max(np.abs(residual)) <= 1e-12 * cert.gamma
    assert validate_certificate(cert, dist, mode="exact").passed


def test_degree_three_requires_orthant():
    rng = np.random.default_rng(23)
    dist = random_atomic(rng, n_atoms=2, dim=2, target_r2=0.5)
    with pytest.raises(AssumptionError):
        synthesize_degree_p(dist, 3)


def test_homogeneity_of_all_shapes(interval_box, shrunk_box):
    rng = np.random.default_rng(24)
    certs = [
        synthesize_cone_norm(interval_box),
        synthesize_quadratic(shrunk_box),
        synthesize_degree_p(shrunk_box, 4),
        synthesize_degree_p(shrunk_box, 3),
    ]
    for cert in certs:
        for _ in range(5):
            x = rng.standard_normal(2)
            c = rng.standard_normal()
            left = evaluate(cert, c * x)
            right = abs(c) ** cert.degree * evaluate(cert, x)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-300)
        assert evaluate(cert, np.zeros(2)) == 0.0
        assert evaluate(cert, rng.standard_normal(2) + 3.0) > 0.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validation_passes_for_synthesized(interval_box, shrunk_box):
    cone = synthesize_cone_norm(interval_box)
    assert validate_certificate(cone, interval_box, mode="mc", n_samples=20_000).passed

    rng = np.random.default_rng(25)
    atomic = random_atomic(rng, n_atoms=3, dim=2, target_r2=0.8)
    quad = synthesize_quadratic(atomic)
    assert validate_certificate(quad, atomic, mode="exact").passed
    assert validate_certificate(quad, atomic, mode="mc", n_samples=20_000).passed


def test_validation_flags_forced_violation():
    dist = single_atom(2.0 * np.eye(2))
    bogus = ConeNormCertificate(f=np.array([1.0, 1.0]), gamma=0.9)
    report = validate_certificate(bogus, dist, mode="exact")
    assert not report.passed
    assert report.worst_margin == pytest.approx(2.0 / 0.9, rel=1e-9)


def test_validation_exact_needs_atomic(interval_box):
    cert = synthesize_cone_norm(interval_box)
    with pytest.raises(AssumptionError):
        validate_certificate(cert, interval_box, mode="exact")


def test_exact_validation_guards_its_lifted_test_vectors(monkeypatch):
    # 1002 default test vectors as rows of C(d+p-1, p) monomials: 14,028
    # entries at d = 2, p = 13 and 16,032 at p = 15, under a cap of 15,000
    dist = stable_nonnegative_law(np.random.default_rng(13), 2, 15, radius=0.95)
    thirteen, fifteen = synthesize_degree_p(dist, 13), synthesize_degree_p(dist, 15)
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "15000")
    assert validate_certificate(thirteen, dist, mode="exact").passed
    with pytest.raises(DimensionCapError, match="validation test vectors") as caught:
        validate_certificate(fifteen, dist, mode="exact")
    assert caught.value.requested == 1002 * 16


def test_worst_x_is_not_picked_by_rounding_noise():
    # the law of problems/atomic_pair.json: E[V(Ax)] = gamma V(x) on the
    # whole orthant for its cone norm, so every orthant vector has margin 1
    # to rounding
    dist = AtomicDistribution(
        probabilities=np.array([0.5, 0.5]),
        atoms=np.array([[[0.4, 0.2], [0.0, 0.3]], [[0.1, 0.0], [0.5, 0.2]]]),
    )
    cert = synthesize_cone_norm(dist)
    report = validate_certificate(cert, dist, mode="exact")
    moved = ConeNormCertificate(f=cert.f * (1.0 + 1e-13), gamma=cert.gamma)
    again = validate_certificate(moved, dist, mode="exact")
    assert np.array_equal(again.worst_x, report.worst_x)
    assert report.worst_margin == pytest.approx(1.0, rel=1e-12)


def test_validation_interval_box_monte_carlo(interval_box):
    cert = synthesize_cone_norm(interval_box)
    report = validate_certificate(cert, interval_box, mode="mc", n_samples=100_000, seed=42)
    assert report.passed
    assert report.n_vectors == 1002  # 1000 sphere points plus the basis


def test_validation_mc_needs_two_samples():
    # one draw has no standard error; it must not pass a bogus certificate
    dist = single_atom(2.0 * np.eye(2))
    bogus = QuadraticCertificate(h=np.eye(2), gamma=0.5)
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 samples"):
            validate_certificate(bogus, dist, mode="mc", n_samples=n)
    report = validate_certificate(bogus, dist, mode="mc", n_samples=2)
    assert not report.passed
    assert report.worst_margin == pytest.approx(8.0, rel=1e-12)


def test_mc_validation_respects_the_lift_cap(monkeypatch):
    """Each array of a Monte Carlo validation is counted by its own size:
    C(d+q-1, q) monomials give C = 2 at d = 2, q = 1; C = 3 at d = 2, q = 2;
    C = 6 at d = 3, q = 2 and at d = 2, q = 5. The n C monomials of the n
    test vectors are counted first, so each other case has few vectors."""
    rng = np.random.default_rng(31)
    plane = random_atomic(rng, n_atoms=2, dim=2, target_r2=0.8)
    space = random_atomic(rng, n_atoms=2, dim=3, target_r2=0.8)
    eight = random_atomic(rng, n_atoms=8, dim=2, target_r2=0.8)
    box = UniformEntriesDistribution(lower=np.full((3, 3), -0.1), upper=np.full((3, 3), 0.1))
    quadratic = synthesize_quadratic(plane)
    quadratic_eight = synthesize_quadratic(eight)
    quartic_plane = synthesize_degree_p(plane, 4)
    quartic_space = synthesize_degree_p(space, 4)
    cone = ConeNormCertificate(f=np.ones(2), gamma=0.5)
    quintic = ConeNormCertificate(f=np.ones(2**5), gamma=0.5, lift_power=5)
    few = lyapunov_module.default_test_vectors(2, count=18)  # 20 vectors
    more = lyapunov_module.default_test_vectors(2, count=128)  # 130 vectors
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    # under the cap: 200 atom indices, 2 x 4 sandwiches, 20 x 4 products
    assert validate_certificate(quadratic, plane, xs=few, mode="mc", n_samples=200).passed
    # a finite law holds one sandwich per atom, and a sampled law's
    # triangular factor has min(n, C^2) rows: neither holds C^4 entries
    validate_certificate(quartic_plane, plane, xs=few, mode="mc", n_samples=200)
    validate_certificate(quartic_space, box, xs=few[:, [0, 1, 1]], mode="mc", n_samples=2)
    cases = [
        (cone, plane, None, 10, "validation test vectors", 2004),  # 1002 x 2
        (quadratic, plane, few, 1200, "Monte Carlo samples", 1200),  # the atom indices
        (cone, plane, few, 600, "Monte Carlo samples", 2400),  # the draws, 600 x 2 x 2
        (quartic_space, box, few[:, [0, 1, 1]], 30, "Monte Carlo sandwiches", 1080),  # 30 x 6 x 6
        (quartic_plane, plane, more, 200, "Monte Carlo test monomials", 1170),  # 130 x 3 x 3
        (quadratic_eight, eight, more, 200, "Monte Carlo atom values", 1040),  # 8 x 130
        (quintic, plane, few, 200, "Monte Carlo certificate values", 1200),  # 200 x 6
    ]
    for cert, dist, xs, n, context, requested in cases:
        with pytest.raises(DimensionCapError, match=context) as caught:
            validate_certificate(cert, dist, xs=xs, mode="mc", n_samples=n)
        assert caught.value.requested == requested


def per_sample_estimates(cert, samples, xs):
    """Oracle: V(A_s x) at every draw and vector, then the sample mean and
    the ddof=1 standard error over the draws."""
    q = cert.lift_power
    vals = np.empty((samples.shape[0], xs.shape[0]))
    for s, a in enumerate(samples):
        y = xs @ a.T
        phi = y
        for _ in range(q - 1):
            phi = (phi[:, :, None] * y[:, None, :]).reshape(y.shape[0], -1)
        if isinstance(cert, ConeNormCertificate):
            vals[s] = np.abs(phi) @ cert.f
        else:
            vals[s] = np.einsum("ni,ij,nj->n", phi, cert.h, phi)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])


@pytest.mark.parametrize("d, p, n", [(2, 1, 2000), (3, 1, 999), (5, 1, 500), (2, 3, 500)])
def test_cone_norm_mc_matches_the_per_sample_route(d, p, n):
    # one matrix product maps the vectors by all draws; it may round a
    # mapped vector differently in the last bit from per-draw products
    rng = np.random.default_rng(40 + d + p)
    upper = rng.uniform(0.2, 1.0, (d, d))
    upper *= 0.8 / p_radius(UniformEntriesDistribution(lower=0 * upper, upper=upper), p).value
    box = UniformEntriesDistribution(lower=np.zeros((d, d)), upper=upper)
    cert = synthesize_degree_p(box, p)
    xs = lyapunov_module.default_test_vectors(d)
    samples = sample_matrix(box, np.random.default_rng(7), size=n)
    expected, stderr = lyapunov_module._mc_estimates(cert, samples, xs)
    oracle_expected, oracle_stderr = per_sample_estimates(cert, samples, xs)
    np.testing.assert_allclose(expected, oracle_expected, rtol=1e-14, atol=0)
    np.testing.assert_allclose(stderr, oracle_stderr, rtol=1e-12, atol=0)
    report = validate_certificate(cert, box, mode="mc", n_samples=n, seed=7)
    vx = np.array([evaluate(cert, x) for x in xs])
    margins = oracle_expected / (cert.gamma * vx)
    assert report.worst_margin == pytest.approx(margins.max(), rel=1e-14)
    assert np.array_equal(report.worst_x, xs[np.argmax(margins)])


@st.composite
def quadratic_validations(draw):
    """A law (atomic or a box, d <= 4), a random quadratic certificate of
    degree 2 or lifted degree 4, a sample count and a seed."""
    d = draw(st.integers(1, 4))
    q = draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        n_atoms = draw(st.integers(1, 3))
        probs = rng.dirichlet(np.ones(n_atoms)) * 0.9 + 0.1 / n_atoms
        atoms = scale * rng.standard_normal((n_atoms, d, d))
        dist = AtomicDistribution(probabilities=probs / probs.sum(), atoms=atoms)
    else:
        # narrow boxes have a variance far below the squared mean, where an
        # uncentred variance loses its digits
        width = scale * 10.0 ** -draw(st.integers(0, 5))
        lower = scale * rng.standard_normal((d, d))
        upper = lower + width * rng.uniform(0.0, 1.0, (d, d))
        dist = UniformEntriesDistribution(lower=lower, upper=upper)
    g = rng.standard_normal((d**q, d**q))
    cert = QuadraticCertificate(
        h=g @ g.T + d**q * np.eye(d**q), gamma=draw(st.floats(0.05, 0.95)), lift_power=q
    )
    return cert, dist, draw(st.sampled_from((2, 3, 500))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(quadratic_validations())
def test_quadratic_mc_moments_match_the_per_sample_oracle(case):
    cert, dist, n, seed = case
    xs = lyapunov_module.default_test_vectors(dist.dim, count=40, seed=seed)
    samples = sample_matrix(dist, np.random.default_rng(seed), size=n)
    expected, stderr = lyapunov_module._mc_estimates(cert, samples, xs)
    oracle_expected, oracle_stderr = per_sample_estimates(cert, samples, xs)
    vx = np.array([evaluate(cert, x) for x in xs])
    # the moment route rounds on the scale of the terms of w . vec(B_s), not
    # of V(A x), so errors are relative to the scale the check compares:
    # max(E[V(A x)], V(x)) for the mean, over sqrt(n) for the standard error
    scale = np.maximum(oracle_expected, vx)
    assert np.all(np.abs(expected - oracle_expected) <= 1e-10 * scale)
    tolerance = 1e-10 * (oracle_stderr + scale / np.sqrt(n))
    assert np.all(np.abs(stderr - oracle_stderr) <= tolerance)
    report = validate_certificate(cert, dist, xs=xs, mode="mc", n_samples=n, seed=seed)
    slack = cert.gamma * vx + 4.0 * oracle_stderr + 1e-12 * np.maximum(vx, 1.0)
    # the verdict and the worst vector agree unless the oracle's own values
    # tie within the bounds above; margins E / (gamma V(x)) inherit the
    # mean's bound, 1e-10 max(margin, 1 / gamma)
    if np.min(np.abs(oracle_expected - slack) / slack) > 1e-7:
        assert report.passed == bool(np.all(oracle_expected <= slack))
    margins = oracle_expected / (cert.gamma * vx)
    top, runner_up = np.sort(margins)[-2:][::-1]
    if top - runner_up > 1e-8 * max(top, 1.0 / cert.gamma):
        assert np.array_equal(report.worst_x, xs[np.argmax(margins)])
    assert abs(report.worst_margin - top) <= 1e-10 * max(top, 1.0 / cert.gamma)


@st.composite
def atomic_quadratic_validations(draw):
    """An atomic law (m <= 4 atoms, d <= 4), a random quadratic certificate
    of degree 2 or lifted degree 4, a sample count down to 2 and a seed."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    q = draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    law = AtomicDistribution(probs / probs.sum(), rng.standard_normal((m, d, d)))
    g = rng.standard_normal((d**q, d**q))
    cert = QuadraticCertificate(h=g @ g.T + d**q * np.eye(d**q), gamma=0.5, lift_power=q)
    return cert, law, draw(st.sampled_from((2, 3, 17, 500))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(atomic_quadratic_validations())
def test_per_atom_moments_match_the_per_sample_oracle(case):
    cert, law, n, seed = case
    xs = lyapunov_module.default_test_vectors(law.dim, count=40, seed=seed)
    index = atom_indices(law, np.random.default_rng(seed), n)
    samples = sample_matrix(law, np.random.default_rng(seed), size=n)
    assert np.array_equal(law.atoms[index], samples)  # one stream for both
    expected, stderr = lyapunov_module._mc_estimates(cert, law.atoms, xs, index)
    oracle_expected, oracle_stderr = per_sample_estimates(cert, samples, xs)
    # the per-atom values round on the scale of the terms of w . vec(B_k),
    # as the moment route does (see the test above)
    scale = np.maximum(oracle_expected, np.array([evaluate(cert, x) for x in xs]))
    assert np.all(np.abs(expected - oracle_expected) <= 1e-10 * scale)
    tolerance = 1e-10 * (oracle_stderr + scale / np.sqrt(n))
    assert np.all(np.abs(stderr - oracle_stderr) <= tolerance)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_certificate_round_trip(interval_box, shrunk_box):
    for cert in (
        synthesize_cone_norm(interval_box),
        synthesize_quadratic(shrunk_box),
        synthesize_degree_p(shrunk_box, 4),
    ):
        doc = certificate_to_dict(cert)
        again = certificate_from_dict(doc)
        assert certificate_to_dict(again) == doc
        x = np.array([0.4, 1.1])
        assert evaluate(again, x) == pytest.approx(evaluate(cert, x), rel=1e-12)


def test_certificate_schema_fields(shrunk_box):
    doc = certificate_to_dict(synthesize_degree_p(shrunk_box, 4))
    assert doc["kind"] == "quadratic"
    assert doc["degree"] == 4
    assert doc["lift_power"] == 2
    assert 0 <= doc["gamma"] < 1
    with pytest.raises(ValueError):
        certificate_from_dict({**doc, "degree": 6})


@pytest.mark.parametrize(
    "doc",
    [
        # a stated degree that the kind and lift power contradict
        {"kind": "quadratic", "degree": 5, "H": [[1.0, 0.0], [0.0, 1.0]]},
        {"kind": "cone_norm", "degree": 3, "f": [1.0, 1.0]},
        # lift powers that are not integers >= 1
        {"kind": "quadratic", "lift_power": 1.7, "H": [[1.0, 0.0], [0.0, 1.0]]},
        {"kind": "cone_norm", "lift_power": True, "f": [1.0, 1.0]},
        {"kind": "cone_norm", "lift_power": 0, "f": [1.0]},
        {"kind": "cone_norm", "lift_power": "2", "f": [1.0] * 4},
        # two weights are no 2-fold lift of a state space
        {"kind": "cone_norm", "lift_power": 2, "f": [1.0, 1.0]},
    ],
)
def test_certificate_from_dict_rejects_inconsistent_fields(doc):
    with pytest.raises(ValueError):
        certificate_from_dict({"gamma": 0.5, **doc})


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]]}, "'gamma'"),
        ({"kind": "cone_norm", "gamma": 0.5}, "'f'"),
        ({"kind": "quadratic", "gamma": 0.5, "H": {"a": 1}}, "numeric"),
        ([1, 2], "JSON object"),
    ],
)
def test_certificate_from_dict_names_what_is_missing(doc, names):
    with pytest.raises(ValueError, match=names):
        certificate_from_dict(doc)


def test_lift_power_is_a_field_of_both_shapes():
    x = np.array([0.6, -0.8])
    cone = ConeNormCertificate(f=np.ones(4), gamma=0.5, lift_power=2)
    quartic = QuadraticCertificate(h=np.eye(4), gamma=0.5, lift_power=2)
    assert (cone.dim, cone.degree, quartic.dim, quartic.degree) == (2, 2, 2, 4)
    assert evaluate(cone, x) == pytest.approx(np.abs(x).sum() ** 2, rel=1e-15)
    assert evaluate(quartic, x) == pytest.approx(1.0, rel=1e-15)  # ||x kron x||^2 = ||x||^4
    with pytest.raises(ValueError, match="length 2"):
        evaluate(cone, np.ones(4))
