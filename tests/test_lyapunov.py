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
    SolverFailureError,
    UniformEntriesDistribution,
    apply_feedback,
    certificate_from_dict,
    certificate_to_dict,
    cone_spectral_radius,
    evaluate,
    evaluate_rows,
    p_radius,
    sample_matrix,
    synthesize_cone_norm,
    synthesize_degree_p,
    synthesize_quadratic,
    validate_certificate,
)
from switchstab.linalg import CONE_CROSSOVER, monomials, orbit_index
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
    many = np.vstack([xs, rng.standard_normal((965, d))])  # 1025 rows
    for cert, oracle in [(cone, np.abs(ys) @ cone.f), (quadratic, quadratic_oracle)]:
        np.testing.assert_allclose(evaluate_rows(cert, xs), oracle, rtol=1e-13, atol=0)
        # each value is the one its row gets alone, in calls of any size
        alone = np.array([evaluate(cert, x) for x in xs])
        for n in (1, 2, 3):
            assert np.array_equal(evaluate_rows(cert, xs[:n]), alone[:n])
        assert np.array_equal(evaluate_rows(cert, many)[:60], alone)


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


def test_cone_norm_without_a_certifying_point_is_a_solver_failure(monkeypatch, interval_box):
    # no positive point means a reducible mean (exit 4); a point whose
    # bracket does not end below 1 is the solver's failure (exit 6)
    solve = lyapunov_module.cone_spectral_radius
    for change, error, message in (
        ({"point": None}, AssumptionError, "no positive cone point exists; the mean E.A. is reducible"),
        ({"upper": 1.0}, SolverFailureError, "no point that certifies"),
    ):
        monkeypatch.setattr(
            lyapunov_module, "cone_spectral_radius", lambda m, c=change: solve(m)._replace(**c)
        )
        with pytest.raises(error, match=message):
            synthesize_cone_norm(interval_box)


def anti_diagonal_pair():
    """Two atoms that swap the coordinates: E[A] = [[0, .5], [.6, 0]] is
    irreducible with zero entries, E[S_3(A)] is reducible."""
    atoms = np.array([[[0.0, 0.8], [0.3, 0.0]], [[0.0, 0.2], [0.9, 0.0]]])
    return AtomicDistribution(probabilities=np.array([0.5, 0.5]), atoms=atoms)


def test_cone_norm_certifies_an_irreducible_mean_with_zero_entries():
    dist = anti_diagonal_pair()
    cert = synthesize_cone_norm(dist)
    assert cert.gamma == pytest.approx(np.sqrt(0.3), rel=1e-12)
    report = validate_certificate(cert, dist, mode="exact")
    assert report.passed and report.worst_margin == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(AssumptionError, match="Sym.3 mean E.S_3.A.. is reducible"):
        synthesize_degree_p(dist, 3)


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


@pytest.mark.parametrize("p", [4, 6])
def test_even_degree_refusal_reports_the_degree_p_radius(p):
    # E[A^(kron p)] has spectral radius rho_p^p: its square root is rho_p^(p/2)
    rng = np.random.default_rng(1)
    dist = AtomicDistribution(probabilities=np.full(3, 1 / 3), atoms=rng.standard_normal((3, 2, 2)))
    radius = p_radius(dist, p).value
    assert radius > 1.0
    with pytest.raises(InstabilityError, match=f"degree-{p} radius {radius:.6g} is not below 1"):
        synthesize_degree_p(dist, p)


@pytest.mark.parametrize("closed_loop", [False, True])
def test_markov_systems_are_refused_with_a_typed_error(three_mode_system, closed_loop):
    # a Markov system has the law's Sym^p and Kronecker builders, but a
    # certificate for it needs one function per mode
    system = apply_feedback(three_mode_system) if closed_loop else three_mode_system
    for synthesize in (synthesize_cone_norm, synthesize_quadratic):
        with pytest.raises(AssumptionError, match="Markov system certificates"):
            synthesize(system)
    for p in range(1, 5):
        with pytest.raises(AssumptionError, match="Markov system certificates"):
            synthesize_degree_p(system, p)


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


def is_irreducible(m):
    """Whether the nonzero pattern of a square matrix is strongly connected:
    (I + pattern)^(2^k) > 0 for 2^k >= its size."""
    reach = (m > 0) | np.eye(m.shape[0], dtype=bool)
    for _ in range(int(np.ceil(np.log2(max(m.shape[0], 2))))):
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    return bool(reach.all())


@settings(max_examples=80, deadline=None)
@given(sparse_nonnegative_laws())
def test_cone_norm_certifies_every_stable_law_with_a_positive_sym_p_mean(law):
    # a positive mean is irreducible; only a reducible mean may be refused
    dist, p = law
    induced = dist.expected_symmetric_power(p)
    stable = p_radius(dist, p).value < 1.0 - DECISION_MARGIN
    try:
        cert = synthesize_degree_p(dist, p)
    except AssumptionError:
        assert stable and not is_irreducible(induced)
        return
    except InstabilityError:
        assert not stable
        return
    assert stable
    assert np.all(cert.f > 0)
    residual = cert.f @ dist.expected_kron_power(p) - cert.gamma * cert.f
    assert np.max(np.abs(residual)) <= 1e-12 * cert.gamma
    assert validate_certificate(cert, dist, mode="exact").passed


@st.composite
def irreducible_laws_with_zeros(draw):
    """A nonnegative atomic law (d <= 4, 1 to 3 atoms) and an odd p <= 9
    whose E[S_p(A)] has zero entries and is irreducible, rescaled to a
    p-radius of 0.5 or 0.9: the first such law of a seeded stream."""
    d, p = draw(st.integers(2, 4)), draw(st.sampled_from([1, 3, 5, 7, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        m = int(rng.integers(1, 4))
        atoms = rng.uniform(0.1, 1.0, (m, d, d)) * (rng.uniform(size=(m, d, d)) >= 0.4)
        dist = AtomicDistribution(probabilities=rng.dirichlet(np.ones(m)), atoms=atoms)
        induced = dist.expected_symmetric_power(p)
        if not np.all(induced > 0) and is_irreducible(induced):
            break
    scale = draw(st.sampled_from([0.5, 0.9])) / p_radius(dist, p).value
    return AtomicDistribution(probabilities=dist.probabilities, atoms=scale * atoms), p


@settings(max_examples=40, deadline=None)
@given(irreducible_laws_with_zeros())
def test_cone_norm_certifies_irreducible_laws_with_zero_entries(law):
    # each of these laws was refused while cone norms needed E[S_p(A)] > 0
    dist, p = law
    cert = synthesize_degree_p(dist, p)
    assert isinstance(cert, ConeNormCertificate) and np.all(cert.f > 0)
    assert cert.gamma == pytest.approx(p_radius(dist, p).value ** p, rel=1e-9)
    assert validate_certificate(cert, dist, mode="exact").passed


@st.composite
def positive_laws_above_the_crossover(draw):
    """A positive 3-atom law whose Sym^p matrix has at least CONE_CROSSOVER
    rows, rescaled to a p-radius in [0.5, 0.95]."""
    d, p = draw(st.sampled_from([(3, 7), (4, 5), (4, 7), (4, 9)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.uniform(0.01, 1.0, (3, d, d))
    dist = AtomicDistribution(probabilities=rng.dirichlet(np.ones(3)), atoms=atoms)
    scale = draw(st.floats(0.5, 0.95)) / p_radius(dist, p).value
    return AtomicDistribution(probabilities=dist.probabilities, atoms=scale * atoms), p


def sym_p_oracle_perron(dist, p):
    """Decay factor and weights of the cone norm from one dense eigensolve
    of E[S_p(A)].T, spread over the Kronecker coordinates as synthesis does."""
    values, vectors = np.linalg.eig(dist.expected_symmetric_power(p).T)
    k = int(np.argmax(values.real))
    h = vectors[:, k].real
    h = h / h[np.argmax(np.abs(h))]
    f = (h / monomials(dist.dim, p).sizes)[orbit_index(dist.dim, p)]
    return values[k].real, f / f.max()


@settings(max_examples=25, deadline=None)
@given(positive_laws_above_the_crossover())
def test_cone_norm_above_the_crossover_comes_from_the_orthant_route(law):
    dist, p = law
    induced = dist.expected_symmetric_power(p)
    assert induced.shape[0] >= CONE_CROSSOVER
    cone = cone_spectral_radius(induced.T)
    cert = synthesize_degree_p(dist, p)
    assert cone.route == "orthant" and cert.gamma == cone.upper
    gamma, f = sym_p_oracle_perron(dist, p)
    assert abs(cert.gamma - gamma) <= 1e-11 * gamma
    assert np.max(np.abs(cert.f - f) / f) <= 1e-11
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


def test_exact_quartic_validation_is_the_per_atom_mean():
    # 8 signed atoms, d = 3, p = 4: the mean of the sandwiches read by
    # w = vec(m_2(x) m_2(x).T) against sum_k pi_k V(A_k x), V from the kron form
    rng = np.random.default_rng(8)
    raw = random_atomic(rng, n_atoms=8, dim=3)
    dist = AtomicDistribution(
        probabilities=raw.probabilities, atoms=raw.atoms * (0.9 / p_radius(raw, 4).value)
    )
    cert = synthesize_degree_p(dist, 4)
    xs = lyapunov_module.default_test_vectors(3)
    oracle = np.zeros(xs.shape[0])
    for prob, a in zip(dist.probabilities, dist.atoms):
        y = np.stack([np.kron(v, v) for v in xs @ a.T])
        oracle += prob * np.einsum("ni,ij,nj->n", y, cert.h, y)
    expected, _ = lyapunov_module._moments(cert, dist.atoms, dist.probabilities, 1, xs)
    np.testing.assert_allclose(expected, oracle, rtol=1e-12, atol=0)
    margins = oracle / (cert.gamma * np.array([evaluate(cert, x) for x in xs]))
    report = validate_certificate(cert, dist, mode="exact")
    assert report.passed
    assert report.worst_margin == pytest.approx(margins.max(), rel=1e-12)
    assert np.array_equal(report.worst_x, xs[np.argmax(margins)])


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


def atomic_pair():
    """The law of problems/atomic_pair.json."""
    return AtomicDistribution(
        probabilities=np.array([0.5, 0.5]),
        atoms=np.array([[[0.4, 0.2], [0.0, 0.3]], [[0.1, 0.0], [0.5, 0.2]]]),
    )


def test_worst_x_is_not_picked_by_rounding_noise():
    # E[V(Ax)] = gamma V(x) on the whole orthant for the cone norm of
    # atomic_pair, so every orthant vector has margin 1 to rounding
    dist = atomic_pair()
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
    """Each array of a validation is counted by its own size. A certificate
    of degree p evaluates C(d+p-1, p) monomials per vector: 2 for the cone
    norm (d = 2, p = 1), 3 for the quadratic (d = 2, p = 2), 5 and 15 for
    the quartics (d = 2 and 3), 6 for the quintic (d = 2). A quartic's
    sandwiches have 3^2 entries per matrix at d = 2, 6^2 at d = 3; a cone
    norm maps a vector by every matrix into that many rows of monomials.
    The matrices are the atoms of a finite law, in either mode, or the
    draws of a box. The n C monomials of the n test vectors are counted
    first, so each other case has few vectors."""
    rng = np.random.default_rng(31)
    plane = random_atomic(rng, n_atoms=2, dim=2, target_r2=0.8)
    space = random_atomic(rng, n_atoms=2, dim=3, target_r2=0.8)
    crowd = random_atomic(rng, n_atoms=30, dim=3, target_r2=0.8)
    swarm = random_atomic(rng, n_atoms=200, dim=2, target_r2=0.8)
    box = UniformEntriesDistribution(lower=np.full((3, 3), -0.1), upper=np.full((3, 3), 0.1))
    flat = UniformEntriesDistribution(lower=np.zeros((2, 2)), upper=np.full((2, 2), 0.4))
    quadratic = synthesize_quadratic(plane)
    quartic_plane = synthesize_degree_p(plane, 4)
    quartic_space = synthesize_degree_p(space, 4)
    cone = ConeNormCertificate(f=np.ones(2), gamma=0.5)
    quintic = ConeNormCertificate(f=np.ones(2**5), gamma=0.5, lift_power=5)
    few = lyapunov_module.default_test_vectors(2, count=18)  # 20 vectors
    more = lyapunov_module.default_test_vectors(2, count=128)  # 130 vectors
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    # under the cap: 200 atom indices, 20 x 3 test monomials, 2 x 2^2
    # sandwich entries and 20 x 2^2 monomial products
    assert validate_certificate(quadratic, plane, xs=few, mode="mc", n_samples=200).passed
    # sandwiches of 2 atoms or 100 draws and a triangular factor of
    # min(matrices, C^2) rows: none holds C^4 entries
    validate_certificate(quartic_plane, plane, xs=few, mode="mc", n_samples=200)
    validate_certificate(quartic_plane, flat, xs=few, mode="mc", n_samples=100)
    validate_certificate(quartic_space, box, xs=few[:, [0, 1, 1]], mode="mc", n_samples=2)
    # a cone norm on a finite law maps each vector by the 2 atoms, not by
    # every one of the 200 draws
    validate_certificate(quintic, plane, xs=few, mode="mc", n_samples=200)
    cases = [
        (cone, plane, None, 10, "validation test vectors", 2004),  # 1002 x 2
        (quadratic, plane, few, 1200, "Monte Carlo samples", 1200),  # the atom indices
        (cone, plane, few, 1200, "Monte Carlo samples", 1200),  # the atom indices
        (cone, flat, few, 300, "Monte Carlo samples", 1200),  # the draws, 300 x 2 x 2
        (quartic_space, box, few[:, [0, 1, 1]], 30, "validation sandwiches", 1080),  # 30 x 6 x 6
        (quartic_space, crowd, few[:, [0, 1, 1]], 2, "validation sandwiches", 1080),  # 30 x 6 x 6
        (quartic_plane, flat, more, 100, "validation monomial products", 1170),  # 130 x 3 x 3
        (quartic_plane, plane, more, 2, "validation monomial products", 1170),  # 130 x 3 x 3
        (quintic, flat, few, 200, "validation mapped monomials", 1200),  # 200 draws x 6
        (quintic, swarm, few, 2, "validation mapped monomials", 1200),  # 200 atoms x 6
    ]
    for cert, dist, xs, n, context, requested in cases:
        with pytest.raises(DimensionCapError, match=context) as caught:
            validate_certificate(cert, dist, xs=xs, mode="mc", n_samples=n)
        assert caught.value.requested == requested
    # exact mode holds the same arrays of the atoms
    for cert, dist, xs, context in [
        (quartic_space, crowd, few[:, [0, 1, 1]], "validation sandwiches"),
        (quartic_plane, plane, more, "validation monomial products"),
        (quintic, swarm, few, "validation mapped monomials"),
    ]:
        with pytest.raises(DimensionCapError, match=context):
            validate_certificate(cert, dist, xs=xs, mode="exact")


def spy_on_monomial_rows(monkeypatch) -> list[int]:
    """The row counts of every ``_monomial_rows`` call from now on."""
    rows, original = [], lyapunov_module._monomial_rows

    def spy(block, q):
        rows.append(block.shape[0])
        return original(block, q)

    monkeypatch.setattr(lyapunov_module, "_monomial_rows", spy)
    return rows


def test_box_cone_norm_mc_blocks_are_sized_from_the_cap(monkeypatch, interval_box):
    # the 1002 x 14 = 14,028 test monomials of a degree-13 cone norm meet a
    # cap of 14,028; each block of vectors mapped by the 10 draws must stay
    # under it too (a fixed 2e6-entry block holds 1002 x 10 x 14 = 140,280)
    cert = ConeNormCertificate(f=np.ones(2**13), gamma=0.5, lift_power=13)
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "14028")
    rows = spy_on_monomial_rows(monkeypatch)
    validate_certificate(cert, interval_box, mode="mc", n_samples=10)
    assert max(rows) * 14 <= 14028


def test_atomic_cone_norm_mc_does_not_scale_with_the_draws(monkeypatch):
    # a finite law maps the test vectors once per atom, whatever the number
    # of draws, where evaluating V at every draw maps them 2000 times
    law = atomic_pair()
    cert = synthesize_degree_p(law, 13)
    rows = spy_on_monomial_rows(monkeypatch)
    report = validate_certificate(cert, law, mode="mc", n_samples=2000)
    assert report.passed
    assert max(rows) <= len(law.atoms) * report.n_vectors
    many = list(rows)
    rows.clear()
    validate_certificate(cert, law, mode="mc", n_samples=20)
    assert rows == many


def unit_weight_estimates(cert, samples, xs):
    """Sample mean and standard error of V(A x) from the weighted moments of
    the draws, each weighted by 1 over their number n."""
    n = samples.shape[0]
    expected, squares = lyapunov_module._moments(cert, samples, np.ones(n), n, xs)
    return expected, np.sqrt(squares / (n - 1) / n)


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
    expected, stderr = unit_weight_estimates(cert, samples, xs)
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
    expected, stderr = unit_weight_estimates(cert, samples, xs)
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
    check_report_against_the_oracle(report, cert, xs, oracle_expected, oracle_stderr)


def check_report_against_the_oracle(report, cert, xs, oracle_expected, oracle_stderr):
    """The verdict, worst margin and worst vector of a Monte Carlo report
    against the per-sample oracle's moments, where the route's moments are
    within 1e-10 of the oracle's on the scale max(E[V(A x)], V(x)), over
    sqrt(n) for the standard error."""
    vx = np.array([evaluate(cert, x) for x in xs])
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
def atomic_validations(draw):
    """An atomic law (m <= 4 atoms, d <= 4) with a random certificate, a
    sample count down to 2 and a seed: a quadratic of degree 2 or lifted
    degree 4, or a cone norm of odd degree q <= 5 on nonnegative atoms."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    gamma = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        q = draw(st.sampled_from((1, 2)))
        atoms = rng.standard_normal((m, d, d))
        g = rng.standard_normal((d**q, d**q))
        cert = QuadraticCertificate(h=g @ g.T + d**q * np.eye(d**q), gamma=gamma, lift_power=q)
    else:
        q = draw(st.sampled_from((1, 3, 5)))
        atoms = rng.uniform(0.0, 1.0, (m, d, d)) * (rng.random((m, d, d)) < 0.8)
        cert = ConeNormCertificate(f=rng.uniform(0.1, 1.0, d**q), gamma=gamma, lift_power=q)
    law = AtomicDistribution(probs / probs.sum(), atoms)
    return cert, law, draw(st.sampled_from((2, 3, 17, 500))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(atomic_validations())
def test_atomic_mc_validation_matches_the_per_sample_oracle(case):
    cert, law, n, seed = case
    xs = lyapunov_module.default_test_vectors(law.dim, count=40, seed=seed)
    index = atom_indices(law, np.random.default_rng(seed), n)
    samples = sample_matrix(law, np.random.default_rng(seed), size=n)
    assert np.array_equal(law.atoms[index], samples)  # one stream for both
    oracle_expected, oracle_stderr = per_sample_estimates(cert, samples, xs)
    report = validate_certificate(cert, law, xs=xs, mode="mc", n_samples=n, seed=seed)
    check_report_against_the_oracle(report, cert, xs, oracle_expected, oracle_stderr)


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
