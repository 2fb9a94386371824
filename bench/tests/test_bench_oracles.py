"""Each oracle accepts the program's answer and rejects a perturbed one."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import switchstab as ss

import oracles
import workloads
from conftest import ROOT
from worker import Session


def _session(job, tmp_path):
    return Session(ss, job, tmp_path)


def _answers(job, tmp_path):
    """One untraced round of the job: {query id: (query, answer)}."""
    session = _session(job, tmp_path)
    phase = session.run(0.0, 0)[0]
    queries = {q["id"]: q for q in job["queries"]}
    return {a["id"]: (queries[a["id"]], a["answer"]) for a in phase["answers"]}


def _specs(job):
    docs = job["documents"] | job.get("problems", {})
    return {name: oracles.parse_doc(text) for name, text in docs.items()}


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    job = workloads.build("certify", 5, ROOT)
    return job, _answers(job, tmp_path_factory.mktemp("certify"))


def _first(answers, pred):
    return next(qa for qa in answers.values() if pred(*qa))


def test_radius_off_by_one_millionth_is_rejected():
    spec = {"type": "atomic", "probs": np.array([0.5, 0.5]),
            "atoms": np.array([[[0.4, 0.2], [0.0, 0.3]], [[0.1, -0.6], [0.5, 0.2]]])}
    dist = ss.AtomicDistribution(probabilities=spec["probs"], atoms=spec["atoms"])
    for p in (2, 4):
        q = {"id": 0, "api": "p_radius", "expect": {"value": oracles.rho_p(spec, p), "path": "even_p"}}
        answer = ss.p_radius(dist, p).to_dict()
        assert oracles.check_answer(q, answer, {}, {}) == ""
        answer["value"] *= 1 + 1e-6
        assert oracles.check_answer(q, answer, {}, {})


def test_scaling_pair_and_scalar_closed_form_reject_perturbations():
    box = ss.UniformEntriesDistribution(lower=np.zeros((2, 2)), upper=np.array([[0.6, 0.3], [0.2, 0.5]]))
    scaled = ss.UniformEntriesDistribution(lower=box.lower * 0.7, upper=box.upper * 0.7)
    base = ss.p_radius(box, 3).to_dict()
    q = {"id": 1, "api": "p_radius", "expect": {"path": "orthant_invariant", "pair_of": 0, "factor": 0.7}}
    answer = ss.p_radius(scaled, 3).to_dict()
    assert oracles.check_answer(q, answer, {0: base}, {}) == ""
    answer["value"] *= 1 + 1e-6
    assert oracles.check_answer(q, answer, {0: base}, {})

    scalar = ss.UniformEntriesDistribution(lower=np.zeros((1, 1)), upper=np.full((1, 1), 1.5))
    q = {"id": 2, "api": "p_radius",
         "expect": {"value": oracles.scalar_uniform_radius(1.5, 5), "path": "orthant_invariant"}}
    answer = ss.p_radius(scalar, 5).to_dict()
    assert oracles.check_answer(q, answer, {}, {}) == ""
    answer["value"] *= 1 + 1e-6
    assert oracles.check_answer(q, answer, {}, {})


def test_box_lift_matches_point_masses_and_second_moments():
    rng = np.random.default_rng(4)
    lower = rng.uniform(-0.5, 0.5, (3, 3))
    point = {"type": "box", "lower": lower, "upper": lower.copy()}
    for p in (1, 2, 3):
        assert np.allclose(oracles.box_lift(point, p), oracles.kron_pow(lower, p), rtol=1e-13, atol=1e-15)
    upper = lower + rng.uniform(0.0, 0.6, (3, 3))
    box = {"type": "box", "lower": lower, "upper": upper}
    mean, var = 0.5 * (lower + upper), (upper - lower) ** 2 / 12.0
    second = np.kron(mean, mean)
    diag = np.arange(3) * 4
    second[np.ix_(diag, diag)] += var
    assert np.allclose(oracles.box_lift(box, 2), second, rtol=1e-13, atol=1e-15)


def test_box_radius_at_p3_rejects_perturbation():
    spec = {"type": "box", "lower": np.array([[0.1, 0.0], [0.2, 0.3]]), "upper": np.array([[0.5, 0.4], [0.3, 0.6]])}
    dist = ss.UniformEntriesDistribution(lower=spec["lower"], upper=spec["upper"])
    q = {"id": 0, "api": "p_radius", "expect": {"value": oracles.rho_p(spec, 3), "path": "orthant_invariant"}}
    answer = ss.p_radius(dist, 3).to_dict()
    assert oracles.check_answer(q, answer, {}, {}) == ""
    answer["value"] *= 1 + 1e-6
    assert oracles.check_answer(q, answer, {}, {})


def test_flipped_verdict_is_rejected():
    spec = {"type": "atomic", "probs": np.array([1.0]), "atoms": np.array([[[0.5, 0.1], [0.2, 0.4]]])}
    dist = ss.AtomicDistribution(probabilities=spec["probs"], atoms=spec["atoms"])
    value = oracles.rho_p(spec, 1)
    q = {"id": 0, "api": "check_mean_stability",
         "expect": {"value": value, "path": "orthant_invariant", "verdict": oracles.verdict(value)}}
    answer = ss.check_mean_stability(dist, 1).to_dict()
    assert oracles.check_answer(q, answer, {}, {}) == ""
    answer["verdict"] = "unstable"
    assert oracles.check_answer(q, answer, {}, {})


def test_certificates_and_validations_reject_perturbations(certify):
    job, answers = certify
    specs = _specs(job)
    assert all(oracles.check_answer(q, a, {i: b for i, (_, b) in answers.items()}, specs) == ""
               for q, a in answers.values())
    for api in ("synthesize_quadratic", "synthesize_degree_p"):
        q, answer = _first(answers, lambda q, a: q["api"] == api and "certificate" in a)
        bad = copy.deepcopy(answer)
        bad["certificate"]["gamma"] *= 1 + 1e-6
        assert oracles.check_answer(q, bad, {}, specs)
    q, answer = _first(answers, lambda q, a: q["api"] == "validate_certificate" and q["mode"] == "exact")
    same_round = {i: a for i, (_, a) in answers.items()}
    bad = dict(answer, worst_margin=answer["worst_margin"] * (1 + 1e-6))
    assert oracles.check_answer(q, bad, same_round, specs)
    assert oracles.check_answer(q, dict(answer, passed=False), same_round, specs)


def test_unpredicted_error_is_rejected(certify):
    job, answers = certify
    q, answer = _first(answers, lambda q, a: "error" in q["expect"])
    assert oracles.check_answer(q, answer, {}, {}) == ""
    assert oracles.check_answer(q, {"error": "SolverFailureError"}, {}, {})
    q, answer = _first(answers, lambda q, a: q["api"] == "synthesize_quadratic" and "error" not in q["expect"])
    assert oracles.check_answer(q, {"error": "InstabilityError"}, {}, _specs(job))


def test_simulation_checks_reject_changed_bytes(tmp_path):
    job = workloads.build("simulate", 5, ROOT)
    job["queries"] = [q for q in job["queries"] if q.get("determinism")]
    job["queries"][0]["paths"] = 2048
    (q, answer), = _answers(job, tmp_path).values()
    specs = _specs(job)
    assert oracles.check_answer(q, answer, {}, specs) == ""
    assert oracles.check_answer(q, dict(answer, threads_identical=False), {}, specs)
    lines = answer["csv"]["certificate"].splitlines()
    lines[3] = lines[3][:-1] + ("1" if lines[3][-1] != "1" else "2")
    bad = copy.deepcopy(answer)
    bad["csv"]["certificate"] = "\n".join(lines)
    assert oracles.check_answer(q, bad, {}, specs)
    bad = copy.deepcopy(answer)
    bad["decay"]["rate"] *= 1 + 1e-6
    assert oracles.check_answer(q, bad, {}, specs)
    bad = copy.deepcopy(answer)
    bad["series"]["euclidean"]["means"][2] *= 1.5
    assert oracles.check_answer(q, bad, {}, specs)


def test_cli_exit_code_and_single_document_are_checked(tmp_path):
    job = workloads.build("cli", 5, ROOT)
    q = next(q for q in job["queries"] if q["expect"]["check"] == "stability" and "interval_box" in q["argv"][2])
    argv = [a.replace("{root}", str(ROOT)) for a in q["argv"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "switchstab.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    answer = {"code": proc.returncode, "stdout": proc.stdout, "files": []}
    specs = _specs(job)
    assert oracles.check_answer(q, answer, {}, specs) == ""
    assert oracles.check_answer(q, dict(answer, code=2), {}, specs)
    assert oracles.check_answer(q, dict(answer, stdout=proc.stdout + json.dumps({})), {}, specs)


def test_monte_carlo_margins_reject_perturbations(certify):
    job, answers = certify
    specs, same_round = _specs(job), {i: a for i, (_, a) in answers.items()}
    mc = [(q, a) for q, a in answers.values() if q["api"] == "validate_certificate" and q["mode"] == "mc"]
    assert len(mc) == 4
    for q, answer in mc:
        assert oracles.check_answer(q, answer, same_round, specs) == ""
        cert, spec = same_round[q["cert_of"]]["certificate"], specs[q["doc"]]
        xs = oracles.validation_vectors(oracles.dim(spec))
        mean, stderr = oracles.margin_moments(cert, spec, xs, q["n_samples"])
        i = int(np.argmax(np.all(xs == answer["worst_x"], axis=1)))
        for shift in (-7.0, 7.0):
            bad = dict(answer, worst_margin=mean[i] + shift * stderr[i])
            assert oracles.check_answer(q, bad, same_round, specs)
        bad = dict(answer, worst_x=(xs[i] * (1 + 1e-6)).tolist())
        assert oracles.check_answer(q, bad, same_round, specs)
        # the estimate of a program that maps x to A.T x instead of A x
        if spec["type"] == "atomic":
            flipped = ss.AtomicDistribution(probabilities=spec["probs"], atoms=spec["atoms"].transpose(0, 2, 1))
        else:
            flipped = ss.UniformEntriesDistribution(lower=spec["lower"].T, upper=spec["upper"].T)
        report = ss.validate_certificate(ss.certificate_from_dict(cert), flipped, mode="mc",
                                         n_samples=q["n_samples"]).to_dict()
        assert oracles.check_answer(q, dict(report, passed=True), same_round, specs)
