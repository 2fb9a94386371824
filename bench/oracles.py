"""Reference answers written with numpy alone, and the checks that compare
the program's answers against them.

Nothing here imports switchstab. Each ``check_*`` function takes the
program's answer (as the worker encoded it) and returns an empty string
when the answer is right, or a short reason when it is wrong.
"""

from __future__ import annotations

import json
import math
from functools import reduce

import numpy as np

#: relative agreement required between a program radius and its oracle;
#: tight enough that a radius off by a factor (1 + 1e-6) is rejected
RADIUS_RTOL = 1e-8
#: half-width of the band around 1 inside which verdicts are "marginal"
DECISION_MARGIN = 1e-9
#: exit codes of the verdicts, as documented in the README
VERDICT_EXIT = {"stable": 0, "unstable": 2, "marginal": 3, "unsupported": 4}
#: sample plan of certificate validation documented in the README
VALIDATION_SEED = 1729
VALIDATION_POINTS = 1000
#: steps of a moment series compared against the exact moment recursion
SERIES_CHECK_STEPS = 5
SERIES_SIGMAS = 6.0
#: standard errors allowed between a Monte Carlo validation margin and its
#: exact value; correct estimates at 5000 samples stayed within 2.5 on
#: every law of the benchmark
MC_SIGMAS = 6.0


# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------


def parse_doc(text: str) -> dict:
    """Arrays of a problem document, read without the program's parser."""
    root = json.loads(text)
    if root["type"] == "markov":
        node = root["markov"]
        return {
            "type": "markov",
            "P": np.array(node["P"], dtype=float),
            "modes": np.array(node["modes"], dtype=float),
            "inputs": None if node.get("inputs") is None else np.array(node["inputs"], dtype=float),
            "feedback": None if node.get("feedback") is None else np.array(node["feedback"], dtype=float),
            "initial_mode": node.get("initial_mode"),
        }
    node = root["distribution"]
    if node["kind"] == "atomic":
        return {
            "type": "atomic",
            "probs": np.array([a["p"] for a in node["atoms"]], dtype=float),
            "atoms": np.array([a["M"] for a in node["atoms"]], dtype=float),
        }
    return {
        "type": "box",
        "lower": np.array(node["lower"], dtype=float),
        "upper": np.array(node["upper"], dtype=float),
    }


def dim(spec: dict) -> int:
    if spec["type"] == "atomic":
        return spec["atoms"].shape[1]
    if spec["type"] == "box":
        return spec["lower"].shape[0]
    return spec["modes"].shape[1]


def closed_loop(spec: dict) -> dict:
    modes = spec["modes"] + spec["inputs"][:, :, None] * spec["feedback"][None, None, :]
    return dict(spec, modes=modes, inputs=None, feedback=None)


# ---------------------------------------------------------------------------
# Dense lifts and radii
# ---------------------------------------------------------------------------


def kron_pow(m: np.ndarray, p: int) -> np.ndarray:
    """m kron (m kron (... kron m)), folded from the right."""
    return reduce(lambda acc, _: np.kron(m, acc), range(p - 1), m)


def uniform_moments(lower: np.ndarray, upper: np.ndarray, k: int) -> np.ndarray:
    """E[a^k] for a uniform on [lower, upper], entrywise; a point mass where
    the bounds are equal."""
    width = upper - lower
    safe = np.where(width > 0, width, 1.0)
    return np.where(width > 0, (upper ** (k + 1) - lower ** (k + 1)) / ((k + 1) * safe), lower**k)


def box_lift(spec: dict, p: int) -> np.ndarray:
    """E[A^(kron p)] of a uniform box. Cell (I, J) is the expected product
    of the entries A[i_t, j_t], t = 1..p; the entries are independent, so
    it is the product, over the distinct entries, of the uniform moment of
    the order in which each entry occurs."""
    lower, upper = spec["lower"], spec["upper"]
    d = lower.shape[0]
    moments = np.stack([uniform_moments(lower.ravel(), upper.ravel(), k) for k in range(p + 1)])
    index = np.indices((d,) * p).reshape(p, -1).T  # row-major multi-index of each lifted row
    entries = np.sort(index[:, None, :] * d + index[None, :, :], axis=-1)
    out = np.ones(entries.shape[:2])
    run = np.ones(entries.shape[:2], dtype=int)
    for t in range(p):
        if t:
            run = np.where(entries[..., t] == entries[..., t - 1], run + 1, 1)
        if t == p - 1:
            out *= moments[run, entries[..., t]]
        else:
            out *= np.where(entries[..., t] != entries[..., t + 1], moments[run, entries[..., t]], 1.0)
    return out


def dense_lift(spec: dict, p: int) -> np.ndarray:
    """E[A^(kron p)] of an atomic law or a uniform box."""
    if spec["type"] == "atomic":
        return sum(prob * kron_pow(m, p) for prob, m in zip(spec["probs"], spec["atoms"]))
    return box_lift(spec, p)


def spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def rho_p(spec: dict, p: int) -> float:
    return spectral_radius(dense_lift(spec, p)) ** (1.0 / p)


def scalar_uniform_radius(g: float, p: int) -> float:
    """Closed form for the 1x1 law uniform on [0, g]."""
    return g * (p + 1) ** (-1.0 / p)


def markov_tp(spec: dict, p: int) -> np.ndarray:
    """(P.T kron I) @ blockdiag(M_1^(kron p), ..., M_N^(kron p))."""
    n = spec["P"].shape[0]
    blocks = [kron_pow(m, p) for m in spec["modes"]]
    dp = blocks[0].shape[0]
    diag = np.zeros((n * dp, n * dp))
    for i, b in enumerate(blocks):
        diag[i * dp : (i + 1) * dp, i * dp : (i + 1) * dp] = b
    return np.kron(spec["P"].T, np.eye(dp)) @ diag


def markov_radius(spec: dict, p: int) -> float:
    return spectral_radius(markov_tp(spec, p)) ** (1.0 / p)


def jsr_bracket(atoms: np.ndarray, depth: int) -> tuple[float, float]:
    """Best rho(product)^(1/l) and min over l of max ||product||_2^(1/l),
    over all products of length l <= depth, each level built by
    left-multiplying the previous one."""
    lower, upper = 0.0, math.inf
    level = atoms
    for length in range(1, depth + 1):
        if length > 1:
            level = (atoms[:, None] @ level[None]).reshape(-1, *atoms.shape[1:])
        lower = max(lower, float(np.abs(np.linalg.eigvals(level)).max()) ** (1.0 / length))
        upper = min(upper, float(np.linalg.norm(level, 2, axis=(1, 2)).max()) ** (1.0 / length))
    return lower, upper


def verdict(value: float | None) -> str:
    if value is None:
        return "unsupported"
    if value < 1.0 - DECISION_MARGIN:
        return "stable"
    if value > 1.0 + DECISION_MARGIN:
        return "unstable"
    return "marginal"


def close(a, b, rtol: float = RADIUS_RTOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def lifted_law(spec: dict, q: int) -> dict:
    """Atomic law of A^(kron q)."""
    if q == 1:
        return spec
    return dict(spec, atoms=np.stack([kron_pow(m, q) for m in spec["atoms"]]))


def sandwich(spec: dict, h: np.ndarray) -> np.ndarray:
    """E[A.T H A] through the row-major identity vec(B.T X B) = (B kron B).T vec X."""
    second = dense_lift(spec, 2)
    return (second.T @ h.reshape(-1)).reshape(h.shape)


def validation_vectors(d: int) -> np.ndarray:
    rng = np.random.default_rng(VALIDATION_SEED)
    pts = rng.standard_normal((VALIDATION_POINTS, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.vstack([pts, np.eye(d)])


def certificate_values(cert: dict, xs: np.ndarray) -> np.ndarray:
    """V at each row of xs for a certificate document."""
    q = int(cert.get("lift_power", 1))
    rows = np.stack([kron_pow(x, q) for x in xs]) if q > 1 else xs
    if cert["kind"] == "cone_norm":
        return np.abs(rows) @ np.array(cert["f"])
    h = np.array(cert["H"])
    return np.einsum("ni,ij,nj->n", rows, h, rows)


def check_cone_certificate(cert: dict, spec: dict, p: int) -> str:
    if cert.get("kind") != "cone_norm" or int(cert.get("degree", 0)) != p:
        return f"expected a degree-{p} cone-norm certificate"
    f, gamma = np.array(cert["f"]), float(cert["gamma"])
    mean = dense_lift(spec, p)
    if not np.all(f > 0) or not 0 <= gamma < 1:
        return "weights must be positive and gamma in [0, 1)"
    if float(np.max(np.abs(f @ mean - gamma * f))) > 1e-9 * gamma:
        return "weights are not a left eigenvector of the lifted mean"
    if not close(gamma, spectral_radius(mean), 1e-9):
        return "gamma differs from the Perron root of the lifted mean"
    return ""


def check_quadratic_certificate(cert: dict, spec: dict, p: int) -> str:
    q = p // 2
    if cert.get("kind") != "quadratic" or int(cert.get("degree", 0)) != p:
        return f"expected a degree-{p} quadratic certificate"
    if int(cert.get("lift_power", 1)) != q:
        return f"expected lift power {q}"
    h, gamma = np.array(cert["H"]), float(cert["gamma"])
    if float(np.max(np.abs(h - h.T))) > 1e-9 * float(np.max(np.abs(h))):
        return "H is not symmetric"
    eig = np.linalg.eigvalsh(0.5 * (h + h.T))
    if eig.min() <= 0:
        return "H is not positive definite"
    residual = h - np.eye(h.shape[0]) - sandwich(lifted_law(spec, q), h)
    if float(np.max(np.abs(residual))) > 1e-8 * float(np.max(np.abs(h))):
        return "H does not solve H = I + E[A.T H A]"
    if not close(gamma, 1.0 - 1.0 / eig.max(), 1e-9) or not gamma < 1:
        return "gamma differs from 1 - 1/lambda_max(H)"
    return ""


def check_certificate(cert: dict, spec: dict, p: int) -> str:
    if p % 2 == 0:
        return check_quadratic_certificate(cert, spec, p)
    if p == 1:
        return check_cone_certificate(cert, spec, 1)
    if int(cert.get("lift_power", 1)) != p:
        return f"expected lift power {p}"
    return check_cone_certificate(dict(cert, degree=p), spec, p)


def exact_validation(cert: dict, spec: dict) -> tuple[bool, float, int]:
    """(passed, worst margin, vector count) of exact validation."""
    xs = validation_vectors(dim(spec))
    gamma = float(cert["gamma"])
    vx = certificate_values(cert, xs)
    expected = sum(prob * certificate_values(cert, xs @ m.T) for prob, m in zip(spec["probs"], spec["atoms"]))
    slack = gamma * vx * (1.0 + 1e-9) + 1e-15 * np.maximum(vx, 1.0)
    margins = np.where(vx > 0, expected / np.where(vx > 0, gamma * vx, 1.0), 0.0)
    return bool(np.all(expected <= slack)), float(margins.max()), xs.shape[0]


def margin_moments(cert: dict, spec: dict, xs: np.ndarray, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean of V(A x) / (gamma V(x)) at each row of xs, and the
    standard error of its mean over ``n_samples`` draws, for a quadratic
    certificate V(x) = y.T H y with y = x^(kron q): E[V(A x)] and
    E[V(A x)^2] are the lifts of degree 2q and 4q applied to x^(kron 2q)
    and x^(kron 4q)."""
    q = int(cert.get("lift_power", 1))
    h, gamma = np.array(cert["H"]), float(cert["gamma"])
    scale = gamma * certificate_values(cert, xs)
    mean = np.stack([kron_pow(x, 2 * q) for x in xs]) @ dense_lift(spec, 2 * q).T @ h.reshape(-1)
    fourth = np.stack([kron_pow(x, 4 * q) for x in xs]) @ dense_lift(spec, 4 * q).T
    square = fourth @ np.multiply.outer(h, h).reshape(-1)
    stderr = np.sqrt(np.maximum(square - mean**2, 0.0) / n_samples)
    return mean / scale, stderr / scale


def check_mc_margin(report: dict, cert: dict, spec: dict, n_samples: int) -> str:
    """The Monte Carlo margin at the reported vector must lie within
    ``MC_SIGMAS`` standard errors of its exact value, and cannot fall that
    far below the exact worst margin."""
    if cert.get("kind") != "quadratic":
        return "the Monte Carlo oracle covers quadratic certificates only"
    xs = validation_vectors(dim(spec))
    mean, stderr = margin_moments(cert, spec, xs, n_samples)
    margin = report.get("worst_margin")
    at = np.flatnonzero(np.all(np.abs(xs - np.asarray(report.get("worst_x"), dtype=float)) <= 1e-12, axis=1))
    if not isinstance(margin, float) or at.size != 1:
        return "worst_x must be one of the test vectors"
    i, j = int(at[0]), int(np.argmax(mean))
    if abs(margin - mean[i]) > MC_SIGMAS * stderr[i]:
        return (f"Monte Carlo margin {margin!r} at worst_x is more than {MC_SIGMAS:g} standard errors "
                f"from its exact value {float(mean[i])!r}")
    if margin < mean[j] - MC_SIGMAS * stderr[j]:
        return f"Monte Carlo worst margin {margin!r} is far below the exact worst margin {float(mean[j])!r}"
    return ""


def check_validation(report: dict, cert: dict, spec: dict, mode: str, n_samples: int = 0) -> str:
    if report.get("mode") != mode:
        return "wrong validation mode"
    if report.get("n_vectors") != VALIDATION_POINTS + dim(spec):
        return "wrong number of test vectors"
    if report.get("passed") is not True:
        return "a valid certificate failed validation"
    if mode == "mc":
        return check_mc_margin(report, cert, spec, n_samples)
    _, worst, _ = exact_validation(cert, spec)
    if not close(report.get("worst_margin"), worst, 1e-9):
        return "worst margin differs from the exact expectation"
    return ""


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def exact_second_moments(spec: dict, x0: np.ndarray, steps: int, weight: np.ndarray, sigma0=None):
    """E[x(k).T W x(k)] for k = 0..steps, from the lifted second-moment
    recursion (per mode for Markov systems)."""
    w = weight.reshape(-1)
    if spec["type"] == "markov":
        n, dp = spec["P"].shape[0], x0.size**2
        t2 = markov_tp(spec, 2)
        s = np.zeros(n * dp)
        s[(sigma0 - 1) * dp : sigma0 * dp] = np.kron(x0, x0)
        out = []
        for _ in range(steps + 1):
            out.append(float(sum(w @ s[i * dp : (i + 1) * dp] for i in range(n))))
            s = t2 @ s
        return out
    second = dense_lift(spec, 2)
    s = np.kron(x0, x0)
    out = []
    for _ in range(steps + 1):
        out.append(float(w @ s))
        s = second @ s
    return out


def check_series(series: dict, exact: list[float]) -> str:
    means, stderrs = series["means"], series["stderrs"]
    if not close(means[0], exact[0], 1e-12) or stderrs[0] > 1e-12 * exact[0]:
        return "step 0 must equal the initial value with no spread"
    for k in range(1, len(exact)):
        if abs(means[k] - exact[k]) > SERIES_SIGMAS * stderrs[k] + 1e-12 * exact[k]:
            return f"step {k} mean is more than {SERIES_SIGMAS:g} standard errors from the exact moment"
    return ""


def decay_fit(means: list[float]) -> float:
    """Per-step rate from least squares on the log means over the second half."""
    ys = np.array(means)
    ks = np.arange(ys.size)
    start = ys.size // 2
    ks, ys = ks[start:], ys[start:]
    keep = np.isfinite(ys) & (ys > 0)
    slope = np.polyfit(ks[keep], np.log(ys[keep]), 1)[0]
    return float(np.exp(slope))


def check_csv(text: str, series: dict) -> str:
    lines = text.splitlines()
    if not lines or lines[0] != "k,mean,stderr":
        return "CSV header must be k,mean,stderr"
    if len(lines) != len(series["means"]) + 1:
        return "CSV must hold one row per step"
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        if cells != [str(k), repr(series["means"][k]), repr(series["stderrs"][k])]:
            return f"CSV row {k} does not hold the series value in full precision"
    return ""


# ---------------------------------------------------------------------------
# Command-line reports
# ---------------------------------------------------------------------------


def single_json(stdout: str):
    """The one JSON document on stdout, or None if there is not exactly one."""
    try:
        doc, end = json.JSONDecoder().raw_decode(stdout.lstrip())
    except ValueError:
        return None
    return doc if not stdout.lstrip()[end:].strip() else None


def csv_series(text: str) -> dict:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return {"means": [float(r[1]) for r in rows], "stderrs": [float(r[2]) for r in rows]}


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def _check_radius(answer: dict, expect: dict, same_round: dict) -> str:
    value = answer.get("value")
    if answer.get("assumption_path") != expect["path"]:
        return f"assumption path {answer.get('assumption_path')!r}, expected {expect['path']!r}"
    if "pair_of" in expect:
        base = same_round.get(expect["pair_of"], {})
        base = base.get("p_radius", base).get("value")
        if not close(value, None if base is None else expect["factor"] * base):
            return f"rho_p(c mu) = {value!r} is not c * rho_p(mu) = {expect['factor']!r} * {base!r}"
        return ""
    if expect["value"] is None:
        return "" if value is None else "an unsupported case must carry no value"
    return "" if close(value, expect["value"]) else f"radius {value!r}, oracle {expect['value']!r}"


def _check_verdict(answer: dict, expect: dict, same_round: dict) -> str:
    reason = _check_radius(answer.get("p_radius", {}), expect, same_round)
    if reason:
        return reason
    want = expect["verdict"]
    return "" if answer.get("verdict") == want else f"verdict {answer.get('verdict')!r}, expected {want!r}"


def _check_simulation(answer: dict, expect: dict, q: dict) -> str:
    if q.get("determinism") and answer.get("threads_identical") is not True:
        return "CSV bytes differ between one and several threads"
    for name in q["series"]:
        series = answer["series"][name]
        reason = check_series(series, expect[name]) or check_csv(answer["csv"][name], series)
        if reason:
            return f"{name} series: {reason}"
    rate = decay_fit(answer["series"][q["series"][-1]]["means"])
    got = answer["decay"].get("rate")
    return "" if close(got, rate, 1e-9) else f"decay rate {got!r}, oracle {rate!r}"


def _check_cli(answer: dict, expect: dict, specs: dict) -> str:
    if answer["code"] != expect["code"]:
        return f"exit code {answer['code']}, expected {expect['code']}"
    doc = single_json(answer["stdout"])
    if doc is None:
        return "stdout is not exactly one JSON document"
    results = doc.get("results") or {}
    kind = expect["check"]
    if kind == "radius":
        return _check_radius(results, expect, {})
    if kind in ("stability", "markov"):
        want = expect["verdict"]
        if results.get("verdict") != want:
            return f"verdict {results.get('verdict')!r}, expected {want!r}"
        value = results.get("p_radius", results).get("value")
        return "" if close(value, expect["value"]) else f"radius {value!r}, oracle {expect['value']!r}"
    if kind == "lyapunov":
        cert = results.get("certificate", {})
        return (check_certificate(cert, specs[expect["spec"]], 2)
                or check_validation(results.get("validation", {}), cert, specs[expect["spec"]], "exact"))
    if kind == "validate":
        return check_validation(results, json.loads(answer["files"][0]), specs[expect["spec"]], "exact")
    if kind == "jsr":
        return _check_bracket(results, expect)
    if kind == "limit":
        entries = results.get("entries", [])
        if [p for p, _ in entries] != [p for p, _ in expect["entries"]] or results.get("truncated"):
            return "limit sequence must hold every p up to pmax, untruncated"
        if not all(close(v, w) for (_, v), (_, w) in zip(entries, expect["entries"])):
            return "limit sequence entries differ from the dense oracle"
        return _check_bracket(dict(results.get("jsr_reference") or {}, depth=8), expect | {"depth": 8})
    if kind == "simulate":
        return _check_cli_simulation(answer, results, expect, specs)
    if kind == "schema":
        error = doc.get("error") or {}
        if error.get("type") != "SchemaError" or error.get("pointer") != expect["pointer"]:
            return f"expected a SchemaError at {expect['pointer']}, got {error}"
        return ""
    if kind == "usage":
        return "" if doc.get("command") == "(usage)" else "expected a usage report"
    return f"unknown check {kind!r}"


def _check_bracket(results: dict, expect: dict) -> str:
    if results.get("depth") != expect["depth"] or results.get("truncated"):
        return "bracket must reach the requested depth untruncated"
    if not (close(results.get("lower"), expect["lower"]) and close(results.get("upper"), expect["upper"])):
        return f"bracket [{results.get('lower')}, {results.get('upper')}] differs from the oracle"
    return ""


def _check_cli_simulation(answer: dict, results: dict, expect: dict, specs: dict) -> str:
    spec, x0 = specs[expect["spec"]], np.array(expect["x0"])
    files = answer["files"]
    if any(f is None for f in files):
        return "a CSV sidecar is missing"
    d = x0.size
    series = {"euclidean": (csv_series(files[0]), np.eye(d))}
    if len(files) == 3:
        series["certificate"] = (csv_series(files[1]), np.array(json.loads(files[2])["H"]))
    for name, (values, weight) in series.items():
        reason = check_csv(files[0 if name == "euclidean" else 1], values)
        exact = exact_second_moments(spec, x0, SERIES_CHECK_STEPS, weight, expect.get("sigma0"))
        reason = reason or check_series(values, exact)
        if reason:
            return f"{name} series: {reason}"
        if results["series"][name]["final_mean"] != values["means"][-1]:
            return f"{name} final mean differs from its CSV"
    main = series.get("certificate", series["euclidean"])[0]
    rate = decay_fit(main["means"])
    got = (results.get("decay") or {}).get("rate")
    return "" if close(got, rate, 1e-9) else f"decay rate {got!r}, oracle {rate!r}"


def check_answer(q: dict, answer: dict, same_round: dict, specs: dict) -> str:
    """Empty when ``answer`` is what the oracles predict for query ``q``."""
    expect, api = q["expect"], q["api"]
    if "error" in answer or "error" in expect:
        if answer.get("error") == expect.get("error"):
            return ""
        return f"error {answer.get('error')!r}, expected {expect.get('error')!r}"
    if api == "p_radius":
        return _check_radius(answer, expect, same_round)
    if api in ("check_mean_stability", "markov_stability"):
        return _check_verdict(answer, expect, same_round)
    if api == "jsr_bounds":
        return _check_bracket(answer, expect)
    if api in ("synthesize_quadratic", "synthesize_degree_p"):
        return check_certificate(answer["certificate"], specs[q["doc"]], q["p"])
    if api == "validate_certificate":
        cert = same_round.get(q["cert_of"], {}).get("certificate")
        if not cert:
            return "no certificate"
        return check_validation(answer, cert, specs[q["doc"]], q["mode"], q["n_samples"])
    if api in ("simulate_iid", "simulate_markov"):
        return _check_simulation(answer, expect, q)
    if api == "check_q_recursion":
        sigma = answer.get("mc_max_sigma")
        if not answer.get("max_residual", 1.0) <= 1e-9:
            return "the lifted recursion residual is above rounding level"
        return "" if answer.get("mc_agrees") == (sigma <= 4.0) else "mc_agrees contradicts mc_max_sigma"
    if api == "cli":
        return _check_cli(answer, expect, specs)
    return f"unknown query api {api!r}"
