"""Seeded inputs of the benchmark's workloads and of the parts they mix.

Each workload is a fixed list of query classes with fixed counts in a
fixed order; the seed draws only matrix entries and probabilities, so the
work per query stays the same from seed to seed. Laws are rescaled
(through the oracles, never through the program) onto fixed radii, which
fixes every verdict and the cost of the iterative solvers.

A query is a JSON object naming one public call (``api``) and its
arguments. ``expect`` holds what the oracles predict; the program never
sees it. Queries that use an earlier answer of the same round name it by
``id`` (``cert_of``, ``pair_of``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracles as orc

#: each workload is a mix of parts; the parts are also built alone by the self-tests
WORKLOADS = {"spectral-certify": ("spectral", "certify"), "simulate-cli": ("simulate", "cli")}

#: threads of the simulation calls; the bit-identity check reruns at 1
SIM_THREADS = 2
SIM_PATHS = 10_000
SIM_HORIZON = 50
MC_SAMPLES = 5000
JSR_DEPTH = 14


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def atomic_doc(probs, atoms) -> str:
    atoms = np.asarray(atoms, dtype=float)
    return json.dumps({
        "type": "iid",
        "dim": atoms.shape[1],
        "distribution": {
            "kind": "atomic",
            "atoms": [{"p": float(p), "M": m.tolist()} for p, m in zip(probs, atoms)],
        },
    })


def box_doc(lower, upper) -> str:
    return json.dumps({
        "type": "iid",
        "dim": len(lower),
        "distribution": {"kind": "uniform_entries", "lower": np.asarray(lower).tolist(),
                         "upper": np.asarray(upper).tolist()},
    })


def markov_doc(transition, modes, initial_mode=None) -> str:
    node = {"P": np.asarray(transition).tolist(), "modes": np.asarray(modes).tolist()}
    if initial_mode is not None:
        node["initial_mode"] = initial_mode
    return json.dumps({"type": "markov", "dim": np.asarray(modes).shape[1], "markov": node})


def _probabilities(rng, m: int) -> np.ndarray:
    probs = rng.uniform(0.2, 1.0, m)
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return probs


def _atomic(rng, d: int, m: int, signed: bool, p: int, target: float):
    """Atomic law rescaled so that its p-radius is ``target``."""
    atoms = rng.standard_normal((m, d, d)) if signed else rng.uniform(0.05, 1.0, (m, d, d))
    probs = _probabilities(rng, m)
    spec = {"type": "atomic", "probs": probs, "atoms": atoms}
    atoms = atoms * (target / orc.rho_p(spec, p))
    return probs, atoms


def _box(rng, d: int, signed: bool, p: int, target: float):
    """Uniform box rescaled so that its p-radius is ``target``."""
    lower = rng.uniform(-0.5 if signed else 0.0, 0.5, (d, d))
    upper = lower + rng.uniform(0.0, 0.6, (d, d))
    spec = {"type": "box", "lower": lower, "upper": upper}
    c = target / orc.rho_p(spec, p)
    return lower * c, upper * c


def _markov(rng, n: int, d: int, signed: bool, p: int, target: float):
    transition = rng.uniform(0.05, 1.0, (n, n))
    transition /= transition.sum(axis=1, keepdims=True)
    transition[:, -1] = 1.0 - transition[:, :-1].sum(axis=1)
    modes = rng.standard_normal((n, d, d)) if signed else rng.uniform(0.0, 1.0, (n, d, d))
    spec = {"type": "markov", "P": transition, "modes": modes}
    return transition, modes * (target / orc.markov_radius(spec, p))


def quadratic_certificate_doc(spec: dict) -> str:
    """The quadratic certificate H = I + E[A.T H A], solved directly."""
    d = orc.dim(spec)
    second = orc.dense_lift(spec, 2)
    h = np.linalg.solve(np.eye(d * d) - second.T, np.eye(d).reshape(-1)).reshape(d, d)
    h = 0.5 * (h + h.T)
    gamma = 1.0 - 1.0 / float(np.linalg.eigvalsh(h).max())
    return json.dumps({"degree": 2, "gamma": gamma, "kind": "quadratic", "H": h.tolist()})


#: stream of the base laws, the same for every seed
BASE_SEED = 20140923
#: relative amount by which the seed moves each drawn entry off its base value
JITTER = 0.05


class Draws:
    """Random entries: fixed base values, each moved by up to ``JITTER``
    (relative) by the seed. A fixed base keeps the cost of iterative
    eigenvalue solves the same from seed to seed; the eigenvalue QR
    iteration on a d=2, p=10 lift takes 0.4 s for one law and 1.2 s for
    another."""

    def __init__(self, seed: int):
        self.base = np.random.default_rng(BASE_SEED)
        self.seeded = np.random.default_rng(seed)

    def _jitter(self, values):
        return values * (1.0 + JITTER * self.seeded.uniform(-1.0, 1.0, np.shape(values)))

    def standard_normal(self, shape):
        return self._jitter(self.base.standard_normal(shape))

    def uniform(self, low, high, shape=None):
        return self._jitter(self.base.uniform(low, high, shape))

    def integers(self, high, size=None):
        return self.seeded.integers(high, size=size)


class _Job:
    def __init__(self, seed: int):
        self.rng = Draws(seed)
        self.documents: dict[str, str] = {}
        self.invalid_documents: dict[str, str] = {}
        self.problems: dict[str, str] = {}  # the repository's problems/*.json
        self.certificates: dict[str, str] = {}
        self.groups: list[list[dict]] = []
        self._next_id = 0

    def doc(self, name: str, text: str) -> str:
        self.documents[name] = text
        return name

    def query(self, api: str, **fields) -> dict:
        q = {"id": self._next_id, "api": api, **fields}
        self._next_id += 1
        return q

    def group(self, *queries: dict) -> None:
        self.groups.append(list(queries))

    def job(self, workload: str, seed: int) -> dict:
        # one shuffled order for every seed: a sub-millisecond query right
        # after a lift of hundreds of dimensions takes about a quarter longer,
        # so an order drawn per seed moved query_p50_s from seed to seed
        order = np.random.default_rng(BASE_SEED).permutation(len(self.groups))
        queries = [q for i in order for q in self.groups[i]]
        return {
            "workload": workload,
            "seed": seed,
            "documents": self.documents,
            "invalid_documents": self.invalid_documents,
            "problems": self.problems,
            "certificates": self.certificates,
            "queries": queries,
            "threads": SIM_THREADS,
        }


# ---------------------------------------------------------------------------
# spectral: p-radius and stability verdicts over lifted dimensions 1..1024
# ---------------------------------------------------------------------------

#: two d=3, p=6 laws, so that query_p90_s falls inside their class
SIGNED_EVEN = [(2, 2), (2, 4), (2, 6), (2, 8), (2, 10), (3, 2), (3, 4), (3, 6), (3, 6), (4, 4), (5, 4)]
NONNEG_ODD = [(2, 1), (2, 3), (2, 5), (2, 7), (2, 9), (3, 1), (3, 3), (3, 5), (4, 3)]
SIGNED_ODD = [(2, 3), (2, 7), (3, 5), (4, 3)]
BOXES = [(2, 4), (3, 4), (4, 3), (6, 3), (8, 3), (10, 2), (16, 2), (2, 1), (3, 1), (2, 2), (4, 2)]
SCALAR_P = list(range(1, 11))
#: alternating targets give both verdicts without touching the margin band
TARGETS = (0.9, 1.1)


def _licensed_path(p: int) -> str:
    return "even_p" if p % 2 == 0 else "orthant_invariant"


def _expect_radius(value, p: int, nonneg: bool) -> dict:
    if p % 2 and not nonneg:
        return {"value": None, "path": "unsupported", "verdict": "unsupported"}
    return {"value": value, "path": _licensed_path(p), "verdict": orc.verdict(value)}


def _spectral(b: _Job, root: Path) -> None:
    rng = b.rng
    for k, (d, p) in enumerate(SIGNED_EVEN + NONNEG_ODD):
        signed = (d, p) in SIGNED_EVEN
        target = TARGETS[k % 2]
        probs, atoms = _atomic(rng, d, 3, signed, p, target)
        name = b.doc(f"atomic_{'signed' if signed else 'nonneg'}_{k}_d{d}_p{p}", atomic_doc(probs, atoms))
        expect = _expect_radius(target, p, not signed)
        b.group(b.query("p_radius", doc=name, p=p, expect=expect))
        b.group(b.query("check_mean_stability", doc=name, p=p, expect=expect))
    for d, p in SIGNED_ODD:
        probs, atoms = _atomic(rng, d, 3, True, 2, 0.9)
        name = b.doc(f"atomic_signed_d{d}_odd_p{p}", atomic_doc(probs, atoms))
        expect = _expect_radius(None, p, False)
        b.group(b.query("p_radius", doc=name, p=p, expect=expect))
        b.group(b.query("check_mean_stability", doc=name, p=p, expect=expect))
    for k, (d, p) in enumerate(BOXES):
        signed = p % 2 == 0
        lower, upper = _box(rng, d, signed, p, TARGETS[k % 2])
        name = b.doc(f"box_d{d}_p{p}", box_doc(lower, upper))
        expect = _expect_radius(TARGETS[k % 2], p, not signed)
        base = b.query("p_radius", doc=name, p=p, expect=expect)
        if p <= 2:
            b.group(base)
            b.group(b.query("check_mean_stability", doc=name, p=p, expect=expect))
            continue
        # the largest box lifts are also checked for homogeneity
        factor = float(rng.uniform(0.5, 0.9))
        scaled = b.doc(f"box_d{d}_p{p}_scaled", box_doc(lower * factor, upper * factor))
        b.group(base,
                b.query("p_radius", doc=scaled, p=p, expect={"path": expect["path"], "pair_of": base["id"],
                                                             "factor": factor}),
                b.query("check_mean_stability", doc=name, p=p, expect=expect))
    g = float(rng.uniform(1.0, 2.0))
    name = b.doc("scalar_uniform", box_doc([[0.0]], [[g]]))
    for p in SCALAR_P:
        value = orc.scalar_uniform_radius(g, p)
        b.group(b.query("p_radius", doc=name, p=p, expect=_expect_radius(value, p, True)))
    for signed, p, target in ((True, 2, 0.95), (False, 1, 1.05)):
        transition, modes = _markov(rng, 10, 4, signed, p, target)
        name = b.doc(f"markov_{'signed' if signed else 'nonneg'}", markov_doc(transition, modes))
        b.group(b.query("markov_stability", doc=name, p=p, expect=_expect_radius(target, p, True)))
        if signed:
            b.group(b.query("markov_stability", doc=name, p=1, expect=_expect_radius(None, 1, False)))
    atoms = rng.standard_normal((2, 4, 4))
    name = b.doc("jsr_pair", atomic_doc([0.5, 0.5], atoms))
    lower, upper = orc.jsr_bracket(atoms, JSR_DEPTH)
    b.group(b.query("jsr_bounds", doc=name, depth=JSR_DEPTH,
                    expect={"lower": lower, "upper": upper, "depth": JSR_DEPTH}))


# ---------------------------------------------------------------------------
# certify: certificate synthesis and exact / Monte Carlo validation
# ---------------------------------------------------------------------------

#: (d, first-mean radius) of the cone-norm laws; their synthesis and exact
#: validation are the cheapest queries, and seven of them put query_p50_s
#: inside the class of the exact validations of quadratic certificates
CONE_LAWS = ((2, 0.7), (3, 0.8), (4, 0.9), (2, 0.75), (3, 0.85), (5, 0.8), (5, 0.9))
R2_GRID = (0.9, 0.95, 0.99, 0.995, 0.999)
#: Monte Carlo validations all check a d=3 quadratic certificate, so that
#: they cost about the same and query_p90_s falls inside their class
MC_R2 = (0.95, 0.99, 0.995)


def _certify(b: _Job, root: Path) -> None:
    rng = b.rng

    def synth(api, name, p, validations=()):
        s = b.query(api, doc=name, p=p, expect={})
        b.group(s, *[b.query("validate_certificate", doc=name, cert_of=s["id"], mode=mode,
                             n_samples=MC_SAMPLES, expect={}) for mode in validations])

    for k, (d, target) in enumerate(CONE_LAWS):
        name = b.doc(f"nonneg_{k}_d{d}", atomic_doc(*_atomic(rng, d, 3, False, 1, target)))
        synth("synthesize_degree_p", name, 1, ("exact",))
    name = b.doc("box_nonneg_d3", box_doc(*_box(rng, 3, False, 1, 0.85)))
    synth("synthesize_degree_p", name, 1)
    for r2 in R2_GRID:
        name = b.doc(f"signed_d3_r{r2}", atomic_doc(*_atomic(rng, 3, 3, True, 2, r2)))
        synth("synthesize_quadratic", name, 2, ("exact", "mc") if r2 in MC_R2 else ("exact",))
    name = b.doc("box_signed_d3", box_doc(*_box(rng, 3, True, 2, 0.95)))
    synth("synthesize_degree_p", name, 2, ("mc",))
    for d, p in ((2, 4), (3, 4), (2, 6)):
        name = b.doc(f"signed_d{d}_p{p}", atomic_doc(*_atomic(rng, d, 3, True, p, 0.9)))
        synth("synthesize_degree_p", name, p, ("exact",))
    name = b.doc("signed_unstable", atomic_doc(*_atomic(rng, 3, 3, True, 2, 1.1)))
    b.group(b.query("synthesize_quadratic", doc=name, p=2, expect={"error": "InstabilityError"}))
    name = b.doc("signed_odd", atomic_doc(*_atomic(rng, 2, 3, True, 2, 0.8)))
    b.group(b.query("synthesize_degree_p", doc=name, p=3, expect={"error": "AssumptionError"}))


# ---------------------------------------------------------------------------
# simulate: Monte Carlo paths, CSV series and decay fits
# ---------------------------------------------------------------------------


def _simulate(b: _Job, root: Path) -> None:
    rng = b.rng
    plan = {"paths": SIM_PATHS, "horizon": SIM_HORIZON, "seed": int(rng.integers(2**32))}
    x0 = np.array([1.0, 0.5, -0.5])

    def exact(spec, weight, sigma0=None):
        return orc.exact_second_moments(spec, x0, orc.SERIES_CHECK_STEPS, weight, sigma0)

    probs, atoms = _atomic(rng, 3, 3, True, 2, 0.97)
    lower, upper = _box(rng, 3, True, 2, 0.95)
    iid = [("atomic_d3", atomic_doc(probs, atoms), {"type": "atomic", "probs": probs, "atoms": atoms}),
           ("box_d3", box_doc(lower, upper), {"type": "box", "lower": lower, "upper": upper})]
    for k, (name, doc, spec) in enumerate(iid):
        b.doc(name, doc)
        cert = b.certificates[name] = quadratic_certificate_doc(spec)
        expect = {"euclidean": exact(spec, np.eye(3)), "certificate": exact(spec, np.array(json.loads(cert)["H"]))}
        b.group(b.query("simulate_iid", doc=name, cert=name, x0=x0.tolist(), **plan,
                        series=["euclidean", "certificate"], determinism=k == 0, expect=expect))
    for k, target in enumerate((0.97, 0.9)):
        transition, modes = _markov(rng, 4, 3, True, 2, target)
        name = b.doc(f"markov_{k}", markov_doc(transition, modes, initial_mode=1))
        spec = {"type": "markov", "P": transition, "modes": modes}
        b.group(b.query("simulate_markov", doc=name, x0=x0.tolist(), **plan, series=["euclidean"],
                        determinism=False, expect={"euclidean": exact(spec, np.eye(3), sigma0=1)}))
        if k == 0:
            b.group(b.query("check_q_recursion", doc=name, x0=x0.tolist(), **plan, expect={}))


# ---------------------------------------------------------------------------
# cli: one `python -m switchstab.cli` process per query
# ---------------------------------------------------------------------------


def _cli(b: _Job, root: Path) -> None:
    rng = b.rng
    b.problems = {p.stem: p.read_text(encoding="utf-8") for p in sorted((root / "problems").glob("*.json"))}
    specs = {k: orc.parse_doc(v) for k, v in b.problems.items()}

    def run(*argv, code, check, reads=(), **expect):
        return b.query("cli", argv=list(argv), reads=list(reads),
                       expect={"code": code, "check": check, **expect})

    probs, atoms = _atomic(rng, 3, 3, True, 2, 0.9)
    b.doc("signed", atomic_doc(probs, atoms))
    signed = {"type": "atomic", "probs": probs, "atoms": atoms}
    probs, atoms = _atomic(rng, 2, 3, False, 1, 1.2)
    b.doc("unstable", atomic_doc(probs, atoms))
    perms = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    b.doc("marginal", atomic_doc([0.5, 0.5], perms))
    probs, atoms = _atomic(rng, 2, 3, False, 1, 0.8)
    b.doc("nonneg", atomic_doc(probs, atoms))
    nonneg = {"type": "atomic", "probs": probs, "atoms": atoms}
    transition, modes = _markov(rng, 3, 2, True, 2, 0.9)
    b.doc("markov", markov_doc(transition, modes))
    gen_markov = {"type": "markov", "P": transition, "modes": modes}
    lower = rng.uniform(0.0, 0.5, (3, 3))
    upper = lower + 0.1
    i, j = (int(v) for v in rng.integers(3, 2))
    upper[i, j] = lower[i, j] - 0.05
    b.invalid_documents["bad_box"] = box_doc(lower, upper)

    work, prob = "{work}", "{root}/problems"
    sim_seed = str(int(rng.integers(2**31)))
    x0 = np.array([1.0, 0.5, -0.5])
    b.group(run("pradius", "-i", f"{work}/signed.json", "-p", "2", code=0, check="radius",
                value=orc.rho_p(signed, 2), path="even_p"))
    b.group(run("pradius", "-i", f"{work}/signed.json", "-p", "3", code=4, check="radius", value=None,
                path="unsupported"))
    box = specs["interval_box"]
    b.group(run("stability", "-i", f"{prob}/interval_box.json", "-p", "1", code=0, check="stability",
                value=orc.rho_p(box, 1), verdict="stable"))
    b.group(run("stability", "-i", f"{work}/unstable.json", "-p", "1", code=2, check="stability",
                value=1.2, verdict="unstable"))
    b.group(run("stability", "-i", f"{work}/marginal.json", "-p", "2", code=3, check="stability",
                value=1.0, verdict="marginal"))
    cert = f"{work}/cert.json"
    sim_dir = f"{work}/sim"
    b.group(
        run("lyapunov", "-i", f"{work}/signed.json", "-p", "2", "--validate", "exact", "-o", cert,
            code=0, check="lyapunov", spec="signed"),
        run("validate", "--cert", cert, "-i", f"{work}/signed.json", "--mode", "exact", code=0,
            check="validate", spec="signed", reads=[cert]),
        run("simulate", "-i", f"{work}/signed.json", "--paths", "2000", "--horizon", "30", "--seed", sim_seed,
            "--x0", "1,0.5,-0.5", "--p", "2", "--cert", cert, "--threads", str(SIM_THREADS), "--out-dir", sim_dir,
            code=0, check="simulate", reads=[f"{sim_dir}/signed.euclidean.csv", f"{sim_dir}/signed.certificate.csv", cert],
            spec="signed", x0=x0.tolist()),
    )
    pair = specs["atomic_pair"]
    lo, up = orc.jsr_bracket(pair["atoms"], 8)
    b.group(run("jsr", "-i", f"{prob}/atomic_pair.json", "--depth", "8", code=0, check="jsr",
                lower=lo, upper=up, depth=8))
    lo, up = orc.jsr_bracket(nonneg["atoms"], 8)
    b.group(run("limit", "-i", f"{work}/nonneg.json", "--pmax", "6", "--csv", f"{work}/limit.csv", code=0,
                check="limit", entries=[[p, orc.rho_p(nonneg, p)] for p in range(1, 7)], lower=lo, upper=up))
    tm = specs["three_mode_markov"]
    b.group(run("markov", "-i", f"{prob}/three_mode_markov.json", "-p", "1", code=2, check="markov",
                value=orc.markov_radius(tm, 1), verdict="unstable"))
    closed = orc.markov_radius(orc.closed_loop(tm), 1)
    b.group(run("markov", "-i", f"{prob}/three_mode_markov.json", "-p", "1", "--closed-loop",
                code=orc.VERDICT_EXIT[orc.verdict(closed)], check="markov", value=closed, verdict=orc.verdict(closed)))
    b.group(run("markov", "-i", f"{work}/markov.json", "-p", "3", "--general-p", code=0, check="markov",
                value=orc.markov_radius(gen_markov, 3), verdict=None))
    b.group(run("simulate", "-i", f"{prob}/three_mode_markov.json", "--paths", "2000", "--horizon", "30",
                "--seed", sim_seed, "--x0", "1,0.5", "--sigma0", "1", "--p", "2", "--threads", str(SIM_THREADS),
                "--out-dir", sim_dir, code=0, check="simulate", reads=[f"{sim_dir}/three_mode_markov.euclidean.csv"],
                spec="three_mode_markov", x0=x0[:2].tolist(), sigma0=1))
    b.group(run("stability", "-i", f"{work}/bad_box.json", "-p", "1", code=1, check="schema",
                pointer=f"/distribution/upper/{i}/{j}"))
    b.group(run("pradius", "-i", f"{work}/signed.json", code=1, check="usage"))


PARTS = {"spectral": _spectral, "certify": _certify, "simulate": _simulate, "cli": _cli}


def build(workload: str, seed: int, root: Path) -> dict:
    """The job of a workload, or of a single part of one."""
    b = _Job(seed)
    for part in WORKLOADS.get(workload, (workload,)):
        PARTS[part](b, root)
    return b.job(workload, seed)
