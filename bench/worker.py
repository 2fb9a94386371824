"""One workload process: set up, then answer queries in a closed loop.

Usage: ``python worker.py JOB.json setup|run``. The process imports
switchstab, loads every problem document of the job and prints ``ready``
(the end of set-up). In ``setup`` mode it then exits. In ``run`` mode it
repeats the job's query list, one query at a time, until the run's query
time is spent, and writes the timings and encoded answers to the job's
``out`` path. A traced run alternates untraced and traced rounds.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracer as trace_mod

HERE = Path(__file__).resolve().parent

#: closed-loop runs stop after this many times the phase length even when
#: fewer than ``min_queries`` have completed
HARD_CAP = 3.0


class Session:
    """Loaded problems plus the answers earlier queries of a round left."""

    def __init__(self, ss, job: dict, work: Path):
        self.ss = ss
        self.job = job
        self.work = work
        self.slots: dict[int, object] = {}
        self.tracer = None
        self.traces: list[dict] = []
        self.load()

    def load(self) -> None:
        """Parse every problem document and certificate of the job."""
        ss, job = self.ss, self.job
        self.problems = {name: ss.load_problem(text) for name, text in job["documents"].items()}
        self.certificates = {
            name: ss.certificate_from_dict(json.loads(text)) for name, text in job["certificates"].items()
        }

    # -- queries --------------------------------------------------------------

    def plan(self, q: dict):
        return self.ss.SimulationPlan(paths=q["paths"], horizon=q["horizon"], seed=q["seed"],
                                      initial_state=q["x0"], moment_exponent=2)

    def call(self, q: dict, threads: int | None = None):
        """Run one query; this is the timed part."""
        ss, api = self.ss, q["api"]
        threads = self.job["threads"] if threads is None else threads
        if api == "p_radius":
            return ss.p_radius(self.problems[q["doc"]], q["p"])
        if api == "check_mean_stability":
            return ss.check_mean_stability(self.problems[q["doc"]], q["p"])
        if api == "markov_stability":
            return ss.markov_stability(self.problems[q["doc"]], q["p"])
        if api == "jsr_bounds":
            return ss.jsr_bounds(self.problems[q["doc"]].atoms, depth=q["depth"])
        if api == "synthesize_quadratic":
            return ss.synthesize_quadratic(self.problems[q["doc"]])
        if api == "synthesize_degree_p":
            return ss.synthesize_degree_p(self.problems[q["doc"]], q["p"])
        if api == "validate_certificate":
            return ss.validate_certificate(self.slots[q["cert_of"]], self.problems[q["doc"]],
                                           mode=q["mode"], n_samples=q["n_samples"])
        if api in ("simulate_iid", "simulate_markov"):
            # a simulation query also writes each series and fits the decay rate
            if api == "simulate_iid":
                sim = ss.simulate_iid(self.problems[q["doc"]], self.plan(q),
                                      certificate=self.certificates[q["cert"]], threads=threads)
            else:
                sim = ss.simulate_markov(self.problems[q["doc"]], self.plan(q), threads=threads)
            for name in q["series"]:
                ss.write_moment_csv(self.csv_path(q, f"{name}_{threads}"), getattr(sim, name))
            return sim, ss.estimate_decay_rate(getattr(sim, q["series"][-1]))
        if api == "check_q_recursion":
            return ss.check_q_recursion(self.problems[q["doc"]], self.plan(q))
        if api == "cli":
            return self.cli(q)
        raise ValueError(f"unknown query api {api!r}")

    def csv_path(self, q: dict, tag: str) -> Path:
        return self.work / f"q{q['id']}_{tag}.csv"

    def resolve(self, args: list[str]) -> list[str]:
        root = str(HERE.parent)
        return [a.replace("{work}", str(self.work)).replace("{root}", root) for a in args]

    def cli(self, q: dict):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "switchstab.cli", *self.resolve(q["argv"])]
            env = os.environ
        else:
            out = self.work / f"trace_{q['id']}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *self.resolve(q["argv"])]
            env = dict(os.environ, BENCH_TRACE_OUT=str(out))
        return subprocess.run(cmd, cwd=self.work, env=env, capture_output=True, text=True, timeout=120)

    # -- encoding (untimed) ---------------------------------------------------

    def encode(self, q: dict, result) -> dict:
        api = q["api"]
        if api == "cli":
            files = [Path(p) for p in self.resolve(q["reads"])]
            answer = {"code": result.returncode, "stdout": result.stdout,
                      "files": [p.read_text(encoding="utf-8") if p.exists() else None for p in files]}
            if self.tracer is not None:
                trace_file = self.work / f"trace_{q['id']}.json"
                if trace_file.exists():
                    self.traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
                    trace_file.unlink()
            return answer
        if api in ("synthesize_quadratic", "synthesize_degree_p"):
            self.slots[q["id"]] = result
            return {"certificate": self.ss.certificate_to_dict(result)}
        if api in ("simulate_iid", "simulate_markov"):
            sim, decay = result
            threads = self.job["threads"]
            answer = {"decay": decay.to_dict(), "series": {}, "csv": {}}
            for name in q["series"]:
                series = getattr(sim, name)
                answer["series"][name] = {"means": series.means.tolist(), "stderrs": series.stderrs.tolist()}
                answer["csv"][name] = self.csv_path(q, f"{name}_{threads}").read_text(encoding="utf-8")
            if q.get("determinism"):
                answer["threads_identical"] = self.same_bytes(q)
            return answer
        return result.to_dict()

    def same_bytes(self, q: dict) -> bool:
        """Rerun at one thread and compare the CSV bytes of every series."""
        self.call(q, threads=1)
        return all(self.csv_path(q, f"{name}_1").read_bytes()
                   == self.csv_path(q, f"{name}_{self.job['threads']}").read_bytes() for name in q["series"])

    # -- closed loop ----------------------------------------------------------

    def round(self, phase: dict) -> None:
        """Answer every query of the list once, in order."""
        self.slots.clear()
        if self.tracer is not None:
            self.load()  # one traced set-up per round
        for q in self.job["queries"]:
            if self.tracer is not None:
                self.tracer.query_self = 0.0
            t0 = time.perf_counter()
            try:
                result = self.call(q)
                error = None
            except self.ss.SwitchstabError as exc:
                error = type(exc).__name__
            except Exception as exc:  # a crash is a failed answer, not a dead run
                error = f"unexpected {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            phase["busy"] += elapsed
            phase["times"].append(elapsed)
            if self.tracer is not None:
                phase["query_self"].append(self.tracer.query_self)
                self.tracer.enabled = False
            try:
                answer = {"error": error} if error else self.encode(q, result)
            except Exception as exc:  # noqa: BLE001 - reported as a failed answer
                answer = {"error": f"unexpected {type(exc).__name__} while reading the answer: {exc}"}
            if self.tracer is not None:
                self.tracer.enabled = True
            phase["answers"].append({"id": q["id"], "round": phase["rounds"], "answer": answer})
        phase["rounds"] += 1

    def run(self, seconds: float, min_queries: int, tracer=None) -> list[dict]:
        """Whole rounds of the query list until ``seconds`` of query time
        and ``min_queries`` queries are done. With a tracer, rounds alternate
        between untraced and traced, so that both halves see the same
        machine, and each half gets half the time."""
        phases = [{"traced": traced, "times": [], "answers": [], "query_self": [], "busy": 0.0, "rounds": 0}
                  for traced in ((False, True) if tracer else (False,))]
        share = seconds / len(phases)
        start = time.perf_counter()
        while True:
            for phase in phases:
                self.tracer = tracer.install() if phase["traced"] else None
                try:
                    self.round(phase)
                finally:
                    if self.tracer is not None:
                        self.tracer.uninstall()
                        self.tracer = None
            done = sum(len(p["times"]) for p in phases) >= min_queries
            if time.perf_counter() - start >= HARD_CAP * seconds or (
                    done and all(p["busy"] >= share for p in phases)):
                return phases


def main() -> int:
    job_path, mode = Path(sys.argv[1]), sys.argv[2]
    job = json.loads(job_path.read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import switchstab as ss

    import_s = time.perf_counter() - t0
    session = Session(ss, job, job_path.parent)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    if job["trace"]:
        tracer = trace_mod.Tracer()
        phases = session.run(job["seconds"], 0, tracer)
        merged = trace_mod.merge([tracer.snapshot()] + session.traces)
        merged["import_s"] = [t["import_s"] for t in session.traces] or [import_s]
        merged["stdout_bytes"] = sum(len(a["answer"].get("stdout", "").encode()) for a in phases[1]["answers"])
    else:
        phases = session.run(job["seconds"], job["min_queries"])
        merged = None
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {"phases": phases, "trace": merged, "peak_rss_kb": peak}
    Path(job["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
