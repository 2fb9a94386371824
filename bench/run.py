"""Seeded closed-loop benchmark of switchstab.

Usage (from the repository root)::

    python3 bench/run.py --workload spectral-certify --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

One run builds the workload's inputs from the seed, starts fresh
interpreters to time set-up, then lets one worker process answer the
workload's queries one at a time for ``--seconds`` of query time. Every
answer is checked against the numpy oracles in ``oracles.py``. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced rounds alternate and the metrics
are the per-layer ones. The line before it records the
machine, the thread settings and the sample counts. ``--workload all``
runs every workload both ways and prints one line per metric.
"""

from __future__ import annotations

import os

#: BLAS thread pools are pinned to one thread in this process and in every
#: workload process: two-thread OpenBLAS stalls for tenths of a second on
#: small eigenvalue problems now and then
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import HARD_CAP  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh interpreters timed to "ready"; the last one goes on to run the queries
SETUP_STARTS = 11
#: end-to-end runs keep going past --seconds until p90 has ten samples beyond it
MIN_QUERIES = 100
#: the worker stops itself between rounds once HARD_CAP x --seconds have
#: passed; this is how long one more round may take before it is killed
ROUND_MARGIN = 120.0

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = {"trace.overhead_frac": "ratio", "failed_frac": "ratio", "trace.absent": "count"}


def per_layer_units() -> dict[str, str]:
    return tracer.metric_units() | PER_LAYER_EXTRA


class Run:
    """One workload run: its job files, its worker and its processes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        work_root = HERE / ".work"
        work_root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.job = workloads.build(workload, seed, ROOT)
        self.job_path = self.work / "job.json"

    def start(self, mode: str) -> tuple[subprocess.Popen, float]:
        """A fresh worker interpreter and its time to "ready"."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(self.job_path), mode],
                                cwd=self.work, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RuntimeError(f"{self.workload} worker did not get ready (exit {proc.wait(30)})")
        except BaseException:
            _stop(proc)
            raise
        return proc, ready

    def execute(self) -> tuple[dict, list[float]]:
        out = self.work / "out.json"
        job = dict(self.job, seconds=self.seconds, trace=self.trace, min_queries=MIN_QUERIES, out=str(out))
        self.job_path.write_text(json.dumps(job), encoding="utf-8")
        for name, text in (self.job["documents"] | self.job["invalid_documents"]).items():
            (self.work / f"{name}.json").write_text(text, encoding="utf-8")
        # set-up-only starts before and after the worker sample the machine
        # at both ends of the run
        extra = 0 if self.trace else SETUP_STARTS - 1
        setup = self.setup_only(extra // 2)
        proc, ready = self.start("run")
        setup.append(ready)
        try:
            code = proc.wait(timeout=HARD_CAP * self.seconds + ROUND_MARGIN)
        finally:
            _stop(proc)
        if code != 0:
            raise RuntimeError(f"{self.workload} worker exited with {code}")
        setup += self.setup_only(extra - extra // 2)
        return json.loads(out.read_text(encoding="utf-8")), setup

    def setup_only(self, count: int) -> list[float]:
        times = []
        for _ in range(count):
            proc, ready = self.start("setup")
            _stop(proc, timeout=ROUND_MARGIN)
            times.append(ready)
        return times

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _stop(proc: subprocess.Popen, timeout: float = 0.0) -> None:
    """End a worker: give it ``timeout`` seconds to finish, then kill it; reap it either way."""
    try:
        if timeout:
            proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stdout:
            proc.stdout.close()


def check(job: dict, phases: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons) over every answer of every phase."""
    specs = {name: oracles.parse_doc(text) for name, text in job["documents"].items()}
    specs.update({name: oracles.parse_doc(text) for name, text in job["problems"].items()})
    queries = {q["id"]: q for q in job["queries"]}
    cache: dict[str, str] = {}
    attempted, failed, reasons = 0, 0, []
    for phase in phases:
        same_round, current = {}, None
        for item in phase["answers"]:
            if item["round"] != current:
                same_round, current = {}, item["round"]
            q, answer = queries[item["id"]], item["answer"]
            dep = q.get("cert_of", q["expect"].get("pair_of"))
            key = json.dumps([q["id"], answer, same_round.get(dep)], sort_keys=True)
            if key not in cache:
                cache[key] = oracles.check_answer(q, answer, same_round, specs)
            same_round[q["id"]] = answer
            attempted += 1
            if cache[key]:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"query {q['id']} ({q['api']}): {cache[key]}")
    return attempted, failed, reasons


def end_to_end(out: dict, setup: list[float]) -> dict[str, float]:
    phase = out["phases"][0]
    times = phase["times"]
    return {
        "setup_s": statistics.median(setup),
        "query_p50_s": statistics.median(times),
        "query_p90_s": statistics.quantiles(times, n=10)[8],
        "queries_per_s": len(times) / phase["busy"],
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }


def per_layer(out: dict, attempted: int, failed: int) -> dict[str, float]:
    snap = out["trace"]
    plain, traced = out["phases"]
    values = tracer.layer_metrics(snap, traced["rounds"])
    values["cli.import_s"] = statistics.median(snap["import_s"])
    values["cli.stdout_bytes"] = snap["stdout_bytes"] / traced["rounds"]
    rate = [len(p["times"]) / p["busy"] for p in (plain, traced)]
    values["trace.overhead_frac"] = 1.0 - rate[1] / rate[0]
    values["failed_frac"] = failed / attempted
    values["trace.absent"] = float(len(snap["absent"]))
    return values


def machine(workload: str, seed: int) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS} | {"simulation": workloads.SIM_THREADS},
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    run = Run(workload, seed, seconds, trace)
    try:
        out, setup = run.execute()
    finally:
        run.close()
    attempted, failed, reasons = check(run.job, out["phases"])
    if trace:
        values, units = per_layer(out, attempted, failed), per_layer_units()
    else:
        values, units = end_to_end(out, setup), END_TO_END
    info = machine(workload, seed) | {
        "samples": [len(p["times"]) for p in out["phases"]],
        "rounds": [p["rounds"] for p in out["phases"]],
        "setup_samples": setup,
        "failures": reasons,
        "absent": (out["trace"] or {}).get("absent", []),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "switchstab" / "__init__.py").is_file():
        print(f"error: no switchstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, info = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"info": info}))
        print(json.dumps(result))
        return 0
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, info = run_one(workload, args.seed, args.seconds, trace)
            print(f"# {workload} trace={int(trace)} attempted={result['attempted']} failed={result['failed']} "
                  f"samples={info['samples']} {json.dumps(info['failures'])}")
            for name, metric in result["metrics"].items():
                print(f"{workload}\t{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(json.dumps({"info": machine("all", args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
