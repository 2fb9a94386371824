"""The tracer wraps every binding, survives missing names, and its self
times add up to each query's wall time."""

import json
import subprocess
import sys

import pytest
import switchstab as ss

import run
import tracer as trace_mod
import workloads
from conftest import BENCH, ROOT
from worker import Session


@pytest.fixture
def installed():
    tracer = trace_mod.Tracer().install()
    yield tracer
    tracer.uninstall()


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_binding_is_wrapped_and_restored(installed):
    assert ss.radius.spectrum is ss.linalg.spectrum
    assert ss.lyapunov.p_radius is ss.radius.p_radius is ss.p_radius
    assert ss.mcsim.markov_tp is ss.radius.markov_tp
    assert ss.radius.spectrum.__wrapped__ is not ss.radius.spectrum
    assert installed.absent == []
    installed.uninstall()
    assert not hasattr(ss.radius.spectrum, "__wrapped__")
    assert not hasattr(ss.AtomicDistribution.expected_kron_power, "__wrapped__")


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(ss.radius, "limit_sequence")
    tracer = trace_mod.Tracer().install()
    try:
        assert tracer.absent == ["radius.limit_sequence"]
        values = trace_mod.layer_metrics(tracer.snapshot())
        assert values["radius.limit_sequence.calls"] == 0.0
    finally:
        tracer.uninstall()


def test_self_times_sum_to_query_wall_time(tmp_path):
    job = workloads.build("certify", 3, ROOT)
    plain, traced = Session(ss, job, tmp_path).run(0.0, 0, trace_mod.Tracer())
    overhead = 1.0 - (len(traced["times"]) / traced["busy"]) / (len(plain["times"]) / plain["busy"])
    for wall, own in zip(traced["times"], traced["query_self"]):
        assert own <= wall
        assert wall - own <= max(overhead, 0.0) * wall + 1e-3


def test_errors_are_counted_once_per_module(tmp_path, installed):
    job = workloads.build("certify", 3, ROOT)
    job["queries"] = [q for q in job["queries"] if "error" in q["expect"]]
    Session(ss, job, tmp_path).run(0.0, 0)
    assert installed.errors == {"lyapunov": 2}


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "simulate-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "simulate-cli", "--seed", "2",
                           "--seconds", "1", "--trace", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_units())
    assert result["metrics"]["mcsim.path_steps"]["value"] > 0
