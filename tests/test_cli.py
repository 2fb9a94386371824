import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchstab.linalg as linalg_module
from switchstab.cli import main
from switchstab.lyapunov import DEFAULT_VALIDATION_SEED
from switchstab.models import load_problem
from conftest import SESSION_ENV


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def docs(tmp_path):
    """Problem documents used across the CLI tests."""
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = p
        return p

    write(
        "box.json",
        {
            "type": "iid",
            "dim": 2,
            "distribution": {
                "kind": "uniform_entries",
                "lower": [[0, 0], [0, 0]],
                "upper": [[1.5, 1.8], [0.15, 1.2]],
            },
        },
    )
    write(
        "scalar.json",
        {
            "type": "iid",
            "dim": 1,
            "distribution": {"kind": "uniform_entries", "lower": [[0.0]], "upper": [[1.0]]},
        },
    )
    write(
        "unstable.json",
        {
            "type": "iid",
            "dim": 2,
            "distribution": {
                "kind": "atomic",
                "atoms": [{"p": 1.0, "M": [[2.0, 0.0], [0.0, 2.0]]}],
            },
        },
    )
    write(
        "marginal.json",
        {
            "type": "iid",
            "dim": 2,
            "distribution": {
                "kind": "atomic",
                "atoms": [{"p": 1.0, "M": [[1.0, 0.0], [0.0, 1.0]]}],
            },
        },
    )
    write(
        "signed.json",
        {
            "type": "iid",
            "dim": 2,
            "distribution": {
                "kind": "atomic",
                "atoms": [{"p": 1.0, "M": [[0.5, -0.2], [0.0, 0.5]]}],
            },
        },
    )
    write(
        "pair.json",
        {
            "type": "iid",
            "dim": 2,
            "distribution": {
                "kind": "atomic",
                "atoms": [
                    {"p": 0.5, "M": [[0.4, 0.2], [0.0, 0.3]]},
                    {"p": 0.5, "M": [[0.1, 0.0], [0.5, 0.2]]},
                ],
            },
        },
    )
    write(
        "markov.json",
        {
            "type": "markov",
            "dim": 2,
            "markov": {
                "P": [[0.3, 0.5, 0.2], [0.5, 0.3, 0.2], [0.2, 0.2, 0.6]],
                "modes": [
                    [[0.32, 0.49], [0.24, 0.33]],
                    [[0.53, 0.65], [0.75, 0.85]],
                    [[1.50, 0.51], [0.18, 0.69]],
                ],
                "inputs": [[-0.56, 0.39], [0.40, -1.70], [-0.37, -0.49]],
                "feedback": [0.36, 0.50],
                "initial_mode": 1,
            },
        },
    )
    write(
        "badrow.json",
        {
            "type": "markov",
            "dim": 1,
            "markov": {"P": [[0.4, 0.5], [0.5, 0.5]], "modes": [[[1.0]], [[0.5]]]},
        },
    )
    return paths


def test_pradius_reports_value_and_digest(capsys, docs):
    code, report = run(capsys, "pradius", "-i", str(docs["box.json"]), "-p", "1")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["command"] == "pradius"
    assert report["input_digest"].startswith("sha256:")
    assert report["results"]["value"] == pytest.approx(0.9454163456597993, rel=1e-9)
    assert report["results"]["assumption_path"] == "orthant_invariant"


def test_pradius_unsupported_exits_4(capsys, docs):
    code, report = run(capsys, "pradius", "-i", str(docs["signed.json"]), "-p", "3")
    assert code == 4
    assert report["results"]["value"] is None
    assert report["warnings"]


UNLICENSED_P = "assumptions not met: odd p without an orthant-invariant support"


@pytest.mark.parametrize("command", ["pradius", "stability", "markov"])
def test_a_signed_law_at_odd_p_reads_one_warning_in_every_command(capsys, docs, command):
    code, report = run(capsys, command, "-i", str(docs["signed.json"]), "-p", "3")
    assert code == 4
    assert report["warnings"] == [UNLICENSED_P]


def test_stability_exit_codes(capsys, docs):
    assert run(capsys, "stability", "-i", str(docs["scalar.json"]), "-p", "1")[0] == 0
    assert run(capsys, "stability", "-i", str(docs["unstable.json"]), "-p", "2")[0] == 2
    assert run(capsys, "stability", "-i", str(docs["marginal.json"]), "-p", "2")[0] == 3
    assert run(capsys, "stability", "-i", str(docs["signed.json"]), "-p", "3")[0] == 4


@pytest.mark.parametrize("crossover", [0, 48])
def test_permutation_law_exits_marginal_on_either_route(capsys, tmp_path, monkeypatch, crossover):
    monkeypatch.setattr(linalg_module, "CONE_CROSSOVER", crossover)
    atoms = [{"p": 0.5, "M": [[0, 1], [1, 0]]}, {"p": 0.5, "M": [[1, 0], [0, 1]]}]
    doc = {"type": "iid", "dim": 2, "distribution": {"kind": "atomic", "atoms": atoms}}
    path = tmp_path / "permutation.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report = run(capsys, "stability", "-i", str(path), "-p", "2")
    assert (code, report["results"]["verdict"]) == (3, "marginal")


def test_stability_report_contents(capsys, docs):
    code, report = run(capsys, "stability", "-i", str(docs["box.json"]), "-p", "1")
    assert code == 0
    assert report["results"]["verdict"] == "stable"
    assert report["results"]["cone_flags"]["orthant_invariant"] is True


def test_lyapunov_with_validation_and_output(capsys, docs, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, report = run(
        capsys,
        "lyapunov",
        "-i",
        str(docs["box.json"]),
        "-p",
        "1",
        "--validate",
        "mc:20000",
        "-o",
        str(cert_path),
    )
    assert code == 0
    cert = report["results"]["certificate"]
    assert cert["kind"] == "cone_norm"
    assert cert["gamma"] == pytest.approx(0.945416, abs=1e-5)
    assert report["results"]["validation"]["passed"] is True
    assert json.loads(cert_path.read_text(encoding="utf-8")) == cert


def test_lyapunov_unstable_exits_2(capsys, docs):
    code, report = run(capsys, "lyapunov", "-i", str(docs["unstable.json"]), "-p", "2")
    assert code == 2
    assert report["error"]["type"] == "InstabilityError"


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13])
def test_atomic_pair_cone_norm_at_every_odd_degree(capsys, p):
    # the atoms have zeros in different cells, so E[A^(kron p)] has zero
    # entries, but E[S_p(A)] > 0 and its Perron vector is the certificate
    path = PROBLEMS / "atomic_pair.json"
    code, report = run(capsys, "lyapunov", "-i", str(path), "-p", str(p), "--validate", "exact")
    assert code == 0
    induced = load_problem(path.read_text(encoding="utf-8")).expected_symmetric_power(p)
    gamma = report["results"]["certificate"]["gamma"]
    assert gamma == pytest.approx(float(np.max(np.abs(np.linalg.eigvals(induced)))), rel=1e-12)
    if p == 3:
        assert gamma == pytest.approx(0.07933580012153, abs=1e-14)
    validation = report["results"]["validation"]
    assert validation["passed"] is True
    assert validation["worst_margin"] <= 1.0 + 1e-9


def test_jsr_bracket_and_type_requirements(capsys, docs):
    code, report = run(capsys, "jsr", "-i", str(docs["pair.json"]), "--depth", "6")
    assert code == 0
    assert report["results"]["lower"] <= report["results"]["upper"]
    code, report = run(capsys, "jsr", "-i", str(docs["box.json"]), "--depth", "4")
    assert code == 4


def scalar_atoms_doc(tmp_path, values):
    path = tmp_path / "scalar_atoms.json"
    atoms = [{"p": 1.0 / len(values), "M": [[v]]} for v in values]
    doc = {"type": "iid", "dim": 1, "distribution": {"kind": "atomic", "atoms": atoms}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_jsr_and_limit_accept_large_scale_laws(capsys, tmp_path):
    # rho(P) = ||P|| here, so the two bounds differ by rounding only, which
    # at this scale is far above 1e-12 in absolute terms
    path = scalar_atoms_doc(tmp_path, [1.1e6, 3e5])
    code, report = run(capsys, "jsr", "-i", str(path), "--depth", "3")
    assert code == 0
    assert report["results"]["lower"] == pytest.approx(1.1e6, rel=1e-15)
    code, report = run(capsys, "limit", "-i", str(path), "--pmax", "4")
    assert code == 0
    assert report["results"]["jsr_reference"]["upper"] == pytest.approx(1.1e6, rel=1e-15)


def test_jsr_with_overflowing_products_exits_0(capsys, tmp_path):
    path = scalar_atoms_doc(tmp_path, [1e200, 0.5])
    code, report = run(capsys, "jsr", "-i", str(path), "--depth", "3")
    assert code == 0
    assert report["results"]["lower"] == pytest.approx(1e200, rel=1e-12)
    atoms = np.random.default_rng(0).standard_normal((2, 2, 2))
    for scale in (1e-70, 1e80):
        doc = {"type": "iid", "dim": 2, "distribution": {"kind": "atomic", "atoms": [
            {"p": 0.5, "M": (scale * m).tolist()} for m in atoms]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report = run(capsys, "jsr", "-i", str(path), "--depth", "6")
        assert code == 0
        assert 0 < report["results"]["lower"] <= report["results"]["upper"] < 2 * scale


def test_limit_writes_csv_and_json(capsys, docs, tmp_path):
    csv_path = tmp_path / "seq.csv"
    code, report = run(
        capsys, "limit", "-i", str(docs["scalar.json"]), "--pmax", "6", "--csv", str(csv_path)
    )
    assert code == 0
    entries = report["results"]["entries"]
    assert [p for p, _ in entries] == list(range(1, 7))
    values = [v for _, v in entries]
    assert values == sorted(values)
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "p,p_radius"
    assert len(lines) == 7
    # atomic inputs attach a reference bracket
    code, report = run(capsys, "limit", "-i", str(docs["pair.json"]), "--pmax", "4")
    assert code == 0
    assert report["results"]["jsr_reference"]["lower"] <= report["results"]["jsr_reference"]["upper"]


def test_limit_stopped_by_the_entry_cap_warns(capsys, docs, tmp_path, monkeypatch):
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "30")
    csv_path = tmp_path / "seq.csv"
    code, report = run(
        capsys, "limit", "-i", str(docs["box.json"]), "--pmax", "6", "--csv", str(csv_path)
    )
    assert code == 0
    assert report["warnings"] == ["sequence truncated by the lift entry cap"]
    entries = report["results"]["entries"]
    assert report["results"]["truncated"] is True
    assert 1 <= len(entries) < 6 and [p for p, _ in entries] == list(range(1, len(entries) + 1))
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines == ["p,p_radius", *(f"{p},{v!r}" for p, v in entries)]


def test_limit_even_only(capsys, docs):
    code, report = run(
        capsys, "limit", "-i", str(docs["signed.json"]), "--pmax", "6", "--even-only"
    )
    assert code == 0
    assert [p for p, _ in report["results"]["entries"]] == [2, 4, 6]


def test_markov_open_and_closed_loop(capsys, docs):
    code, report = run(capsys, "markov", "-i", str(docs["markov.json"]), "-p", "1")
    assert code == 2
    assert report["results"]["value"] == pytest.approx(1.221, abs=1e-3)
    assert report["results"]["verdict"] == "unstable"

    code, report = run(
        capsys, "markov", "-i", str(docs["markov.json"]), "-p", "1", "--closed-loop"
    )
    assert code == 0
    assert report["results"]["value"] < 1.0
    assert report["results"]["verdict"] == "stable"
    assert report["results"]["closed_loop"] is True


def test_markov_general_p(capsys, docs, tmp_path):
    """Every licensed p gets a verdict, equal to the full lift's value that
    --general-p reports without one; odd p with a negative entry exits 4."""
    markov = str(docs["markov.json"])
    for p, path, value in (("3", "orthant_invariant", 1.376552), ("4", "even_p", 1.420540)):
        code, report = run(capsys, "markov", "-i", markov, "-p", p)
        assert code == 2
        assert report["results"]["assumption_path"] == path
        assert report["results"]["verdict"] == "unstable"
        assert report["results"]["value"] == pytest.approx(value, abs=1e-6)
        code, general = run(capsys, "markov", "-i", markov, "-p", p, "--general-p")
        assert code == 0
        assert general["results"]["verdict"] is None
        assert general["warnings"]
        assert report["results"]["value"] == pytest.approx(general["results"]["value"], rel=1e-12)
    signed = json.loads(docs["markov.json"].read_text(encoding="utf-8"))
    signed["markov"]["modes"][0][0][1] = -0.49
    signed_path = tmp_path / "signed.json"
    signed_path.write_text(json.dumps(signed), encoding="utf-8")
    code, report = run(capsys, "markov", "-i", str(signed_path), "-p", "3")
    assert code == 4
    assert report["results"]["value"] is None
    assert report["warnings"] == [UNLICENSED_P]


def test_simulate_bit_identical_across_threads(capsys, docs, tmp_path):
    outs = []
    for threads, sub in ((1, "a"), (8, "b")):
        out_dir = tmp_path / sub
        code, report = run(
            capsys,
            "simulate",
            "-i",
            str(docs["scalar.json"]),
            "--paths",
            "20000",
            "--horizon",
            "10",
            "--seed",
            "42",
            "--x0",
            "1",
            "--p",
            "2",
            "--threads",
            str(threads),
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        outs.append((out_dir / "scalar.euclidean.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_markov_with_sigma0(capsys, docs, tmp_path):
    code, report = run(
        capsys,
        "simulate",
        "-i",
        str(docs["markov.json"]),
        "--paths",
        "500",
        "--horizon",
        "10",
        "--seed",
        "3",
        "--x0",
        "1,1",
        "--sigma0",
        "2",
        "--closed-loop",
        "--out-dir",
        str(tmp_path / "mk"),
    )
    assert code == 0
    assert (tmp_path / "mk" / "markov.euclidean.csv").exists()
    assert report["results"]["decay"]["rate"] < 1.0


def test_simulate_with_certificate_series(capsys, docs, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "lyapunov", "-i", str(docs["box.json"]), "-p", "1", "-o", str(cert_path))
    code, report = run(
        capsys,
        "simulate",
        "-i",
        str(docs["box.json"]),
        "--paths",
        "200",
        "--horizon",
        "30",
        "--seed",
        "7",
        "--x0",
        "0,1",
        "--cert",
        str(cert_path),
        "--out-dir",
        str(tmp_path / "sim"),
    )
    assert code == 0
    assert "certificate" in report["results"]["series"]
    assert (tmp_path / "sim" / "box.certificate.csv").exists()


def test_simulate_of_a_markov_system_ignores_the_certificate_with_a_warning(capsys, docs, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "lyapunov", "-i", str(docs["box.json"]), "-p", "1", "-o", str(cert_path))
    code, report = run(
        capsys, "simulate", "-i", str(PROBLEMS / f"{SYSTEM}.json"), "--paths", "10",
        "--horizon", "3", "--seed", "1", "--x0", "1,0", "--cert", str(cert_path),
        "--out-dir", str(tmp_path / "sim"),
    )
    assert code == 0
    assert report["warnings"] == ["certificate series are only produced for iid runs"]
    assert list(report["results"]["series"]) == ["euclidean"]


def test_simulate_with_overflowing_paths_warns_and_fits_no_decay(capsys, tmp_path):
    # every path of x -> 1e200 x overflows, leaving the decay fit one point
    law = scalar_atoms_doc(tmp_path, [1e200])
    code, report = run(
        capsys, "simulate", "-i", str(law), "--paths", "4", "--horizon", "3", "--seed", "1",
        "--x0", "1", "--out-dir", str(tmp_path / "sim"),
    )
    assert code == 0
    assert report["warnings"] == ["4 paths overflowed and were truncated"]
    assert report["results"]["series"]["euclidean"]["truncated_paths"] == 4
    assert report["results"]["decay"] is None


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lyapunov", "-p", "1", "--validate", "mc:1"], "mc sample count must be at least 2"),
        (["simulate", "--paths", "4", "--horizon", "3", "--seed", "1", "--x0", "1,zz"],
         "cannot parse --x0 '1,zz': could not convert string to float: 'zz'"),
    ],
)
def test_unusable_option_values_exit_1(capsys, docs, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, report = run(capsys, *argv, "-i", str(docs["pair.json"]))
    assert code == 1
    assert report["results"] is None
    assert report["error"] == {"type": "SwitchstabError", "message": message}


def test_validate_pass_and_fail(capsys, docs, tmp_path):
    cert_path = tmp_path / "good.json"
    run(capsys, "lyapunov", "-i", str(docs["box.json"]), "-p", "1", "-o", str(cert_path))
    code, report = run(
        capsys,
        "validate",
        "--cert",
        str(cert_path),
        "-i",
        str(docs["box.json"]),
        "--mode",
        "mc:20000",
    )
    assert code == 0
    assert report["results"]["passed"] is True

    bogus = tmp_path / "bogus.json"
    bogus.write_text(
        json.dumps({"degree": 1, "kind": "cone_norm", "f": [1.0, 1.0], "gamma": 0.9}),
        encoding="utf-8",
    )
    code, report = run(
        capsys, "validate", "--cert", str(bogus), "-i", str(docs["unstable.json"]), "--mode", "exact"
    )
    assert code == 2
    assert report["results"]["passed"] is False
    assert report["results"]["worst_margin"] == pytest.approx(2.0 / 0.9, rel=1e-6)


def test_schema_error_reports_pointer(capsys, docs):
    code, report = run(capsys, "stability", "-i", str(docs["badrow.json"]), "-p", "1")
    assert code == 1
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["pointer"] == "/markov/P/0"


def test_missing_file_exits_1(capsys, tmp_path):
    code, report = run(capsys, "pradius", "-i", str(tmp_path / "nope.json"), "-p", "1")
    assert code == 1


def test_resource_cap_exits_5(capsys, docs, monkeypatch):
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "8")
    code, report = run(capsys, "pradius", "-i", str(docs["box.json"]), "-p", "2")
    assert code == 5
    assert report["error"]["type"] == "DimensionCapError"


def test_lyapunov_cap_exits_5(capsys, docs, monkeypatch):
    # the stable pair certifies under the default cap; E[A kron A] has 16
    # entries, so a cap of 8 stops quadratic synthesis before any solve
    code, _ = run(capsys, "lyapunov", "-i", str(docs["pair.json"]), "-p", "2")
    assert code == 0
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "8")
    code, report = run(capsys, "lyapunov", "-i", str(docs["pair.json"]), "-p", "2")
    assert code == 5
    assert report["error"]["type"] == "DimensionCapError"


def test_validate_mc_cap_exits_5(capsys, docs, tmp_path, monkeypatch):
    cert_path = tmp_path / "cert.json"
    run(capsys, "lyapunov", "-i", str(docs["box.json"]), "-p", "1", "-o", str(cert_path))
    # 1000 draws of 2x2 are 4000 entries, above the 1002 x 2 test monomials
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "4000")
    argv = ["validate", "--cert", str(cert_path), "-i", str(docs["box.json"]), "--mode"]
    code, report = run(capsys, *argv, "mc:1000")
    assert code == 0
    assert report["results"]["passed"] is True
    code, report = run(capsys, *argv, "mc:1001")
    assert code == 5
    assert report["error"]["type"] == "DimensionCapError"


def test_degree_thirteen_cone_norm_validates_by_monte_carlo(capsys, tmp_path):
    # 2000 draws of V at 14 monomials per vector are 28,000 entries; on the
    # 2^13 Kronecker coordinates they would be 16,384,000, above the cap
    box = tmp_path / "box.json"
    box.write_text(json.dumps({
        "type": "iid",
        "dim": 2,
        "distribution": {
            "kind": "uniform_entries",
            "lower": [[0, 0], [0, 0]],
            "upper": [[0.6, 0.6], [0.15, 0.5]],
        },
    }), encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    code, _ = run(capsys, "lyapunov", "-i", str(box), "-p", "13", "-o", str(cert_path))
    assert code == 0
    code, report = run(
        capsys, "validate", "--cert", str(cert_path), "-i", str(box), "--mode", "mc:2000"
    )
    assert code == 0
    assert report["results"]["passed"] is True


def test_simulate_cap_exits_5(capsys, docs, tmp_path, monkeypatch):
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    argv = ["simulate", "-i", str(docs["scalar.json"]), "--horizon", "10", "--seed", "1",
            "--x0", "1", "--out-dir", str(tmp_path / "sim"), "--paths"]
    code, _ = run(capsys, *argv, "500")
    assert code == 0
    code, report = run(capsys, *argv, "501")  # 501 paths x one state at d = 1 and one norm
    assert code == 5
    assert report["results"] is None
    assert report["error"]["type"] == "DimensionCapError"
    assert "1002 entries" in report["error"]["message"]


def test_simulate_cap_counts_one_step_of_states_and_values(capsys, docs, tmp_path, monkeypatch):
    # d = 2: a step holds 2 states and a norm per path, at any horizon
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    argv = ["simulate", "-i", str(docs["pair.json"]), "--horizon", "100", "--seed", "1",
            "--x0", "1,0", "--out-dir", str(tmp_path / "sim"), "--paths"]
    code, _ = run(capsys, *argv, "333")
    assert code == 0
    code, report = run(capsys, *argv, "334")
    assert code == 5
    assert "1002 entries" in report["error"]["message"]


def test_jsr_stopped_by_the_entry_cap_warns(capsys, docs, monkeypatch):
    # two 2x2 atoms: length 4 holds 16 products (64 doubles), length 5 would hold 128
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "64")
    code, report = run(capsys, "jsr", "-i", str(docs["pair.json"]), "--depth", "8")
    assert code == 0
    assert report["results"]["truncated"] is True
    assert report["results"]["depth"] == 4
    assert report["warnings"] == [
        "enumeration stopped at depth 4 by the product budget or the lift entry cap;"
        " bracket is valid but coarser"
    ]


@pytest.mark.parametrize("command", ["lyapunov", "validate"])
def test_bad_mc_sample_count_names_the_option(capsys, docs, tmp_path, command):
    box = str(docs["box.json"])
    if command == "lyapunov":
        argv = ["lyapunov", "-i", box, "-p", "1", "--validate", "mc:abc"]
    else:
        cert_path = tmp_path / "cert.json"
        run(capsys, "lyapunov", "-i", box, "-p", "1", "-o", str(cert_path))
        argv = ["validate", "--cert", str(cert_path), "-i", box, "--mode", "mc:abc"]
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["error"]["type"] == "SwitchstabError"
    assert "mc:N" in report["error"]["message"]


@pytest.mark.parametrize("field", [{"degree": 5}, {"lift_power": 1.7}])
def test_validate_rejects_an_inconsistent_certificate(capsys, docs, tmp_path, field):
    cert_path = tmp_path / "cert.json"
    doc = {"degree": 2, "gamma": 0.5, "kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]]}
    cert_path.write_text(json.dumps({**doc, **field}), encoding="utf-8")
    code, report = run(capsys, "validate", "--cert", str(cert_path), "-i", str(docs["pair.json"]))
    assert code == 1
    assert report["results"] is None


@pytest.mark.parametrize(
    "text, error_type",
    [
        ('{"kind": "quadratic", "H": [[1, 0], [0, 1]]}', "ValueError"),
        ("[1, 2]", "ValueError"),
        (None, "FileNotFoundError"),
        ('{"kind": "cone_norm", "gamma": 0.1, "f": [Infinity, 1]}', "ValueError"),
        ('{"kind": "quadratic", "gamma": 0.5, "H": [[1, NaN], [NaN, 1]]}', "ValueError"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_unreadable_certificate_gets_one_error_report(capsys, docs, tmp_path, text, error_type, command):
    cert_path = tmp_path / "cert.json"
    if text is not None:
        cert_path.write_text(text, encoding="utf-8")
    argv = [command, "--cert", str(cert_path), "-i", str(docs["pair.json"])]
    if command == "simulate":
        argv += ["--paths", "10", "--horizon", "3", "--seed", "1", "--x0", "1,1",
                 "--out-dir", str(tmp_path / "sim")]
    code, report = run(capsys, *argv)  # json.loads fails unless stdout is one document
    assert code == 1
    assert report["results"] is None
    assert report["error"]["type"] == error_type
    assert report["error"]["message"]


def test_simulate_sigma0_outside_the_modes_exits_1(capsys, docs, tmp_path):
    code, report = run(
        capsys, "simulate", "-i", str(docs["markov.json"]), "--paths", "10", "--horizon", "3",
        "--seed", "1", "--x0", "1,1", "--sigma0", "4", "--out-dir", str(tmp_path / "mk"),
    )
    assert code == 1
    assert report["results"] is None
    assert "initial mode must lie in 1..3" in report["error"]["message"]


ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
LAW, SYSTEM = "atomic_pair", "three_mode_markov"
#: the arguments a command of the matrix below needs besides its own
REQUIRED = {
    "limit": "--csv limit.csv",
    "simulate": "--paths 10 --horizon 3 --seed 1 --x0 1,0",
    "validate": "--cert cert.json",
}

#: (document, command, exit code, error type or None): every command on a law
#: and on a Markov system. A law is the one-mode chain, so the radius
#: commands answer for both; certificates, jsr and a closed loop refuse what
#: they cannot do with the library's AssumptionError
EITHER_DOCUMENT = [
    (LAW, "pradius -p 2", 0, None),
    (SYSTEM, "pradius -p 2", 0, None),
    (LAW, "stability -p 2", 0, None),
    (SYSTEM, "stability -p 2", 2, None),
    (LAW, "limit --pmax 4", 0, None),
    (SYSTEM, "limit --pmax 4", 0, None),
    (LAW, "markov -p 2", 0, None),
    (SYSTEM, "markov -p 2", 2, None),
    (LAW, "markov -p 2 --general-p", 0, None),
    (SYSTEM, "markov -p 2 --general-p", 0, None),
    (LAW, "markov -p 2 --closed-loop", 4, "AssumptionError"),
    (SYSTEM, "markov -p 2 --closed-loop", 2, None),
    (LAW, "simulate", 0, None),
    (SYSTEM, "simulate", 0, None),
    (LAW, "simulate --closed-loop", 4, "AssumptionError"),
    (SYSTEM, "simulate --closed-loop", 0, None),
    (LAW, "lyapunov -p 2", 0, None),
    (SYSTEM, "lyapunov -p 2", 4, "AssumptionError"),
    (LAW, "jsr --depth 6", 0, None),
    (SYSTEM, "jsr --depth 6", 4, "AssumptionError"),
    (LAW, "validate", 0, None),
    (SYSTEM, "validate", 4, "AssumptionError"),
    (LAW, "validate --mode mc:100", 0, None),
    (SYSTEM, "validate --mode mc:100", 4, "AssumptionError"),
]


@pytest.mark.parametrize(
    "doc, command, code, error_type", EITHER_DOCUMENT,
    ids=[f"{doc}-{command}".replace(" ", "_") for doc, command, *_ in EITHER_DOCUMENT],
)
def test_each_command_on_either_document(capsys, tmp_path, monkeypatch, doc, command, code,
                                         error_type):
    monkeypatch.chdir(tmp_path)
    law = str(PROBLEMS / f"{LAW}.json")
    assert main(["lyapunov", "-i", law, "-p", "2", "-o", "cert.json"]) == 0
    capsys.readouterr()
    argv = command.split()
    argv += [*REQUIRED.get(argv[0], "").split(), "-i", str(PROBLEMS / f"{doc}.json")]
    assert main(argv) == code
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # fails unless stdout is one document
    assert "Traceback" not in captured.err
    assert report.get("error", {}).get("type") == error_type
    assert (report["results"] is None) == (error_type is not None)


def test_markov_on_a_law_reads_the_stability_radius(capsys):
    law = str(PROBLEMS / f"{LAW}.json")
    _, markov = run(capsys, "markov", "-i", law, "-p", "2")
    _, stability = run(capsys, "stability", "-i", law, "-p", "2")
    assert markov["results"]["value"] == stability["results"]["p_radius"]["value"]
    assert markov["results"]["verdict"] == stability["results"]["verdict"]


def test_limit_on_a_markov_system_lists_the_markov_radii(capsys, tmp_path):
    system = str(PROBLEMS / f"{SYSTEM}.json")
    argv = ["limit", "-i", system, "--even-only", "--pmax", "4", "--csv", str(tmp_path / "l.csv")]
    code, limit = run(capsys, *argv)
    assert code == 0 and limit["results"]["jsr_reference"] is None
    markov = [run(capsys, "markov", "-i", system, "-p", str(p))[1]["results"] for p in (2, 4)]
    assert limit["results"]["entries"] == [[r["p"], r["value"]] for r in markov]


#: ``python -m switchstab.cli ARGS`` that reports its loaded modules on
#: stderr at exit, after the command's own output
MODULE_DUMP = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('MODULES', *sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('switchstab.cli', run_name='__main__', alter_sys=True)\n"
)


def cli_process(*argv, cwd):
    """Exit code, stdout and the set of loaded modules of one CLI process."""
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [SESSION_ENV.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_DUMP, *map(str, argv)], cwd=cwd, capture_output=True,
        text=True, env=dict(SESSION_ENV, PYTHONPATH=path), timeout=120,
    )
    dump = [line for line in proc.stderr.splitlines() if line.startswith("MODULES ")]
    assert len(dump) == 1, proc.stderr
    return proc.returncode, proc.stdout, set(dump[0].split()[1:])


CERTIFICATES_AND_SIMULATORS = {"switchstab.lyapunov", "switchstab.mcsim", "concurrent.futures"}


@pytest.mark.spawns(job=lambda cwd, argv: cli_process(*argv, cwd=cwd))
@pytest.mark.parametrize(
    "argv",
    [
        ["pradius", "-i", PROBLEMS / "atomic_pair.json", "-p", "2"],
        ["stability", "-i", PROBLEMS / "interval_box.json", "-p", "1"],
        ["jsr", "-i", PROBLEMS / "atomic_pair.json", "--depth", "6"],
        ["limit", "-i", PROBLEMS / "atomic_pair.json", "--pmax", "4", "--csv", "limit.csv"],
        ["limit", "-i", PROBLEMS / "three_mode_markov.json", "--pmax", "4", "--csv", "limit.csv"],
        ["markov", "-i", PROBLEMS / "three_mode_markov.json", "-p", "1", "--closed-loop"],
        ["markov", "-i", PROBLEMS / "three_mode_markov.json", "-p", "2"],
        ["markov", "-i", PROBLEMS / "three_mode_markov.json", "-p", "4"],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[2].stem}-{'-'.join(map(str, argv[3:5]))}",
)
def test_radius_commands_load_no_certificate_or_simulator_module(spawned, argv):
    code, out, modules = spawned
    assert code in (0, 2, 3)
    assert json.loads(out)["results"] is not None
    assert "switchstab.radius" in modules
    assert not modules & CERTIFICATES_AND_SIMULATORS


@pytest.mark.spawns(job=lambda cwd: cli_process("pradius", "-i", "X", cwd=cwd))
def test_usage_error_loads_no_numpy(spawned):
    code, out, modules = spawned
    assert code == 1
    report = json.loads(out)  # one document, nothing after it
    assert report["command"] == "(usage)"
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("switchstab")} == {"switchstab", "switchstab.errors"}


def certificate_chain(cwd):
    """lyapunov writes c.json; validate reads it exactly and by Monte Carlo;
    simulate runs without it and with it: five processes, in this order."""
    pair = PROBLEMS / "atomic_pair.json"
    simulate = ["simulate", "-i", pair, "--paths", "10", "--horizon", "3", "--seed", "1", "--x0", "1,0"]
    return [
        cli_process(*argv, cwd=cwd)
        for argv in (
            ["lyapunov", "-i", pair, "-p", "2", "--validate", "exact", "-o", "c.json"],
            ["validate", "--cert", "c.json", "-i", pair],
            ["validate", "--cert", "c.json", "-i", pair, "--mode", "mc:100"],
            [*simulate, "--out-dir", "sim"],
            [*simulate, "--cert", "c.json", "--out-dir", "sim"],
        )
    ]


@pytest.mark.spawns(job=certificate_chain)
def test_exact_certificate_commands_sample_nothing_and_simulate_does(spawned):
    lyapunov, validate, validate_mc, simulate, simulate_with_cert = spawned
    code, _, modules = lyapunov
    assert code == 0 and "switchstab.lyapunov" in modules and "switchstab.mcsim" not in modules
    code, _, modules = validate
    assert code == 0 and "switchstab.mcsim" not in modules
    assert "switchstab.radius" not in modules
    code, _, modules = validate_mc
    assert code == 0 and "switchstab.mcsim" in modules
    code, _, modules = simulate
    assert code == 0 and "switchstab.mcsim" in modules
    assert not modules & {"switchstab.lyapunov", "switchstab.radius", "concurrent.futures"}
    code, _, modules = simulate_with_cert
    assert code == 0 and "switchstab.lyapunov" in modules
    assert not modules & {"switchstab.radius", "concurrent.futures"}


@pytest.mark.spawns(
    job=lambda cwd: cli_process(
        "simulate", "-i", PROBLEMS / "three_mode_markov.json", "--paths", "10", "--horizon", "3",
        "--seed", "1", "--x0", "1,0", "--out-dir", "sim", cwd=cwd,
    )
)
def test_markov_simulation_loads_no_certificate_or_radius_module(spawned):
    code, out, modules = spawned
    assert code == 0 and json.loads(out)["results"]["series"]
    assert "switchstab.mcsim" in modules
    assert not modules & {"switchstab.lyapunov", "switchstab.radius"}


def test_validation_seed_defaults_to_the_library_seed(capsys, docs):
    argv = ["lyapunov", "-i", str(docs["box.json"]), "-p", "1", "--validate", "mc:200"]
    _, default = run(capsys, *argv)
    _, given = run(capsys, *argv, "--seed", str(DEFAULT_VALIDATION_SEED))
    _, other = run(capsys, *argv, "--seed", str(DEFAULT_VALIDATION_SEED + 1))
    assert default["results"] == given["results"] != other["results"]
