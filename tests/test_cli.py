import json

import numpy as np
import pytest

import switchstab.linalg as linalg_module
from switchstab.cli import main


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


def test_jsr_with_overflowing_products_exits_1(capsys, tmp_path):
    path = scalar_atoms_doc(tmp_path, [1e200, 0.5])
    code, report = run(capsys, "jsr", "-i", str(path), "--depth", "3")
    assert code == 1
    assert report["error"]["type"] == "LinAlgError"


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


def test_markov_general_p(capsys, docs):
    code, report = run(capsys, "markov", "-i", str(docs["markov.json"]), "-p", "3")
    assert code == 1  # fenced without the flag
    code, report = run(
        capsys, "markov", "-i", str(docs["markov.json"]), "-p", "3", "--general-p"
    )
    assert code == 0
    assert report["results"]["verdict"] is None
    assert report["warnings"]


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
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    argv = ["validate", "--cert", str(cert_path), "-i", str(docs["box.json"]), "--mode"]
    code, report = run(capsys, *argv, "mc:250")  # 250 draws of 2x2: 1000 entries
    assert code == 0
    assert report["results"]["passed"] is True
    code, report = run(capsys, *argv, "mc:251")
    assert code == 5
    assert report["error"]["type"] == "DimensionCapError"


def test_simulate_cap_exits_5(capsys, docs, tmp_path, monkeypatch):
    monkeypatch.setenv("SWITCHSTAB_MAX_LIFT_ENTRIES", "1000")
    argv = ["simulate", "-i", str(docs["scalar.json"]), "--horizon", "10", "--seed", "1",
            "--x0", "1", "--out-dir", str(tmp_path / "sim"), "--paths"]
    code, _ = run(capsys, *argv, "90")
    assert code == 0
    code, report = run(capsys, *argv, "100")  # 100 paths x 11 states x d = 1
    assert code == 5
    assert report["results"] is None
    assert report["error"]["type"] == "DimensionCapError"
    assert "1100 entries" in report["error"]["message"]


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


def test_wrong_problem_type_exits_1(capsys, docs):
    code, _ = run(capsys, "markov", "-i", str(docs["box.json"]), "-p", "1")
    assert code == 1
    code, _ = run(capsys, "pradius", "-i", str(docs["markov.json"]), "-p", "1")
    assert code == 1


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
