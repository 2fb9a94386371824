"""Command-line front-end: problem files in, machine-readable reports out.

Every run prints one JSON report on stdout (schema_version, command echo,
input digest, results, warnings); CSV series go to sidecar files. Exit
codes: 0 ok/stable, 1 I/O or schema, 2 unstable or violated claim,
3 marginal, 4 assumptions not met, 5 resource cap, 6 solver failure.
"""

# Only the parser and the error types load with this module (its docstring
# is the --help text). Each command imports the modules it runs, so a usage
# error never imports numpy and pradius never imports the simulators.

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    EXIT_ASSUMPTIONS,
    EXIT_IO,
    EXIT_MARGINAL,
    EXIT_OK,
    EXIT_UNSTABLE,
    AssumptionError,
    SwitchstabError,
)

SCHEMA_VERSION = 1

#: exit code of each ``radius.Verdict`` value
_VERDICT_EXIT = {
    "stable": EXIT_OK,
    "unstable": EXIT_UNSTABLE,
    "marginal": EXIT_MARGINAL,
    "unsupported": EXIT_ASSUMPTIONS,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for
    # "unstable"; remap to the I/O code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(message)


class SystemExit_(Exception):
    def __init__(self, message):
        super().__init__(message)


def _digest(path: Path) -> str:
    import hashlib

    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _report(command: str, argv, digest: str | None, results, warnings) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "argv": list(argv),
        "input_digest": digest,
        "results": results,
        "warnings": warnings,
    }


def _load(path: Path):
    from . import models

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SwitchstabError(f"cannot read {path}: {exc}") from exc
    return models.load_problem(text)


def _need_distribution(problem, command: str):
    from .models import MatrixDistribution

    if not isinstance(problem, MatrixDistribution):
        raise SwitchstabError(f"'{command}' expects an iid problem document")
    return problem


def _need_markov(problem, command: str):
    from .models import MarkovJumpSystem

    if not isinstance(problem, MarkovJumpSystem):
        raise SwitchstabError(f"'{command}' expects a markov problem document")
    return problem


def _parse_mode(text: str) -> tuple[str, int]:
    if text == "exact":
        return "exact", 0
    if text.startswith("mc:") and text[3:].isdecimal():
        n = int(text[3:])
        if n < 2:
            raise SwitchstabError("mc sample count must be at least 2")
        return "mc", n
    raise SwitchstabError(f"unknown validation mode {text!r}; use exact or mc:N")


def _seed(args) -> dict:
    """``seed=`` for ``validate_certificate`` when ``--seed`` is given; its
    own default seed otherwise."""
    return {} if args.seed is None else {"seed": args.seed}


def _parse_x0(text: str):
    import numpy as np

    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise SwitchstabError(f"cannot parse --x0 {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="switchstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("-i", "--input", required=True, type=Path, help="problem JSON file")
        return cmd

    cmd = add("pradius", "p-radius of an iid law")
    cmd.add_argument("-p", type=int, required=True)

    cmd = add("stability", "p-th mean stability verdict")
    cmd.add_argument("-p", type=int, required=True)

    cmd = add("lyapunov", "synthesize a degree-p certificate")
    cmd.add_argument("-p", type=int, required=True)
    cmd.add_argument("--validate", metavar="MODE", help="also validate: exact or mc:N")
    cmd.add_argument("--seed", type=int)
    cmd.add_argument("-o", "--out", type=Path, help="also write the certificate JSON here")

    cmd = add("jsr", "joint-spectral-radius bracket of an atomic support")
    cmd.add_argument("--depth", type=int, default=8)

    cmd = add("limit", "p-radius sequence for p = 1..pmax")
    cmd.add_argument("--pmax", type=int, required=True)
    cmd.add_argument("--even-only", action="store_true")
    cmd.add_argument("--csv", type=Path, help="sidecar CSV path (default: <input>.limit.csv)")

    cmd = add("markov", "Markovian p-radius and verdict (even p, or odd p with nonnegative modes)")
    cmd.add_argument("-p", type=int, required=True)
    cmd.add_argument("--closed-loop", action="store_true", help="apply the stored feedback first")
    cmd.add_argument(
        "--general-p", action="store_true",
        help="report rho(T_p)^(1/p) of the full N d^p lift instead, with no verdict",
    )

    cmd = add("simulate", "Monte Carlo sample paths and moment series")
    cmd.add_argument("--paths", type=int, required=True)
    cmd.add_argument("--horizon", type=int, required=True)
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--x0", required=True, help="comma-separated initial state")
    cmd.add_argument("--p", type=int, default=1, help="moment exponent")
    cmd.add_argument("--cert", type=Path, help="certificate JSON for a second series")
    cmd.add_argument("--sigma0", type=int, help="initial mode (Markov runs)")
    cmd.add_argument(
        "--threads", type=int, default=1,
        help="accepted and not used: a simulation runs on one thread, with the same output",
    )
    cmd.add_argument("--out-dir", type=Path, default=Path("."))
    cmd.add_argument("--closed-loop", action="store_true")

    cmd = add("validate", "check a certificate against a law")
    cmd.add_argument("--cert", type=Path, required=True)
    cmd.add_argument("--mode", default="exact", help="exact or mc:N")
    cmd.add_argument("--seed", type=int)

    return parser


def _cmd_pradius(args, warnings):
    from . import radius

    dist = _need_distribution(_load(args.input), "pradius")
    result = radius.p_radius(dist, args.p)
    if result.assumption_path is radius.AssumptionPath.UNSUPPORTED:
        warnings.append("assumptions not met: odd p without an orthant-invariant support")
        return result.to_dict(), EXIT_ASSUMPTIONS
    return result.to_dict(), EXIT_OK


def _cmd_stability(args, warnings):
    from . import radius

    dist = _need_distribution(_load(args.input), "stability")
    report = radius.check_mean_stability(dist, args.p)
    if report.verdict is radius.Verdict.MARGINAL:
        warnings.append("p-radius lies inside the marginal decision band around 1")
    return report.to_dict(), _VERDICT_EXIT[report.verdict.value]


def _cmd_lyapunov(args, warnings):
    from . import lyapunov as lyap

    dist = _need_distribution(_load(args.input), "lyapunov")
    cert = lyap.synthesize_degree_p(dist, args.p)
    doc = lyap.certificate_to_dict(cert)
    results = {"certificate": doc}
    code = EXIT_OK
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        results["certificate_path"] = str(args.out)
    if args.validate:
        mode, n = _parse_mode(args.validate)
        report = lyap.validate_certificate(
            cert, dist, mode=mode, n_samples=n or 10_000, **_seed(args)
        )
        results["validation"] = report.to_dict()
        if not report.passed:
            warnings.append("synthesized certificate failed validation")
            code = EXIT_UNSTABLE
    return results, code


def _cmd_jsr(args, warnings):
    from . import models, radius

    dist = _need_distribution(_load(args.input), "jsr")
    if not isinstance(dist, models.AtomicDistribution):
        raise AssumptionError("'jsr' requires a finite atomic law")
    bounds = radius.jsr_bounds(dist.atoms, depth=args.depth)
    if bounds.truncated:
        warnings.append(
            f"enumeration stopped at depth {bounds.depth} by the product budget or the lift"
            " entry cap; bracket is valid but coarser"
        )
    return bounds.to_dict(), EXIT_OK


def _cmd_limit(args, warnings):
    from . import radius

    dist = _need_distribution(_load(args.input), "limit")
    seq = radius.limit_sequence(dist, args.pmax, even_only=args.even_only)
    if seq.truncated:
        warnings.append("sequence truncated by the lift entry cap")
    csv_path = args.csv or args.input.with_suffix(".limit.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("p,p_radius\n")
        for p, v in seq.entries:
            fh.write(f"{p},{v!r}\n")
    results = seq.to_dict()
    results["csv"] = str(csv_path)
    return results, EXIT_OK


def _cmd_markov(args, warnings):
    from . import models, radius

    system = _need_markov(_load(args.input), "markov")
    if args.closed_loop:
        system = models.apply_feedback(system)
    if args.general_p:
        value = radius.markov_tp_spectral_radius(system, args.p)
        warnings.append("general-p radius is experimental and carries no stability verdict")
        results = {
            "p": args.p,
            "value": value,
            "lifted_dim": system.n_modes * system.dim**args.p,
            "assumption_path": None,
            "verdict": None,
            "closed_loop": args.closed_loop,
        }
        return results, EXIT_OK
    report = radius.check_mean_stability(system, args.p)
    results = report.p_radius.to_dict()
    results["verdict"] = report.verdict.value
    results["closed_loop"] = args.closed_loop
    if report.verdict is radius.Verdict.UNSUPPORTED:
        warnings.append(
            f"p = {args.p} requires entrywise-nonnegative modes; found a negative entry"
        )
    return results, _VERDICT_EXIT[report.verdict.value]


def _series_sidecar(out_dir: Path, stem: str, label: str, series) -> dict:
    from . import mcsim

    path = out_dir / f"{stem}.{label}.csv"
    mcsim.write_moment_csv(path, series)
    entry = {
        "csv": str(path),
        "final_mean": float(series.means[-1]),
        "truncated_paths": series.truncated_paths,
    }
    return entry


def _cmd_simulate(args, warnings):
    from . import mcsim, models

    problem = _load(args.input)
    if args.closed_loop:
        problem = models.apply_feedback(_need_markov(problem, "simulate --closed-loop"))
    x0 = _parse_x0(args.x0)
    plan = mcsim.SimulationPlan(
        paths=args.paths,
        horizon=args.horizon,
        seed=args.seed,
        initial_state=x0,
        initial_mode=args.sigma0,
        moment_exponent=args.p,
    )
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.input.stem
    results: dict = {
        "paths": args.paths,
        "horizon": args.horizon,
        "seed": args.seed,
        "moment_exponent": args.p,
        "series": {},
    }
    if isinstance(problem, models.MarkovJumpSystem):
        sim = mcsim.simulate_markov(problem, plan, threads=args.threads)
        if args.cert:
            warnings.append("certificate series are only produced for iid runs")
    else:
        cert = None
        if args.cert:
            from .lyapunov import certificate_from_dict

            cert = certificate_from_dict(json.loads(args.cert.read_text(encoding="utf-8")))
        sim = mcsim.simulate_iid(problem, plan, certificate=cert, threads=args.threads)
    for label in ("euclidean", "certificate"):
        series = getattr(sim, label)
        if series is not None:
            results["series"][label] = _series_sidecar(out_dir, stem, label, series)
            main_series = series
    if main_series.truncated_paths:
        warnings.append(f"{main_series.truncated_paths} paths overflowed and were truncated")
    try:
        results["decay"] = mcsim.estimate_decay_rate(main_series).to_dict()
    except ValueError:
        results["decay"] = None
    return results, EXIT_OK


def _cmd_validate(args, warnings):
    from . import lyapunov as lyap

    dist = _need_distribution(_load(args.input), "validate")
    cert = lyap.certificate_from_dict(json.loads(args.cert.read_text(encoding="utf-8")))
    mode, n = _parse_mode(args.mode)
    report = lyap.validate_certificate(
        cert, dist, mode=mode, n_samples=n or 10_000, **_seed(args)
    )
    if not report.passed:
        warnings.append("certificate claim violated on at least one test vector")
    return report.to_dict(), EXIT_OK if report.passed else EXIT_UNSTABLE


_HANDLERS = {
    "pradius": _cmd_pradius,
    "stability": _cmd_stability,
    "lyapunov": _cmd_lyapunov,
    "jsr": _cmd_jsr,
    "limit": _cmd_limit,
    "markov": _cmd_markov,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit_ as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(_report("(usage)", argv, None, None, [str(exc)]))
        return EXIT_IO
    digest = None
    warnings: list[str] = []
    try:
        if args.input.exists():
            digest = _digest(args.input)
        results, code = _HANDLERS[args.command](args, warnings)
    except (SwitchstabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = _report(args.command, argv, digest, None, warnings)
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        pointer = getattr(exc, "pointer", None)
        if pointer:
            report["error"]["pointer"] = pointer
        _emit(report)
        return getattr(exc, "exit_code", EXIT_IO)
    _emit(_report(args.command, argv, digest, results, warnings))
    return code


if __name__ == "__main__":
    sys.exit(main())
