"""Command line interface: one scenario per invocation, fully described by its config.

    lfe <subcommand> --config scenario.ini [--out DIR]

Subcommands: validate, bounds, degree, integrate, find-orbit, continue.
Each report is one record rendered to `<stem>.txt` and `<stem>.json`
(validate_report, certificate, degree_report, orbit_report, run_report)
and echoed to stdout.  A single-stage command whose stage fails writes
only its failure message to `<stem>.txt`.  `continue` runs the stages in
order and always writes run_report: a failed stage ends the text with
`aborted: <message>` and stores the error under `certificate_error`,
`degree_error` or `solver_error`; `continuation.history` lists every
attempted step with its lambda, dlam, accepted flag and reason; only
`wall_clock_s` and `timings` (seconds per stage) differ between runs.
Exit codes: 0 success, 2 hypothesis/certificate failure, 3 solver
failure, 4 I/O or configuration error.  Flags never override file
values; they only select the subcommand and point at files.  Stdout
verbosity is controlled by the LFE_VERBOSITY environment variable
(0 silences the report echo).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import lfe
from lfe.certificate import (
    BoundsCertificate,
    CertificateError,
    compute_certificate,
    verify_orbit,
)
from lfe.config_io import ConfigError, RunConfig, config_hash, parse_config
from lfe.degree import DegenerateForcing, DegreeError, DegreeReport, brouwer_degree, find_zero_f0
from lfe.fields import validate_hypotheses
from lfe.homotopy import HomotopySystem
from lfe.integrator import SolverError, integrate, write_rows_csv
from lfe.kinematics import State
from lfe.shooting import OrbitSolution, ShootingProblem, continue_lambda, newton_shooting

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class _StageFailed(Exception):
    """A stage that could not finish.

    str() is the report line; `error`, the underlying message, goes into
    run_report.json under `key`; `code` is the exit code.
    """

    def __init__(self, what: str, err: Exception, code: int, key: str):
        super().__init__(f"{what}: {err}")
        self.error = str(err)
        self.code = code
        self.key = key


def _emit(text: str) -> None:
    if os.environ.get("LFE_VERBOSITY", "1") != "0":
        print(text)


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _report(out: Path, stem: str, lines: list[str], payload: dict | None = None) -> None:
    """Write `<stem>.txt`, and `<stem>.json` when there is a payload; echo the text."""
    text = "\n".join(lines)
    (out / f"{stem}.txt").write_text(text + "\n", encoding="utf-8")
    if payload is not None:
        (out / f"{stem}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
            encoding="utf-8",
        )
    _emit(text)


def _section(title: str, lines=()) -> list[str]:
    """One stage of run_report.txt: a blank line, the title, the lines indented."""
    return ["", title, *("  " + line for line in lines)]


def _certificate_record(cert: BoundsCertificate) -> dict:
    record = dataclasses.asdict(cert)
    record["upper"] = cert.upper
    record["provenance"] = {k: str(v) for k, v in cert.provenance.items()}
    return record


def _degree_record(report: DegreeReport) -> dict:
    record = dataclasses.asdict(report)
    x0 = record.pop("x0")
    record["x0_q"], record["x0_p"] = x0["q"], x0["p"]
    return record


def _orbit_record(sol: OrbitSolution, verification=None) -> dict:
    record = {
        **sol.summary(),
        "monodromy": sol.monodromy,
        "newton_trace": sol.newton_trace,
        "n_rejected": sol.trajectory.n_rejected,
    }
    if verification is not None:
        record["verification"] = [dataclasses.asdict(e) for e in verification.entries]
        record["verified"] = verification.passed
    return record


def _orbit_lines(sol: OrbitSolution) -> list[str]:
    return [
        f"{key} = " + (" ".join(map(repr, val)) if isinstance(val, list) else repr(val))
        for key, val in sol.summary().items()
    ]


def _build_problem(cfg: RunConfig, lam: float, cert: BoundsCertificate | None) -> ShootingProblem:
    """The shooting problem of the config; with a certificate, r_min = auto becomes m/2."""
    integrator = cfg.integrator
    if cert is not None and cfg.r_min_auto:
        integrator = dataclasses.replace(integrator, r_min=0.5 * cert.m)
    return ShootingProblem(
        system=HomotopySystem(cfg.fields),
        lam=lam,
        integrator=integrator,
        solver=cfg.solver,
        region=cert.region() if cert is not None else None,
    )


def _initial_state(cfg: RunConfig) -> State:
    if cfg.initial.q is None:
        eq = find_zero_f0(cfg.fields.c0, cfg.fields.forcing.mean)
        return State(q=eq.q, p=cfg.initial.p)
    return State(q=cfg.initial.q, p=cfg.initial.p)


def _certify(cfg: RunConfig) -> BoundsCertificate:
    try:
        return compute_certificate(cfg.fields, seed=cfg.solver.seed)
    except (CertificateError, ValueError) as err:
        raise _StageFailed("certificate failed", err, EXIT_HYPOTHESIS, "certificate_error") from err


def _degree(cfg: RunConfig, cert: BoundsCertificate) -> DegreeReport:
    try:
        return brouwer_degree(
            cfg.fields.c0, cfg.fields.forcing.mean, cert.region(), seed=cfg.solver.seed
        )
    except DegreeError as err:
        raise _StageFailed("degree computation failed", err, EXIT_SOLVER, "degree_error") from err


def _shoot(guess: State, problem: ShootingProblem, what: str = "shooting failed") -> OrbitSolution:
    try:
        return newton_shooting(guess, problem)
    except SolverError as err:
        raise _StageFailed(what, err, EXIT_SOLVER, "solver_error") from err


def cmd_validate(cfg: RunConfig, out: Path, report) -> int:
    validation = validate_hypotheses(cfg.fields, seed=cfg.solver.seed)
    report(validation.lines(), dataclasses.asdict(validation))
    return EXIT_OK if validation.passed else EXIT_HYPOTHESIS


def cmd_bounds(cfg: RunConfig, out: Path, report) -> int:
    cert = _certify(cfg)
    report(cert.lines(), _certificate_record(cert))
    return EXIT_OK


def cmd_degree(cfg: RunConfig, out: Path, report) -> int:
    degree = _degree(cfg, _certify(cfg))
    report(degree.lines(), _degree_record(degree))
    return EXIT_OK


def cmd_integrate(cfg: RunConfig, out: Path, report) -> int:
    system = HomotopySystem(cfg.fields)
    try:
        x0 = _initial_state(cfg)
    except DegenerateForcing as err:
        _emit(f"no equilibrium start: {err}")
        return EXIT_HYPOTHESIS
    t_end = cfg.initial.t_end if cfg.initial.t_end is not None else cfg.fields.forcing.period
    try:
        traj = integrate(system, x0, (0.0, t_end), cfg.initial.lam, cfg.integrator)
    except (SolverError, ValueError) as err:  # ValueError: a start inside the guard radius
        _emit(f"integration failed: {err}")
        return EXIT_SOLVER
    traj.write_csv(out / "trajectory.csv", cfg.output.sample_points)
    _emit(f"wrote {out / 'trajectory.csv'} ({cfg.output.sample_points} samples, lam={cfg.initial.lam})")
    return EXIT_OK


def cmd_find_orbit(cfg: RunConfig, out: Path, report) -> int:
    problem = _build_problem(cfg, cfg.initial.lam, cert=None)
    try:
        guess = _initial_state(cfg)
    except DegenerateForcing as err:
        _emit(f"no equilibrium guess: {err}")
        return EXIT_HYPOTHESIS
    sol = _shoot(guess, problem)
    report(_orbit_lines(sol), _orbit_record(sol))
    sol.trajectory.write_csv(out / "orbit.csv", cfg.output.sample_points)
    return EXIT_OK


def _lap(timings: dict, stage: str, start: float) -> float:
    """Add the seconds since `start` to timings[stage]; return the time now."""
    now = time.perf_counter()
    timings[stage] = timings.get(stage, 0.0) + (now - start)
    return now


def _pipeline(cfg: RunConfig, out: Path, record: dict, text: list[str]) -> int:
    """The stages of `continue` in order, each adding its section to `text` and `record`."""
    timings = record["timings"] = {}
    clock = time.perf_counter()
    validation = validate_hypotheses(cfg.fields, seed=cfg.solver.seed)
    clock = _lap(timings, "validate", clock)
    text += _section("hypothesis validation", validation.lines())
    record["validation_passed"] = validation.passed
    record["validation"] = [dataclasses.asdict(c) for c in validation.checks]
    if not validation.passed:
        text.append("aborted: hypothesis validation failed")
        return EXIT_HYPOTHESIS

    cert = _certify(cfg)
    clock = _lap(timings, "certificate", clock)
    text += _section("bounds certificate", cert.lines())
    record["certificate"] = _certificate_record(cert)

    degree = _degree(cfg, cert)
    clock = _lap(timings, "degree", clock)
    text += _section("degree at the autonomous limit", degree.lines())
    record["degree"] = degree.degree
    record["degree_escapes_by_start_decade"] = degree.sweep["escapes_by_start_decade"]

    problem = _build_problem(cfg, 0.0, cert)
    equilibrium = find_zero_f0(cfg.fields.c0, cfg.fields.forcing.mean)
    start = _shoot(equilibrium, problem, "no starting orbit at lam = 0")
    path = continue_lambda(problem, start)
    clock = _lap(timings, "continuation", clock)
    rows = path.summary_rows()
    write_rows_csv(out / "continuation.csv", list(rows[0]), [r.values() for r in rows])
    clock = _lap(timings, "write", clock)
    text += _section(
        f"continuation: {path.status} ({path.message})",
        [
            f"lambda={r['lambda']:.6g}  |x0|={r['x0_norm']:.9g}"
            f"  residual={r['residual']:.3e}  iters={r['newton_iterations']}"
            for r in rows
        ],
    )
    record["continuation"] = {
        "status": path.status,
        "message": path.message,
        "steps": rows,
        "history": path.history,
    }

    final = path.final
    verification = verify_orbit(final, cert)
    clock = _lap(timings, "verify", clock)
    text += _section(f"final orbit at lambda = {final.lam!r}", _orbit_lines(final))
    text += _section("orbit verification", verification.lines())
    record["final_orbit"] = _orbit_record(final, verification)

    final.trajectory.write_csv(out / "orbit.csv", cfg.output.sample_points)
    _lap(timings, "write", clock)

    ok = path.status == "reached_target" and verification.passed
    text += _section("result: " + ("success" if ok else "path incomplete or verification failed"))
    return EXIT_OK if ok else EXIT_SOLVER


def cmd_continue(cfg: RunConfig, out: Path, report) -> int:
    t_start = time.perf_counter()
    record: dict = {
        "tool_version": lfe.__version__,
        "config_sha256": config_hash(cfg.text),
        "config": cfg.text,
        "seed": cfg.solver.seed,
    }
    text = [
        f"lfe continue (version {lfe.__version__})",
        f"config sha256 = {record['config_sha256']}",
    ]
    try:
        code = _pipeline(cfg, out, record, text)
    except _StageFailed as err:
        text.append(f"aborted: {err}")
        record[err.key] = err.error
        code = err.code
    record["wall_clock_s"] = time.perf_counter() - t_start
    text += _section(f"wall clock [s] = {record['wall_clock_s']:.3f}")
    report(text, record)
    return code


# subcommand -> (help, command, stem of the report the command writes)
_COMMANDS = {
    "validate": ("check the field hypotheses on sample clouds", cmd_validate, "validate_report"),
    "bounds": ("compute the a priori bound certificate", cmd_bounds, "certificate"),
    "degree": ("compute the degree of the autonomous field", cmd_degree, "degree_report"),
    "integrate": ("integrate one trajectory and export CSV", cmd_integrate, None),
    "find-orbit": ("solve the periodic problem at a fixed lambda", cmd_find_orbit, "orbit_report"),
    "continue": (
        "full pipeline: validate, certify, continue to the target lambda",
        cmd_continue,
        "run_report",
    ),
}


def _run(command, cfg: RunConfig, out: Path, stem: str | None) -> int:
    report = functools.partial(_report, out, stem)
    try:
        return command(cfg, out, report)
    except _StageFailed as err:  # a single-stage command reports only the failure
        report([str(err)])
        return err.code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lfe",
        description="Periodic orbits of the relativistic Lorentz force equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario configuration file (INI)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_IO

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory {out}: {err}", file=sys.stderr)
        return EXIT_IO

    _, command, stem = _COMMANDS[args.command]
    try:
        return _run(command, cfg, out, stem)
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
