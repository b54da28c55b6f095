"""Command line interface: one scenario per invocation, fully described by its config.

    lfe <subcommand> --config scenario.ini [--out DIR]

Subcommands: validate, bounds, degree, integrate, find-orbit, continue.
Exit codes: 0 success, 2 hypothesis/certificate failure, 3 solver
failure, 4 I/O or configuration error.  Flags never override file
values; they only select the subcommand and point at files.  Stdout
verbosity is controlled by the LFE_VERBOSITY environment variable
(0 silences the report echo).
"""

from __future__ import annotations

import argparse
import dataclasses
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
from lfe.config_io import ConfigError, RunConfig, config_hash, parse_config, serialize_config
from lfe.degree import DegenerateForcing, DegreeError, brouwer_degree, find_zero_f0
from lfe.fields import validate_hypotheses
from lfe.homotopy import HomotopySystem
from lfe.integrator import SolverError, integrate
from lfe.kinematics import State
from lfe.shooting import Domain, ShootingProblem, continue_lambda, newton_shooting

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _emit(text: str) -> None:
    if os.environ.get("LFE_VERBOSITY", "1") != "0":
        print(text)


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _write_rows_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row) + "\n")


def _build_problem(cfg: RunConfig, lam: float, cert: BoundsCertificate | None) -> ShootingProblem:
    system = HomotopySystem(cfg.fields)
    integrator = cfg.integrator
    domain = Domain()
    if cert is not None:
        domain = Domain.from_bounds(*cert.region())
        if cfg.r_min_auto:
            integrator = dataclasses.replace(integrator, r_min=0.5 * cert.m)
    return ShootingProblem(
        system=system,
        lam=lam,
        integrator=integrator,
        domain=domain,
        newton_tol=cfg.solver.newton_tol,
        max_iterations=cfg.solver.max_iterations,
    )


def _initial_state(cfg: RunConfig) -> State:
    if cfg.initial.q is None:
        eq = find_zero_f0(cfg.fields.c0, cfg.fields.forcing.mean)
        return State(q=eq.q, p=cfg.initial.p)
    return State(q=cfg.initial.q, p=cfg.initial.p)


def _check_rows(entries) -> list[dict]:
    """JSON rows {name, passed, margin, detail} of validation checks or verification entries."""
    return [dataclasses.asdict(e) for e in entries]


def _orbit_payload(sol, verification=None) -> dict:
    payload = dict(sol.summary())
    payload["monodromy"] = [[float(v) for v in row] for row in sol.monodromy]
    if verification is not None:
        payload["verification"] = _check_rows(verification.entries)
        payload["verified"] = verification.passed
    return payload


def _orbit_lines(sol) -> list[str]:
    out = [f"lambda = {sol.lam!r}", f"residual_norm = {sol.residual_norm!r}"]
    out.append(f"newton_iterations = {sol.newton_iterations}")
    out.append("x0_q = " + " ".join(repr(float(v)) for v in sol.x0.q))
    out.append("x0_p = " + " ".join(repr(float(v)) for v in sol.x0.p))
    for key, val in sol.diagnostics.items():
        out.append(f"{key} = {val!r}")
    return out


def cmd_validate(cfg: RunConfig, out: Path) -> int:
    report = validate_hypotheses(cfg.fields, seed=cfg.solver.seed)
    _write_text(out / "validate_report.txt", report.lines())
    _write_json(
        out / "validate_report.json",
        {
            "passed": report.passed,
            "seed": report.seed,
            "note": report.note,
            "checks": _check_rows(report.checks),
        },
    )
    _emit("\n".join(report.lines()))
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def _certificate_json(cert: BoundsCertificate) -> dict:
    return {
        "R": cert.R,
        "period": cert.period,
        "upper": cert.upper,
        "epsilon": cert.epsilon,
        "K2": cert.K2,
        "C_gradV_B": cert.C_gradV_B,
        "m": cert.m,
        "M": cert.M,
        "L": cert.L,
        "l1_norm": cert.l1_norm,
        "c0_eff": cert.c0_eff,
        "provenance": {k: str(v) for k, v in cert.provenance.items()},
    }


def cmd_bounds(cfg: RunConfig, out: Path) -> int:
    try:
        cert = compute_certificate(cfg.fields, seed=cfg.solver.seed)
    except (CertificateError, ValueError) as err:
        _write_text(out / "certificate.txt", [f"certificate failed: {err}"])
        _emit(f"certificate failed: {err}")
        return EXIT_HYPOTHESIS
    _write_text(out / "certificate.txt", cert.lines())
    _write_json(out / "certificate.json", _certificate_json(cert))
    _emit("\n".join(cert.lines()))
    return EXIT_OK


def cmd_degree(cfg: RunConfig, out: Path) -> int:
    try:
        cert = compute_certificate(cfg.fields, seed=cfg.solver.seed)
    except (CertificateError, ValueError) as err:
        _write_text(out / "degree_report.txt", [f"certificate failed: {err}"])
        _emit(f"certificate failed: {err}")
        return EXIT_HYPOTHESIS
    try:
        report = brouwer_degree(
            cfg.fields.c0, cfg.fields.forcing.mean, cert.region(), seed=cfg.solver.seed
        )
    except DegreeError as err:
        _write_text(out / "degree_report.txt", [f"degree computation failed: {err}"])
        _emit(f"degree computation failed: {err}")
        return EXIT_SOLVER
    _write_text(out / "degree_report.txt", report.lines())
    _write_json(
        out / "degree_report.json",
        {
            "x0_q": [float(v) for v in report.x0.q],
            "x0_p": [float(v) for v in report.x0.p],
            "det_analytic": report.det_analytic,
            "det_numeric": report.det_numeric,
            "degree": report.degree,
            "omega": list(report.omega),
            "sweep": report.sweep,
        },
    )
    _emit("\n".join(report.lines()))
    return EXIT_OK


def cmd_integrate(cfg: RunConfig, out: Path) -> int:
    system = HomotopySystem(cfg.fields)
    try:
        x0 = _initial_state(cfg)
    except DegenerateForcing as err:
        _emit(f"no equilibrium start: {err}")
        return EXIT_HYPOTHESIS
    t_end = cfg.initial.t_end if cfg.initial.t_end is not None else cfg.fields.forcing.period
    try:
        traj = integrate(system, x0, (0.0, t_end), cfg.initial.lam, cfg.integrator)
    except SolverError as err:
        _emit(f"integration failed: {err}")
        return EXIT_SOLVER
    grid = np.linspace(0.0, t_end, cfg.output.sample_points)
    traj.write_csv(out / "trajectory.csv", grid)
    _emit(f"wrote {out / 'trajectory.csv'} ({cfg.output.sample_points} samples, lam={cfg.initial.lam})")
    return EXIT_OK


def cmd_find_orbit(cfg: RunConfig, out: Path) -> int:
    problem = _build_problem(cfg, cfg.initial.lam, cert=None)
    try:
        guess = _initial_state(cfg)
    except DegenerateForcing as err:
        _emit(f"no equilibrium guess: {err}")
        return EXIT_HYPOTHESIS
    try:
        sol = newton_shooting(guess, problem)
    except SolverError as err:
        _write_text(out / "orbit_report.txt", [f"shooting failed: {err}"])
        _emit(f"shooting failed: {err}")
        return EXIT_SOLVER
    lines = _orbit_lines(sol)
    _write_text(out / "orbit_report.txt", lines)
    _write_json(out / "orbit_report.json", _orbit_payload(sol))
    grid = np.linspace(0.0, problem.period, cfg.output.sample_points)
    sol.trajectory.write_csv(out / "orbit.csv", grid)
    _emit("\n".join(lines))
    return EXIT_OK


def cmd_continue(cfg: RunConfig, out: Path, config_text: str) -> int:
    t_start = time.perf_counter()
    report: dict = {
        "tool_version": lfe.__version__,
        "config_sha256": config_hash(config_text),
        "config": config_text,
        "seed": cfg.solver.seed,
    }
    text: list[str] = [
        f"lfe continue (version {lfe.__version__})",
        f"config sha256 = {report['config_sha256']}",
        "",
    ]

    def finish(code: int) -> int:
        report["wall_clock_s"] = time.perf_counter() - t_start
        text.append("")
        text.append(f"wall clock [s] = {report['wall_clock_s']:.3f}")
        _write_text(out / "run_report.txt", text)
        _write_json(out / "run_report.json", report)
        _emit("\n".join(text))
        return code

    validation = validate_hypotheses(cfg.fields, seed=cfg.solver.seed)
    text.append("hypothesis validation")
    text.extend("  " + line for line in validation.lines())
    report["validation_passed"] = validation.passed
    report["validation"] = _check_rows(validation.checks)
    if not validation.passed:
        text.append("aborted: hypothesis validation failed")
        return finish(EXIT_HYPOTHESIS)

    try:
        cert = compute_certificate(cfg.fields, seed=cfg.solver.seed)
    except (CertificateError, ValueError) as err:
        text.append(f"aborted: certificate failed: {err}")
        report["certificate_error"] = str(err)
        return finish(EXIT_HYPOTHESIS)
    text.append("")
    text.append("bounds certificate")
    text.extend("  " + line for line in cert.lines())
    report["certificate"] = _certificate_json(cert)

    try:
        degree_report = brouwer_degree(
            cfg.fields.c0, cfg.fields.forcing.mean, cert.region(), seed=cfg.solver.seed
        )
    except DegreeError as err:
        text.append(f"aborted: degree computation failed: {err}")
        report["degree_error"] = str(err)
        return finish(EXIT_SOLVER)
    text.append("")
    text.append("degree at the autonomous limit")
    text.extend("  " + line for line in degree_report.lines())
    report["degree"] = degree_report.degree

    problem = _build_problem(cfg, 0.0, cert)
    equilibrium = find_zero_f0(cfg.fields.c0, cfg.fields.forcing.mean)
    try:
        start = newton_shooting(equilibrium, problem)
    except SolverError as err:
        text.append(f"aborted: no starting orbit at lam = 0: {err}")
        report["solver_error"] = str(err)
        return finish(EXIT_SOLVER)

    path = continue_lambda(
        problem,
        start,
        cfg.solver.target_lambda,
        dlam_init=cfg.solver.dlam_init,
        dlam_floor=cfg.solver.dlam_floor,
        growth=cfg.solver.growth,
        certified_bounds=cert.region(),
    )
    rows = path.summary_rows()
    _write_rows_csv(
        out / "continuation.csv",
        ["lambda", "x0_norm", "residual", "newton_iterations"],
        [(r["lambda"], r["x0_norm"], r["residual"], r["newton_iterations"]) for r in rows],
    )
    text.append("")
    text.append(f"continuation: {path.status} ({path.message})")
    for r in rows:
        text.append(
            f"  lambda={r['lambda']:.6g}  |x0|={r['x0_norm']:.9g}"
            f"  residual={r['residual']:.3e}  iters={r['newton_iterations']}"
        )
    report["continuation"] = {"status": path.status, "message": path.message, "steps": rows}

    final = path.final
    verification = verify_orbit(final, cert)
    text.append("")
    text.append(f"final orbit at lambda = {final.lam!r}")
    text.extend("  " + line for line in _orbit_lines(final))
    text.append("")
    text.append("orbit verification")
    text.extend("  " + line for line in verification.lines())
    report["final_orbit"] = _orbit_payload(final, verification)

    grid = np.linspace(0.0, problem.period, cfg.output.sample_points)
    final.trajectory.write_csv(out / "orbit.csv", grid)

    ok = path.reached(cfg.solver.target_lambda) and verification.passed
    text.append("")
    text.append("result: " + ("success" if ok else "path incomplete or verification failed"))
    return finish(EXIT_OK if ok else EXIT_SOLVER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lfe",
        description="Periodic orbits of the relativistic Lorentz force equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check the field hypotheses on sample clouds"),
        ("bounds", "compute the a priori bound certificate"),
        ("degree", "compute the degree of the autonomous field"),
        ("integrate", "integrate one trajectory and export CSV"),
        ("find-orbit", "solve the periodic problem at a fixed lambda"),
        ("continue", "full pipeline: validate, certify, continue to the target lambda"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario configuration file (INI)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        config_text = serialize_config(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_IO

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory {out}: {err}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.command == "validate":
            return cmd_validate(cfg, out)
        if args.command == "bounds":
            return cmd_bounds(cfg, out)
        if args.command == "degree":
            return cmd_degree(cfg, out)
        if args.command == "integrate":
            return cmd_integrate(cfg, out)
        if args.command == "find-orbit":
            return cmd_find_orbit(cfg, out)
        if args.command == "continue":
            return cmd_continue(cfg, out, config_text)
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError(f"unhandled command {args.command}")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
