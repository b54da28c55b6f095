"""Command line interface: one scenario per invocation, fully described by its config.

    lfe <subcommand> --config scenario.ini [--out DIR]

Subcommands: validate, bounds, degree, integrate, find-orbit, continue.
Each stage writes its report section once, with `_Report.section`.  A
single-stage command's report is that section: its lines go to
`<stem>.txt` and its record to `<stem>.json` (validate_report,
certificate, degree_report, orbit_report).  `continue` writes run_report:
each stage adds a titled section of indented lines to the text and its
run fields to the record.  The text is echoed to stdout.  A failed stage
of a single-stage command writes only its message to `<stem>.txt`
(`integrate` only prints it); in `continue` it ends the text with
`aborted: <message>` and stores the error under `certificate_error`,
`degree_error` or `solver_error`.  Only `wall_clock_s` and `timings`
(seconds per stage) differ between runs.  Flags never override file
values; they only select the subcommand and point at files.
LFE_VERBOSITY=0 silences the echo.

Exit codes; `_EXIT_CODES` is the one map of a failure family to its code:

    0  success
    1  any other exception: a programming error, with its traceback
    2  a failed hypothesis check, CertificateError, DegenerateForcing
    3  DegreeError, SolverError, an unfinished or unverified continuation
    4  I/O or configuration error
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

import lfe
from lfe.certificate import VERIFICATION_WIDTHS, BoundsCertificate, CertificateError, compute_certificate, verify_orbit
from lfe.config_io import ConfigError, RunConfig, config_hash, parse_config
from lfe.degree import DegenerateForcing, DegreeError, DegreeReport, brouwer_degree, find_zero_f0
from lfe.fields import VALIDATION_WIDTHS, validate_hypotheses
from lfe.homotopy import HomotopySystem
from lfe.integrator import SolverError, write_rows_csv
from lfe.kinematics import State
from lfe.shooting import OrbitSolution, ShootingProblem, continue_lambda, equilibrium_orbit, newton_shooting

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class _StageFailed(Exception):
    """A stage that could not finish.

    str() is the report line; `error`, the underlying message, goes into
    run_report.json under `key`; `code` is the exit code.
    """

    def __init__(self, what: str, err: Exception, code: int, key: str | None):
        super().__init__(f"{what}: {err}")
        self.error = str(err)
        self.code = code
        self.key = key


_EXIT_CODES = {
    CertificateError: EXIT_HYPOTHESIS,
    DegenerateForcing: EXIT_HYPOTHESIS,
    DegreeError: EXIT_SOLVER,
    SolverError: EXIT_SOLVER,
}


def _attempt(what: str, call, *args, key: str | None = None, **kwargs):
    """call(*args, **kwargs), with an error of every `_EXIT_CODES` family raised as _StageFailed."""
    try:
        return call(*args, **kwargs)
    except tuple(_EXIT_CODES) as err:
        code = next(code for family, code in _EXIT_CODES.items() if isinstance(err, family))
        raise _StageFailed(what, err, code, key) from err


class _Report:
    """The text lines and the record of one command, written once by `write`.

    A section is the whole report until `continue` sets `timings`; from then
    on it adds its title and indented lines to the text, its run fields to
    the record and the seconds since the previous section to timings[stage].
    """

    def __init__(self, out: Path, stem: str | None):
        self.out, self.stem = out, stem
        self.text: list[str] = []
        self.record: dict | None = None
        self.timings: dict | None = None
        self.start = self.clock = time.perf_counter()

    def section(self, stage, title: str, lines=(), record=None, run=None) -> None:
        if self.timings is None:
            self.text, self.record = list(lines), record
            return
        if stage is not None:
            now = time.perf_counter()
            self.timings[stage] = self.timings.get(stage, 0.0) + (now - self.clock)
            self.clock = now
        self.text += ["", title, *("  " + line for line in lines)]
        self.record.update(run or {})

    def write(self) -> None:
        """`<stem>.txt` if there is a stem, `<stem>.json` if there is a record; echo the text."""
        text = "\n".join(self.text)
        if self.stem is not None:
            (self.out / f"{self.stem}.txt").write_text(text + "\n", encoding="utf-8")
        if self.record is not None:  # the values json cannot write are numpy scalars and arrays
            record = json.dumps(self.record, indent=2, sort_keys=True, default=lambda x: x.tolist())
            (self.out / f"{self.stem}.json").write_text(record + "\n", encoding="utf-8")
        if os.environ.get("LFE_VERBOSITY", "1") != "0":
            print(text)


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
    if cfg.initial.q is not None:
        return State(q=cfg.initial.q, p=cfg.initial.p)
    c0, _ = cfg.fields.potential.radial_law()
    return State(q=find_zero_f0(c0, cfg.fields.forcing.mean).q, p=cfg.initial.p)


def cmd_validate(cfg: RunConfig, report: _Report) -> int:
    validation = validate_hypotheses(cfg.fields)
    record = dataclasses.asdict(validation)
    run = {"validation_passed": validation.passed, "validation": record["checks"]}
    report.section("validate", "hypothesis validation", validation.lines(*VALIDATION_WIDTHS), record, run)
    return EXIT_OK if validation.passed else EXIT_HYPOTHESIS


def _certify(cfg: RunConfig, report: _Report) -> BoundsCertificate:
    cert = _attempt("certificate failed", compute_certificate, cfg.fields, key="certificate_error")
    record = dataclasses.asdict(cert)
    record["upper"] = cert.upper
    report.section("certificate", "bounds certificate", cert.lines(), record, {"certificate": record})
    return cert


def _degree(cfg: RunConfig, cert: BoundsCertificate, report: _Report) -> DegreeReport:
    (c0, _), forcing = cfg.fields.potential.radial_law(), cfg.fields.forcing
    args, kwargs = (c0, forcing.mean, cert.region()), dict(period=forcing.period, seed=cfg.solver.seed)
    degree = _attempt("degree computation failed", brouwer_degree, *args, key="degree_error", **kwargs)
    record = dataclasses.asdict(degree)
    x0 = record.pop("x0")
    record["x0_q"], record["x0_p"] = x0["q"], x0["p"]
    escapes = record["sweep"]["escapes_by_start_decade"]
    run = {"degree": degree.degree, "degree_escapes_by_start_decade": escapes}
    run.update((key, record[key]) for key in ("omega_T_over_2pi", "T_res", "det_I_minus_M0"))
    report.section("degree", "degree at the autonomous limit", degree.lines(), record, run)
    return degree


def _check_index(start: OrbitSolution, degree: DegreeReport) -> None:
    """sign det(I - M) of the lam = 0 orbit must be minus the degree; a SolverError if not.

    det(I - M) is the closed form of `equilibrium_orbit`; a wrong monodromy,
    or a degree of the wrong orientation, fails it.
    """
    det = start.index_det
    sign = (det > 0.0) - (det < 0.0)
    if sign != -degree.degree:
        raise SolverError(
            f"sign det(I - M) = {sign:+d} of the lam = 0 orbit (det(I - M) = {det:.6g}) "
            f"is not minus the degree {degree.degree}"
        )


def _orbit(sol: OrbitSolution, report: _Report, verification=None) -> None:
    """The orbit summary as `key = value` lines and, with the solver data, as the record."""
    summary = sol.summary()
    record = dict(summary, monodromy=sol.monodromy, newton_trace=sol.newton_trace)
    record["n_rejected"] = sol.trajectory.n_rejected
    record.update(sol.counts)
    record.update(sol.symmetry)
    if verification is not None:
        record["verification"] = [dataclasses.asdict(c) for c in verification.checks]
        record["verified"] = verification.passed
    lines = [
        f"{key} = " + (" ".join(map(repr, val)) if isinstance(val, list) else repr(val))
        for key, val in summary.items()
    ]
    title = f"final orbit at lambda = {sol.lam!r}"
    report.section("verify", title, lines, record, {"final_orbit": record})


def cmd_bounds(cfg: RunConfig, report: _Report) -> int:
    _certify(cfg, report)
    return EXIT_OK


def cmd_degree(cfg: RunConfig, report: _Report) -> int:
    _degree(cfg, _certify(cfg, report), report)
    return EXIT_OK


def cmd_integrate(cfg: RunConfig, report: _Report) -> int:
    x0 = _attempt("no equilibrium start", _initial_state, cfg)
    problem = _build_problem(cfg, cfg.initial.lam, cert=None)
    traj = _attempt("integration failed", problem.flow, x0, span=cfg.initial.t_end)
    csv, points = report.out / "trajectory.csv", cfg.output.sample_points
    traj.write_csv(csv, points)
    report.text = [f"wrote {csv} ({points} samples, lam={cfg.initial.lam})"]
    return EXIT_OK


def cmd_find_orbit(cfg: RunConfig, report: _Report) -> int:
    problem = _build_problem(cfg, cfg.initial.lam, cert=None)
    guess = _attempt("no equilibrium guess", _initial_state, cfg)
    sol = _attempt("shooting failed", newton_shooting, guess, problem)
    sol.trajectory.write_csv(report.out / "orbit.csv", cfg.output.sample_points)
    _orbit(sol, report)
    return EXIT_OK


def _pipeline(cfg: RunConfig, report: _Report) -> int:
    """The stages of `continue` in order, each writing its section of run_report."""
    if cmd_validate(cfg, report) != EXIT_OK:
        report.text.append("aborted: hypothesis validation failed")
        return EXIT_HYPOTHESIS
    cert = _certify(cfg, report)
    degree = _degree(cfg, cert, report)

    problem = _build_problem(cfg, 0.0, cert)
    start = _attempt("no starting orbit at lam = 0", equilibrium_orbit, problem, degree.x0, key="solver_error")
    _attempt("index check failed", _check_index, start, degree, key="solver_error")
    path = continue_lambda(problem, start)
    rows = path.summary_rows()
    continuation = dict(status=path.status, message=path.message, steps=rows, history=path.history)
    report.section(
        "continuation",
        f"continuation: {path.status} ({path.message})",
        [
            f"lambda={r['lambda']:.6g}  |x0|={r['x0_norm']:.9g}"
            f"  residual={r['residual']:.3e}  iters={r['newton_iterations']}"
            for r in rows
        ],
        run={"continuation": continuation},
    )

    final = path.final
    verification = verify_orbit(final, cert)
    _orbit(final, report, verification)
    report.section("verify", "orbit verification", verification.lines(*VERIFICATION_WIDTHS))

    write_rows_csv(report.out / "continuation.csv", list(rows[0]), [r.values() for r in rows])
    final.trajectory.write_csv(report.out / "orbit.csv", cfg.output.sample_points)
    ok = path.status == "reached_target" and verification.passed
    result = "success" if ok else "path incomplete or verification failed"
    report.section("write", f"result: {result}")
    return EXIT_OK if ok else EXIT_SOLVER


def cmd_continue(cfg: RunConfig, report: _Report) -> int:
    sha = config_hash(cfg.text)
    report.text = [f"lfe continue (version {lfe.__version__})", f"config sha256 = {sha}"]
    report.timings = {}
    report.record = {
        "tool_version": lfe.__version__,
        "config_sha256": sha,
        "config": cfg.text,
        "seed": cfg.solver.seed,
        "timings": report.timings,
    }
    try:
        code = _pipeline(cfg, report)
    except _StageFailed as err:
        report.text.append(f"aborted: {err}")
        report.record[err.key] = err.error
        code = err.code
    wall = time.perf_counter() - report.start
    report.section(None, f"wall clock [s] = {wall:.3f}", run={"wall_clock_s": wall})
    return code


# subcommand -> (help, command, stem of the report the command writes)
_COMMANDS = {
    "validate": ("check the field hypotheses against the field kinds' closed forms", cmd_validate, "validate_report"),
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
    report = _Report(out, stem)
    try:
        code = command(cfg, report)
    except _StageFailed as err:  # a single-stage command reports only the failure
        report.text, report.record, code = [str(err)], None, err.code
    report.write()
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of `main`, built on its first call rather than at import."""
    parser = argparse.ArgumentParser(
        prog="lfe",
        description="Periodic orbits of the relativistic Lorentz force equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario configuration file (INI)")
        p.add_argument("--out", default=".", help="output directory (default: current)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
