"""Benchmark of the lfe pipeline: wall time, set-up time and memory per workload.

    python3 perfbench/run.py --workload desk-continue --seed 20240803 --seconds 25 --trace 0

Run it from the root of an lfe checkout; it imports `lfe` from `src/` of
that checkout and writes its scratch files under `perfbench/.work/`.

With `--trace 0` it measures, with no tracing in the process:

* `setup_s`: median over fresh processes of `import lfe.cli` plus
  `parse_config` of the workload file;
* `wall_s`: median of warmed, in-process `lfe.cli.main([...])` calls
  repeated for `--seconds`;
* `peak_rss_mb`: peak resident memory of this process, which ran them.

Both times are taken with a `speed.Probe`, which rescales each span to
the host's reference speed, so that a slow or fast stretch of a shared
host does not read as a change of the program; the raw wall times are
on the detail line.

With `--trace 1` it alternates untraced and traced calls and reports the
per-layer metrics of `bench_trace.py`, their self times and the tracing
overhead.  Every call is checked (see `check`); a failed call counts in
`failed` and makes `correct` false.  The last line of standard output is
the result object; the line before it records the environment, the
sample counts and the reasons of any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
try:
    import lfe.cli
except ImportError:
    lfe = None
import speed

NEWTON_TOL = 1e-9
IDENTITY_TOL = 1e-6
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

_DESK = """\
[potential]
c0 = 1.0
gamma = 3.0
eps0 = 0.5

[magnetic]
kind = dipole
moment = 0 0 0.1
c_B = {c_B}
eps1 = 0.5

[forcing]
period = 1.0
mean = 0 0 2
harmonic_1_cos = 0.1 0 0

[solver]
newton_tol = 1e-9
seed = {seed}
"""

_LIGHT = """\
[potential]
c0 = 1.0
gamma = 1.0

[magnetic]
kind = zero
c_B = 1.0

[forcing]
period = 1.0
mean = 0 0 2

[solver]
newton_tol = 1e-9
dlam_init = 1.0
seed = {seed}

[output]
sample_points = 200
"""


@dataclass(frozen=True)
class Workload:
    command: str
    config: str  # INI text; {seed} becomes [solver] seed
    default_seed: int
    sample_points: int


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "desk-continue": Workload("continue", _DESK.replace("{c_B}", "auto"), 20240803, 1000),
    "light-continue": Workload("continue", _LIGHT, 7, 200),
    "desk-orbit": Workload(
        "find-orbit",
        _DESK.replace("{c_B}", "0.2") + "\n[initial-state]\nlambda = 1.0\n",
        20240803,
        1000,
    ),
}


def load_reference() -> dict:
    """Stored final x0 per workload and the tolerance it is compared with."""
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def write_config(workload: Workload, seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "scenario.ini"
    path.write_text(workload.config.format(seed=seed), encoding="utf-8")
    return path


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)


def _csv_rows(path: Path, header: str) -> int:
    """Number of data rows; every row must hold as many finite floats as the header names."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]} is not {header!r}")
    width = header.count(",") + 1
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")]
        if len(values) != width or not all(abs(v) < float("inf") for v in values):
            raise ValueError(f"{path.name}: bad row {line!r}")
    return len(lines) - 1


def _sweep(report_txt: Path) -> dict[str, int]:
    """The degree sweep counts from the `sweep:` line of run_report.txt."""
    for line in report_txt.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("sweep:"):
            pairs = (item.split("=") for item in line.split(":", 1)[1].split(","))
            return {k.strip(): int(v) for k, v in pairs}
    raise ValueError("run_report.txt has no sweep line")


def check(workload: Workload, out: Path, code, reference: dict) -> str | None:
    """Why this call failed, or None when its exit code and every output check out."""
    if code != 0:
        return f"exit code {code}"
    try:
        if workload.command == "continue":
            report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
            final = report["final_orbit"]
            sweep = _sweep(out / "run_report.txt")
            problems = [
                report["continuation"]["status"] != "reached_target" and "target not reached",
                final["lambda"] != 1.0 and f"final lambda {final['lambda']}",
                report["degree"] != -1 and f"degree {report['degree']}",
                final["verified"] is not True and "final orbit not verified",
                sweep["converged_to_zero"] + sweep["escaped"] != sweep["starts"]
                and f"sweep counts {sweep}",
                _csv_rows(out / "continuation.csv", "lambda,x0_norm,residual,newton_iterations")
                < 2
                and "continuation.csv has fewer than two rows",
            ]
        else:
            final = json.loads((out / "orbit_report.json").read_text(encoding="utf-8"))
            problems = [
                not final["mean_identity"] <= IDENTITY_TOL
                and f"mean identity {final['mean_identity']:.3e}",
                not final["virial_gap"] <= IDENTITY_TOL
                and f"virial gap {final['virial_gap']:.3e}",
            ]
        problems.append(
            not final["residual_norm"] < NEWTON_TOL and f"residual {final['residual_norm']:.3e}"
        )
        rows = _csv_rows(out / "orbit.csv", "t,q1,q2,q3,p1,p2,p3")
        problems.append(rows != workload.sample_points and f"orbit.csv has {rows} rows")
        x0 = [*final["x0_q"], *final["x0_p"]]
        error = max(abs(a - b) for a, b in zip(x0, reference["x0"], strict=True))
        problems.append(
            not error <= reference["tolerance"]
            and f"x0 is {error:.3e} from the reference (tolerance {reference['tolerance']:g})"
        )
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"unreadable output: {err!r}"
    problems = [p for p in problems if p]
    return "; ".join(problems) if problems else None


def invoke(workload: Workload, config: Path, out: Path, reference: dict, call=None, probe=None):
    """One `lfe <command>` call in this process: (seconds, failure reason or None).

    The seconds are wall seconds, or the probe's rescaled seconds when a
    `speed.Probe` is given; the probe then also holds the raw wall time.
    """
    shutil.rmtree(out, ignore_errors=True)
    main = call if call is not None else lfe.cli.main
    argv = [workload.command, "--config", str(config), "--out", str(out)]
    t0 = time.perf_counter()
    try:
        if probe is None:
            code = main(argv)
        else:
            with probe:
                code = main(argv)
    except Exception as err:  # a crash is a failed call, counted like a nonzero exit
        return time.perf_counter() - t0, f"raised {err!r}"
    seconds = time.perf_counter() - t0 if probe is None else probe.seconds
    return seconds, check(workload, out, code, reference)


def measure_wall(workload, config, out, reference, seconds: float, tally: Tally) -> dict:
    """One warm-up call, then timed calls while the next is expected to end within `seconds`.

    Returns the per-call samples: rescaled seconds, raw wall seconds and slowdown.
    """
    tally.record(invoke(workload, config, out, reference)[1])
    probe = speed.Probe(speed.numpy_kernel(), speed.NUMPY_REFERENCE_S)
    samples = {"seconds": [], "raw_s": [], "slowdown": []}
    start = time.perf_counter()
    while True:
        dt, reason = invoke(workload, config, out, reference, probe=probe)
        tally.record(reason)
        samples["seconds"].append(dt)
        samples["raw_s"].append(probe.raw_s)
        samples["slowdown"].append(probe.slowdown)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples["seconds"]) > seconds:
            return samples


_SETUP_CHILD = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
with speed.Probe(speed.python_kernel(), speed.PYTHON_REFERENCE_S) as probe:
    import lfe.cli
    lfe.cli.parse_config(sys.argv[3])
print(repr(probe.seconds), repr(probe.raw_s))
"""


def measure_setup(config: Path, tally: Tally) -> dict:
    """Set-up samples of fresh processes: rescaled and raw wall seconds.

    This process has already read their files, so they come from the file cache.
    """
    samples = {"seconds": [], "raw_s": []}
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(HERE), str(SRC), str(config)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            tally.record(f"set-up process exceeded {CHILD_TIMEOUT_S} s")
            continue
        if proc.returncode != 0:
            tally.record(f"set-up process exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        tally.record(None)
        seconds, raw_s = (float(v) for v in proc.stdout.split()[-2:])
        samples["seconds"].append(seconds)
        samples["raw_s"].append(raw_s)
    return samples


def measure_trace(workload, config, out, reference, seconds: float, tally: Tally, trace_file):
    """Alternate untraced and traced calls; per-layer metrics, medians over traced calls."""
    import bench_trace  # here, so that an untraced run loads no tracing code

    tally.record(invoke(workload, config, out, reference)[1])
    untraced, per_call = [], []
    start = time.perf_counter()
    while True:
        dt, reason = invoke(workload, config, out, reference)
        tally.record(reason)
        untraced.append(dt)
        tracer = bench_trace.Tracer()
        with bench_trace.patched(tracer):
            dt, reason = invoke(
                workload, config, out, reference, call=tracer.span("cli.main", lfe.cli.main)
            )
        tally.record(reason)
        per_call.append(bench_trace.layer_metrics(tracer, dt))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(per_call) > seconds:
            break
    metrics, repeated = bench_trace.combine(per_call)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    trace_file.write_text(json.dumps(tracer.records()) + "\n", encoding="utf-8")
    counts = {"traced_calls": len(per_call), "untraced_calls": len(untraced)}
    return metrics, {**counts, "exact_counts_repeat": repeated}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lfe": lfe.__version__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, detail) of one benchmark run of one workload."""
    workload = WORKLOADS[name]
    stored = load_reference()
    reference = {"x0": stored["x0"][name], "tolerance": stored["tolerance"]}
    run_dir = WORK / f"{name}-{seed}"
    config = write_config(workload, seed, run_dir)
    out = run_dir / "out"
    tally = Tally()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        if trace:
            trace_file = WORK / f"trace-{name}-{seed}.json"
            metrics, counts = measure_trace(
                workload, config, out, reference, seconds, tally, trace_file
            )
            units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
            metrics = {k: _metric(metrics[k], units[k]) for k in units}
            detail.update(counts, trace_file=str(trace_file.relative_to(ROOT)))
        else:
            setup = measure_setup(config, tally)
            wall = measure_wall(workload, config, out, reference, seconds, tally)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not setup["seconds"]:
                raise RuntimeError("no set-up process succeeded")
            metrics = {
                "wall_s": _metric(statistics.median(wall["seconds"]), "s"),
                "setup_s": _metric(statistics.median(setup["seconds"]), "s"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
            }
            detail.update(
                sample_counts={"wall_s": len(wall["seconds"]), "setup_s": len(setup["seconds"])},
                raw_median={
                    "wall_s": statistics.median(wall["raw_s"]),
                    "setup_s": statistics.median(setup["raw_s"]),
                },
                samples={"wall_s": wall, "setup_s": setup},
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail.update(
        env=environment(),
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        failures=tally.reasons[:20],
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, detail


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="[solver] seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if lfe is None or Path(lfe.__file__).resolve().parent != SRC / "lfe":
        message = f"lfe is not importable from {SRC}; run from the root of an lfe checkout"
        print(message, file=sys.stderr)
        return 2
    os.environ["LFE_VERBOSITY"] = "0"
    seed = args.seed if args.seed is not None else WORKLOADS[args.workload].default_seed
    result, detail = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
