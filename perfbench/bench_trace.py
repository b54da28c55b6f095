"""Per-layer tracing for the lfe benchmark, done from outside the library.

The tracer replaces public lfe functions with timing wrappers for the
duration of a `patched(tracer)` block and restores them afterwards.  It
patches each function in every lfe module that binds it, because
`lfe.cli`, `lfe.shooting`, `lfe.certificate` and `lfe.config_io` import
their callees by name; the field, right-hand-side and CSV methods are
patched on their classes.

Two kinds of wrapper share one stack of open frames, so every self time
is exact:

* a span records (id, name, start, end, parent id, self seconds) and is
  kept in memory until the caller writes the trace out;
* a leaf (field evaluations, `rhs_array`, `AutonomousField.value`) runs
  hundreds of thousands of times per call, so it only adds to per-name
  totals (calls, seconds, self seconds, points).

A name is `<layer>.<function>`; the layer is the lfe module that owns the
work, except `cli.write_csv`, which the command layer pays for.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import lfe.cli
import lfe.integrator

LAYERS = (
    "cli",
    "config_io",
    "fields",
    "sampling",
    "certificate",
    "degree",
    "homotopy",
    "integrator",
    "shooting",
)


class Tracer:
    """In-memory spans, leaf totals and counters for one traced call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds, self seconds, points]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # open frames: [span id, start, child seconds]
        self._next_id = 0

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self) -> list:
        frame = [self._next_id, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> tuple[float, float, int | None]:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        return end, duration, (parent[0] if parent is not None else None)

    def span(self, name: str, fn, observe=None, on_error=None):
        """Wrap fn so each call becomes a stored span; observe(result) sees its result."""

        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                end, duration, parent_id = self._exit(frame)
                self.spans.append((frame[0], name, frame[1], end, parent_id, duration - frame[2]))
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def leaf(self, name: str, fn, points=None):
        """Wrap fn so its calls only add to the totals of `name`; points(args) counts points."""
        totals = self.leaves.setdefault(name, [0, 0.0, 0.0, 0])

        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                _, duration, _ = self._exit(frame)
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[2]
                totals[3] += points(args) if points is not None else 1

        return wrapper

    def span_seconds(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def layer_self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s[1].split(".", 1)[0]] += s[5]
        for name, totals in self.leaves.items():
            out[name.split(".", 1)[0]] += totals[2]
        return out

    def records(self) -> list[dict]:
        """Spans and leaf totals as JSON-ready rows, for writing out after the run."""
        rows = [
            {"id": i, "name": n, "start": a, "end": b, "parent": p, "self_s": s}
            for i, n, a, b, p, s in self.spans
        ]
        rows.extend(
            {"leaf": n, "calls": c, "seconds": t, "self_s": s, "points": k}
            for n, (c, t, s, k) in sorted(self.leaves.items())
        )
        return rows


def _points(q) -> int:
    """Number of positions in q: 1 for a (3,) vector, N for an (N, 3) array."""
    shape = getattr(q, "shape", None)
    if not shape or len(shape) < 2:
        return 1
    return int(q.size // shape[-1])


def _observers(t: Tracer) -> dict[str, tuple]:
    """Span name -> (observe(result), on_error(exc)) for the spans that count work."""

    def samples(result):
        t.count("sampling.samples", result[3]["samples"])

    def sweep(report):
        t.count("degree.starts", report.sweep["starts"])
        t.count("degree.hits", report.sweep["converged_to_zero"])

    def solved(sol):
        t.count("shooting.newton_iters", sol.newton_iterations)

    def history(path):
        accepted = sum(1 for h in path.history if h["accepted"])
        t.count("shooting.steps_accepted", accepted)
        t.count("shooting.steps_rejected", len(path.history) - accepted)

    def flowed(traj):
        t.count("integrator.steps", len(traj.ts) - 1)
        t.count("integrator.traj_rhs", traj.n_rhs_evals)

    def flow_failed(err):
        if isinstance(err, lfe.integrator.SolverError):
            t.count("integrator.errors")

    return {
        "sampling.maximize_on_annulus": (samples, None),
        "degree.brouwer_degree": (sweep, None),
        "shooting.newton_shooting": (solved, None),
        "shooting.continue_lambda": (history, None),
        "integrator.integrate": (flowed, flow_failed),
    }


# (defining module, function, span name); the span wraps every lfe binding of it.
_FUNCTIONS = (
    ("lfe.config_io", "parse_config", "config_io.parse_config"),
    ("lfe.fields", "magnetic_ceiling", "fields.magnetic_ceiling"),
    ("lfe.fields", "validate_hypotheses", "fields.validate_hypotheses"),
    ("lfe.certificate", "compute_certificate", "certificate.compute_certificate"),
    ("lfe.certificate", "compute_R", "certificate.compute_R"),
    ("lfe.certificate", "compute_lower_constants", "certificate.compute_lower_constants"),
    ("lfe.certificate", "compute_momentum_bound", "certificate.compute_momentum_bound"),
    ("lfe.certificate", "verify_orbit", "certificate.verify_orbit"),
    ("lfe.sampling", "maximize_on_annulus", "sampling.maximize_on_annulus"),
    ("lfe.degree", "brouwer_degree", "degree.brouwer_degree"),
    ("lfe.shooting", "newton_shooting", "shooting.newton_shooting"),
    ("lfe.shooting", "continue_lambda", "shooting.continue_lambda"),
    ("lfe.shooting", "orbit_identities", "shooting.orbit_identities"),
    ("lfe.integrator", "integrate", "integrator.integrate"),
)

# (defining module, class, method, name, points argument index or None, leaf?)
_METHODS = (
    ("lfe.integrator", "Trajectory", "write_csv", "cli.write_csv", None, False),
    ("lfe.homotopy", "HomotopySystem", "rhs_array", "homotopy.rhs_array", None, True),
    ("lfe.homotopy", "AutonomousField", "value", "homotopy.f0", None, True),
    ("lfe.fields", "GeneralizedCoulomb", "gradient", "fields.gradV", 1, True),
    ("lfe.fields", "TabulatedPotential", "gradient", "fields.gradV", 1, True),
    ("lfe.fields", "ZeroField", "eval", "fields.B", 2, True),
    ("lfe.fields", "UniformField", "eval", "fields.B", 2, True),
    ("lfe.fields", "DipoleField", "eval", "fields.B", 2, True),
    ("lfe.fields", "ABCField", "eval", "fields.B", 2, True),
)


def _targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every lfe binding the tracer replaces.

    A function is wrapped wherever an lfe module binds it, so the trace
    keeps working when a module changes how it imports its callees.  A
    function or method that no longer exists is skipped; its metrics read 0.
    """
    observers = _observers(tracer)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "lfe" or n.startswith("lfe.")]
    out = []
    for module_name, func_name, span_name in _FUNCTIONS:
        func = getattr(sys.modules.get(module_name), func_name, None)
        if func is None:
            continue
        wrapper = tracer.span(span_name, func, *observers.get(span_name, (None, None)))
        out.extend(
            (module, attr, wrapper)
            for module in modules
            for attr, value in list(vars(module).items())
            if value is func
        )
    for module_name, cls_name, method, name, arg, is_leaf in _METHODS:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        func = vars(cls).get(method) if cls is not None else None
        if func is None:
            continue
        if is_leaf:
            points = (lambda a, i=arg: _points(a[i])) if arg is not None else None
            out.append((cls, method, tracer.leaf(name, func, points)))
        else:
            out.append((cls, method, tracer.span(name, func)))
    return out


@contextmanager
def patched(tracer: Tracer):
    """Route the public lfe functions through the tracer; restore them on exit."""
    targets = _targets(tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced call that took `wall` seconds."""
    t = tracer
    c = t.counts.get
    leaf = t.leaves.get
    gradv = leaf("fields.gradV", [0, 0.0, 0.0, 0])
    b = leaf("fields.B", [0, 0.0, 0.0, 0])
    rhs = leaf("homotopy.rhs_array", [0, 0.0, 0.0, 0])
    f0 = leaf("homotopy.f0", [0, 0.0, 0.0, 0])
    flows = sum(1 for s in t.spans if s[1] == "integrator.integrate")
    steps = c("integrator.steps", 0)
    iters = c("shooting.newton_iters", 0)
    accepted = c("shooting.steps_accepted", 0)
    rejected = c("shooting.steps_rejected", 0)
    starts = c("degree.starts", 0)
    degree_s = t.span_seconds("degree.brouwer_degree")
    root = next(s for s in t.spans if s[1] == "cli.main")
    shooting_top = ("shooting.newton_shooting", "shooting.continue_lambda")
    layer_self = t.layer_self_seconds()

    out = {
        "config_io.parse_s": t.span_seconds("config_io.parse_config"),
        "fields.ceiling_s": t.span_seconds("fields.magnetic_ceiling"),
        "fields.validate_s": t.span_seconds("fields.validate_hypotheses"),
        "fields.gradV_calls": gradv[0],
        "fields.B_calls": b[0],
        "fields.points": gradv[3] + b[3],
        "sampling.maximize_s": t.span_seconds("sampling.maximize_on_annulus"),
        "sampling.samples": c("sampling.samples", 0),
        "certificate.R_s": t.span_seconds("certificate.compute_R"),
        "certificate.lower_s": t.span_seconds("certificate.compute_lower_constants"),
        "certificate.momentum_s": t.span_seconds("certificate.compute_momentum_bound"),
        "certificate.verify_s": t.span_seconds("certificate.verify_orbit"),
        "degree.s": degree_s,
        "degree.starts": starts,
        "degree.starts_per_s": starts / degree_s if degree_s > 0 else 0.0,
        "degree.f0_evals": f0[0],
        "degree.hit_ratio": c("degree.hits", 0) / starts if starts else 0.0,
        "homotopy.rhs_calls": rhs[0],
        "homotopy.rhs_us": 1e6 * rhs[1] / rhs[0] if rhs[0] else 0.0,
        "integrator.flows": flows,
        "integrator.steps": steps,
        "integrator.rhs_per_step": c("integrator.traj_rhs", 0) / steps if steps else 0.0,
        "integrator.s": t.span_seconds("integrator.integrate"),
        "integrator.failures": c("integrator.errors", 0) / flows if flows else 0.0,
        "shooting.s": sum(
            s[3] - s[2] for s in t.spans if s[1] in shooting_top and s[4] == root[0]
        ),
        "shooting.solves": sum(1 for s in t.spans if s[1] == "shooting.newton_shooting"),
        "shooting.newton_iters": iters,
        "shooting.flows_per_iter": flows / iters if iters else 0.0,
        "shooting.identities_s": t.span_seconds("shooting.orbit_identities"),
        "shooting.steps_accepted": accepted,
        "shooting.steps_rejected": rejected,
        "shooting.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "cli.write_s": t.span_seconds("cli.write_csv"),
        "cli.other_s": root[5],
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


# Counts that must repeat exactly between traced calls of one workload and seed.
EXACT_COUNTS = (
    "fields.gradV_calls",
    "fields.B_calls",
    "fields.points",
    "sampling.samples",
    "degree.starts",
    "degree.f0_evals",
    "degree.hit_ratio",
    "homotopy.rhs_calls",
    "integrator.flows",
    "integrator.steps",
    "shooting.solves",
    "shooting.newton_iters",
    "shooting.steps_accepted",
    "shooting.steps_rejected",
)


def combine(per_call: list[dict[str, float]]) -> tuple[dict[str, float], bool]:
    """Median of each metric over the traced calls, and whether the exact counts repeated."""
    merged = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    repeat = all(m[k] == per_call[0][k] for m in per_call for k in EXACT_COUNTS)
    return merged, repeat
