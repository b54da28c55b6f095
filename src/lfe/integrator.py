"""Adaptive initial-value integration of the homotopy system with a singularity guard.

Integration is done in (position, momentum) coordinates, never
(position, velocity), so the speed limit |v| < 1 is structural.  The
one stepper is Hairer's embedded 8(5,3) pair DOP853 with its 7th-order
dense output (Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.5 and
II.6), ported from scipy.integrate with the same arithmetic (tables in
`lfe.butcher`), so nodes and dense output equal scipy's bit for bit
when scipy is given the same first step (`DOP853(first_step=...)`).  A
run takes no initial-step heuristic: a cold run's first trial step is
its whole span, which step control rejects and shrinks like any other,
and a warm run's is the `first_step` it is given.
Every accepted step keeps its stages; its dense output is built from
them only when the trajectory is read (`Trajectory.at`, `row`,
`write_csv`, the guard bisection), so a trial flow whose nodes are all
that is used costs no interpolant.  `integrate` is the one place a
`Trajectory` is built, and it sets every field: each trajectory has its
dense output and counts.  A stack of N states is integrated as one
6N-vector with shared step control: shooting integrates the Jacobian
columns (perturbed copies of the orbit) in the same flow as the orbit,
and the singularity guard watches every member of the stack.  Each
member runs at a time offset of its own, 0 unless one is given, so one
state is a stack of one at offset 0, and the consecutive segments
of one span flow as one stack over the length of a segment, and their
orbit members join into one trajectory over the whole span
(`Trajectory.joined`).  A run of a reversible system over half a period,
from Fix(G) to Fix(G), continues to the whole period as its G-image read
backwards (`Trajectory.reflected`), with no further right-hand-side call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from lfe import butcher
from lfe.homotopy import HomotopySystem
from lfe.kinematics import State


class SolverError(RuntimeError):
    """Base class for numerical failures of the integrator and solvers."""


class SingularityApproach(SolverError):
    """The orbit crossed the guard radius around the field singularity."""

    def __init__(self, t: float, state: State, r_min: float):
        super().__init__(f"|q| fell below the guard radius {r_min:g} at t = {t:.6g}")
        self.t = t
        self.state = state
        self.r_min = r_min


class MaxStepsExceeded(SolverError):
    pass


class StepUnderflow(SolverError):
    """Step control stalled (step size below machine limits)."""


# DOP853: 12 stages per step; k also holds f(t + h, y_new) and the three interpolant stages
_STAGES = butcher.DOP853_STAGES
_ROWS = len(butcher.DOP853_C)
_ERROR_ORDER = 7
# step-size control: safety factor and the bounds of one step's change
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


def _error_norm(k: np.ndarray, h: float, scale: np.ndarray) -> float:
    """Hairer's blend of the 5th- and 3rd-order error estimates over the stages k and f_new."""
    err5 = np.dot(k.T, butcher.DOP853_E5) / scale
    err3 = np.dot(k.T, butcher.DOP853_E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


class _DenseOutput:
    """The 7th-order dense output of accepted steps, built from their stored stages when first read.

    ts and ys are the nodes (n_nodes,) and flat states (n_nodes, n).
    Called with t of shape () it gives the flat state (n,); with t of shape
    (m,), shape (n, m).  columns, a slice of the n components, gives only
    those: it gathers and evaluates only their coefficients, with the
    same values, since Horner's rule is elementwise.  A time on a node
    belongs to the earlier step.  The interpolants of all steps are built
    together, on the first call.
    """

    def __init__(self, ts: np.ndarray, ys: np.ndarray, stages: list, fun: Callable):
        self._ts, self._ys, self._stages, self._fun = ts, ys, stages, fun
        self._coeffs = None

    def _coefficients(self) -> np.ndarray:
        """The interpolant stages of every step, each stage one call of fun over all steps."""
        ts, ys, k = self._ts, self._ys, self._stages
        t_old, h, y_old, y = ts[:-1], np.diff(ts), ys[:-1], ys[1:]
        for s in range(_STAGES + 1, _ROWS):
            a, c = butcher.DOP853_A[s, :s], butcher.DOP853_C[s]
            stage_y = [yo + np.dot(kj[:s].T, a) * hj for yo, kj, hj in zip(y_old, k, h)]
            stage = self._fun((t_old + c * h)[:, None], np.array(stage_y))
            for kj, fj in zip(k, stage):
                kj[s] = fj
        f = np.empty((len(k), 7, y_old.shape[1]))
        for fj, hj, yo, yj, kj in zip(f, h, y_old, y, k):
            delta_y = yj - yo
            fj[0] = delta_y
            fj[1] = hj * kj[0] - delta_y
            fj[2] = 2 * delta_y - hj * (kj[_STAGES] + kj[0])
            fj[3:] = hj * np.dot(butcher.DOP853_D, kj)
        return f

    def __call__(self, t, columns: slice = slice(None)) -> np.ndarray:
        """Horner in x and 1 - x, point by point, as scipy's Dop853DenseOutput."""
        ts = self._ts
        if self._coeffs is None:
            self._coeffs = self._coefficients()
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2)
        t_old = ts[seg]
        x = ((t - t_old) / (ts[seg + 1] - t_old))[..., None]
        coeffs = self._coeffs[seg, :, columns]
        y = np.zeros(coeffs.shape[:-2] + coeffs.shape[-1:])
        for i in range(7):
            y += coeffs[..., 6 - i, :]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self._ys[seg, columns]
        return y.T


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000
    r_min: float = 1e-6

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.r_min <= 0:
            raise ValueError("guard radius must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes plus the per-step interpolant of one integration run.

    states has shape (n, 6) for one initial state, or (n, N, 6) for a stack
    of N states integrated with shared steps; `row` picks one of them.
    rtol is the configured tolerance of the run (`IntegratorConfig.rtol`).
    n_rhs_evals counts the right-hand-side calls of the run, not those that
    build the interpolant when it is first read; n_rejected counts the
    trial steps that step control rejected.
    """

    ts: np.ndarray
    states: np.ndarray
    lam: float
    rtol: float
    interpolant: Callable
    n_rhs_evals: int
    n_rejected: int

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def at(self, t) -> np.ndarray:
        """Dense output: shape (6,) for scalar t, (6, n) for arrays; a stack adds a leading N."""
        y = self.interpolant(t)
        return y.reshape(self.states.shape[1:] + y.shape[1:])

    def warm_step(self, rtol: float, span: float | None = None) -> float:
        """A first step for a nearby flow over span (default: this run's) at rtol, after this run at self.rtol.

        The middle one of the sorted accepted steps, scaled by
        (rtol / self.rtol) ** (1 / 8), the step controller's exponent, and by its
        safety factor 0.9, as step control scales every step it proposes;
        without that factor the first step overshoots and is often rejected.
        A step that reaches 0.9 of the span is the whole span: a run that
        took its span in one step takes it in one step again at its own
        rtol, where the scaled step would split the span into a step and a
        sliver.  The few steps are sorted by Python: `np.median` would import
        numpy.ma, and `np.sort` would map numpy's SIMD sort code, either of
        which raises a run's peak memory.
        """
        span = self.t1 - self.t0 if span is None else span
        steps = sorted(np.diff(self.ts).tolist())
        h = _SAFETY * steps[len(steps) // 2] * (rtol / self.rtol) ** (1 / (_ERROR_ORDER + 1))
        return span if h >= _SAFETY * span else h

    def row(self, i: int) -> "Trajectory":
        """Member i of a stacked run, read from the shared nodes and its six columns of the interpolant."""
        interp, columns = self.interpolant, slice(6 * i, 6 * i + 6)
        return replace(self, states=self.states[:, i], interpolant=lambda t: interp(t, columns))

    def joined(self, members, starts: np.ndarray, end: float) -> "Trajectory":
        """Members of this stacked run, run at the time offsets starts, joined into one run over [starts[0], end].

        Member members[k] is segment k: it ran over [starts[k], starts[k] + h],
        h this run's span, and starts[k] + h = starts[k + 1] up to rounding,
        and end for the last one.  The joined nodes are each segment's nodes
        but its last, then end with the last segment's end.  A time in
        [starts[k], starts[k + 1]) reads segment k, so the node at starts[k]
        holds the start of segment k, and the joined trajectory is
        continuous to within the gaps between one segment's end and the
        next one's start.  rtol and the counts are this run's.
        """
        rows = [self.row(i) for i in members]

        def interpolant(t):
            t = np.asarray(t)
            flat = t.reshape(-1)
            seg = np.clip(np.searchsorted(starts, flat, side="right") - 1, 0, len(starts) - 1)
            y = np.empty((6, flat.size))
            for k, row in enumerate(rows):
                mask = seg == k
                if mask.any():
                    y[:, mask] = row.interpolant(flat[mask] - starts[k])
            return y.reshape((6,) + t.shape)

        ts = np.concatenate([start + self.ts[:-1] for start in starts] + [[end]])
        states = np.concatenate([row.states[:-1] for row in rows] + [rows[-1].states[-1:]])
        return replace(self, ts=ts, states=states, interpolant=interpolant)

    def reflected(self, g: np.ndarray) -> "Trajectory":
        """This run of one state over [t0, t1], continued to [t0, 2 t1 - t0] by x(t1 + s) = G x(t1 - s).

        G = diag(g) is a reversor of the system about t1, and x(t1) lies in
        Fix(G): the run of a reversible system from Fix(G) to Fix(G) over
        half a period gives the whole period so.  The second half's nodes
        and dense output are the G-images of the first half's, read
        backwards; rtol and the counts are this run's.
        """
        t1, interp = self.t1, self.interpolant

        def interpolant(t):
            t = np.asarray(t)
            later = t > t1
            sign = np.where(later, g.reshape(g.shape + (1,) * t.ndim), 1.0)
            return sign * interp(np.where(later, 2.0 * t1 - t, t))

        ts = np.concatenate([self.ts, 2.0 * t1 - self.ts[-2::-1]])
        states = np.concatenate([self.states, g * self.states[-2::-1]])
        return replace(self, ts=ts, states=states, interpolant=interpolant)

    def write_csv(self, path, n: int) -> None:
        """Write t,q1,q2,q3,p1,p2,p3 rows at n evenly spaced times from t0 to t1, both included."""
        times = np.linspace(self.t0, self.t1, n)
        rows = np.column_stack([times, self.at(times).T]).tolist()
        write_rows_csv(path, ["t", "q1", "q2", "q3", "p1", "p2", "p3"], rows)


def write_rows_csv(path, header, rows) -> None:
    """CSV of the header and rows, each cell written with repr, so floats read back exactly.

    Rows hold Python floats and ints (`tolist()` gives them), not numpy
    scalars, whose repr names their type.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _nearest(y: np.ndarray) -> tuple[float, int]:
    """Smallest |q| among the states stacked in the flat vector y, and the index of that state."""
    rows = y.reshape(-1, 6)
    r = np.hypot(np.hypot(rows[:, 0], rows[:, 1]), rows[:, 2])
    k = int(np.argmin(r))
    return float(r[k]), k


def _bisect_guard_crossing(interp, t_lo: float, t_hi: float, r_min: float):
    """First time in [t_lo, t_hi] where some |q(t)| = r_min, by bisection on the interpolant, and that member."""
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if _nearest(interp(t_mid))[0] >= r_min:
            t_lo = t_mid
        else:
            t_hi = t_mid
    y = interp(t_hi)
    k = _nearest(y)[1]
    return t_hi, k, y.reshape(-1, 6)[k]


# (s, c_s, a_s0 ... a_s(s-1)) of the stages after the first, read once at import
_STAGE_ROWS = tuple((s, float(butcher.DOP853_C[s]), butcher.DOP853_A[s, :s]) for s in range(1, _STAGES))


def _rk_step(fun, t, y, f, h, k):
    """One step from (t, y) with f = fun(t, y); fills the stages k and returns y_new, f_new."""
    k[0] = f
    for s, c, a in _STAGE_ROWS:
        k[s] = fun(t + c * h, y + np.dot(k[:s].T, a) * h)
    y_new = y + h * np.dot(k[:_STAGES].T, butcher.DOP853_B)
    f_new = fun(t + h, y_new)
    k[_STAGES] = f_new
    return y_new, f_new


_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def integrate(
    system: HomotopySystem,
    x0: State | np.ndarray,
    t_span: tuple[float, float],
    lam: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    first_step: float | None = None,
    offsets: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the homotopy system from x0 over t_span at the given lam.

    x0 is a State, or an array of flat states [q, p] of shape (6,) or
    (N, 6); a stack is integrated as one system, so all its members share
    the step sequence, and the guard applies to every member.
    offsets, one per member (shape (1,) for one state), are the time
    offsets of the members, 0 by default, so a plain flow is a stack at
    offset 0: member i runs over t_span shifted by offsets[i], so it sees
    the field at t + offsets[i] where the run is at t, and its nodes and
    dense output are read in the run's time.  The members of consecutive
    segments of one span, each at its segment's start, join into one
    trajectory over the span (`Trajectory.joined`).
    first_step, in (0, t1 - t0], is the size of the first trial step;
    without it the first trial step is the whole span t1 - t0.  A first
    step that is too large is rejected and shrunk by step control like
    any other.
    Raises SolverError if a start lies inside the guard radius,
    SingularityApproach if |q| reaches it (with the crossing time refined
    by bisection on the step interpolant, and named in the time of the
    member that crossed), MaxStepsExceeded or StepUnderflow on
    step-control failures.
    Deterministic for fixed inputs.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if first_step is not None and not 0.0 < first_step <= t1 - t0:
        raise ValueError(f"first_step must lie in (0, {t1 - t0:g}], got {first_step}")
    y0 = x0.as_array() if isinstance(x0, State) else np.array(x0, dtype=float)
    shape = y0.shape
    if shape[-1:] != (6,) or y0.ndim > 2:
        raise ValueError(f"initial states must have shape (6,) or (N, 6), got {shape}")
    y0 = y0.reshape(-1)
    r0 = _nearest(y0)[0]
    if r0 <= cfg.r_min:
        raise SolverError(f"initial position |q| = {r0:g} is inside the guard radius r_min = {cfg.r_min:g}")

    n_evals, members = 0, y0.size // 6
    shift = np.zeros(members) if offsets is None else np.asarray(offsets, dtype=float)
    if shift.shape != (members,):
        raise ValueError(f"offsets must have shape ({members},) for a stack of {members} states")

    def fun(t, y):
        """The flat right-hand side of a flat state y (n,) at a time t, or of k states y (k, n) at k times t (k, 1)."""
        nonlocal n_evals
        n_evals += 1
        return system.rhs_array((t + shift).reshape(-1), y.reshape(-1, 6), lam).reshape(y.shape)

    rtol, atol = max(cfg.rtol, 100 * np.finfo(float).eps), cfg.atol
    exponent = -1 / (_ERROR_ORDER + 1)
    t, y, f = t0, y0, fun(t0, y0)
    h_abs = t1 - t0 if first_step is None else float(first_step)
    ts, ys, stages = [t0], [y0], []
    n_rejected = 0
    while t < t1:
        if len(stages) >= cfg.max_steps:
            raise MaxStepsExceeded(f"no convergence within {cfg.max_steps} steps")
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"step control failed at t = {t:.6g}: {_TOO_SMALL_STEP}")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = np.abs(h)
            k = np.empty((_ROWS, y0.size))
            y_new, f_new = _rk_step(fun, t, y, f, h, k)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(k[: _STAGES + 1], h, scale)
            if error_norm < 1:
                factor = _MAX_FACTOR
                if error_norm != 0:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**exponent)
            rejected = True
            n_rejected += 1
        ts.append(t_new)
        ys.append(y_new)
        stages.append(k)
        if _nearest(y_new)[0] < cfg.r_min:
            step = _DenseOutput(np.array(ts[-2:]), np.array(ys[-2:]), stages[-1:], fun)
            t_cross, member, y_cross = _bisect_guard_crossing(step, t, t_new, cfg.r_min)
            raise SingularityApproach(t_cross + shift[member], State.from_array(y_cross), cfg.r_min)
        t, y, f = t_new, y_new, f_new

    ts_arr, ys_arr = np.asarray(ts), np.asarray(ys)
    interp = _DenseOutput(ts_arr, ys_arr, stages, fun)
    return Trajectory(
        ts=ts_arr,
        states=ys_arr.reshape((len(ts),) + shape),
        lam=lam,
        rtol=cfg.rtol,
        interpolant=interp,
        n_rhs_evals=n_evals,
        n_rejected=n_rejected,
    )

