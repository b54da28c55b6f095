"""Adaptive initial-value integration of the homotopy system with a singularity guard.

Integration is done in (position, momentum) coordinates, never
(position, velocity), so the speed limit |v| < 1 is structural.  The
one stepper is Hairer's embedded 8(5,3) pair DOP853 with its 7th-order
dense output (Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.5 and
II.6), ported from scipy.integrate with the same arithmetic (tables in
`lfe.butcher`), so nodes and dense output equal scipy's bit for bit.
Every accepted step keeps its stages; its dense output is built from
them only when the trajectory is read (`Trajectory.at`, `row`,
`write_csv`, the guard bisection), so a trial flow whose nodes are all
that is used costs no interpolant.  `integrate` is the one place a
`Trajectory` is built, and it sets every field: each trajectory has its
dense output and counts.  A stack of N states is integrated as one
6N-vector with shared step control: shooting integrates the Jacobian
columns (perturbed copies of the orbit) in the same flow as the orbit,
and the singularity guard watches every member of the stack.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from lfe import butcher
from lfe.fields import radial_powers
from lfe.homotopy import HomotopySystem
from lfe.kinematics import State, lorentz_factor


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


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size**0.5


# DOP853: 12 stages per step; k also holds f(t + h, y_new) and the three interpolant stages
_STAGES = butcher.DOP853_STAGES
_ROWS = len(butcher.DOP853_C)
_ERROR_ORDER = 7


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
    (m,), shape (n, m).  A time on a node belongs to the earlier step.
    The interpolants of all steps are built together, on the first call.
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
            stage = self._fun(t_old + c * h, np.array(stage_y))
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

    def __call__(self, t) -> np.ndarray:
        """Horner in x and 1 - x, point by point, as scipy's Dop853DenseOutput."""
        ts, ys = self._ts, self._ys
        if self._coeffs is None:
            self._coeffs = self._coefficients()
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2)
        t_old = ts[seg]
        x = ((t - t_old) / (ts[seg + 1] - t_old))[..., None]
        coeffs = self._coeffs[seg]
        y = np.zeros(t.shape + ys.shape[1:])
        for i in range(7):
            y += coeffs[..., 6 - i, :]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += ys[seg]
        return y.T


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000
    method: str = "DOP853"  # the only stepper; configs may still spell it out
    r_min: float = 1e-6

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.r_min <= 0:
            raise ValueError("guard radius must be positive")
        if self.method != "DOP853":
            raise ValueError(f"method must be DOP853, the only stepper, got {self.method!r}")


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes plus the per-step interpolant of one integration run.

    states has shape (n, 6) for one initial state, or (n, N, 6) for a stack
    of N states integrated with shared steps; `row` picks one of them.
    n_rhs_evals counts the right-hand-side calls of the run, not those that
    build the interpolant when it is first read; n_rejected counts the
    trial steps that step control rejected.
    """

    ts: np.ndarray
    states: np.ndarray
    lam: float
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

    def row(self, i: int) -> "Trajectory":
        """Member i of a stacked run, read from the shared nodes and interpolant."""
        interp, rows = self.interpolant, slice(6 * i, 6 * i + 6)
        return replace(self, states=self.states[:, i], interpolant=lambda t: interp(t)[rows])

    def write_csv(self, path, n: int) -> None:
        """Write t,q1,q2,q3,p1,p2,p3 rows at n evenly spaced times from t0 to t1, both included."""
        times = np.linspace(self.t0, self.t1, n)
        rows = np.column_stack([times, self.at(times).T]).tolist()
        write_rows_csv(path, ["t", "q1", "q2", "q3", "p1", "p2", "p3"], rows)


def write_rows_csv(path, header, rows) -> None:
    """CSV of the header and rows; floats are written with repr, so they read back exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (repr(float(x)) if isinstance(x, float) else str(x) for x in row)
            fh.write(",".join(cells) + "\n")


def _nearest(y: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest |q| among the states stacked in the flat vector y, and that state."""
    rows = y.reshape(-1, 6)
    r = np.hypot(np.hypot(rows[:, 0], rows[:, 1]), rows[:, 2])
    k = int(np.argmin(r))
    return float(r[k]), rows[k]


def _bisect_guard_crossing(interp, t_lo: float, t_hi: float, r_min: float):
    """First time in [t_lo, t_hi] where some |q(t)| = r_min, by bisection on the interpolant."""
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if _nearest(interp(t_mid))[0] >= r_min:
            t_lo = t_mid
        else:
            t_hi = t_mid
    return t_hi, _nearest(interp(t_hi))[1]


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol) -> float:
    """First step size (Hairer, Norsett & Wanner, Sec. II.4), as scipy's select_initial_step."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, k):
    """One step from (t, y) with f = fun(t, y); fills the stages k and returns y_new, f_new."""
    k[0] = f
    for s in range(1, _STAGES):
        dy = np.dot(k[:s].T, butcher.DOP853_A[s, :s]) * h
        k[s] = fun(t + butcher.DOP853_C[s] * h, y + dy)
    y_new = y + h * np.dot(k[:_STAGES].T, butcher.DOP853_B)
    f_new = fun(t + h, y_new)
    k[_STAGES] = f_new
    return y_new, f_new


# step-size control: safety factor and the bounds of one step's change
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def integrate(
    system: HomotopySystem,
    x0: State | np.ndarray,
    t_span: tuple[float, float],
    lam: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the homotopy system from x0 over t_span at the given lam.

    x0 is a State, or an array of flat states [q, p] of shape (6,) or
    (N, 6); a stack is integrated as one system, so all its members share
    the step sequence, and the guard applies to every member.
    Raises SingularityApproach if |q| reaches the guard radius (with the
    crossing time refined by bisection on the step interpolant),
    MaxStepsExceeded or StepUnderflow on step-control failures.
    Deterministic for fixed inputs.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    y0 = x0.as_array() if isinstance(x0, State) else np.array(x0, dtype=float)
    shape = y0.shape
    if shape[-1:] != (6,) or y0.ndim > 2:
        raise ValueError(f"initial states must have shape (6,) or (N, 6), got {shape}")
    y0 = y0.reshape(-1)
    r0 = _nearest(y0)[0]
    if r0 <= cfg.r_min:
        raise ValueError(f"initial position |q| = {r0:g} is inside the guard radius r_min = {cfg.r_min:g}")

    n_evals = 0

    def fun(t, y):
        """The flat right-hand side at time t, or at times t (k,) for k flat states y (k, n)."""
        nonlocal n_evals
        n_evals += 1
        if np.ndim(t) == 0:
            return system.rhs_array(t, y.reshape(shape), lam).reshape(-1)
        return system.rhs_array(np.repeat(t, y0.size // 6), y.reshape(-1, 6), lam).reshape(y.shape)

    rtol, atol = max(cfg.rtol, 100 * np.finfo(float).eps), cfg.atol
    exponent = -1 / (_ERROR_ORDER + 1)
    t, y, f = t0, y0, fun(t0, y0)
    h_abs = _initial_step(fun, t0, y0, t1, f, rtol, atol)
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
            t_cross, y_cross = _bisect_guard_crossing(step, t, t_new, cfg.r_min)
            raise SingularityApproach(t_cross, State.from_array(y_cross), cfg.r_min)
        t, y, f = t_new, y_new, f_new

    ts_arr, ys_arr = np.asarray(ts), np.asarray(ys)
    interp = _DenseOutput(ts_arr, ys_arr, stages, fun)
    return Trajectory(
        ts=ts_arr,
        states=ys_arr.reshape((len(ts),) + shape),
        lam=lam,
        interpolant=interp,
        n_rhs_evals=n_evals,
        n_rejected=n_rejected,
    )


def conserved_energy(system: HomotopySystem, y: np.ndarray, lam: float):
    """sqrt(1+|p|^2) + V_lam(q) - h_mean . q for y of shape (6,) or (n, 6); shape () or (n,).

    Constant along a flow when h_lam is time-independent.
    """
    q, (s, _) = radial_powers(y[..., :3])
    v_lam = (1.0 - lam) * system.config.c0 * np.sqrt(s[..., 0])
    if lam != 0.0:
        v_lam += lam * system.config.potential.value(q)
    return lorentz_factor(y[..., 3:]) + v_lam - np.add.reduce(q * system.config.forcing.mean, axis=-1)


def energy_drift(system: HomotopySystem, traj: Trajectory) -> float:
    """Max node deviation of the conserved energy along an autonomous-forcing run.

    Only meaningful when the interpolated forcing is time-independent
    (lam = 0 or no harmonics); raises ValueError otherwise.
    """
    if traj.lam != 0.0 and not system.config.forcing.is_constant():
        raise ValueError("energy drift is undefined for time-dependent forcing")
    energy = conserved_energy(system, traj.states, traj.lam)
    return float(np.max(np.abs(energy - energy[0])))
