"""Adaptive initial-value integration of the homotopy system with a singularity guard.

Integration is done in (position, momentum) coordinates, never
(position, velocity), so the speed limit |v| < 1 is structural.  The
stepper is an embedded Runge-Kutta pair with dense output; periodicity
residuals and period quadratures are read from the stored interpolant,
never from re-integration.  A stack of N states is integrated as one
6N-vector with shared step control: shooting integrates the Jacobian
columns (perturbed copies of the orbit) in the same flow as the orbit,
and the singularity guard watches every member of the stack.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import DOP853, RK45, OdeSolution

from lfe.fields import _check_away_from_origin
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


_METHODS = {"DOP853": DOP853, "RK45": RK45}


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000
    method: str = "DOP853"
    r_min: float = 1e-6

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.r_min <= 0:
            raise ValueError("guard radius must be positive")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {sorted(_METHODS)}")


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes plus the per-step interpolant of one integration run.

    states has shape (n, 6) for one initial state, or (n, N, 6) for a stack
    of N states integrated with shared steps; `row` picks one of them.
    """

    ts: np.ndarray
    states: np.ndarray
    lam: float
    interpolant: Callable | None = None
    n_rhs_evals: int = 0

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def at(self, t) -> np.ndarray:
        """Dense output: shape (6,) for scalar t, (6, n) for arrays; a stack adds a leading N."""
        if self.interpolant is None:
            raise ValueError("trajectory has no interpolant (single node)")
        y = self.interpolant(t)
        return y.reshape(self.states.shape[1:] + y.shape[1:])

    def row(self, i: int) -> "Trajectory":
        """Member i of a stacked run, read from the shared nodes and interpolant."""
        interp, rows = self.interpolant, slice(6 * i, 6 * i + 6)
        return replace(
            self,
            states=self.states[:, i],
            interpolant=None if interp is None else (lambda t: interp(t)[rows]),
        )

    def write_csv(self, path, times) -> None:
        """Sample the orbit on the given grid and write t,q1,q2,q3,p1,p2,p3 rows."""
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
    if _nearest(y0)[0] <= cfg.r_min:
        raise ValueError("initial position is inside the guard radius")

    n_evals = 0

    def fun(t, y):
        nonlocal n_evals
        n_evals += 1
        return system.rhs_array(t, y.reshape(shape), lam).reshape(-1)

    stepper = _METHODS[cfg.method](fun, t0, y0, t1, rtol=cfg.rtol, atol=cfg.atol)
    ts = [t0]
    ys = [y0]
    interps = []
    steps = 0
    while stepper.status == "running":
        if steps >= cfg.max_steps:
            raise MaxStepsExceeded(f"no convergence within {cfg.max_steps} steps")
        message = stepper.step()
        steps += 1
        if stepper.status == "failed":
            raise StepUnderflow(f"step control failed at t = {stepper.t:.6g}: {message}")
        interp = stepper.dense_output()
        interps.append(interp)
        ts.append(stepper.t)
        ys.append(stepper.y.copy())
        if _nearest(stepper.y)[0] < cfg.r_min:
            t_cross, y_cross = _bisect_guard_crossing(interp, ts[-2], stepper.t, cfg.r_min)
            raise SingularityApproach(t_cross, State.from_array(y_cross), cfg.r_min)

    ts_arr = np.asarray(ts)
    states = np.asarray(ys).reshape((len(ts),) + shape)
    sol = OdeSolution(ts_arr, interps) if interps else None
    return Trajectory(ts=ts_arr, states=states, lam=lam, interpolant=sol, n_rhs_evals=n_evals)


def conserved_energy(system: HomotopySystem, y: np.ndarray, lam: float):
    """sqrt(1+|p|^2) + V_lam(q) - h_mean . q for y of shape (6,) or (n, 6); shape () or (n,).

    Constant along a flow when h_lam is time-independent.
    """
    q, r = _check_away_from_origin(y[..., :3])
    v_lam = (1.0 - lam) * system.config.c0 / r[..., 0]
    if lam != 0.0:
        v_lam += lam * system.config.potential.value(q)
    return lorentz_factor(y[..., 3:]) + v_lam - np.add.reduce(q * system.h_mean, axis=-1)


def energy_drift(system: HomotopySystem, traj: Trajectory) -> float:
    """Max node deviation of the conserved energy along an autonomous-forcing run.

    Only meaningful when the interpolated forcing is time-independent
    (lam = 0 or no harmonics); raises ValueError otherwise.
    """
    if traj.lam != 0.0 and not system.config.forcing.is_constant():
        raise ValueError("energy drift is undefined for time-dependent forcing")
    energy = conserved_energy(system, traj.states, traj.lam)
    return float(np.max(np.abs(energy - energy[0])))
