"""Degree computation for the autonomous field: explicit zero, Jacobian sign, uniqueness sweep.

The autonomous field has a single zero (momentum zero, position on the ray
opposite the mean forcing), and its Jacobian determinant there is strictly
negative, so the topological degree on the certified annulus is -1.  That
nonzero degree is what anchors the continuation; this module takes its
sign from the closed-form determinant (its central-difference oracle is a
test), and guards against a second zero with a multi-start Newton sweep
in velocity coordinates (see lfe.homotopy).  Its starts are uniform
numbers from `numpy.random.default_rng(seed)`, so under one numpy version
a seed repeats the sweep bit for bit.  The sweep steps in the inverted
radius w = q/|q|^3, where the force block is linear, so a step needs no
solve and a start deep inside the region reaches the zero in a few steps.
The orientation, stated in the report:
domain ordered (p, q), codomain (q', p'), as in `f0_determinant_closed_form`;
there the degree is minus the fixed-point index sign det(I - M) of the
orbit it anchors, M its monodromy.  That orbit is the equilibrium itself,
whose monodromy M0 is closed-form (`EquilibriumLinearization`): the report
gives omega T / 2 pi, the resonant period T_res = 2 pi / omega and
det(I - M0), which is positive but at a resonance (Capietto, Mawhin &
Zanolin, Trans. AMS 329, 1992, relate the degree of f0 to that of the
lam = 0 periodic problem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from lfe.fields import mean_norm, power_law
from lfe.homotopy import AutonomousField, EquilibriumLinearization, f0_determinant_closed_form
from lfe.kinematics import State, phi_inv


class DegenerateForcing(ValueError):
    """No zero of the autonomous field in double range: a zero mean, or a force at it out of range."""


class DegreeError(RuntimeError):
    pass


class ZeroOutsideOmega(DegreeError):
    pass


class MultipleZeros(DegreeError):
    pass


# the zero's residual bound, relative to |mean|
_ZERO_RTOL = 1e-12
# a force term below this rounds by more than _ZERO_RTOL of itself: the least subnormal over _ZERO_RTOL
_LEAST_FORCE = math.ulp(0.0) / _ZERO_RTOL


def find_zero_f0(c0: float, h_mean) -> State:
    """The unique zero of the autonomous field: p = 0, q = -sqrt(c0/|h|) h/|h|, with |h| from `mean_norm`.

    The returned state is verified to leave a residual below 1e-12 |h|:
    the force is h minus a term of the same size, so its rounding error
    scales with |h|.  Raises DegenerateForcing when the mean forcing
    vanishes (the force component c0 q/|q|^3 never vanishes at finite q),
    or when the force at the zero leaves the double range: r^-3 of the
    radius r = sqrt(c0/|h|) is not a normal double (r is 0 or inf, or r^-3
    over- or underflows although r does not), or a force term, the
    coefficient c0 r^-3 = |h|/r or |h| itself, is so far below the normal
    range (under _LEAST_FORCE = 4.9e-312) that its rounding alone misses
    the residual bound, as when c0 r^-3 underflows to 0.
    """
    h_mean = np.asarray(h_mean, dtype=float)
    hn = mean_norm(h_mean)
    if hn == 0.0:
        raise DegenerateForcing("mean forcing is zero; the autonomous field has no zero")
    radius = math.sqrt(float(c0) / hn)
    inverse_cube = power_law(1.0, radius, 3.0) if radius else math.inf
    coefficient = float(c0) * inverse_cube
    # (name, value, least value): the force at the zero reads r^-3 and its two terms of size |mean|
    terms = (
        ("r^-3", inverse_cube, np.finfo(float).tiny),
        ("c0 r^-3", coefficient, _LEAST_FORCE),
        ("|mean|", hn, _LEAST_FORCE),
    )
    for name, value, least in terms:
        if not least <= value < math.inf:
            what = f"the equilibrium radius sqrt(c0/|mean|) = sqrt({c0:.6g}/{hn:.6g}) = {radius:g}"
            raise DegenerateForcing(f"{what} leaves the double range: {name} = {value:g}")
    x0 = State(q=-radius * (h_mean / hn), p=np.zeros(3))
    residual = math.hypot(*AutonomousField(c0, h_mean).value(x0.q, phi_inv(x0.p)))
    tol = _ZERO_RTOL * hn
    if not residual < tol:
        raise ArithmeticError(f"equilibrium residual {residual:.3e} exceeds {tol:.3e}")
    return x0


@dataclass(frozen=True)
class DegreeReport:
    x0: State
    det_analytic: float
    degree: int
    omega: tuple[float, float, float]
    sweep: dict
    # the lam = 0 orbit at x0 over the period T: omega T / 2 pi, 2 pi / omega and det(I - M0)
    omega_T_over_2pi: float
    T_res: float
    det_I_minus_M0: float
    orientation: ClassVar[str] = "domain (p, q), codomain (q', p'): the degree is minus the index sign det(I - M)"

    def lines(self) -> list[str]:
        m, upper, p_max = self.omega
        q = ", ".join(repr(float(v)) for v in self.x0.q)
        p = ", ".join(repr(float(v)) for v in self.x0.p)
        return [
            f"zero:            q = ({q}), p = ({p})",
            f"region:          {m:.6g} < |q| < {upper:.6g}, |p| < {p_max:.6g}",
            f"det (analytic):  {self.det_analytic!r}",
            f"degree:          {self.degree}",
            f"orientation:     {self.orientation}",
            f"omega T / 2pi:   {self.omega_T_over_2pi!r}",
            f"T_res:           {self.T_res!r} (2 pi / omega, omega = sqrt(2 c0 / |q|^3))",
            f"det(I - M0):     {self.det_I_minus_M0!r} ((2 - 2 cosh sT)^2 (2 - 2 cos omega T))",
            "sweep:           "
            + ", ".join(f"{k}={v}" for k, v in self.sweep.items() if isinstance(v, int)),
        ]


def _unit_vectors(u: np.ndarray) -> np.ndarray:
    """One unit vector per row of u in [0, 1)^2; uniform u gives area-uniform directions."""
    z = 1.0 - 2.0 * u[:, 0]
    az = 2.0 * math.pi * u[:, 1]
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(az), s * np.sin(az), z])


def _radial_scale(x: np.ndarray, power: float) -> np.ndarray:
    """x |x|^-power row by row for x of shape (N, 3), with no warning.

    A row whose result or |x|^2 leaves double range comes back with an
    infinite, NaN or zero result, which the caller reads as no point.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return x * np.add.reduce(x * x, axis=1, keepdims=True) ** (-0.5 * power)


def _g(field: AutonomousField, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g at the rows of y = (q, v) and its norm, which is inf, with no warning, where |g|^2 overflows."""
    f = field.value(y[:, :3], y[:, 3:])
    with np.errstate(over="ignore"):
        return f, np.linalg.norm(f, axis=1)


def _newton_sweep(field: AutonomousField, x0: State, omega, n_pow2: int, seed: int) -> dict:
    """Damped Newton on g(q, v) from 2**n_pow2 random starts filling the region; classify the basins.

    A start is six uniform numbers of `numpy.random.default_rng(seed)`: the
    direction and log radius of q, then of p.  So the sweep is a pure
    function of the seed, bit for bit under one numpy version.

    The step is taken in the inverted radius w = q |q|^-3, a bijection of
    R^3 minus the origin with inverse q = w |w|^-3/2.  There the force
    block of g = (G, F) is h + c0 w, linear in w, and the velocity block
    G = v has the identity Jacobian, so the Newton step is (-F/c0, -G): no
    solve.  The Newton point w - F/c0 is formed as -(h + d)/c0, with
    d = F - h - c0 w the field's departure from that model, and a step of
    length alpha as (1 - alpha) times the current point plus alpha times
    the Newton point.  Otherwise a huge w would cancel against F and round
    the mean forcing away.

    Each start runs its own iteration: at most 60 Newton steps, converged
    once the residual of g (in q and v) is below 1e-11, each step halved up
    to 30 times until the residual strictly decreases.  A start escapes
    when no halving decreases it, when it leaves |q| <= 1e6 upper, or when
    its w or its residual leaves double range.  Every Newton step and every
    halving is one array operation over the starts still running;
    `iterations` counts the Newton steps of that stack.

    Any numerical zero must have v = 0 and coincide with x0; a second zero
    raises MultipleZeros.  Escapes per decade of |q0| show what was searched.
    """
    m, upper, p_max = omega
    u = np.random.default_rng(seed).random((2**n_pow2, 6))
    # log-spaced radii cover the decades an a priori annulus can span
    r_q = np.exp(np.log(m) + u[:, 2] * (np.log(upper) - np.log(m)))
    p_floor = min(1e-3, 0.1 * p_max)
    r_p = np.exp(np.log(p_floor) + u[:, 5] * (np.log(p_max) - np.log(p_floor)))
    r_v = r_p / np.hypot(1.0, r_p)  # the speed of each momentum start
    y = np.hstack([r_q[:, None] * _unit_vectors(u[:, :2]), r_v[:, None] * _unit_vectors(u[:, 3:5])])
    w = _radial_scale(y[:, :3], 3.0)  # always w of the q in y

    c0, h = field.c0, field.h_mean
    converged = np.zeros(len(y), dtype=bool)
    live = np.flatnonzero(np.isfinite(w).all(axis=1))
    iterations = 0
    while live.size and iterations < 60:
        iterations += 1
        f, res = _g(field, y[live])
        done = res < 1e-11
        converged[live[done]] = True
        keep = ~done & np.isfinite(res)
        live, f, res = live[keep], f[keep], res[keep]
        w_newton = -(h + ((f[:, 3:] - h) - c0 * w[live])) / c0
        v_newton = y[live, 3:] - f[:, :3]

        waiting = np.arange(len(live))  # rows of live with no accepted step yet
        alpha = 1.0
        for _ in range(30):
            rows = live[waiting]
            w_try = (1.0 - alpha) * w[rows] + alpha * w_newton[waiting]
            v_try = (1.0 - alpha) * y[rows, 3:] + alpha * v_newton[waiting]
            y_try = np.hstack([_radial_scale(w_try, 1.5), v_try])
            w_back = _radial_scale(y_try[:, :3], 3.0)
            valid = np.isfinite(w_back).all(axis=1)
            better = np.zeros_like(valid)
            if valid.any():
                better[valid] = _g(field, y_try[valid])[1] < res[waiting[valid]]
            y[rows[better]] = y_try[better]
            w[rows[better]] = w_back[better]
            waiting = waiting[~better]
            if not waiting.size:
                break
            alpha *= 0.5
        # no decrease, or a step out of the region: escaped
        live = np.delete(live, waiting)
        live = live[np.linalg.norm(y[live, :3], axis=1) <= 1e6 * upper]

    ref = np.concatenate([x0.q, phi_inv(x0.p)])
    zeros = y[converged]
    far = np.max(np.abs(zeros - ref), axis=1) > 1e-6 * (1.0 + float(np.max(np.abs(ref))))
    if far.any():
        raise MultipleZeros(f"Newton converged to a second zero near {zeros[far][0]}")
    worst_v_at_zero = float(np.max(np.linalg.norm(zeros[:, 3:], axis=1), initial=0.0))
    if worst_v_at_zero >= 1e-9:
        raise DegreeError(f"a numerical zero has velocity |v| = {worst_v_at_zero:.3e} >= 1e-9")
    n_converged = int(np.count_nonzero(converged))
    decade = np.floor(np.log10(r_q))
    return {
        "starts": len(y),
        "converged_to_zero": n_converged,
        "escaped": len(y) - n_converged,
        "iterations": iterations,
        "seed": seed,
        "escapes_by_start_decade": [
            {"decade": int(d), "starts": int(n), "escaped": int(np.sum(~converged[decade == d]))}
            for d, n in zip(*np.unique(decade, return_counts=True))
        ],
    }


def brouwer_degree(
    c0: float,
    h_mean,
    omega: tuple[float, float, float],
    *,
    period: float,
    seed: int,
) -> DegreeReport:
    """Degree of the autonomous field on the region m < |q| < upper, |p| < p_max.

    The sign comes from the closed-form determinant at the explicit zero
    (f0_determinant_closed_form).  A multi-start Newton sweep from 2^10
    starts, uniform numbers of `numpy.random.default_rng(seed)`, must find
    no zero other than the explicit one.  The report also gives the
    equilibrium orbit's resonance data over the period
    (`EquilibriumLinearization`); a period whose det(I - M0) leaves the
    double range is a DegreeError naming sT.
    """
    m, upper, p_max = omega
    x0 = find_zero_f0(c0, h_mean)
    r_star = float(np.linalg.norm(x0.q))
    if not m < r_star < upper:
        raise ZeroOutsideOmega(f"zero radius {r_star:.6g} outside ({m:.6g}, {upper:.6g})")

    start = EquilibriumLinearization.at(c0, x0.q, period)
    start.require_double_range(DegreeError)
    field = AutonomousField(c0=c0, h_mean=np.asarray(h_mean, dtype=float))
    det_analytic = f0_determinant_closed_form(c0, x0.q, x0.p)
    sweep = _newton_sweep(field, x0, omega, 10, seed)
    degree = int(math.copysign(1.0, det_analytic))
    return DegreeReport(
        x0=x0,
        det_analytic=det_analytic,
        degree=degree,
        omega=(float(m), float(upper), float(p_max)),
        sweep=sweep,
        omega_T_over_2pi=start.turns,
        T_res=start.resonant_period,
        det_I_minus_M0=start.index_det(),
    )


__all__ = [
    "DegenerateForcing",
    "DegreeError",
    "ZeroOutsideOmega",
    "MultipleZeros",
    "DegreeReport",
    "find_zero_f0",
    "brouwer_degree",
    "f0_determinant_closed_form",
]
