"""Shooting for the T-periodic problem and the continuation driver.

A periodic orbit is a fixed point of the time-T flow in (q, p).  Damped
Newton iterates on the flow residual.  Its Jacobian is the forward
finite-difference monodromy matrix, whose six columns are integrated in
the same stacked flow as the trial orbit: one 42-vector run with shared
step control gives both the residual and the monodromy at each trial
point.

Reversible shooting.  Let R be a coordinate mirror q_n -> -q_n and
G = diag(R, -R) on (q, p).  When the potential, the magnetic field and
the forcing all commute with R (`FieldConfig.mirrors`: grad V(Rq) =
R grad V(q), B(Rq) = R B(q), R h(-t) = h(t)), the map x(t) -> G x(-t)
takes solutions to solutions at every lam: the family is reversible, and
the lam = 0 equilibrium lies in Fix(G) = {q_n = 0, p_i = 0 for i != n}.
A start u in Fix(G) whose flow is in Fix(G) again at T/2 is a symmetric
T-periodic orbit (Devaney, "Reversible diffeomorphisms and flows", Trans.
AMS 218, 1976; Lamb & Roberts, Physica D 112, 1998; Munoz-Almaraz,
Freire, Galan, Doedel & Vanderbauwhede, "Continuation of periodic orbits
in conservative and Hamiltonian systems", Physica D 181, 2003).  So when
the config has a mirror whose Fix(G) holds the guess, a solve takes the
reversible path (`_shooting`, chosen once per solve): 3 equations, the
off-Fix coordinates of y = phi_T/2(x0), in the 3 Fix(G) coordinates of
x0, over half the period.  The same 7-member stack gives Phi =
D phi_T/2(x0), whose columns [off, fix] are the Jacobian; one right-hand
side call costs about the same for 1 row or 7.  The full-period facts
follow from the half flow, since phi_T = G phi_T/2^-1 G phi_T/2 on Fix(G):

- the monodromy M = G Phi^-1 G Phi, which gives det(I - M);
- the residual G Phi^-1 (G y - y), the linearization of phi_T(x0) - x0,
  whose sup-norm convergence is read from;
- the one-period trajectory, whose second half is x(t) = G x(T - t)
  (`Trajectory.reflected`).

det M = det Phi^-1 det Phi = 1 holds on this path by construction, so it
is no independent check of the flow there, as it is of a full-period
difference monodromy (Liouville: the deformed field is divergence-free).
A config with no common mirror or a guess outside every Fix(G) takes
the full path: [0, T], six unknowns, Jacobian M - I.  A reversible solve
keeps x0 in Fix(G) exactly, so a continuation stays on the symmetric
branch until the branch check or a failed solve stops it; a
symmetry-breaking bifurcation, where M - I gains a kernel off Fix(G)
while the reduced Jacobian stays regular, shows as a small
`sigma_min_M_minus_I` in `OrbitSolution.symmetry`.

Multiple shooting (Stoer & Bulirsch, "Introduction to Numerical
Analysis", section 7.3; Deuflhard, "Newton Methods for Nonlinear
Problems", 2004, chapters 7-8).  A solve may split its span (T/2 on the
reversible path, T on the full path) into K segments of length h, with
segment starts t_k = k h.  The unknowns are then the free coordinates of
s_0 = x0 and the states s_1 ... s_(K-1) at t_1 ... t_(K-1); the equations
are the matching conditions phi_h(s_k) - s_(k+1) = 0, segment k seeing the
forcing at t + t_k, and the path's end condition on the last segment's
end y.  All K segments and their difference members flow as one stack of
7K members over [0, h] with shared steps (`integrate` with time offsets),
and a right-hand-side call of 28 rows costs little more than one of 7
(30.1 against 26.0 us), so a span that takes K sequential steps costs
about one.  The Jacobian is block bidiagonal in the segments' difference
Jacobians Phi_k (cyclic on the full path), solved by one dense LU of size
at most 6K.

- The K rule.  Each solve chooses K once, like its path, from the accepted
  steps of its guess flow (its first flow, over the whole span): K is
  that count when it lies in 2 ... _MAX_SEGMENTS = 4, and 1 otherwise.
  Multiple shooting's Newton iterates differ from single shooting's after
  the first step, and where a guess flow takes many steps they converged
  more slowly or to another orbit on the desk atlas
  (`tests/test_acceptance.py`, whose guess flows take 5 to 7 steps at
  T = 2, 2.6 and 3).  With K = min(steps, 4) the cell (T, a) = (2, 5)
  took 7 Newton iterations instead of 5, and (2.6, 5) reached lam = 1 in
  7 accepted steps and 226 iterations instead of 1 step and 6.
- The first iterate.  The segment starts s_k are the guess flow's orbit
  at t_k, read from its dense output, so the matching defects are zero
  and the first Newton step is single shooting's; its difference members
  at t_k give Phi(t_k) = D phi_t_k(x0), so Phi_k = Phi(t_(k+1)) Phi(t_k)^-1
  needs no further flow.
- The condensed residual.  The residual norm keeps its meaning, the
  sup-norm of the linearized one-period residual of x0: the defects are
  carried through the Phi_k to the end of the span and added to y, which
  is then read as with one segment, against the product
  Phi = Phi_(K-1) ... Phi_0.  The inexact-Newton rule below reads it
  unchanged.
- The product monodromy.  M is that of the product Phi: M = Phi on the
  full path, G Phi^-1 G Phi on the reversible one.
- The first steps.  A warm first step that reaches 0.9 of its span is the
  whole span (`Trajectory.warm_step`), so at the trial rtol a desk
  segment of one step takes one step again, where the middle step scaled
  by the safety factor would split it into a step and a sliver.  Flows of
  several steps keep their first step.
- The trajectory.  The orbit members of the segments join into one
  trajectory over the span (`Trajectory.joined`), continuous to within
  the matching defects.

The continuation driver walks the deformation parameter from the
autonomous equilibrium at lam = 0 toward the full equation at lam = 1,
with one step rule: the first step tries the whole interval
(dlam_init = 1.0, capped by target_lambda), every accepted step is
followed by an attempt at the rest of the interval, and a failed or
rejected attempt halves the step.  The predictor is the previous
orbit's initial state.  Every accepted orbit keeps the sign
of det(I - M) of the lam = 0 orbit, minus the degree of the autonomous
field, so a step that lands on another branch is rejected, and so is
one whose det(I - M) is 0: there the difference monodromy does not
resolve the index.  With
h = ceil(log2(target_lambda / dlam_floor)) halvings from the whole
interval to the floor, a run of failed attempts after an accepted step
underflows within 1 + h attempts, and the attempt budget gives 1 + h
accepted steps one such allowance each: (1 + h)**2 attempts, 225 at the
defaults (`continue_lambda`).

Newton is inexact in the sense of Dembo, Eisenstat & Steihaug ("Inexact
Newton methods", SIAM J. Numer. Anal. 19, 1982): the trial flows of an
iteration that starts from the residual sup-norm r run at
rtol = max(rtol0, min(1e-6, 1e-4 r)), with atol scaled by the same
factor, where rtol0 is the configured tolerance; an early iteration does
not resolve digits that the next one discards.  An rtol below 2 rtol0 is
rounded to rtol0: such a flow costs at most 9 % more there, and needs no
confirming re-flow.  Every guess flows at the same rule's tolerance for
its drift over one period, T max|f(0, y0)| (`_drift_residual`, one
right-hand-side call), and again at its actual residual's tolerance
when that is tighter: a guess at an equilibrium flows at rtol0, and a
guess that moves at a rate of order one flows at the cap.

Convergence is read only from a flow at rtol0.  From the second
iteration on, an iteration that starts from the residual r, after one
that started from r_prev, is predicted to converge when Newton's
quadratic convergence model (Deuflhard, "Newton Methods for Nonlinear
Problems", 2004), in which the contraction
squares from one iteration to the next (theta_k = theta_(k-1)^2 with
theta_(k-1) = r / r_prev), puts the next residual r^3 / r_prev^2 below
newton_tol.  Its trial then flows at rtol0, so convergence is read from
that flow.  Any other loose guess or trial whose residual already meets
newton_tol is flowed once more at rtol0.  That confirming re-flow is no
Newton iteration, so it adds no `newton_trace` entry and does not count
against max_iterations.  Each `newton_trace` entry records the `rtol`
of its accepted trial flow.

Flows are warm-started.  Each flow integrates the same span, or one
segment of it, from a state close to its predecessor's, so it takes its
first step from the predecessor's steps (`Trajectory.warm_step`): their
middle one, scaled by (rtol / rtol_prev) ** (1/8), the step controller's
exponent, and by its safety factor 0.9; a step that reaches 0.9 of the
span is the whole span, so a segment that took one step takes one step
again at the same rtol, not a step and a sliver.  rtol_prev is the rtol
the predecessor ran at, which it records (`Trajectory.rtol`).  Within a
solve the predecessor is the iterate's flow; the guess of a continuation
step after the first follows the previous accepted orbit's trajectory
(on the reversible path its reflection, whose steps are the half flow's,
each twice).  The first flow of a solve without a previous orbit starts
cold, and tries its whole span as its first step, which step control
shrinks if it is too long: that of `find-orbit`, and the first
continuation step's guess.

The lam = 0 start is no solve (`equilibrium_orbit`).  It is the
equilibrium (q*, 0) of `find_zero_f0`, whose linearized flow over the
period is closed-form (`EquilibriumLinearization`): its monodromy is
exp(TA) and its det(I - M) = (2 - 2 cosh sT)^2 (2 - 2 cos omega T), which
is positive but at a resonance omega T = 2 pi n, a named failure
(`ResonantStart`).  Its trajectory is flowed only when it is read: when
the path stops at lam = 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from lfe.certificate import region_checks
from lfe.fields import gauss_legendre
from lfe.homotopy import EquilibriumLinearization, HomotopySystem
from lfe.integrator import IntegratorConfig, SolverError, Trajectory, integrate
from lfe.kinematics import State


class NewtonDiverged(SolverError):
    pass


class SingularJacobian(SolverError):
    pass


class LeftDomain(SolverError):
    """An iterate exited the numerical search region."""


class ResonantStart(SolverError):
    """The period is a multiple of the radial oscillation's: the lam = 0 orbit has no index."""


_DAMPING = tuple(0.5**k for k in range(20))  # Newton step factors 1, 1/2, ..., 2**-19
_FD_STEP = 1e-7
# inexact Newton: the cap of a trial flow's rtol and its factor of the residual (`_trial_rtol`)
_TRIAL_RTOL_CAP = 1e-6
_TRIAL_FACTOR = 1e-4
# a residual at most this many eps * max(1, |x|_inf) is at round-off level
_ROUNDOFF = 8.0 * np.finfo(float).eps
# the most segments a solve splits its span into, one per accepted step of its guess flow; a
# guess flow of more steps keeps one segment (module docstring).  A right-hand-side call of
# 28 rows costs about 1.16 times one of 7 (30.1 against 26.0 us)
_MAX_SEGMENTS = 4


@dataclass(frozen=True)
class SolverOptions:
    """The [solver] settings: Newton tolerance and budget, continuation steps, degree-sweep seed.

    dlam_init is the first continuation step, capped by target_lambda: by
    default the whole interval, since no contraction has been measured
    before it.  The attempt budget of `continue_lambda` does not depend on it.
    """

    newton_tol: float = 1e-9
    max_iterations: int = 50
    dlam_init: float = 1.0
    dlam_floor: float = 1e-4
    target_lambda: float = 1.0
    seed: int = 20240803

    def __post_init__(self):
        for name in ("newton_tol", "dlam_init", "dlam_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 <= self.target_lambda <= 1.0:
            raise ValueError("target_lambda must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class ShootingProblem:
    """The periodic problem at one lam, with its solver settings and certified region.

    region is the certified (m, R + T, L) of a bounds certificate, or None.
    Newton searches |q| > integrator.r_min + _FD_STEP max(1, |q|) (so every
    member of the monodromy stack starts outside the guard radius) and,
    with a region, |q| < 2 (R + T) and |p| < 2 L; continue_lambda checks
    accepted orbits against it.
    """

    system: HomotopySystem
    lam: float
    integrator: IntegratorConfig = IntegratorConfig()
    solver: SolverOptions = SolverOptions()
    region: tuple[float, float, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")

    def flow(
        self,
        x0: State | np.ndarray,
        first_step: float | None = None,
        span: float | None = None,
        offsets: np.ndarray | None = None,
    ) -> Trajectory:
        """The flow of x0 over [0, span], by default one period; offsets are its members' time offsets."""
        span = self.system.config.forcing.period if span is None else span
        return integrate(
            self.system, x0, (0.0, span), self.lam, self.integrator, first_step=first_step, offsets=offsets
        )

    def flow_with_monodromy(
        self,
        x0: np.ndarray,
        first_step: float | None = None,
        span: float | None = None,
        offsets: np.ndarray | None = None,
    ) -> tuple[Trajectory, np.ndarray]:
        """The stacked flow of the states x0 (..., 6) over [0, span] and its forward-difference Jacobians.

        span is one period by default, and the Jacobian is the monodromy.
        Each state s of x0 and its six perturbations s + h_i e_i
        (`_difference_steps`) are 7 members of one stacked flow, s the first,
        so column i of its Jacobian differences two members that took the
        same steps (`_difference_jacobian`).  A perturbed member that crosses
        the guard radius raises SingularityApproach like the orbit itself.
        first_step is passed to `integrate`; offsets[k] is the time offset of
        the seven members of x0[k].
        """
        starts = x0.reshape(-1, 6)
        stack = starts[:, None, :] + _difference_steps(starts)[:, None, :] * np.eye(7, 6, -1)
        shifts = None if offsets is None else np.repeat(offsets, 7)
        run = self.flow(stack.reshape(-1, 6), first_step, span, shifts)
        jac = _difference_jacobian(starts, run.states[-1].reshape(-1, 7, 6))
        return run, jac.reshape(x0.shape[:-1] + (6, 6))

    def violation(self, y: np.ndarray) -> str | None:
        """Why the phase point y = (q, p) lies outside Newton's search region, or None."""
        r = float(np.linalg.norm(y[:3]))
        r_min, step = self.integrator.r_min, _difference_steps(r)
        if r <= r_min + step:
            return f"|q| = {r:.9g} <= r_min = {r_min:.6g} plus the difference step {step:g}"
        if self.region is None:
            return None
        _, upper, p_bound = self.region
        r_max, p_max = 2.0 * upper, 2.0 * p_bound
        if r >= r_max:
            return f"|q| = {r:.6g} >= r_max = {r_max:.6g}"
        pn = float(np.linalg.norm(y[3:]))
        if pn >= p_max:
            return f"|p| = {pn:.6g} >= p_max = {p_max:.6g}"
        return None


@dataclass(frozen=True)
class OrbitSolution:
    """A periodic orbit at lam: its initial state x0, residual sup-norm and monodromy M.

    flow gives the orbit's one-period `Trajectory`; `trajectory` calls it
    once, when first read, so the closed-form lam = 0 start is flowed only
    if something reads it, and the half-period flow of a reversible solve
    is reflected only then.  index_det is det(I - M), set where M is made;
    its sign is minus the orbit's fixed-point index.  shooting names the
    path that solved it (`_shooting`): "full", "reversible <axis>", or
    "closed form" for the lam = 0 start.  guess_rtol is the rtol the
    solve's guess was first flowed at, None for the unflowed lam = 0 start.
    counts are those of the solve's flows (`_counts`): its segments, flows,
    right-hand-side calls and accepted and rejected steps, all 0 for the
    lam = 0 start, which no solve flows.
    """

    system: HomotopySystem
    lam: float
    x0: State
    flow: Callable[[], Trajectory]
    residual_norm: float
    monodromy: np.ndarray
    index_det: float
    # per Newton iteration: the residual sup-norm it started from, its damping alpha and trial rtol
    newton_trace: list
    shooting: str = "full"
    guess_rtol: float | None = None
    counts: dict = field(default_factory=lambda: _counts(0))

    @functools.cached_property
    def trajectory(self) -> Trajectory:
        return self.flow()

    @property
    def newton_iterations(self) -> int:
        return len(self.newton_trace)

    @functools.cached_property
    def symmetry(self) -> dict:
        """The path that solved the orbit, the smallest singular value of M - I and the symmetry defect.

        Computed when first read, for the continuation history and the
        orbit record alike.  The singular value is near 0 where M gains
        the eigenvalue 1.  At a symmetry-breaking bifurcation that happens
        off Fix(G), where the reversible path's 3 x 3 Jacobian stays
        regular, so this value is what names one.  The defect is min |x0 - G x0|_inf over the mirrors
        of the config (`FieldConfig.mirrors`): 0 on a symmetric orbit, None
        for a config with no mirror.
        """
        x0 = self.x0.as_array()
        defects = (float(np.max(np.abs(x0 - _reversor(n) * x0))) for n in self.system.config.mirrors())
        return {
            "shooting": self.shooting,
            "sigma_min_M_minus_I": float(np.linalg.svd(self.monodromy - np.eye(6), compute_uv=False)[-1]),
            "symmetry_defect": min(defects, default=None),
        }

    @functools.cached_property
    def diagnostics(self) -> dict:
        """The integral identities of `orbit_identities`, computed when first read.

        A continuation reads them of its final orbit only, so the orbits
        before it never build their dense output for them.
        """
        return orbit_identities(self.system, self.trajectory)

    def summary(self) -> dict:
        out = {
            "lambda": self.lam,
            "residual_norm": self.residual_norm,
            "newton_iterations": self.newton_iterations,
            "x0_q": [float(v) for v in self.x0.q],
            "x0_p": [float(v) for v in self.x0.p],
        }
        out.update({k: float(v) for k, v in self.diagnostics.items()})
        return out


def orbit_identities(system: HomotopySystem, traj: Trajectory) -> dict:
    """Integral identities every converged periodic orbit must satisfy.

    mean_identity: |integral of p' over one period| (zero for a closed orbit).
    virial_lhs:    integral of q . p' dt, non-positive for periodic orbits.
    virial_rhs:    -integral of p . q' = -integral of |p|^2 / sqrt(1+|p|^2) dt.
    6-node Gauss-Legendre on every accepted step of the dense output, the
    integrand [p', q . p', p . q'] at all nodes in one stacked rhs_array call.
    """
    t, w = gauss_legendre(traj.ts[:-1], traj.ts[1:])
    t, w = t.ravel(), w.ravel()
    y = traj.at(t).T
    f = system.rhs_array(t, y, traj.lam)
    qf = np.add.reduce(y[:, :3] * f[:, 3:], axis=1)
    pf = np.add.reduce(y[:, 3:] * f[:, :3], axis=1)
    total = w @ np.column_stack([f[:, 3:], qf, pf])
    return {
        "mean_identity": float(np.max(np.abs(total[:3]))),
        "virial_lhs": float(total[3]),
        "virial_rhs": float(-total[4]),
        "virial_gap": float(abs(total[3] + total[4])),
    }


def _counts(segments: int) -> dict:
    """The counts of a solve's flows, none flowed yet: the segments of its span, flows, right-hand-side calls, steps.

    Every flow adds its `Trajectory` counts: n_rhs_evals, its accepted
    steps and n_rejected.  Deterministic, like the flows.
    """
    return {"segments": segments, "flows": 0, "rhs_calls": 0, "steps_accepted": 0, "steps_rejected": 0}


def _difference_steps(x):
    """The forward-difference steps h_i = _FD_STEP max(1, |x_i|): relative where |x_i| > 1, so x + h_i e_i != x."""
    return _FD_STEP * np.maximum(1.0, np.abs(x))


def _difference_jacobian(x: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The Jacobians (..., 6, 6) at x (..., 6) from the flowed members (..., 7, 6) of x and x + h_i e_i.

    Column i is (member_i - member_0) / h_i, h_i of `_difference_steps`.
    """
    return np.swapaxes(members[..., 1:, :] - members[..., :1, :], -1, -2) / _difference_steps(x)[..., None, :]


def _trial_rtol(rtol0: float, res_norm: float) -> float:
    """The rtol of a trial flow from the residual sup-norm res_norm, rtol0 the configured one.

    max(rtol0, min(_TRIAL_RTOL_CAP, _TRIAL_FACTOR * res_norm)), rounded to rtol0
    below 2 rtol0 (a flow's cost grows like rtol ** (-1/8): at most 9 % more).
    """
    rtol = max(rtol0, min(_TRIAL_RTOL_CAP, _TRIAL_FACTOR * res_norm))
    return rtol0 if rtol < 2.0 * rtol0 else rtol


def _drift_residual(problem: ShootingProblem, y: np.ndarray) -> float:
    """The residual predicted for a guess y from its drift: T * max|f(0, y)|.

    A state that moves at the speed |f(0, y)| for the period T misses
    its start by about that much; an equilibrium (f = 0) is predicted to
    be periodic.  One `rhs_array` call.
    """
    period = problem.system.config.forcing.period
    return period * float(np.max(np.abs(problem.system.rhs_array(0.0, y, problem.lam))))


def _reversor(axis: int) -> np.ndarray:
    """The diagonal of G = diag(R, -R) on (q, p), R the mirror q_axis -> -q_axis.

    Fix(G) is where it is +1: q_axis = 0 and the two other momenta 0.
    """
    g = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    g[[axis, axis + 3]] *= -1.0
    return g


class _Flowed(NamedTuple):
    """One flow of a solve, read by its `_Shooting`."""

    run: Trajectory  # the stacked run of the segments and their difference members
    orbit: Callable[[], Trajectory]  # the orbit over the span, built when called
    starts: np.ndarray  # the segment starts s_k, shape (K, 6); s_0 = x0
    res: np.ndarray  # the residual of the equations
    jac: np.ndarray  # their Jacobian in the unknowns
    norm: float  # the residual sup-norm of phi_T(x0) - x0 that convergence is read from
    monodromy: np.ndarray


@dataclass(frozen=True)
class _Shooting:
    """The span, its segments, the unknowns and the residual map of one solve, chosen once (`_shooting`).

    The full path (g None) flows [0, T]; the reversible path, g the
    diagonal of a reversor G, flows [0, T/2].  The span is split into
    `segments` K of length h; segment k starts at t_k = k h from the state
    s_k, and s_0 = x0.  The unknowns are the free coordinates of s_0 (all
    six on the full path, the Fix(G) ones, g = +1, on the reversible path)
    and s_1 ... s_(K-1).  The equations are the matching conditions
    phi_h(s_k) - s_(k+1) = 0 and the end condition on y, the end of the last
    segment: y - s_0 = 0 on the full path, its off-Fix coordinates
    (g = -1) zero on the reversible path.  Their Jacobian is block
    bidiagonal in the segments' difference Jacobians Phi_k, and cyclic on
    the full path.
    """

    name: str
    span: float
    g: np.ndarray | None = None
    segments: int = 1

    @property
    def unknowns(self):
        return slice(None) if self.g is None else self.g > 0.0

    @property
    def offsets(self) -> np.ndarray:
        """The segment starts t_k = k h, k < K."""
        return np.arange(self.segments) * (self.span / self.segments)

    def equations(self, starts: np.ndarray, ends: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The residual and Jacobian of the equations at the segment starts, from their ends and Phi_k.

        starts and ends have shape (K, 6), phis (K, 6, 6).
        """
        blocks = [phis[0][:, self.unknowns]] + list(phis[1:])  # segment k's block of Jacobian columns
        n0, last = blocks[0].shape[1], 6 * (self.segments - 1)
        # the columns of s_k: s_0's unknowns, then six per start
        columns = [slice(0, n0)] + [slice(n0 + 6 * k, n0 + 6 * k + 6) for k in range(self.segments - 1)]
        jac = np.zeros((n0 + last, n0 + last))
        for k in range(self.segments - 1):
            jac[6 * k : 6 * k + 6, columns[k]] = blocks[k]
            jac[6 * k : 6 * k + 6, columns[k + 1]] = -np.eye(6)
        defects = (ends[:-1] - starts[1:]).reshape(-1)
        if self.g is None:
            jac[last:, columns[-1]] = blocks[-1]
            jac[last:, columns[0]] -= np.eye(6)
            return np.concatenate([defects, ends[-1] - starts[0]]), jac
        off = self.g < 0.0
        jac[last:, columns[-1]] = blocks[-1][off]
        return np.concatenate([defects, ends[-1][off]]), jac

    def read(self, starts: np.ndarray, run: Trajectory, phis: np.ndarray) -> _Flowed:
        """The stacked run of the segment starts (K, 6) and its difference Jacobians (`flow_with_monodromy`), read.

        The residual norm is that of x0's own flow over the span, to first
        order: each segment's defect phi_h(s_k) - s_(k+1) is carried through
        the Jacobians of the segments after it and added to the end y, and
        the product Phi = Phi_(K-1) ... Phi_0 is the Jacobian of that flow.
        On the full path the norm is then |y - x0|_inf and M = Phi; on the
        reversible path M = G Phi^-1 G Phi and the residual is
        G Phi^-1 (G y - y), the linearization of phi_T(x0) - x0, both from
        one LU of Phi.  A singular Phi raises SingularJacobian.  The orbit,
        the members 0, 7, ..., 7 (K - 1) joined over the span
        (`Trajectory.joined`), is built when called, so only a solution's
        flow builds it.
        """
        ends = run.states[-1, ::7]
        orbit = functools.partial(run.joined, range(0, 7 * self.segments, 7), self.offsets, self.span)
        res, jac = self.equations(starts, ends, phis)
        phi, carried = phis[0], 0.0
        for phi_k, defect in zip(phis[1:], ends[:-1] - starts[1:]):
            carried = phi_k @ (carried + defect)
            phi = phi_k @ phi
        y = ends[-1] + carried
        if self.g is None:
            return _Flowed(run, orbit, starts, res, jac, float(np.max(np.abs(y - starts[0]))), phi)
        g = self.g
        try:
            solved = np.linalg.solve(phi, np.column_stack([g * y - y, g[:, None] * phi]))
        except np.linalg.LinAlgError:
            solved = None
        if solved is None or not np.all(np.isfinite(solved)):
            raise SingularJacobian(f"the Jacobian of the half-period flow is singular ({self.name} shooting)")
        norm = float(np.max(np.abs(g * solved[:, 0])))
        return _Flowed(run, orbit, starts, res, jac, norm, g[:, None] * solved[:, 1:])

    def split(self, flowed: _Flowed) -> _Flowed:
        """flowed, a read one-segment run of x0 over the span, as the first iterate of this path's segments.

        The segment starts are the run's orbit at t_k, read from its dense
        output, so the matching defects are zero, and the residual norm,
        monodromy and orbit stay the run's.  Its difference members
        at t_k give Phi(t_k) = D phi_t_k(x0), and so
        Phi_k = Phi(t_(k+1)) Phi(t_k)^-1 with no further flow.
        """
        run, x0 = flowed.run, flowed.starts[0]
        # the run's members at t_1 ... t_(K-1) and at the end of the span: (K, 7, 6)
        members = np.concatenate([run.at(self.offsets[1:]).transpose(2, 0, 1), run.states[-1:]])
        along = [np.eye(6)] + list(_difference_jacobian(x0, members))
        phis = np.array([np.linalg.solve(a.T, b.T).T for a, b in zip(along, along[1:])])
        ends = members[:, 0]
        starts = np.vstack([x0, ends[:-1]])
        res, jac = self.equations(starts, ends, phis)
        return flowed._replace(starts=starts, res=res, jac=jac)

    def one_period(self, orbit: Callable[[], Trajectory]) -> Callable[[], Trajectory]:
        """The flow of the one-period trajectory of a solution whose orbit over the span is orbit()."""
        if self.g is None:
            return orbit
        return lambda: orbit().reflected(self.g)


def _shooting(problem: ShootingProblem, y: np.ndarray) -> _Shooting:
    """The reversible path for the first mirror of the config whose Fix(G) holds y, else the full path."""
    period = problem.system.config.forcing.period
    for axis in problem.system.config.mirrors():
        g = _reversor(axis)
        if np.array_equal(g * y, y):
            return _Shooting(f"reversible {'xyz'[axis]}", 0.5 * period, g)
    return _Shooting("full", period)


def _flow_residual(
    problem: ShootingProblem, shooting: _Shooting, starts: np.ndarray, rtol: float, previous: Trajectory | None
) -> _Flowed:
    """`flow_with_monodromy` of the segment starts (K, 6) at rtol over shooting's segments, read by shooting.

    The one place an rtol becomes an integrator config, with atol scaled by
    the same factor.  previous, a flow of a nearby problem, gives the first
    step (`Trajectory.warm_step`); with previous None the flow starts cold.
    """
    cfg = problem.integrator
    if rtol != cfg.rtol:
        problem = replace(problem, integrator=replace(cfg, rtol=rtol, atol=cfg.atol * (rtol / cfg.rtol)))
    length = shooting.span / shooting.segments
    first_step = None if previous is None else previous.warm_step(rtol, length)
    return shooting.read(starts, *problem.flow_with_monodromy(starts, first_step, length, shooting.offsets))


def newton_shooting(
    guess: State,
    problem: ShootingProblem,
    previous: Trajectory | None = None,
) -> OrbitSolution:
    """Damped inexact Newton on the periodicity residual, Jacobian from the stacked flow.

    Iterates on the flat state [q, p], from guess.as_array() to the
    solution's x0, on the path `_shooting` chooses once: the full one, or
    the reversible one, which moves only the Fix(G) coordinates of x0 and
    flows half the period (module docstring).  The guess flow's accepted
    steps then choose the segments K, once (module docstring, "Multiple
    shooting"); the iterate is the segment starts, s_0 = x0, and every
    start of a trial point must lie in the search region.  Every flow
    is `flow_with_monodromy`, so each trial yields the Jacobian at the trial
    point: an accepted trial's Jacobian is the next iteration's.  Each
    step takes the first factor of
    _DAMPING whose trial point lies in the search region, flows and lowers
    the residual sup-norm; convergence is that norm below
    problem.solver.newton_tol.  Each iteration's starting residual, damping
    factor and trial `rtol` go into `newton_trace`, and the counts of every
    flow into the solution's `counts`.

    Tolerances, as in the module docstring, with rtol0 that of
    problem.integrator: the guess flows at `_trial_rtol` of its drift
    (`_drift_residual`), which the solution keeps as guess_rtol; if its
    residual r calls for a tighter one, it flows again at
    `_trial_rtol(rtol0, r)`.  The trials
    flow at `_trial_rtol` of the residual r of their iteration, or at
    rtol0 when the iteration is predicted to converge: it is not the
    first, and r^3 / r_prev^2 < newton_tol for the residual r_prev of the
    iteration before.  A loose guess or trial that meets newton_tol is
    flowed once more at rtol0, and that flow gives the solution's
    trajectory, monodromy and residual; if its residual misses
    newton_tol, Newton goes on from it.

    A wrong prediction costs no more flows than the loose trial it
    replaces.  If the rtol0 trial misses newton_tol, Newton goes on from
    it with one more trial; the loose trial would have needed that trial
    too, and a confirming re-flow before it whenever its own residual met
    newton_tol.  If the model predicts no convergence but the loose trial
    converges, the loose trial and its re-flow are flowed as without the
    model.  Either way convergence is read from an rtol0 flow only.

    A damped step
    is accepted when its trial's residual is below the iterate's, though
    the two flows may have run at different tolerances.  That is safe
    because a loose trial's rtol is at most _TRIAL_FACTOR = 1e-4 times the
    residual it is compared with: its integration error can pass a step
    whose true residual exceeds the iterate's only by about that fraction.
    The guess's last flow keeps that bound, since a guess flowed at a
    tolerance looser than its residual's is flowed again.

    Warm starts, as in the module docstring: the guess's first flow takes
    its first step from previous, a flow of a nearby problem (the previous
    continuation step's orbit), and starts cold without it; every later
    flow takes it from the iterate's flow.

    Raises NewtonDiverged (no decrease with any factor, the iteration cap,
    or round-off stagnation: the residual is already within _ROUNDOFF *
    max(1, |x|_inf) and a trial flow fails to lower it by that much, so
    newton_tol is out of reach and the solve ends at its first trial),
    SingularJacobian (condition estimate above 1e12, or a singular Phi of
    the guess's half-period flow) or LeftDomain (the guess, or every
    damped trial point, outside the search region).  A failure raised
    once the path is chosen carries the iterations so far as
    `newton_trace`, the path's name as `shooting`, the guess's rtol as
    `guess_rtol` and the counts of its flows so far as `counts`.
    """
    y = guess.as_array()
    bad = problem.violation(y)
    if bad is not None:
        raise LeftDomain(f"initial guess outside the search region: {bad}")

    shooting = _shooting(problem, y)
    rtol0 = problem.integrator.rtol
    guess_rtol = _trial_rtol(rtol0, _drift_residual(problem, y))
    tol = problem.solver.newton_tol
    trace, counts = [], _counts(1)

    def flow(starts: np.ndarray, rtol: float, previous: Trajectory | None) -> _Flowed:
        flowed = _flow_residual(problem, shooting, starts, rtol, previous)
        counts["flows"] += 1
        counts["rhs_calls"] += flowed.run.n_rhs_evals
        counts["steps_accepted"] += len(flowed.run.ts) - 1
        counts["steps_rejected"] += flowed.run.n_rejected
        return flowed

    try:
        flowed = flow(y[None], guess_rtol, previous)
        segments = len(flowed.run.ts) - 1
        if 1 < segments <= _MAX_SEGMENTS:
            shooting = replace(shooting, segments=segments)
            counts["segments"] = segments
            flowed = shooting.split(flowed)
        rtol = _trial_rtol(rtol0, flowed.norm)
        if rtol < flowed.run.rtol:
            flowed = flow(flowed.starts, rtol, flowed.run)

        while flowed.norm >= tol or flowed.run.rtol != rtol0:
            starts = flowed.starts
            if flowed.norm < tol:
                # the confirming re-flow: convergence is read at the configured tolerance
                flowed = flow(starts, rtol0, flowed.run)
                continue
            res_norm = flowed.norm
            if len(trace) >= problem.solver.max_iterations:
                raise NewtonDiverged(
                    f"residual {res_norm:.3e} after {len(trace)} iterations (tol {tol:g})"
                )
            cond = float(np.linalg.cond(flowed.jac))
            if not math.isfinite(cond) or cond > 1e12:
                raise SingularJacobian(f"shooting Jacobian condition estimate {cond:.3e}")
            step = np.linalg.solve(flowed.jac, -flowed.res)
            delta = np.zeros_like(starts)
            n0 = len(step) - 6 * (len(starts) - 1)
            delta[0, shooting.unknowns] = step[:n0]
            delta[1:] = step[n0:].reshape(-1, 6)
            rtol = _trial_rtol(rtol0, res_norm)
            if trace and res_norm * (res_norm / trace[-1]["residual"]) ** 2 < tol:
                rtol = rtol0  # predicted to converge: convergence is read from this flow
            # at round-off level, a decrease smaller than that level counts as none
            roundoff = _ROUNDOFF * max(1.0, float(np.max(np.abs(starts[0]))))
            least = roundoff if res_norm <= roundoff else 0.0

            inside = False  # whether any trial point lies in the search region
            for alpha in _DAMPING:
                trial_starts = starts + alpha * delta
                if any(problem.violation(start) is not None for start in trial_starts):
                    continue
                inside = True
                try:
                    trial = flow(trial_starts, rtol, flowed.run)
                except SolverError:
                    continue
                if trial.norm < res_norm and res_norm - trial.norm >= least:
                    trace.append({"residual": res_norm, "alpha": alpha, "rtol": rtol})
                    flowed = trial
                    break
                if least:
                    raise NewtonDiverged(
                        f"round-off stagnation: residual {res_norm:.3e} is at round-off level "
                        f"and a trial step does not lower it; newton_tol = {tol:g} is "
                        "unreachable in double precision"
                    )
            else:
                if not inside:
                    raise LeftDomain("every damped step left the search region")
                raise NewtonDiverged(
                    f"no residual decrease after {len(_DAMPING)} damping halvings "
                    f"(residual {res_norm:.3e})"
                )
    except SolverError as err:
        err.newton_trace, err.shooting, err.guess_rtol, err.counts = trace, shooting.name, guess_rtol, counts
        raise

    return OrbitSolution(
        system=problem.system,
        lam=problem.lam,
        x0=State.from_array(flowed.starts[0]),
        flow=shooting.one_period(flowed.orbit),
        residual_norm=flowed.norm,
        monodromy=flowed.monodromy,
        index_det=float(np.linalg.det(np.eye(6) - flowed.monodromy)),
        newton_trace=trace,
        shooting=shooting.name,
        guess_rtol=guess_rtol,
        counts=counts,
    )


def equilibrium_orbit(problem: ShootingProblem, x0: State) -> OrbitSolution:
    """The lam = 0 orbit at the equilibrium x0 = (q*, 0) of `find_zero_f0`, in closed form.

    No Newton solve and no flow.  The monodromy is exp(TA) and det(I - M)
    its closed form (`EquilibriumLinearization`); the residual is the drift
    T max|f(0, x0)| of the rounded equilibrium (`_drift_residual`, one
    right-hand-side call), and the trajectory is flowed at problem's
    tolerance when it is first read.  Raises LeftDomain when x0 lies outside
    the search region, NewtonDiverged when that residual misses newton_tol
    (a newton_tol below round-off, which no solve could reach either), a
    SolverError naming sT past the double range, and ResonantStart when
    omega T / 2 pi is an integer n within 16 eps n
    (`EquilibriumLinearization.resonance`): there det(I - M) = 0, and the
    orbit has no fixed-point index to continue.
    """
    if problem.lam != 0.0:
        raise ValueError(f"the equilibrium orbit is the lam = 0 start, not lam = {problem.lam:g}")
    y = x0.as_array()
    bad = problem.violation(y)
    if bad is not None:
        raise LeftDomain(f"equilibrium outside the search region: {bad}")
    residual, tol = _drift_residual(problem, y), problem.solver.newton_tol
    if not residual < tol:
        raise NewtonDiverged(
            f"the equilibrium's residual {residual:.3e}, its drift T max|f(0, x0)|, "
            f"is not below newton_tol = {tol:g}"
        )
    linear = EquilibriumLinearization.at(problem.system.c0, x0.q, problem.system.config.forcing.period)
    linear.require_double_range(SolverError)
    n = linear.resonance()
    if n:
        raise ResonantStart(
            f"the period T = {linear.period!r} is {n} x T_res = 2 pi / omega = {linear.resonant_period!r}, "
            f"the period of the radial oscillation about the equilibrium (omega T / 2 pi = {linear.turns!r}): "
            "det(I - M) = 0 at lam = 0, so the start has no fixed-point index"
        )
    return OrbitSolution(
        system=problem.system,
        lam=0.0,
        x0=x0,
        flow=functools.partial(problem.flow, x0),
        residual_norm=residual,
        monodromy=linear.monodromy(),
        index_det=linear.index_det(),
        newton_trace=[],
        shooting="closed form",
    )


@dataclass
class ContinuationPath:
    solutions: list
    history: list
    status: str
    message: str

    @property
    def final(self) -> OrbitSolution:
        return self.solutions[-1]

    def summary_rows(self) -> list[dict]:
        return [
            {
                "lambda": sol.lam,
                "x0_norm": float(np.linalg.norm(sol.x0.as_array())),
                "residual": sol.residual_norm,
                "newton_iterations": sol.newton_iterations,
            }
            for sol in self.solutions
        ]


def continue_lambda(problem: ShootingProblem, start: OrbitSolution) -> ContinuationPath:
    """Natural-parameter continuation from a converged lam = 0 orbit, such as `equilibrium_orbit`.

    Walks lam to problem.solver.target_lambda with one step rule.  The
    first step is solver.dlam_init, by default 1.0: the whole interval.
    After each accepted step the next attempt is the rest of the interval,
    target_lambda - lam, and a failed or rejected attempt halves the step.
    Every step is capped by the rest of the interval.  The path ends in
    stepsize_underflow when a step shorter than both solver.dlam_floor and
    the rest of the interval would come next, which only a halving can
    bring.  On the desk config with periods 2 to 3 the whole-interval step
    converges in 8 to 15 iterations, where steps of 0.1 took up to 395 or
    failed.

    Branch safety: sign det(I - M) of the start orbit (+1, minus the degree
    of the autonomous field) is kept by every accepted orbit.  A converged
    orbit whose det(I - M) has the other sign lies on another branch, and
    one whose det(I - M) is 0 has an index the difference monodromy does
    not resolve (a period so short that the flow moves the difference
    members by nothing, so M = I): either step is rejected with a reason
    naming det(I - M), and halved.

    The predictor is the previous initial state; each accepted orbit is
    checked against problem.region when it is set.  The first step's guess
    flows cold, so the start's trajectory is not read; each later guess's
    first flow is warm-started from the previous accepted orbit's trajectory.
    Each attempt adds one `history` record with the rtol its guess was
    first flowed at (`guess_rtol`, that of its drift, from the solve), its
    Newton iterations (`newton_trace`, up to the failure for a failed
    solve), the solved orbit's det(I - M) (`index_det`), and its
    `OrbitSolution.symmetry`: the path (`shooting`), the smallest singular
    value of M - I and the symmetry defect |x0 - G x0|_inf.  A failed solve
    has None for the orbit's entries.

    Budget, from target_lambda and dlam_floor alone: h = max(0,
    ceil(log2(target_lambda / dlam_floor))) halvings take the whole
    interval down to the floor.  Each accepted step is followed by the rest
    of the interval, at most target_lambda, so a run of failed solves after
    it, or from the first step, underflows within one allowance of 1 + h
    attempts.  The budget gives 1 + h accepted steps one allowance each: at
    most (1 + h)**2 attempts, 225 with the defaults target_lambda = 1 and
    dlam_floor = 1e-4 (h = 14).
    The path reports how far it got rather than raising: status is one of
    reached_target / stepsize_underflow / bound_violation / budget_exhausted.
    A failed path means the path is incomplete, not that no orbit exists.
    """
    solver = problem.solver
    target_lambda = solver.target_lambda
    if start.lam != 0.0:
        raise ValueError("continuation must start from a lam = 0 solution")
    if start.residual_norm > solver.newton_tol:
        raise ValueError("continuation must start from a converged solution")
    halvings = math.ceil(math.log2(max(target_lambda, solver.dlam_floor) / solver.dlam_floor))
    budget = (1 + halvings) ** 2

    solutions, history = [start], []
    start_det = start.index_det
    lam, dlam = 0.0, min(solver.dlam_init, target_lambda)
    end = ("reached_target", "target is the starting parameter") if target_lambda == 0.0 else None
    while end is None and len(history) < budget:
        lam_try = target_lambda if dlam >= target_lambda - lam else lam + dlam
        index_det = violation = None
        previous = solutions[-1].trajectory if len(solutions) > 1 else None
        try:
            sol = newton_shooting(solutions[-1].x0, replace(problem, lam=lam_try), previous)
        except SolverError as err:
            reason, trace = str(err), getattr(err, "newton_trace", [])
            guess_rtol, counts = getattr(err, "guess_rtol", None), getattr(err, "counts", _counts(0))
            symmetry = dict.fromkeys(("shooting", "sigma_min_M_minus_I", "symmetry_defect"))
            symmetry["shooting"] = getattr(err, "shooting", None)
        else:
            trace, guess_rtol, index_det, counts = sol.newton_trace, sol.guess_rtol, sol.index_det, sol.counts
            symmetry = sol.symmetry
            region = problem.region
            checks = [] if region is None else region_checks(sol.trajectory.states, region)
            reason = violation = next((check.detail for check in checks if not check.passed), None)
            if reason is None and index_det == 0.0:
                reason = "det(I - M) = 0: the difference monodromy does not resolve the orbit's index"
            elif reason is None and np.sign(index_det) != np.sign(start_det):
                reason = (
                    f"det(I - M) = {index_det:.6g} differs in sign from {start_det:.6g} "
                    "at lam = 0: the orbit lies on another branch"
                )
        history.append(
            {
                "lambda": lam_try,
                "dlam": dlam,
                "accepted": reason is None,
                "reason": reason or "",
                "guess_rtol": guess_rtol,
                "newton_trace": trace,
                "index_det": index_det,
                **symmetry,
                **counts,
            }
        )
        if violation is not None:
            end = (
                "bound_violation",
                f"orbit at lam = {lam_try:.6g} exited the certified region: {reason}",
            )
        elif reason is None:
            solutions.append(sol)
            lam = lam_try
            if lam >= target_lambda:
                end = ("reached_target", f"reached lam = {target_lambda:g}")
            dlam = target_lambda - lam
        else:
            dlam *= 0.5
        if end is None and dlam < min(solver.dlam_floor, target_lambda - lam):
            end = (
                "stepsize_underflow",
                f"step below floor {solver.dlam_floor:g} at lam = {lam:.6g}: {reason}",
            )
    if end is None:
        end = ("budget_exhausted", f"attempted-step budget {budget} used up at lam = {lam:.6g}")
    return ContinuationPath(solutions, history, *end)
