import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad_vec

from conftest import coulomb_config, force_free_config
from lfe.degree import find_zero_f0
from lfe.homotopy import HomotopySystem
from lfe.integrator import IntegratorConfig, StepUnderflow
from lfe.kinematics import State, phi_inv
from lfe.shooting import (
    LeftDomain,
    NewtonDiverged,
    ShootingProblem,
    SolverOptions,
    continue_lambda,
    newton_shooting,
    orbit_identities,
    periodicity_residual,
)

EQ = find_zero_f0(1.0, [0.0, 0.0, 2.0])


@pytest.fixture(scope="module")
def coulomb_problem():
    return ShootingProblem(system=HomotopySystem(coulomb_config()), lam=0.0)


def test_equilibrium_residual(coulomb_problem):
    res = periodicity_residual(EQ, coulomb_problem)
    assert np.abs(res).max() < 1e-10


def test_free_particle_residual_closed_form():
    problem = ShootingProblem(system=HomotopySystem(force_free_config()), lam=1.0)
    x0 = State(q=[1.0, 2.0, 3.0], p=[0.5, 0.0, -0.25])
    res = periodicity_residual(x0, problem)
    assert np.allclose(res[:3], phi_inv(x0.p), atol=1e-12)  # T = 1
    assert np.abs(res[3:]).max() < 1e-13


def test_newton_converges_from_perturbed_equilibrium(coulomb_problem):
    rng = np.random.default_rng(51)
    guess = State(q=EQ.q + 1e-3 * rng.normal(size=3), p=1e-3 * rng.normal(size=3))
    sol = newton_shooting(guess, coulomb_problem)
    assert sol.newton_iterations <= 5
    assert len(sol.newton_trace) == sol.newton_iterations
    residuals = [step["residual"] for step in sol.newton_trace] + [sol.residual_norm]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert sol.residual_norm < 1e-9
    assert np.abs(sol.x0.as_array() - EQ.as_array()).max() < 1e-7


@pytest.mark.parametrize("lam", [-0.1, 1.5])
def test_problem_lam_must_lie_in_the_unit_interval(lam):
    with pytest.raises(ValueError, match=r"^lam must lie in \[0, 1\]"):
        ShootingProblem(system=HomotopySystem(coulomb_config()), lam=lam)


def test_guess_outside_domain_is_rejected():
    problem = ShootingProblem(
        system=HomotopySystem(coulomb_config()),
        lam=0.0,
        integrator=IntegratorConfig(r_min=0.5),
        region=(0.5, 5.0, 2.5),  # search |q| < 10, |p| < 5
    )
    with pytest.raises(LeftDomain):
        newton_shooting(State(q=[0.25, 0.0, 0.0], p=[0.0, 0.0, 0.0]), problem)
    with pytest.raises(LeftDomain):
        newton_shooting(State(q=[0.0, 0.0, 20.0], p=[0.0, 0.0, 0.0]), problem)


def test_failed_damping_names_its_cause(coulomb_problem):
    # the search region |q| < 0.6 ends short of the equilibrium at |q| = 0.707
    short = dataclasses.replace(coulomb_problem, region=(0.1, 0.3, 5.0))
    with pytest.raises(LeftDomain, match="^every damped step left the search region$"):
        newton_shooting(State(q=[0.0, 0.0, -0.59], p=[0.0, 0.0, 0.0]), short)
    # no damped step lowers the equilibrium's residual 1.1e-16, which is round-off; with
    # |p| < 2e-20 the longer steps leave the search region and the first that stays in
    # flows, fails, and ends the solve
    strict = dataclasses.replace(
        coulomb_problem, solver=SolverOptions(newton_tol=1e-300), region=(0.1, 5.0, 1e-20)
    )
    with pytest.raises(NewtonDiverged, match=r"^round-off stagnation: residual 1\.110e-16 "):
        newton_shooting(EQ, strict)

    # every trial point stays in the region but no trial flow finishes
    class FailingTrials(ShootingProblem):
        def flow_with_monodromy(self, x0):
            if not np.array_equal(x0, guess.as_array()):
                raise StepUnderflow("trial flow refused")
            return super().flow_with_monodromy(x0)

    guess = State(q=EQ.q + np.array([1e-3, 0.0, 0.0]), p=np.zeros(3))
    failing = FailingTrials(system=coulomb_problem.system, lam=0.0)
    with pytest.raises(NewtonDiverged, match=r"^no residual decrease after 20 damping halvings"):
        newton_shooting(guess, failing)


def test_residual_self_consistency(coulomb_problem):
    sol = newton_shooting(State(q=EQ.q + np.array([1e-3, 0, 0]), p=np.zeros(3)), coulomb_problem)
    res = periodicity_residual(sol.x0, coulomb_problem)
    assert np.abs(res).max() < 2 * coulomb_problem.solver.newton_tol


def test_monodromy_linearizes_the_residual(coulomb_problem):
    sol = newton_shooting(State(q=EQ.q + np.array([1e-3, 0, 0]), p=np.zeros(3)), coulomb_problem)
    base = periodicity_residual(sol.x0, coulomb_problem)
    delta = 1e-5
    jac = sol.monodromy - np.eye(6)
    for i in (0, 2, 4):
        e = np.zeros(6)
        e[i] = delta
        pert = periodicity_residual(State.from_array(sol.x0.as_array() + e), coulomb_problem)
        linear = base + jac @ e
        assert np.abs(pert - linear).max() <= 1e-8


def per_column_monodromy(x0: State, problem: ShootingProblem, step: float = 1e-7) -> np.ndarray:
    """Oracle: forward differences of seven separate flows, one per column."""
    end = problem.flow(x0).states[-1]
    columns = []
    for i in range(6):
        e = np.zeros(6)
        e[i] = step
        columns.append((problem.flow(State.from_array(x0.as_array() + e)).states[-1] - end) / step)
    return np.column_stack(columns)


def test_stacked_monodromy_matches_separate_flows(desk_problem, desk_path):
    final = desk_path.final
    assert final.lam == 1.0
    problem = dataclasses.replace(desk_problem, lam=final.lam)
    # the orbit's monodromy is the one at its own x0
    _, monodromy = problem.flow_with_monodromy(final.x0.as_array())
    assert np.array_equal(final.monodromy, monodromy)
    assert np.abs(monodromy - per_column_monodromy(final.x0, problem)).max() < 1e-6
    # the deformed field is divergence-free, so the flow preserves volume (Liouville)
    assert abs(np.linalg.det(monodromy) - 1.0) < 1e-6


def test_identities_on_converged_orbit(coulomb_problem):
    sol = newton_shooting(State(q=EQ.q + np.array([1e-3, 0, 0]), p=np.zeros(3)), coulomb_problem)
    d = sol.diagnostics
    assert d["mean_identity"] < 1e-6
    assert d["virial_lhs"] <= 1e-6
    assert d["virial_gap"] < 1e-6


def test_lambda_independent_family_single_step():
    """No harmonics, no magnetic field, plain Coulomb: every lam has the same orbit."""
    problem = ShootingProblem(system=HomotopySystem(coulomb_config()), lam=0.0)
    start = newton_shooting(EQ, problem)

    # the lam = 0 solution already solves lam = 1
    res = periodicity_residual(start.x0, dataclasses.replace(problem, lam=1.0))
    assert np.abs(res).max() < 1e-9

    path = continue_lambda(dataclasses.replace(problem, solver=SolverOptions(dlam_init=1.0)), start)
    assert path.status == "reached_target"
    assert [sol.lam for sol in path.solutions] == [0.0, 1.0]
    assert np.abs(path.final.x0.as_array() - start.x0.as_array()).max() < 1e-9


def test_continuation_lambda_strictly_increasing(desk_path):
    lams = [sol.lam for sol in desk_path.solutions]
    assert lams[0] == 0.0
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert all(sol.residual_norm < 1e-9 for sol in desk_path.solutions)


def test_desk_scale_continuation_reaches_target(desk_path):
    assert desk_path.status == "reached_target"
    assert desk_path.final.lam == 1.0
    assert desk_path.final.residual_norm < 1e-9


def test_continuation_target_zero_is_identity(coulomb_problem):
    start = newton_shooting(EQ, coulomb_problem)
    path = continue_lambda(
        dataclasses.replace(coulomb_problem, solver=SolverOptions(target_lambda=0.0)), start
    )
    assert path.status == "reached_target"
    assert len(path.solutions) == 1
    assert path.solutions[0] is start


def test_continuation_requires_converged_lambda_zero_start(coulomb_problem):
    good = newton_shooting(EQ, coulomb_problem)
    bad_lam = dataclasses.replace(good, lam=0.5)
    with pytest.raises(ValueError):
        continue_lambda(coulomb_problem, bad_lam)
    bad_res = dataclasses.replace(good, residual_norm=1.0)
    with pytest.raises(ValueError):
        continue_lambda(coulomb_problem, bad_res)


def test_continuation_reports_bound_violation(coulomb_problem):
    start = newton_shooting(EQ, coulomb_problem)
    # absurdly tight certified region: the equilibrium orbit itself violates it
    tight = dataclasses.replace(
        coulomb_problem, solver=SolverOptions(dlam_init=1.0), region=(0.7, 0.705, 10.0)
    )
    path = continue_lambda(tight, start)
    assert path.status == "bound_violation"
    assert path.final is start
    # the reason is the detail of the failing verify_orbit entry (outer radius)
    reason = path.history[-1]["reason"]
    assert reason == "max |q| = 0.707107 vs R + T = 0.705"
    assert path.message.endswith(reason)


def test_newton_diverged_when_iteration_budget_is_tiny():
    problem = ShootingProblem(
        system=HomotopySystem(coulomb_config()), lam=0.0, solver=SolverOptions(max_iterations=1)
    )
    guess = State(q=EQ.q + np.array([0.05, 0.0, 0.0]), p=np.array([0.0, 0.05, 0.0]))
    with pytest.raises(NewtonDiverged):
        newton_shooting(guess, problem)


def test_orbit_identities_match_direct_quadrature(coulomb_problem):
    """Independent check: virial terms recomputed by trapezoid on a fine grid."""
    sol = newton_shooting(State(q=EQ.q + np.array([2e-3, 0, 0]), p=np.zeros(3)), coulomb_problem)
    traj = sol.trajectory
    ts = np.linspace(traj.t0, traj.t1, 4001)
    ys = traj.at(ts)
    system = coulomb_problem.system
    qdotf = np.empty(len(ts))
    kin = np.empty(len(ts))
    for k, t in enumerate(ts):
        y = ys[:, k]
        f = system.rhs_array(t, y, traj.lam)[3:]
        qdotf[k] = float(np.dot(y[:3], f))
        p2 = float(np.dot(y[3:], y[3:]))
        kin[k] = p2 / math.sqrt(1.0 + p2)
    lhs = np.trapezoid(qdotf, ts)
    rhs = -np.trapezoid(kin, ts)
    d = sol.diagnostics
    assert math.isclose(d["virial_lhs"], lhs, abs_tol=1e-9)
    assert math.isclose(d["virial_rhs"], rhs, abs_tol=1e-9)


def test_orbit_identities_match_adaptive_quadrature(coulomb_problem, desk_problem, desk_path):
    """The Gauss-Legendre identities against scipy's quad_vec on the same dense output."""
    perturbed = newton_shooting(State(q=EQ.q + np.array([2e-3, 0, 0]), p=np.zeros(3)), coulomb_problem)
    for sol, system in ((perturbed, coulomb_problem.system), (desk_path.final, desk_problem.system)):
        traj = sol.trajectory

        def integrand(t):
            y = traj.at(t)
            f = system.rhs_array(t, y, traj.lam)
            return np.append(f[3:], [np.dot(y[:3], f[3:]), np.dot(y[3:], f[:3])])

        total = quad_vec(integrand, traj.t0, traj.t1, epsabs=1e-12, epsrel=1e-10)[0]
        ours = sol.diagnostics
        assert abs(ours["mean_identity"] - np.max(np.abs(total[:3]))) <= 1e-10
        assert abs(ours["virial_lhs"] - total[3]) <= 1e-10
        assert abs(ours["virial_rhs"] + total[4]) <= 1e-10
        assert abs(ours["virial_gap"] - abs(total[3] + total[4])) <= 1e-10


def test_trial_step_into_the_guard_radius_is_halved():
    """Damped Newton halves a trial step that would enter the guard radius, instead of raising."""
    rejected = []

    class Recording(ShootingProblem):
        def violation(self, y):
            bad = super().violation(y)
            if bad is not None:
                rejected.append(bad)
            return bad

    problem = Recording(
        system=HomotopySystem(coulomb_config()), lam=0.0, integrator=IntegratorConfig(r_min=0.69)
    )
    sol = newton_shooting(State(q=[0.7, 0.0, 0.0], p=[0.0, 0.0, 0.0]), problem)
    assert any("<= r_min = 0.69" in bad for bad in rejected)
    assert sol.residual_norm < 1e-9
    assert np.abs(sol.x0.as_array() - EQ.as_array()).max() < 1e-7
