import dataclasses
import math

import numpy as np
import pytest

import lfe.shooting
from conftest import (
    coulomb_config,
    counted_identities,
    first_step_of,
    flowed_from,
    force_free_config,
    loosened,
    periodicity_residual,
    read_flow,
    recorded_flows,
    reflow,
)
from lfe.degree import find_zero_f0
from lfe.fields import Forcing, Harmonic
from lfe.homotopy import EquilibriumLinearization, HomotopySystem
from lfe.integrator import IntegratorConfig, SolverError, StepUnderflow, integrate
from lfe.kinematics import State, phi_inv
from lfe.shooting import (
    LeftDomain,
    NewtonDiverged,
    ResonantStart,
    ShootingProblem,
    SingularJacobian,
    SolverOptions,
    continue_lambda,
    equilibrium_orbit,
    newton_shooting,
    orbit_identities,
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


def test_a_guess_at_twice_the_momentum_bound_leaves_the_search_region():
    # a certified momentum bound L = 0.25 gives the search region |p| < 2 L = 0.5; the guess sits at
    # the equilibrium's |q|, well inside 0.5 < |q| < 10, with |p| = 0.5 exactly
    problem = ShootingProblem(system=HomotopySystem(coulomb_config()), lam=0.0, region=(0.1, 5.0, 0.25))
    guess = State(q=EQ.q, p=[0.3, 0.0, 0.4])
    bad = r"^initial guess outside the search region: \|p\| = 0\.5 >= p_max = 0\.5$"
    with pytest.raises(LeftDomain, match=bad):
        newton_shooting(guess, problem)
    assert problem.violation(State(q=EQ.q, p=[0.3, 0.0, 0.39]).as_array()) is None


def test_failed_damping_names_its_cause(coulomb_problem):
    # the search region |q| < 0.6 ends short of the equilibrium at |q| = 0.707
    short = dataclasses.replace(coulomb_problem, region=(0.1, 0.3, 5.0))
    with pytest.raises(LeftDomain, match="^every damped step left the search region$"):
        newton_shooting(State(q=[0.0, 0.0, -0.59], p=[0.0, 0.0, 0.0]), short)
    # no damped step lowers the equilibrium's residual 1.7e-16 (that of its half-period flow,
    # reversible about the x mirror), which is round-off; with |p| < 2e-20 the longer steps
    # leave the search region and the first that stays in flows, fails, and ends the solve
    strict = dataclasses.replace(
        coulomb_problem, solver=SolverOptions(newton_tol=1e-300), region=(0.1, 5.0, 1e-20)
    )
    with pytest.raises(NewtonDiverged, match=r"^round-off stagnation: residual 1\.733e-16 "):
        newton_shooting(EQ, strict)

    # every trial point stays in the region but no trial flow finishes
    class FailingTrials(ShootingProblem):
        def flow_with_monodromy(self, starts, first_step=None, span=None, offsets=None):
            if not np.array_equal(starts, [guess.as_array()]):
                raise StepUnderflow("trial flow refused")
            return super().flow_with_monodromy(starts, first_step, span, offsets)

    guess = State(q=EQ.q + np.array([1e-3, 0.0, 0.0]), p=np.zeros(3))
    failing = FailingTrials(system=coulomb_problem.system, lam=0.0)
    with pytest.raises(NewtonDiverged, match=r"^no residual decrease after 20 damping halvings"):
        newton_shooting(guess, failing)


def drift_flow(problem: ShootingProblem, guess: State):
    """The tolerance a guess with no predicted residual flows at: that of its drift T max|f(0, guess)|."""
    cfg = problem.integrator
    period = problem.system.config.forcing.period
    drift = period * np.abs(problem.system.rhs_array(0.0, guess.as_array(), problem.lam)).max()
    return loosened(cfg, max(cfg.rtol, min(1e-6, 1e-4 * drift)))


@pytest.mark.parametrize("offset", [1e-3, 1e-2, 5e-2])
def test_converged_orbit_comes_from_a_flow_at_the_configured_tolerance(coulomb_problem, monkeypatch, offset):
    flows = recorded_flows(monkeypatch)
    guess = State(q=EQ.q + np.array([offset, 0.0, 0.0]), p=np.zeros(3))
    sol = newton_shooting(guess, coulomb_problem)
    configured = coulomb_problem.integrator
    # the guess's flow at the tolerance of its drift, looser than the configured one, then one
    # trial per iteration at its rtol
    assert drift_flow(coulomb_problem, guess).rtol > configured.rtol
    assert [cfg for cfg, _, _ in flows] == [drift_flow(coulomb_problem, guess)] + [
        loosened(configured, step["rtol"]) for step in sol.newton_trace
    ]
    assert sol.newton_trace[0]["rtol"] == min(1e-6, 1e-4 * sol.newton_trace[0]["residual"]) > configured.rtol
    # the last trial flows at the configured tolerance and gives the orbit's trajectory, monodromy
    # and residual: there is no confirming re-flow
    assert sol.newton_trace[-1]["rtol"] == configured.rtol
    assert flowed_from(sol.trajectory, flows[-1][1])
    # a re-flow with the first step that flow took is the same flow
    again = reflow(coulomb_problem, sol.x0, first_step_of(flows, sol.trajectory))
    assert np.array_equal(sol.monodromy, again.monodromy)
    assert sol.residual_norm == again.norm < 1e-9


def test_a_loose_trial_that_meets_newton_tol_is_flowed_once_more(coulomb_problem, monkeypatch):
    flows = recorded_flows(monkeypatch)
    # a momentum kick across the mirror plane y = 0: its loose trial's residual lies below the
    # confirmed one (a position offset along x gives the reverse order)
    guess = State(q=EQ.q, p=np.array([0.0, 1e-3, 0.0]))
    # one iteration allowed: the confirming re-flow is not an iteration
    problem = dataclasses.replace(coulomb_problem, solver=SolverOptions(newton_tol=1e-5, max_iterations=1))
    sol = newton_shooting(guess, problem)
    configured = problem.integrator
    assert len(sol.newton_trace) == 1
    loose = loosened(configured, sol.newton_trace[0]["rtol"])
    assert loose.rtol > configured.rtol
    guessed = drift_flow(problem, guess)
    assert [cfg for cfg, _, _ in flows] == [guessed, loose, configured]
    (_, trial, _), (_, confirmed, _) = flows[1:]
    loose_residual = read_flow(problem, trial).norm
    assert loose_residual < 1e-5 and sol.residual_norm < 1e-5
    assert flowed_from(sol.trajectory, confirmed)

    # a newton_tol between the loose and the confirmed residual: Newton goes on from the re-flow
    between = 0.5 * (loose_residual + sol.residual_norm)
    assert loose_residual < between < sol.residual_norm
    flows.clear()
    strict = dataclasses.replace(problem, solver=SolverOptions(newton_tol=between))
    again = newton_shooting(guess, strict)
    assert [step["residual"] for step in again.newton_trace] == [
        sol.newton_trace[0]["residual"],
        sol.residual_norm,
    ]
    assert [cfg for cfg, _, _ in flows[:3]] == [guessed, loose, configured]
    assert again.residual_norm < between


def test_a_mispredicted_convergence_goes_on_from_its_configured_tolerance_trial(coulomb_problem, monkeypatch):
    guess = State(q=EQ.q + np.array([7e-2, 0.0, 0.0]), p=np.zeros(3))
    # newton_tol = 8e-9 lies between the residual a squared contraction predicts after the third
    # iteration and the one its trial reaches
    problem = dataclasses.replace(coulomb_problem, solver=SolverOptions(newton_tol=8e-9))
    flows = recorded_flows(monkeypatch)
    sol = newton_shooting(guess, problem)
    r = [step["residual"] for step in sol.newton_trace]
    assert r[2] * (r[2] / r[1]) ** 2 < 8e-9 < r[3]  # 7.5e-9 predicted, 8.5e-9 reached
    # so the third trial flows at the configured tolerance, misses newton_tol, and Newton goes
    # on from it with no re-flow and converges at the next trial: five flows, as with a loose
    # third trial, each at a point of its own
    configured = problem.integrator
    assert [step["rtol"] for step in sol.newton_trace] == [1e-6, 1e-6, 1e-10, 1e-10]
    assert [cfg for cfg, _, _ in flows] == [drift_flow(problem, guess)] + [
        loosened(configured, 1e-6)
    ] * 2 + [configured] * 2
    assert len({tuple(traj.states[0, 0]) for _, traj, _ in flows}) == 5
    assert flowed_from(sol.trajectory, flows[-1][1])
    assert sol.residual_norm < 8e-9


def test_a_trial_rtol_below_twice_the_configured_one_flows_once_at_it(coulomb_problem, monkeypatch):
    flows = recorded_flows(monkeypatch)
    # the guess's residual, about 1.5e-6, asks for a trial rtol of about 1.5e-10 < 2 rtol0
    guess = State(q=EQ.q + np.array([3.5e-7, 0.0, 0.0]), p=np.zeros(3))
    sol = newton_shooting(guess, coulomb_problem)
    configured = coulomb_problem.integrator
    (step,) = sol.newton_trace
    assert 1e-6 < step["residual"] < 2e-6
    assert step["rtol"] == configured.rtol
    # the trial flows once, at rtol0, and gives the orbit: there is no confirming re-flow
    assert [cfg for cfg, _, _ in flows] == [configured, configured]
    assert flowed_from(sol.trajectory, flows[1][1])
    assert sol.residual_norm < 1e-9


def test_a_predicted_residual_sets_the_tolerance_of_the_guess_flow(coulomb_problem, monkeypatch):
    flows = recorded_flows(monkeypatch)
    # a radial offset drifts faster than it misses its start: drift 5.7e-3, residual 1.7e-3
    guess = State(q=EQ.q + np.array([0.0, 0.0, 1e-3]), p=np.zeros(3))
    sol = newton_shooting(guess, coulomb_problem)
    configured = coulomb_problem.integrator
    # the guess flows at the rtol of its drift; its residual r asks for the tighter 1e-4 r, so
    # it flows again there, and the trials follow at their own rtol
    guessed = drift_flow(coulomb_problem, guess)
    r = read_flow(coulomb_problem, flows[0][1]).norm
    assert 1e-10 < 1e-4 * r < guessed.rtol < 1e-6
    assert sol.guess_rtol == guessed.rtol
    assert [cfg for cfg, _, _ in flows[: 2 + sol.newton_iterations]] == [
        guessed,
        loosened(configured, 1e-4 * r),
    ] + [loosened(configured, step["rtol"]) for step in sol.newton_trace]
    # the orbit's trajectory, monodromy and residual are those of a configured-tolerance flow
    assert [cfg for cfg, traj, _ in flows if flowed_from(sol.trajectory, traj)] == [configured]
    again = reflow(coulomb_problem, sol.x0, first_step_of(flows, sol.trajectory))
    assert np.array_equal(sol.monodromy, again.monodromy)
    assert sol.residual_norm == again.norm < 1e-9


def test_a_loose_guess_that_meets_newton_tol_is_flowed_once_more(coulomb_problem, monkeypatch):
    guess = State(q=EQ.q + np.array([1e-3, 0.0, 0.0]), p=np.zeros(3))
    r = np.abs(periodicity_residual(guess, coulomb_problem)).max()
    # the drift (2.8e-3) lies below r (4.4e-3), so r asks for no tighter flow; newton_tol above r
    problem = dataclasses.replace(coulomb_problem, solver=SolverOptions(newton_tol=10.0 * r))
    flows = recorded_flows(monkeypatch)
    sol = newton_shooting(guess, problem)
    configured = problem.integrator
    guessed = drift_flow(problem, guess)
    assert configured.rtol < guessed.rtol <= 1e-4 * r
    assert [cfg for cfg, _, _ in flows] == [guessed, configured]
    assert sol.newton_trace == []
    assert flowed_from(sol.trajectory, flows[1][1])


def test_each_newton_trace_entry_records_the_rtol_of_the_flow_it_accepted(desk_problem, monkeypatch):
    flows = []
    flow_residual = lfe.shooting._flow_residual

    def recording(problem, shooting, y, rtol, previous):
        out = flow_residual(problem, shooting, y, rtol, previous)
        flows.append((previous, out.run))
        return out

    monkeypatch.setattr(lfe.shooting, "_flow_residual", recording)
    sol = newton_shooting(EQ, dataclasses.replace(desk_problem, lam=1.0))
    # every flow after the guess's first warm-starts from the iterate's flow, so the iterates'
    # flows are, in order, the predecessors of the later flows and then the solution's flow
    iterates = [flows[0][1]]
    for previous, _ in flows[1:]:
        if previous is not iterates[-1]:
            iterates.append(previous)
    if not flowed_from(sol.trajectory, iterates[-1]):
        iterates.append(sol.trajectory)
    # an accepted trial starts at the point of a Newton step; a re-flow starts where its iterate did
    accepted = [b for a, b in zip(iterates, iterates[1:]) if not np.array_equal(a.states[0], b.states[0])]
    rtols = [step["rtol"] for step in sol.newton_trace]
    assert rtols == [traj.rtol for traj in accepted]
    assert len(set(rtols)) > 1 and rtols[-1] == desk_problem.integrator.rtol


def test_a_guess_warm_starts_from_the_rtol_its_previous_flow_recorded(coulomb_problem, monkeypatch):
    nearby = State(q=EQ.q + np.array([1e-3, 0.0, 0.0]), p=np.zeros(3))
    configured = coulomb_problem.integrator
    previous = integrate(coulomb_problem.system, nearby, (0.0, 1.0), 0.0, loosened(configured, 1e-6))
    steps = sorted(np.diff(previous.ts).tolist())
    middle = steps[len(steps) // 2]
    flows = recorded_flows(monkeypatch)
    newton_shooting(EQ, coulomb_problem, previous=previous)
    # the equilibrium, whose drift is round-off, flows at rtol0 = 1e-10, its first step scaled
    # from the 1e-6 that previous, the flow of a nearby guess, recorded, not from rtol0
    cfg, _, first_step = flows[0]
    assert previous.rtol == 1e-6 and cfg.rtol == configured.rtol == 1e-10
    assert first_step == 0.9 * middle * (1e-10 / 1e-6) ** (1 / 8) < 0.9 * middle


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


def test_stacked_monodromy_matches_separate_flows(desk_problem, desk_continuation):
    path, flows = desk_continuation
    final = path.final
    assert final.lam == 1.0 and final.shooting == "reversible y"
    problem = dataclasses.replace(desk_problem, lam=final.lam)
    # the orbit's monodromy G Phi^-1 G Phi is the one of the flow of the half period's segments
    # at their own starts, x0 the first, flowed with the first step its flow took
    ((flowed, first_step),) = [(traj, step) for _, traj, step in flows if flowed_from(final.trajectory, traj)]
    assert final.counts["segments"] == 3 and np.array_equal(flowed.states[0, 0], final.x0.as_array())
    again = reflow(problem, flowed.states[0, ::7], first_step)
    assert np.array_equal(final.monodromy, again.monodromy)
    # over the whole period, the stacked difference monodromy matches seven separate flows
    _, stacked = problem.flow_with_monodromy(final.x0.as_array())
    separate = per_column_monodromy(final.x0, problem)
    assert np.abs(stacked - separate).max() < 1e-6
    assert np.abs(final.monodromy - separate).max() < 1e-5
    # the deformed field is divergence-free, so the flow preserves volume (Liouville); G Phi^-1 G Phi
    # has det 1 by construction, so the full-period flows are what this checks
    assert abs(np.linalg.det(stacked) - 1.0) < 1e-6


def test_identities_on_converged_orbit(coulomb_problem):
    sol = newton_shooting(State(q=EQ.q + np.array([1e-3, 0, 0]), p=np.zeros(3)), coulomb_problem)
    d = sol.diagnostics
    assert d["mean_identity"] < 1e-6
    assert d["virial_lhs"] <= 1e-6
    assert d["virial_gap"] < 1e-6


def test_identities_are_computed_when_first_read(desk_problem, desk_start, monkeypatch):
    calls = counted_identities(monkeypatch)
    path = continue_lambda(desk_problem, desk_start)
    # the lam = 0 start and the one step over the whole interval
    assert path.status == "reached_target" and len(path.solutions) == 2
    # no orbit of the path builds its dense output for the identities
    assert calls == []
    diagnostics = path.final.diagnostics
    assert len(calls) == 1 and calls[0] is path.final.trajectory
    # a second read is the cached result
    assert path.final.diagnostics is diagnostics
    assert len(calls) == 1


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


def test_equilibrium_orbit_is_closed_form_and_flows_only_when_read(coulomb_problem, monkeypatch):
    flows = recorded_flows(monkeypatch)
    start = equilibrium_orbit(coulomb_problem, EQ)
    assert flows == [] and start.newton_trace == [] and start.lam == 0.0
    assert start.x0 is EQ
    # the residual is the rounded equilibrium's drift over the period, round-off
    assert start.residual_norm == np.abs(coulomb_problem.system.rhs_array(0.0, EQ.as_array(), 0.0)).max() < 1e-15
    linear = EquilibriumLinearization.at(1.0, EQ.q, 1.0)
    assert np.array_equal(start.monodromy, linear.monodromy())
    assert start.index_det == linear.index_det() > 0.0
    # the difference monodromy of the equilibrium's stacked flow agrees with exp(TA) (8.8e-6)
    _, difference = coulomb_problem.flow_with_monodromy(EQ.as_array())
    assert np.abs(difference - start.monodromy).max() < 1e-4
    flows.clear()
    # the trajectory is one flow of the equilibrium at the configured tolerance, on first read
    traj = start.trajectory
    assert [(cfg, step) for cfg, _, step in flows] == [(coulomb_problem.integrator, None)]
    assert start.trajectory is traj and len(flows) == 1
    assert np.abs(traj.states - EQ.as_array()).max() < 1e-10


def test_equilibrium_orbit_keeps_the_checks_of_a_solve(coulomb_problem):
    with pytest.raises(ValueError, match="^the equilibrium orbit is the lam = 0 start"):
        equilibrium_orbit(dataclasses.replace(coulomb_problem, lam=0.5), EQ)
    # |q*| = 0.707 lies outside the search region |q| < 2 * 0.3
    with pytest.raises(LeftDomain, match=r"^equilibrium outside the search region: \|q\| = 0\.707107 >= r_max"):
        equilibrium_orbit(dataclasses.replace(coulomb_problem, region=(0.1, 0.3, 5.0)), EQ)
    strict = dataclasses.replace(coulomb_problem, solver=SolverOptions(newton_tol=1e-300))
    with pytest.raises(NewtonDiverged, match=r"^the equilibrium's residual 4\.441e-16, its drift"):
        equilibrium_orbit(strict, EQ)
    # the period 2 pi / omega: det(I - M) = 0, the named resonance
    t_res = 2.0 * math.pi / 2.0**1.25
    forcing = dataclasses.replace(coulomb_problem.system.config.forcing, period=t_res)
    system = HomotopySystem(dataclasses.replace(coulomb_problem.system.config, forcing=forcing))
    with pytest.raises(ResonantStart, match=r"is 1 x T_res = 2 pi / omega = 2\.64175"):
        equilibrium_orbit(dataclasses.replace(coulomb_problem, system=system), EQ)
    # c0 = 1e-6, |mean| = 50, T = 3: sT = 1783.8, where cosh(sT) is inf and M0 would hold NaN
    mean = [0.0, 0.0, 50.0]
    config = dataclasses.replace(coulomb_config(c0=1e-6), forcing=Forcing(3.0, mean))
    problem = ShootingProblem(system=HomotopySystem(config), lam=0.0)
    with pytest.raises(SolverError, match=r"^sT = 1783\.81 \(s = sqrt\(c0/\|q\*\|\^3\) = 594\.604, T = 3\.0\) puts M0"):
        equilibrium_orbit(problem, find_zero_f0(1e-6, mean))


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
    good = equilibrium_orbit(coulomb_problem, EQ)
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
    quad_vec = pytest.importorskip("scipy.integrate").quad_vec
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


def test_step_controller_on_planted_traces(coulomb_problem, monkeypatch):
    # det(I - M), whose sign is the branch check, from the monodromy the solve's flow planted: on
    # the full path, which a mean forcing off every coordinate plane takes (it shares no mirror)
    tilted = ShootingProblem(system=HomotopySystem(coulomb_config(mean=(1.0, 1.0, 1.0))), lam=0.0)
    start = find_zero_f0(1.0, [1.0, 1.0, 1.0])
    flow = ShootingProblem.flow_with_monodromy
    for monodromy, det in [(np.diag([2.0] * 6), 1.0), (np.diag([2.0, 0, 0, 0, 0, 0]), -1.0)]:
        # the one segment's Jacobians (1, 6, 6), whose row is the solution's M
        monkeypatch.setattr(ShootingProblem, "flow_with_monodromy", lambda *args: (flow(*args)[0], monodromy[None]))
        sol = newton_shooting(start, tilted)
        assert sol.shooting == "full"
        assert sol.newton_trace == [] and sol.index_det == det
        assert np.shares_memory(sol.monodromy, monodromy) and np.array_equal(sol.monodromy, monodromy)
    # on the reversible path M = G Phi^-1 G Phi: a planted diagonal Phi commutes with G, so M = I;
    # a singular one is named
    monodromy = np.diag([2.0] * 6)
    sol = newton_shooting(EQ, coulomb_problem)
    assert sol.shooting == "reversible x" and sol.newton_trace == []
    assert np.array_equal(sol.monodromy, np.eye(6)) and sol.index_det == 0.0
    monodromy = np.diag([2.0, 0, 0, 0, 0, 0])
    with pytest.raises(SingularJacobian, match=r"^the Jacobian of the half-period flow is singular"):
        newton_shooting(EQ, coulomb_problem)


def test_the_difference_step_is_relative_to_a_large_coordinate():
    # a mean forcing off every coordinate plane shares no mirror: the full path's Jacobian at a
    # state 1e17 out on x, where x + 1e-7 rounds to x; its step there is 1e-7 x = 1e10
    problem = ShootingProblem(system=HomotopySystem(coulomb_config(mean=(1.0, 1.0, 1.0))), lam=1.0)
    x0 = np.array([1e17, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert x0[0] + lfe.shooting._FD_STEP == x0[0]
    _, jac = problem.flow_with_monodromy(x0)
    assert np.all(np.any(jac != 0.0, axis=0))
    # so far out the force does not depend on q: the q columns are those of the identity
    assert np.abs(jac[:, :3] - np.eye(6)[:, :3]).max() < 1e-6


def test_after_an_accepted_step_continuation_tries_the_rest_of_the_interval(coulomb_problem, monkeypatch):
    # a planted solve that converges only for steps of at most 0.3: each failure halves the
    # attempt, and each accepted step is followed by the rest of the interval
    start = equilibrium_orbit(coulomb_problem, EQ)
    solve = lfe.shooting.newton_shooting
    lams = [0.0]

    def short_steps_only(guess, problem, *args):
        if problem.lam - lams[-1] > 0.3:
            raise NewtonDiverged("planted failure")
        lams.append(problem.lam)
        return solve(guess, problem, *args)

    monkeypatch.setattr(lfe.shooting, "newton_shooting", short_steps_only)
    path = continue_lambda(coulomb_problem, start)
    assert path.status == "reached_target"
    steps = [(step["dlam"], step["accepted"]) for step in path.history]
    assert steps == [
        (1.0, False),
        (0.5, False),
        (0.25, True),
        (0.75, False),
        (0.375, False),
        (0.1875, True),
        (0.5625, False),
        (0.28125, True),
        (0.28125, True),
    ]
    assert [sol.lam for sol in path.solutions] == lams == [0.0, 0.25, 0.4375, 0.71875, 1.0]
    assert [step["reason"] for step in path.history if not step["accepted"]] == ["planted failure"] * 5


def test_continuation_rejects_a_step_that_flips_the_index(desk_problem, desk_start, monkeypatch):
    solve = lfe.shooting.newton_shooting
    calls, flipped_orbits = [], []

    def flipping(guess, problem, *args):
        sol = solve(guess, problem, *args)
        calls.append(problem.lam)
        if len(calls) == 2:  # the second step's orbit, with the first row of I - M negated
            negate = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
            monodromy = np.eye(6) - negate @ (np.eye(6) - sol.monodromy)
            sol = dataclasses.replace(sol, monodromy=monodromy, index_det=float(np.linalg.det(np.eye(6) - monodromy)))
            flipped_orbits.append(sol)
        return sol

    monkeypatch.setattr(lfe.shooting, "newton_shooting", flipping)
    path = continue_lambda(dataclasses.replace(desk_problem, solver=SolverOptions(dlam_init=0.1)), desk_start)
    assert path.status == "reached_target"
    flipped, retry = path.history[1:3]
    # the second step, the rest of the interval, to lam = 1
    assert flipped["lambda"] == 0.1 + flipped["dlam"] and not flipped["accepted"] and flipped["index_det"] < 0.0
    assert flipped["reason"].startswith("det(I - M) = ")
    assert all(sol is not flipped_orbits[0] for sol in path.solutions)
    # the path goes on from the same orbit with half the step
    assert retry["accepted"] and retry["dlam"] == 0.5 * flipped["dlam"]
    assert retry["lambda"] == path.solutions[2].lam == path.solutions[1].lam + retry["dlam"]
    assert all(step["index_det"] > 0.0 for step in path.history if step["accepted"])


@pytest.mark.parametrize(
    "dlam_init,dlam_floor,attempts",
    [(0.1, 1e-4, 10), (0.125, 0.125 / 8, 4), (1.0, 1e-4, 14)],
    ids=["default", "power-of-2", "whole-interval"],
)
def test_continuation_whose_every_solve_fails_underflows_within_its_budget(
    coulomb_problem, monkeypatch, dlam_init, dlam_floor, attempts
):
    start = newton_shooting(EQ, coulomb_problem)

    def failing(*args):
        raise NewtonDiverged("planted failure")

    monkeypatch.setattr(lfe.shooting, "newton_shooting", failing)
    solver = SolverOptions(dlam_init=dlam_init, dlam_floor=dlam_floor)
    path = continue_lambda(dataclasses.replace(coulomb_problem, solver=solver), start)
    # a run of failures underflows within one allowance of the budget (1 + h)^2, h the halvings
    # from the whole interval to the floor
    halvings = math.ceil(math.log2(1.0 / dlam_floor))
    assert path.status == "stepsize_underflow" and path.final is start
    assert len(path.history) == attempts <= 1 + halvings
    assert [step["dlam"] for step in path.history] == [dlam_init * 0.5**k for k in range(attempts)]
    assert all(step["guess_rtol"] is step["index_det"] is None for step in path.history)
    assert path.message.endswith("planted failure")


def light_harmonic_problem() -> ShootingProblem:
    """The light config (Coulomb, no magnetic field) with an x-cosine harmonic at lam = 1: reversible about y."""
    forcing = Forcing(1.0, [0.0, 0.0, 2.0], [Harmonic(1, [0.9, 0.0, 0.0], [0.0, 0.0, 0.0])])
    return ShootingProblem(system=HomotopySystem(dataclasses.replace(coulomb_config(), forcing=forcing)), lam=1.0)


@pytest.fixture(scope="module")
def symmetric_orbits(desk_problem):
    """name -> (problem, orbit): the desk and light symmetric orbits at lam = 1, solved from the equilibrium."""
    problems = {"desk": dataclasses.replace(desk_problem, lam=1.0), "light": light_harmonic_problem()}
    return {name: (problem, newton_shooting(EQ, problem)) for name, problem in problems.items()}


@pytest.mark.parametrize("name", ["desk", "light"])
def test_a_symmetric_orbit_is_solved_from_half_period_flows(symmetric_orbits, name, monkeypatch):
    problem, sol = symmetric_orbits[name]
    assert sol.shooting == "reversible y" and sol.residual_norm < problem.solver.newton_tol
    # x0 lies in Fix(G) = {y = 0, p_x = 0, p_z = 0} exactly, and so it stays along a continuation
    x0 = sol.x0.as_array()
    assert [x0[1], x0[3], x0[5]] == [0.0, 0.0, 0.0]
    assert sol.symmetry["symmetry_defect"] == 0.0
    # the guess flows the half period, and the later flows its segments
    flows = recorded_flows(monkeypatch)
    again = newton_shooting(EQ, problem)
    segments = again.counts["segments"]
    assert [(traj.t0, traj.t1) for _, traj, _ in flows] == [(0.0, 0.5)] + [(0.0, 0.5 / segments)] * (len(flows) - 1)
    assert np.array_equal(again.x0.as_array(), x0)


@pytest.mark.parametrize("name", ["desk", "light"])
def test_the_reversible_monodromy_matches_a_full_period_difference_monodromy(symmetric_orbits, name):
    problem, sol = symmetric_orbits[name]
    # M = G Phi^-1 G Phi against the forward differences over the whole period of the full path
    _, full = problem.flow_with_monodromy(sol.x0.as_array())
    assert np.abs(sol.monodromy - full).max() < 1e-5
    assert sol.index_det == pytest.approx(np.linalg.det(np.eye(6) - full), rel=1e-5)
    singular = np.linalg.svd(full - np.eye(6), compute_uv=False)[-1]
    assert sol.symmetry["sigma_min_M_minus_I"] == pytest.approx(singular, rel=1e-4)


@pytest.mark.parametrize("name", ["desk", "light"])
def test_the_reversible_residual_is_that_of_a_full_period_flow(symmetric_orbits, name):
    problem, sol = symmetric_orbits[name]
    # |G Phi^-1 (G y - y)|_inf, y = phi_T/2(x0), against |phi_T(x0) - x0|_inf of a flow at rtol0,
    # 1e-6 along the Fix(G) coordinate x from the orbit, where the residual (4.3e-6 on light) is
    # far above the flow's own error: light's orbit converges to 1.1e-13, and an rtol0 flow from
    # it reads 3.4e-13
    moved = State.from_array(sol.x0.as_array() + np.array([1e-6, 0.0, 0.0, 0.0, 0.0, 0.0]))
    reversible = reflow(problem, moved, None)
    full = np.abs(periodicity_residual(moved, problem)).max()
    assert full > 1e-8
    assert abs(reversible.norm - full) <= 0.01 * full


@pytest.mark.parametrize("name", ["desk", "light"])
def test_the_reflected_trajectory_matches_a_full_period_flow(symmetric_orbits, name):
    problem, sol = symmetric_orbits[name]
    traj, full = sol.trajectory, problem.flow(sol.x0)
    assert traj.t0 == full.t0 == 0.0 and traj.t1 == full.t1 == 1.0
    t = np.linspace(0.0, 1.0, 1000)
    assert np.abs(traj.at(t) - full.at(t)).max() < 1e-8
    # the second half's nodes are the first half's G-images, read backwards from t = T/2
    half = len(traj.ts) // 2
    g = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert traj.ts[half] == 0.5
    assert np.array_equal(traj.ts[half + 1 :], 1.0 - traj.ts[half - 1 :: -1])
    assert np.array_equal(traj.states[half + 1 :], g * traj.states[half - 1 :: -1])
    assert np.array_equal(traj.at(traj.ts[half + 1 :]), (g * traj.at(1.0 - traj.ts[half + 1 :]).T).T)


def desk_sine_problem(desk_problem) -> ShootingProblem:
    """The desk problem at lam = 1 with an x-sine beside the x-cosine: it shares no mirror, so its solves take the full path."""
    forcing = Forcing(1.0, [0.0, 0.0, 2.0], [Harmonic(1, [0.1, 0.0, 0.0], [0.1, 0.0, 0.0])])
    system = HomotopySystem(dataclasses.replace(desk_problem.system.config, forcing=forcing))
    return dataclasses.replace(desk_problem, system=system, lam=1.0)


# name -> (segments, the cap on segments that gives them): the desk guess flow takes 3 steps
# and so 3 segments; the desk-sine one takes 5, more than _MAX_SEGMENTS, so the cap is raised
SEGMENTED = {"desk": (3, None), "desk-sine": (5, 8)}


@pytest.mark.parametrize("name", SEGMENTED)
def test_segments_solve_the_orbit_of_single_shooting(desk_problem, monkeypatch, name):
    problem = dataclasses.replace(desk_problem, lam=1.0) if name == "desk" else desk_sine_problem(desk_problem)
    segments, cap = SEGMENTED[name]
    if cap is not None:
        monkeypatch.setattr(lfe.shooting, "_MAX_SEGMENTS", cap)
    multi = newton_shooting(EQ, problem)
    monkeypatch.setattr(lfe.shooting, "_MAX_SEGMENTS", 1)
    single = newton_shooting(EQ, problem)
    assert (multi.counts["segments"], single.counts["segments"]) == (segments, 1)
    assert multi.shooting == single.shooting == ("reversible y" if name == "desk" else "full")
    assert max(multi.residual_norm, single.residual_norm) < problem.solver.newton_tol
    # the same orbit, on the same side of the branch check
    assert np.abs(multi.x0.as_array() - single.x0.as_array()).max() < 1e-9
    assert np.sign(multi.index_det) == np.sign(single.index_det) != 0.0
    assert np.abs(multi.monodromy - single.monodromy).max() < 1e-5
    # the joined trajectory is continuous at each segment start t_k to within newton_tol: just
    # before t_k it reads the end of segment k - 1, at t_k the start of segment k
    traj, span = multi.trajectory, 0.5 if name == "desk" else 1.0
    starts = np.arange(1, segments) * (span / segments)
    gaps = traj.at(np.nextafter(starts, 0.0)) - traj.at(starts)
    assert 0.0 < np.abs(gaps).max() < problem.solver.newton_tol
    # and it is the orbit of single shooting, over the whole period
    t = np.linspace(0.0, 1.0, 401)
    assert traj.t0 == 0.0 and traj.t1 == 1.0
    assert np.abs(traj.at(t) - single.trajectory.at(t)).max() < 1e-8
    if name == "desk":
        # the second half reflects the first, x(T - t) = G x(t): on the nodes exactly, and
        # between them to round-off but at a segment start, where the two sides of the join
        # differ by its matching defect; t = T/2 is left out, where x(T/2) misses Fix(G) by
        # about the residual
        g = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        half = len(traj.ts) // 2
        assert traj.ts[half] == 0.5 and np.array_equal(traj.ts[half + 1 :], 1.0 - traj.ts[half - 1 :: -1])
        assert np.array_equal(traj.states[half + 1 :], g * traj.states[half - 1 :: -1])
        t = np.linspace(0.0, 1.0, 400)
        assert np.abs(traj.at(1.0 - t) - (g * traj.at(t).T).T).max() < problem.solver.newton_tol
