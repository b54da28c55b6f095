import math

import numpy as np
import pytest

from conftest import (
    TabulatedPotential,
    conserved_energy,
    coulomb_config,
    desk_config,
    energy_drift,
    force_free_config,
    gyro_config,
    zero_potential,
)
from lfe.degree import find_zero_f0
from lfe.fields import FieldConfig, Forcing, ZeroField
from lfe.homotopy import HomotopySystem
from lfe.integrator import (
    IntegratorConfig,
    MaxStepsExceeded,
    SingularityApproach,
    SolverError,
    StepUnderflow,
    Trajectory,
    integrate,
)
from lfe.kinematics import State, phi_inv

GYRO_PERIOD = 2.0 * math.pi * 1.25  # uniform unit field, |p| = 0.75


def gyro_analytic(t, q0, p_mag=0.75, b=1.0):
    """Relativistic circular motion in a uniform field along z, p(0) = (p, 0, 0)."""
    gamma = math.sqrt(1.0 + p_mag**2)
    w = b / gamma
    p = np.array([p_mag * math.cos(w * t), -p_mag * math.sin(w * t), 0.0])
    q = np.asarray(q0, dtype=float) + (p_mag / b) * np.array(
        [math.sin(w * t), math.cos(w * t) - 1.0, 0.0]
    )
    return np.concatenate([q, p])


@pytest.fixture(scope="module")
def gyro_system():
    return HomotopySystem(gyro_config())


@pytest.fixture(scope="module")
def coulomb_system():
    return HomotopySystem(coulomb_config())


def test_free_particle_exact():
    system = HomotopySystem(force_free_config())
    x0 = State(q=[1.0, 2.0, 3.0], p=[0.75, 0.0, 0.0])
    traj = integrate(system, x0, (0.0, 1.0), 1.0)
    expected = np.concatenate([x0.q + phi_inv(x0.p), x0.p])
    assert np.abs(traj.states[-1] - expected).max() <= 1e-12


def test_gyromotion_returns_after_one_period(gyro_system):
    x0 = State(q=[5.0, 0.0, 0.0], p=[0.75, 0.0, 0.0])
    traj = integrate(gyro_system, x0, (0.0, GYRO_PERIOD), 1.0)
    assert np.abs(traj.states[-1] - traj.states[0]).max() < 1e-8


def test_gyromotion_matches_analytic_path(gyro_system):
    x0 = State(q=[5.0, 0.0, 0.0], p=[0.75, 0.0, 0.0])
    traj = integrate(gyro_system, x0, (0.0, GYRO_PERIOD), 1.0)
    for t in np.linspace(0.3, GYRO_PERIOD - 0.3, 7):
        assert np.abs(traj.at(t) - gyro_analytic(t, x0.q)).max() < 1e-8
    # momentum magnitude is conserved along the nodes
    p_mags = np.linalg.norm(traj.states[:, 3:], axis=1)
    assert np.abs(p_mags - 0.75).max() < 1e-10


def test_equilibrium_is_constant(coulomb_system):
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    traj = integrate(coulomb_system, x_eq, (0.0, 1.0), 0.0)
    assert np.abs(traj.states - traj.states[0]).max() < 1e-10


def test_energy_drift_zero_at_equilibrium(coulomb_system):
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    traj = integrate(coulomb_system, x_eq, (0.0, 1.0), 0.0)
    assert energy_drift(coulomb_system, traj) < 1e-13


def test_energy_drift_small_when_perturbed(coulomb_system):
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    x0 = State(q=x_eq.q + np.array([1e-2, 0.0, 0.0]), p=np.zeros(3))
    traj = integrate(coulomb_system, x0, (0.0, 1.0), 0.0)
    assert energy_drift(coulomb_system, traj) < 1e-8


def test_energy_drift_scales_with_tolerance(coulomb_system):
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    x0 = State(q=x_eq.q + np.array([1e-2, 0.0, 0.0]), p=np.zeros(3))
    drifts = {}
    for rtol in (1e-8, 1e-10):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        drifts[rtol] = energy_drift(coulomb_system, integrate(coulomb_system, x0, (0.0, 1.0), 0.0, cfg))
    assert drifts[1e-8] / drifts[1e-10] > 1.0


def test_conserved_energy_takes_a_stack(coulomb_system):
    # at rest q = (1, 0, 0), p = (0.75, 0, 0): gamma 1.25, c0/|q| = 1, h_mean . q = 0
    y = np.array([1.0, 0.0, 0.0, 0.75, 0.0, 0.0])
    assert conserved_energy(coulomb_system, y, 0.0) == 2.25
    rng = np.random.default_rng(17)
    stack = rng.normal(size=(40, 6)) * np.exp(rng.uniform(-3.0, 3.0, size=(40, 1)))
    system = HomotopySystem(desk_config())
    for lam in (0.0, 0.4, 1.0):
        energy = conserved_energy(system, stack, lam)
        assert energy.shape == (40,)
        assert np.array_equal(energy, [conserved_energy(system, y, lam) for y in stack])


def test_energy_drift_rejects_time_dependent_forcing():
    system = HomotopySystem(desk_config())
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    traj = integrate(system, x_eq, (0.0, 0.2), 1.0)
    with pytest.raises(ValueError):
        energy_drift(system, traj)


def test_observed_order_of_embedded_pair(gyro_system):
    """Error vs mean step size across a tolerance sweep follows the pair's order."""
    x0 = State(q=[5.0, 0.0, 0.0], p=[0.75, 0.0, 0.0])
    y0 = x0.as_array()
    hs, errs = [], []
    for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        traj = integrate(gyro_system, x0, (0.0, GYRO_PERIOD), 1.0, cfg)
        hs.append(GYRO_PERIOD / (len(traj.ts) - 1))
        errs.append(max(np.abs(traj.states[-1] - y0).max(), 1e-15))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 4.5, slope


def test_speed_bound_at_nodes(gyro_system):
    x0 = State(q=[5.0, 0.0, 0.0], p=[10.0, 0.0, 5.0])
    traj = integrate(gyro_system, x0, (0.0, 2.0), 1.0)
    assert np.linalg.norm(phi_inv(traj.states[:, 3:]), axis=1).max() < 1.0


def test_ultrarelativistic_start_integrates(coulomb_system):
    # past |p| ~ 1e8 the speed |p| / hypot(1, |p|) rounds to 1.0
    x0 = State(q=[0.7, 0.0, 0.0], p=[1e9, 0.0, 0.0])
    traj = integrate(coulomb_system, x0, (0.0, 1.0), 0.0, IntegratorConfig(r_min=0.69))
    assert np.all(np.isfinite(traj.states))
    assert math.isclose(traj.states[-1, 0], 1.7, rel_tol=1e-12)


def test_time_symmetry_via_momentum_flip(coulomb_system):
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    x0 = State(q=x_eq.q + np.array([1e-2, 0.0, 0.0]), p=np.zeros(3))
    forward = integrate(coulomb_system, x0, (0.0, 1.0), 0.0)
    xe = State.from_array(forward.states[-1])
    back = integrate(coulomb_system, State(q=xe.q, p=-xe.p), (0.0, 1.0), 0.0)
    xb = State.from_array(back.states[-1])
    recovered = np.concatenate([xb.q, -xb.p])
    assert np.abs(recovered - x0.as_array()).max() <= 10 * IntegratorConfig().rtol


def test_nodes_strictly_increasing(gyro_system):
    traj = integrate(gyro_system, State(q=[5, 0, 0], p=[0.75, 0, 0]), (0.0, 2.0), 1.0)
    assert np.all(np.diff(traj.ts) > 0)


def test_singularity_guard_triggers():
    # strong inward mean forcing drives the orbit toward the origin
    config = coulomb_config(mean=(0.0, 0.0, -10.0), c_B=1.0)
    system = HomotopySystem(config)
    x0 = State(q=[0.0, 0.0, 1.0], p=[0.0, 0.0, -1.0])
    cfg = IntegratorConfig(r_min=0.5)
    with pytest.raises(SingularityApproach) as exc:
        integrate(system, x0, (0.0, 5.0), 0.0, cfg)
    err = exc.value
    assert 0.0 < err.t < 5.0
    assert math.isclose(np.linalg.norm(err.state.q), 0.5, rel_tol=1e-6)


def test_guard_covers_every_member_of_a_stack():
    # force-free: the second member flies straight at the origin, the first stays put
    system = HomotopySystem(force_free_config())
    stack = np.array([[5.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]])
    cfg = IntegratorConfig(r_min=0.5)
    integrate(system, stack[0], (0.0, 2.0), 1.0, cfg)
    with pytest.raises(SingularityApproach) as exc:
        integrate(system, stack, (0.0, 2.0), 1.0, cfg)
    err = exc.value
    # |v| = 1/sqrt(2), so |q| = 1 - t/sqrt(2) reaches 0.5 at t = 0.5 sqrt(2)
    assert math.isclose(err.t, 0.5 * math.sqrt(2.0), rel_tol=1e-9)
    assert np.allclose(err.state.q, [0.5, 0.0, 0.0], atol=1e-9)


def test_stack_members_match_single_runs(gyro_system):
    stack = np.array([[5.0, 0.0, 0.0, 0.75, 0.0, 0.0], [4.0, 1.0, 0.0, 0.0, 0.5, 0.1]])
    traj = integrate(gyro_system, stack, (0.0, 2.0), 1.0)
    assert traj.states.shape == (len(traj.ts), 2, 6)
    for i, y0 in enumerate(stack):
        member = traj.row(i)
        single = integrate(gyro_system, y0, (0.0, 2.0), 1.0)
        assert np.array_equal(member.states[0], y0)
        assert np.abs(member.states[-1] - single.states[-1]).max() < 1e-9
        assert np.array_equal(member.at(1.3), traj.at(1.3)[i])
        # a member evaluates only its own six columns, with the values of the whole stack's
        grid = np.linspace(0.0, 2.0, 101)
        assert np.array_equal(member.at(grid), traj.at(grid)[i])


def test_max_steps_exceeded(gyro_system):
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(MaxStepsExceeded):
        integrate(gyro_system, State(q=[5, 0, 0], p=[0.75, 0, 0]), (0.0, GYRO_PERIOD), 1.0, cfg)


def test_step_underflow_on_nonfinite_field():
    bad_pot = TabulatedPotential(
        lambda q: 0.0,
        lambda q: np.where(q[..., 2:3] > 0.5, np.nan, 0.0) * np.ones(3),
    )
    config = FieldConfig(
        potential=bad_pot,
        magnetic=ZeroField(),
        forcing=Forcing(1.0, [0.0, 0.0, 0.0]),
        eps0=1.0,
        c_B=1.0,
        c1=0.0,
        beta=0.5,
        eps1=1.0,
    )
    system = HomotopySystem(config)
    x0 = State(q=[0.0, 0.0, -1.0], p=[0.0, 0.0, 0.5])
    with pytest.raises(StepUnderflow):
        integrate(system, x0, (0.0, 10.0), 1.0)


def test_integrate_validates_inputs(gyro_system):
    x0 = State(q=[5, 0, 0], p=[0, 0, 0])
    with pytest.raises(ValueError):
        integrate(gyro_system, x0, (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        integrate(gyro_system, x0, (0.0, 1.0), -0.2)
    with pytest.raises(SolverError, match=r"^initial position \|q\| = 1e-08 is inside the guard radius r_min = 1e-06$"):
        integrate(gyro_system, State(q=[1e-8, 0, 0], p=[0, 0, 0]), (0.0, 1.0), 1.0)
    for shape in [(5,), (2, 7), (1, 2, 6)]:
        with pytest.raises(ValueError, match=r"^initial states must have shape \(6,\) or \(N, 6\)"):
            integrate(gyro_system, np.ones(shape), (0.0, 1.0), 1.0)
    for first_step in [0.0, -0.1, 1.5]:
        with pytest.raises(ValueError, match=r"^first_step must lie in \(0, 1\]"):
            integrate(gyro_system, x0, (0.0, 1.0), 1.0, first_step=first_step)


def test_csv_export(tmp_path, gyro_system):
    traj = integrate(gyro_system, State(q=[5, 0, 0], p=[0.75, 0, 0]), (0.0, 1.0), 1.0)
    path = tmp_path / "traj.csv"
    traj.write_csv(path, 11)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3"
    assert len(lines) == 12
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, 5.0, 0.0, 0.0, 0.75, 0.0, 0.0]
    # the samples are the grid np.linspace(0, 1, 11), the last one at the end of the run
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, 11))
    assert np.allclose(rows[-1, 1:], traj.states[-1], rtol=0.0, atol=1e-12)
    # byte-identical on re-export
    path2 = tmp_path / "traj2.csv"
    traj.write_csv(path2, 11)
    assert path.read_bytes() == path2.read_bytes()


def _scipy_flow(system, y0, t1, lam, first_step=None, oracle="DOP853"):
    """Nodes, dense output and RHS count of scipy's own stepper named `oracle` on the same flat system."""
    scipy_integrate = pytest.importorskip("scipy.integrate")
    shape = y0.shape
    stepper = getattr(scipy_integrate, oracle)(
        lambda t, y: system.rhs_array(t, y.reshape(shape), lam).reshape(-1),
        0.0,
        y0.reshape(-1),
        t1,
        rtol=IntegratorConfig().rtol,
        atol=IntegratorConfig().atol,
        first_step=first_step,
    )
    ts, ys, interps = [0.0], [y0.reshape(-1)], []
    while stepper.status == "running":
        stepper.step()
        interps.append(stepper.dense_output())
        ts.append(stepper.t)
        ys.append(stepper.y.copy())
    return np.array(ts), np.array(ys), scipy_integrate.OdeSolution(np.array(ts), interps), stepper.nfev


_EQ = find_zero_f0(1.0, [0.0, 0.0, 2.0]).as_array()


@pytest.mark.parametrize("oracle", ["DOP853"])  # scipy's stepper of the pair lfe implements
@pytest.mark.parametrize(
    "case",
    [
        ("gyro", np.array([5.0, 0.0, 0.0, 0.75, 0.0, 0.0]), 1.0, GYRO_PERIOD, None),
        ("desk", _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0]), 1.0, 1.0, None),
        ("desk", _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0]), 0.5, 1.0, None),
        # the shooting stack: an orbit and its six forward perturbations
        ("desk", _EQ + np.vstack([np.zeros(6), 1e-7 * np.eye(6)]), 1.0, 1.0, None),
        # a given first step, too large: step control rejects and shrinks it as scipy does
        ("desk", _EQ + np.vstack([np.zeros(6), 1e-7 * np.eye(6)]), 1.0, 1.0, 0.5),
    ],
    ids=["gyro", "desk", "desk-half-lambda", "desk-42-stack", "desk-42-stack-first-step"],
)
def test_nodes_and_dense_output_equal_scipy(case, oracle):
    name, y0, lam, t1, first_step = case
    system = HomotopySystem(gyro_config() if name == "gyro" else desk_config())
    # without a first step the first trial is the whole span, scipy's given the same
    ts, ys, dense, nfev = _scipy_flow(system, y0, t1, lam, first_step or t1, oracle)
    traj = integrate(system, y0, (0.0, t1), lam, IntegratorConfig(), first_step=first_step)
    assert np.array_equal(traj.ts, ts)
    assert np.array_equal(traj.states.reshape(len(ts), -1), ys)
    grid = np.linspace(0.0, t1, 1001)
    shuffled = np.random.default_rng(3).uniform(0.0, t1, size=100)
    assert np.array_equal(traj.interpolant(grid), dense(grid))
    assert np.array_equal(traj.interpolant(shuffled), dense(shuffled))
    for t in list(shuffled[:10]) + list(ts):
        assert np.array_equal(traj.interpolant(t), dense(t))
    # scipy's count includes the interpolant stages of every step; ours builds them on reading.
    # Both start with one call and make 12 per trial step
    assert traj.n_rhs_evals == nfev - 3 * (len(ts) - 1)


def test_a_first_step_of_the_whole_period_is_rejected_and_shrunk():
    # a run with no first step tries its whole span first: one state, and the shooting stack
    system = HomotopySystem(desk_config())
    y0 = _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0])
    cfg = IntegratorConfig(rtol=1e-10)
    for start in (y0, y0 + np.vstack([np.zeros(6), 1e-7 * np.eye(6)])):
        cold = integrate(system, start, (0.0, 1.0), 1.0, cfg)
        whole = integrate(system, start, (0.0, 1.0), 1.0, cfg, first_step=1.0)
        assert np.array_equal(cold.ts, whole.ts)
        assert np.array_equal(cold.states, whole.states)
        assert cold.n_rejected >= 1 and len(cold.ts) > 2
        # one call to start and 12 per trial step, accepted or rejected
        assert cold.n_rhs_evals == 1 + 12 * (len(cold.ts) - 1 + cold.n_rejected)


def test_warm_step_is_the_middle_step_scaled_as_step_control_scales_a_step():
    system = HomotopySystem(desk_config())
    y0 = _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0])
    traj = integrate(system, y0, (0.0, 1.0), 1.0, IntegratorConfig(rtol=1e-10))
    steps = sorted(np.diff(traj.ts).tolist())
    middle = steps[len(steps) // 2]
    # scaled from the rtol the run recorded by the controller's exponent 1/8, and by its safety
    # factor 0.9; at most the span
    assert traj.rtol == 1e-10
    assert traj.warm_step(1e-10) == 0.9 * middle
    assert traj.warm_step(1e-6) == 0.9 * middle * (1e-6 / 1e-10) ** (1 / 8) < 1.0
    assert traj.warm_step(1e20) == 1.0


def test_warm_step_takes_the_whole_span_where_the_scaled_step_reaches_its_safety_factor():
    # the equilibrium's flow over half the period is one step: at its own rtol the scaled step is
    # 0.9 of the span, which would leave a sliver, so it is the whole span, here or on a shorter one
    system = HomotopySystem(coulomb_config())
    eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    traj = integrate(system, eq, (0.0, 0.5), 1.0, IntegratorConfig(rtol=1e-10))
    assert len(traj.ts) == 2
    assert traj.warm_step(1e-10) == 0.5 and traj.warm_step(1e-10, 0.25) == 0.25
    # at a tighter rtol it stays the scaled step, below 0.9 of the span
    assert traj.warm_step(1e-12) == 0.9 * 0.5 * (1e-12 / 1e-10) ** (1 / 8) < 0.9 * 0.5


def test_members_at_time_offsets_see_the_forcing_at_their_own_time():
    # the desk forcing depends on time: the member at offset 0.25 runs as a flow over [0.25, 0.5]
    system = HomotopySystem(desk_config())
    cfg = IntegratorConfig(rtol=1e-10)
    y0 = _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0])
    whole = integrate(system, y0, (0.0, 0.5), 1.0, cfg)
    starts = np.array([y0, whole.at(0.25)])
    run = integrate(system, starts, (0.0, 0.25), 1.0, cfg, offsets=np.array([0.0, 0.25]))
    assert run.t0 == 0.0 and run.t1 == 0.25
    assert np.abs(run.states[-1, 1] - whole.states[-1]).max() < 1e-9
    assert np.abs(run.states[-1, 0] - whole.at(0.25)).max() < 1e-9
    # without offsets both members run over [0, 0.25]
    same = integrate(system, starts, (0.0, 0.25), 1.0, cfg)
    assert np.abs(same.states[-1, 1] - whole.states[-1]).max() > 1e-3
    # the two members joined are the flow over [0, 0.5], continuous at the join to the flow error
    joined = run.joined([0, 1], np.array([0.0, 0.25]), 0.5)
    assert (joined.t0, joined.t1, joined.rtol, joined.n_rhs_evals) == (0.0, 0.5, run.rtol, run.n_rhs_evals)
    assert np.all(np.diff(joined.ts) > 0.0) and len(joined.ts) == 2 * len(run.ts) - 1
    t = np.linspace(0.0, 0.5, 101)
    assert np.abs(joined.at(t) - whole.at(t)).max() < 1e-9
    assert np.array_equal(joined.at(0.25), starts[1]) and np.array_equal(joined.at(0.1), run.at(0.1)[0])
    assert np.abs(joined.at(np.nextafter(0.25, 0.0)) - starts[1]).max() < 1e-9


@pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
def test_one_state_is_a_stack_of_one_at_offset_zero(lam):
    # bit for bit: the nodes, the states and the dense output on a grid and at one time
    system = HomotopySystem(desk_config())
    y0 = _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0])
    one = integrate(system, y0, (0.0, 1.3), lam)
    stack = integrate(system, y0[None], (0.0, 1.3), lam, offsets=np.array([0.0]))
    assert np.array_equal(one.ts, stack.ts) and len(one.ts) > 2
    assert np.array_equal(one.states, stack.states[:, 0])
    assert (one.n_rhs_evals, one.n_rejected) == (stack.n_rhs_evals, stack.n_rejected)
    grid = np.linspace(0.0, 1.3, 101)
    assert np.array_equal(one.at(grid), stack.at(grid)[0])
    assert np.array_equal(one.at(0.7), stack.at(0.7)[0])


def test_offsets_name_one_per_member_of_a_stack():
    system = HomotopySystem(desk_config())
    with pytest.raises(ValueError, match=r"^offsets must have shape \(2,\) for a stack of 2 states$"):
        integrate(system, np.array([_EQ, _EQ]), (0.0, 0.1), 1.0, offsets=np.zeros(3))
    with pytest.raises(ValueError, match=r"^offsets must have shape \(1,\) for a stack of 1 states$"):
        integrate(system, _EQ, (0.0, 0.1), 1.0, offsets=np.zeros(2))


def test_one_state_takes_one_offset():
    # one state at an offset runs as a stack of one does, bit for bit, and as the flow that starts there
    system = HomotopySystem(desk_config())
    y0 = _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0])
    one = integrate(system, y0, (0.0, 0.5), 1.0, offsets=np.array([0.25]))
    stack = integrate(system, y0[None], (0.0, 0.5), 1.0, offsets=np.array([0.25]))
    assert np.array_equal(one.ts, stack.ts) and np.array_equal(one.states, stack.states[:, 0])
    assert np.array_equal(one.at(0.3), stack.at(0.3)[0])
    later = integrate(system, y0, (0.25, 0.75), 1.0)
    assert np.abs(one.states[-1] - later.states[-1]).max() < 1e-9


def test_guard_names_the_time_of_the_member_that_crossed():
    # the stack of test_guard_covers_every_member_of_a_stack, its second member at offset 3: it
    # crosses |q| = 0.5 at run time 0.5 sqrt(2), which is its own time 3 + 0.5 sqrt(2)
    system = HomotopySystem(force_free_config())
    stack = np.array([[5.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]])
    with pytest.raises(SingularityApproach) as exc:
        integrate(system, stack, (0.0, 2.0), 1.0, IntegratorConfig(r_min=0.5), offsets=np.array([0.0, 3.0]))
    assert math.isclose(exc.value.t, 3.0 + 0.5 * math.sqrt(2.0), rel_tol=1e-9)
    assert np.allclose(exc.value.state.q, [0.5, 0.0, 0.0], atol=1e-9)


def test_trajectory_counts_rejected_steps(gyro_system):
    x0 = np.array([5.0, 0.0, 0.0, 0.75, 0.0, 0.0])
    traj = integrate(gyro_system, x0, (0.0, GYRO_PERIOD), 1.0)
    # scipy, given the whole span as its first step, calls the RHS once to start, 12 times per
    # trial step, accepted or rejected, and 3 more times per accepted step for its interpolant
    ts, _, _, nfev = _scipy_flow(gyro_system, x0, GYRO_PERIOD, 1.0, first_step=GYRO_PERIOD)
    steps = len(ts) - 1
    assert traj.n_rejected == (nfev - 1 - 3 * steps) // 12 - steps == 4
    stack = integrate(gyro_system, np.array([x0, x0 + 1e-7]), (0.0, GYRO_PERIOD), 1.0)
    assert stack.row(1).n_rejected == stack.n_rejected
