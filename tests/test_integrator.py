import math

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution

from conftest import coulomb_config, desk_config, force_free_config, gyro_config, zero_potential
from lfe.degree import find_zero_f0
from lfe.fields import FieldConfig, Forcing, TabulatedPotential, ZeroField
from lfe.homotopy import HomotopySystem
from lfe.integrator import (
    IntegratorConfig,
    MaxStepsExceeded,
    SingularityApproach,
    StepUnderflow,
    Trajectory,
    conserved_energy,
    energy_drift,
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


def test_max_steps_exceeded(gyro_system):
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(MaxStepsExceeded):
        integrate(gyro_system, State(q=[5, 0, 0], p=[0.75, 0, 0]), (0.0, GYRO_PERIOD), 1.0, cfg)


def test_step_underflow_on_nonfinite_field():
    bad_pot = TabulatedPotential(
        lambda q: 0.0,
        lambda q: np.full(3, np.nan) if q[2] > 0.5 else np.zeros(3),
    )
    config = FieldConfig(
        potential=bad_pot,
        magnetic=ZeroField(),
        forcing=Forcing(1.0, [0.0, 0.0, 0.0]),
        c0=1.0,
        gamma=1.0,
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
    with pytest.raises(ValueError):
        integrate(gyro_system, State(q=[1e-8, 0, 0], p=[0, 0, 0]), (0.0, 1.0), 1.0)
    for shape in [(5,), (2, 7), (1, 2, 6)]:
        with pytest.raises(ValueError, match=r"^initial states must have shape \(6,\) or \(N, 6\)"):
            integrate(gyro_system, np.ones(shape), (0.0, 1.0), 1.0)


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


def _scipy_flow(system, y0, t1, lam):
    """Nodes, dense output and RHS count of scipy's own DOP853 on the same flat system."""
    shape = y0.shape
    stepper = DOP853(
        lambda t, y: system.rhs_array(t, y.reshape(shape), lam).reshape(-1),
        0.0,
        y0.reshape(-1),
        t1,
        rtol=IntegratorConfig().rtol,
        atol=IntegratorConfig().atol,
    )
    ts, ys, interps = [0.0], [y0.reshape(-1)], []
    while stepper.status == "running":
        stepper.step()
        interps.append(stepper.dense_output())
        ts.append(stepper.t)
        ys.append(stepper.y.copy())
    return np.array(ts), np.array(ys), OdeSolution(np.array(ts), interps), stepper.nfev


_EQ = find_zero_f0(1.0, [0.0, 0.0, 2.0]).as_array()


@pytest.mark.parametrize("method", ["DOP853"])  # the one stepper, named as a config names it
@pytest.mark.parametrize(
    "case",
    [
        ("gyro", np.array([5.0, 0.0, 0.0, 0.75, 0.0, 0.0]), 1.0, GYRO_PERIOD),
        ("desk", _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0]), 1.0, 1.0),
        ("desk", _EQ + np.array([0.01, 0.0, 0.0, 0.0, 0.02, 0.0]), 0.5, 1.0),
        # the shooting stack: an orbit and its six forward perturbations
        ("desk", _EQ + np.vstack([np.zeros(6), 1e-7 * np.eye(6)]), 1.0, 1.0),
    ],
    ids=["gyro", "desk", "desk-half-lambda", "desk-42-stack"],
)
def test_nodes_and_dense_output_equal_scipy(case, method):
    name, y0, lam, t1 = case
    system = HomotopySystem(gyro_config() if name == "gyro" else desk_config())
    ts, ys, oracle, nfev = _scipy_flow(system, y0, t1, lam)
    traj = integrate(system, y0, (0.0, t1), lam, IntegratorConfig(method=method))
    assert np.array_equal(traj.ts, ts)
    assert np.array_equal(traj.states.reshape(len(ts), -1), ys)
    grid = np.linspace(0.0, t1, 1001)
    shuffled = np.random.default_rng(3).uniform(0.0, t1, size=100)
    assert np.array_equal(traj.interpolant(grid), oracle(grid))
    assert np.array_equal(traj.interpolant(shuffled), oracle(shuffled))
    for t in list(shuffled[:10]) + list(ts):
        assert np.array_equal(traj.interpolant(t), oracle(t))
    # scipy's count includes the interpolant stages of every step; ours builds them on reading
    assert traj.n_rhs_evals == nfev - 3 * (len(ts) - 1)


def test_trajectory_counts_rejected_steps(gyro_system):
    x0 = np.array([5.0, 0.0, 0.0, 0.75, 0.0, 0.0])
    traj = integrate(gyro_system, x0, (0.0, GYRO_PERIOD), 1.0)
    # scipy calls the RHS twice to start, 12 times per trial step, accepted or rejected,
    # and 3 more times per accepted step for its interpolant
    ts, _, _, nfev = _scipy_flow(gyro_system, x0, GYRO_PERIOD, 1.0)
    steps = len(ts) - 1
    assert traj.n_rejected == (nfev - 2 - 3 * steps) // 12 - steps > 0
    stack = integrate(gyro_system, np.array([x0, x0 + 1e-7]), (0.0, GYRO_PERIOD), 1.0)
    assert stack.row(1).n_rejected == stack.n_rejected
