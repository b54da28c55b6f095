"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just printed.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    SEED,
    TabulatedPotential,
    coulomb_config,
    counted_identities,
    energy_drift,
    fd_jacobian_momentum_first,
    gyro_config,
    recorded_flows,
)
from lfe.certificate import compute_certificate
from lfe.cli import main
from lfe.degree import brouwer_degree, find_zero_f0
from lfe.fields import (
    DipoleField,
    GeneralizedCoulomb,
    radial_powers,
)
from lfe.homotopy import AutonomousField, HomotopySystem
from lfe.integrator import IntegratorConfig, integrate
from lfe.kinematics import State, phi, phi_inv

GYRO_PERIOD = 2.0 * math.pi * 1.25


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def a5_run():
    t0 = time.perf_counter()
    cert = compute_certificate(coulomb_config())
    return cert, time.perf_counter() - t0


DESK_CONFIG = f"""
[potential]
c0 = 1.0
gamma = 3.0
eps0 = 0.5

[magnetic]
kind = dipole
moment = 0 0 0.1
c_B = auto
eps1 = 0.5

[forcing]
period = 1.0
mean = 0 0 2
harmonic_1_cos = 0.1 0 0

[solver]
seed = {SEED}
"""


# the desk scenario with a first continuation step of 0.1: the step after it tries the rest of the
# interval, and its guess is warm-started at the tolerance of its drift
DESK_SHORT_FIRST_STEP_CONFIG = DESK_CONFIG.replace("[solver]\n", "[solver]\ndlam_init = 0.1\n")


def run_continue(base, text: str) -> dict:
    """`continue` on the config text in the directory base, timed end to end."""
    config = base / "desk.ini"
    config.write_text(text, encoding="utf-8")
    out = base / "out"
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("LFE_VERBOSITY", "0")
        t0 = time.perf_counter()
        code = main(["continue", "--config", str(config), "--out", str(out)])
        elapsed = time.perf_counter() - t0
    payload = json.loads((out / "run_report.json").read_text())
    return {"exit_code": code, "report": payload, "out": out, "elapsed": elapsed}


@pytest.fixture(scope="module")
def a6_run(tmp_path_factory):
    """The desk scenario driven through the `continue` subcommand: one step over the whole interval."""
    return run_continue(tmp_path_factory.mktemp("a6"), DESK_CONFIG)


@pytest.fixture(scope="module")
def desk_short_first_step_run(tmp_path_factory):
    """The desk scenario through `continue` with a first step of 0.1: two steps, to 0.1 and 1."""
    return run_continue(tmp_path_factory.mktemp("desk-short-first-step"), DESK_SHORT_FIRST_STEP_CONFIG)


# the artifacts of each single-stage command on the desk scenario
DESK_ARTIFACTS = {
    "validate": ["validate_report.txt", "validate_report.json"],
    "bounds": ["certificate.txt", "certificate.json"],
    "degree": ["degree_report.txt", "degree_report.json"],
    "find-orbit": ["orbit_report.txt", "orbit_report.json", "orbit.csv"],
    "integrate": ["trajectory.csv"],
}


def test_desk_scenario_runs_every_command(tmp_path, monkeypatch, a6_run):
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    config = tmp_path / "desk.ini"
    config.write_text(DESK_CONFIG, encoding="utf-8")
    for command, names in DESK_ARTIFACTS.items():
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        assert all((out / name).stat().st_size > 0 for name in names), command
    # the dipole's envelope law 2|mu| r^-3 gives (c1, beta) = (2|mu|, 3 - 1) and the ceiling c_B = auto = 2|mu|
    assert a6_run["exit_code"] == 0
    echoed = a6_run["report"]["config"].splitlines()
    assert "c1 = 0.2" in echoed and "beta = 2.0" in echoed
    rows = (tmp_path / "validate" / "validate_report.txt").read_text().splitlines()
    assert any(row.endswith("vs c_B = 0.2") for row in rows)


def test_desk_integrate_over_50_periods_from_a_moving_start(tmp_path, monkeypatch):
    # a run with no first step tries its whole span, t_end = 50, first, and step control shrinks it;
    # no overflow on the way (a RuntimeWarning fails this suite)
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    config = tmp_path / "desk-long.ini"
    config.write_text(DESK_CONFIG + "\n[initial-state]\nlambda = 1.0\nq = 0.3 0 -0.9\np = 0.5 0 0\nt_end = 50\n")
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3" and len(lines) == 1001
    assert float(lines[-1].split(",")[0]) == 50.0


def test_run_report_records_the_newton_trace(a6_run):
    final = a6_run["report"]["final_orbit"]
    trace = final["newton_trace"]
    assert len(trace) == final["newton_iterations"] > 0
    assert all(0.0 < step["alpha"] <= 1.0 for step in trace)
    residuals = [step["residual"] for step in trace] + [final["residual_norm"]]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_run_report_records_every_newton_trace_and_the_rejected_steps(desk_short_first_step_run):
    report = desk_short_first_step_run["report"]
    history = report["continuation"]["history"]
    # the first step of 0.1, then the rest of the interval
    assert [(h["lambda"], h["accepted"]) for h in history] == [(0.1, True), (1.0, True)]
    assert [len(h["newton_trace"]) for h in history] == [3, 4]
    assert set(history[0]) == {
        "lambda", "dlam", "accepted", "reason", "guess_rtol", "newton_trace", "index_det",
        "shooting", "sigma_min_M_minus_I", "symmetry_defect",
        "segments", "flows", "rhs_calls", "steps_accepted", "steps_rejected",
    }
    # det(I - M) of each orbit
    assert all(h["index_det"] > 0.0 for h in history)
    assert history[-1]["newton_trace"] == report["final_orbit"]["newton_trace"]
    # each orbit is symmetric, solved on the reversible path, and M - I stays far from singular
    symmetry = ("shooting", "sigma_min_M_minus_I", "symmetry_defect")
    assert all(h["shooting"] == "reversible y" and h["symmetry_defect"] == 0.0 for h in history)
    assert all(h["sigma_min_M_minus_I"] > 0.1 for h in history)
    assert [report["final_orbit"][key] for key in symmetry] == [history[-1][key] for key in symmetry]
    # step control rejected no trial step in the final orbit's half-period flow (one in the
    # full-period flow of the two-step path that full shooting took)
    assert report["final_orbit"]["n_rejected"] == 0


def test_desk_csv_cells_are_the_repr_of_the_python_numbers_they_hold(desk_short_first_step_run):
    # the bytes of the per-cell repr(float(x)) format, str(x) for an int: a numpy scalar in a row
    # would write its type's name, and a float that does not read back exactly would differ
    def cell(text):
        return text if text.lstrip("-").isdigit() else repr(float(text))

    for name, columns in (("orbit.csv", 7), ("continuation.csv", 4)):
        data = (desk_short_first_step_run["out"] / name).read_bytes()
        header, *rows = data.decode("utf-8").split("\n")[:-1]
        assert len(header.split(",")) == columns and len(rows) > 2
        expected = [header] + [",".join(cell(text) for text in row.split(",")) for row in rows]
        assert data == "".join(line + "\n" for line in expected).encode("utf-8")


# Newton iterations of the three-step desk path whose steps grew by sqrt(theta_max / theta0), at most x4
SQRT_RULE_ITERATIONS = {"0.1": 9, "0.5": 11, "1.0": 11}
# Newton iterations of the two-step desk path whose first step was 0.1 (3 + 4 at each amplitude)
TWO_STEP_ITERATIONS = 7
# Newton iterations of the one step over the whole interval
ONE_STEP_ITERATIONS = {"0.1": 4, "0.5": 5, "1.0": 5}


@pytest.mark.parametrize("amplitude", ["0.1", "0.5", "1.0"])
def test_desk_path_takes_fewer_newton_iterations_than_the_fixed_rule(tmp_path, monkeypatch, amplitude):
    # steps of 0.1 grown x1.5 after two successes took 6 steps and 18 iterations at each amplitude;
    # the first step tries the whole interval and converges there
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    config = tmp_path / "desk.ini"
    config.write_text(DESK_CONFIG.replace("harmonic_1_cos = 0.1 0 0", f"harmonic_1_cos = {amplitude} 0 0"))
    flows = recorded_flows(monkeypatch)
    assert main(["continue", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    history = json.loads((tmp_path / "out" / "run_report.json").read_text())["continuation"]["history"]
    assert [(step["lambda"], step["dlam"]) for step in history] == [(1.0, 1.0)]
    assert all(step["accepted"] for step in history)
    iterations = sum(len(step["newton_trace"]) for step in history)
    assert iterations <= ONE_STEP_ITERATIONS[amplitude] < TWO_STEP_ITERATIONS < SQRT_RULE_ITERATIONS[amplitude] < 18
    assert all(step["index_det"] > 0.0 for step in history)
    # the step's guess flow and one trial per iteration: the lambda = 0 start is closed-form and
    # not flowed (9 flows at 0.1 on the two-step path)
    assert len(flows) == 1 + iterations


# A scenario atlas: the desk config with its period T and the x-amplitude of harmonic_1_cos changed.
# (T, amplitude) -> (exit code, continuation status, the accepted lambdas, at most this many Newton
# iterations on the path).  Each path solves symmetric orbits on the reversible path (mirror y).
# With a first step of 0.1 the full-period paths took 22 iterations at (2, 1), 93 at (3, 1) and 395
# (about 15 s) at (2.6, 1), and the one at (2.6, 5) ended in stepsize_underflow after 610; with the
# whole-interval first step they took 8, 15, 12 and 14, and three of them, (2.6, 1), (2.6, 5) and
# (3, 1), ended off the symmetric branch.
ATLAS = {
    ("1", "1"): (0, "reached_target", [1.0], 5),
    ("1", "5"): (0, "reached_target", [1.0], 5),
    ("2", "1"): (0, "reached_target", [1.0], 6),
    ("2", "5"): (0, "reached_target", [1.0], 5),
    # the whole-interval step converges to a symmetric orbit with det(I - M) = -55.65, on another
    # branch, which the branch check rejects; the path then goes through lambda = 0.5
    ("2.6", "1"): (0, "reached_target", [0.5, 1.0], 15),
    ("2.6", "5"): (0, "reached_target", [1.0], 6),
    # next to the resonance T_res = 2.6418 of the lambda = 0 orbit
    ("2.6", "0.1"): (0, "reached_target", [0.5, 1.0], 16),
    ("3", "1"): (0, "reached_target", [1.0], 5),
    # the certificate stops: its momentum bound M leaves double range (m ~ 5e-90)
    ("3", "5"): (2, None, None, None),
}


@pytest.mark.parametrize("cell", ATLAS, ids=lambda cell: f"T{cell[0]}-amplitude{cell[1]}")
def test_desk_atlas_cell_status_and_newton_iterations(tmp_path, cell):
    period, amplitude = cell
    code, status, accepted, iterations = ATLAS[cell]
    text = DESK_CONFIG.replace("period = 1.0", f"period = {period}")
    run = run_continue(tmp_path, text.replace("harmonic_1_cos = 0.1 0 0", f"harmonic_1_cos = {amplitude} 0 0"))
    assert run["exit_code"] == code
    continuation = run["report"].get("continuation", {})
    assert continuation.get("status") == status
    if iterations is None:
        assert run["report"]["certificate_error"].startswith("momentum bound M")
    else:
        history = continuation["history"]
        assert [step["lambda"] for step in history if step["accepted"]] == pytest.approx(accepted, rel=1e-9)
        assert sum(len(step["newton_trace"]) for step in history) <= iterations
        # the final orbit lies in Fix(G) = {y = 0, p_x = 0, p_z = 0} exactly: on the symmetric branch
        final = run["report"]["final_orbit"]
        assert final["shooting"] == "reversible y" and final["symmetry_defect"] == 0.0
        assert [final["x0_q"][1], final["x0_p"][0], final["x0_p"][2]] == [0.0, 0.0, 0.0]


@pytest.fixture(scope="module")
def desk_flows(tmp_path_factory):
    """The desk scenario with a first step of 0.1 through `continue`, every shooting flow recorded: (flows, run_report.json)."""
    base = tmp_path_factory.mktemp("desk-flows")
    config = base / "desk.ini"
    config.write_text(DESK_SHORT_FIRST_STEP_CONFIG, encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("LFE_VERBOSITY", "0")
        flows = recorded_flows(patch)
        assert main(["continue", "--config", str(config), "--out", str(base / "out")]) == 0
    return flows, json.loads((base / "out" / "run_report.json").read_text())


def test_each_continuation_guess_flows_at_its_predicted_tolerance(desk, desk_flows):
    """Each guess flows at the rtol of its drift, the residual predicted for it."""
    _, system = desk
    flows, report = desk_flows
    history = report["continuation"]["history"]
    assert all(step["accepted"] for step in history)
    rtol0 = IntegratorConfig().rtol
    by_lambda = {}
    for cfg, traj, _ in flows:
        by_lambda.setdefault(traj.lam, []).append((cfg.rtol, traj.states[0, 0]))
    # each step's guess, the previous orbit's x0 (at first the lambda = 0 orbit's), flows first at
    # the rtol of its drift over one period, T max|f(0, x0; lam)|, at the step's lam
    assert 0.0 not in by_lambda  # the lambda = 0 start is closed-form and not flowed
    guesses = [by_lambda[step["lambda"]][0] for step in history]
    assert np.array_equal(guesses[0][1], find_zero_f0(1.0, [0.0, 0.0, 2.0]).as_array())
    assert np.array_equal(guesses[1][1], by_lambda[history[0]["lambda"]][-1][1])
    drifts = [
        system.config.forcing.period * np.abs(system.rhs_array(0.0, x0, step["lambda"])).max()
        for (_, x0), step in zip(guesses, history)
    ]
    assert history[0]["newton_trace"][0]["residual"] < drifts[0]  # 0.053 against 0.2
    expected = [max(rtol0, min(1e-6, 1e-4 * r)) for r in drifts]
    assert [rtol for rtol, _ in guesses] == expected
    assert [step["guess_rtol"] for step in history] == expected == [1e-6] * 2
    # every converged orbit is read from a flow at rtol0: the last one at its lambda
    assert all(flowed[-1][0] == rtol0 for flowed in by_lambda.values())


def test_desk_continue_takes_fewer_than_160_integrator_steps(desk_flows):
    # a regression guard on the saving of loose guess flows (216 steps with every guess at
    # rtol0), warm starts and trials rounded to rtol0 (183 steps and 26 flows without them);
    # the fixed-growth path took 25 flows and 153 steps, the contraction-driven one 15 and 95
    flows, _ = desk_flows
    assert len(flows) <= 25
    assert sum(len(traj.ts) - 1 for _, traj, _ in flows) < 160


def test_desk_continue_reads_each_convergence_from_its_last_trial(desk_flows):
    # each step's last iteration is predicted to converge, so its trial flows at rtol0 and no
    # converged loose trial is flowed once more: per step one guess flow and one trial per
    # iteration, 9 flows on the two steps
    flows, report = desk_flows
    history = report["continuation"]["history"]
    assert len(flows) == sum(1 + len(step["newton_trace"]) for step in history) == 9
    assert all(step["newton_trace"][-1]["rtol"] == IntegratorConfig().rtol for step in history)


def test_desk_continue_warm_starts_every_flow_but_the_first(desk_flows):
    # only the first step's guess has no predecessor, since the lambda = 0 start is closed-form
    # and not flowed: it tries its whole span as its first step
    flows, report = desk_flows
    assert [(traj.lam, step is None) for _, traj, step in flows[:2]] == [(0.1, True), (0.1, False)]
    assert all(step is not None for _, _, step in flows[1:])
    # each step's guess flows the half period, and its later flows the segments of it that the
    # guess flow's steps chose: 2 at lambda = 0.1, 3 at 1
    history = report["continuation"]["history"]
    assert [step["segments"] for step in history] == [2, 3]
    spans = {0.1: [], 1.0: []}
    for _, traj, _ in flows:
        spans[traj.lam].append(traj.t1)
    assert all(found == [0.5] + [0.5 / step["segments"]] * (step["flows"] - 1)
               for found, step in zip(spans.values(), history))
    # 34 rejected steps and 2656 right-hand-side calls when every flow starts cold, and 25 and
    # 2174 when the warm first step leaves out the step controller's safety factor; the 9
    # full-period flows of the two-step path took 10 and 754, the 13 half-period flows of the
    # three-step path 2 and 553, the 9 half-period flows of the two-step path 2 and 393, and
    # its 9 flows of segments of the half period take 1 and 237
    assert sum(traj.n_rejected for _, traj, _ in flows) <= 1
    assert sum(traj.n_rhs_evals for _, traj, _ in flows) <= 237


def test_desk_continue_computes_the_identities_of_the_final_orbit_only(tmp_path, monkeypatch):
    # of the orbits of the path, only the final one is verified and reported
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    config = tmp_path / "desk.ini"
    config.write_text(DESK_CONFIG, encoding="utf-8")
    calls = counted_identities(monkeypatch)
    assert main(["continue", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert [traj.lam for traj in calls] == [1.0]


def test_light_continue_flows_once_at_the_configured_tolerance(tmp_path, monkeypatch):
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    config = tmp_path / "scenario.ini"
    config.write_text(LIGHT_CONFIG, encoding="utf-8")
    flows = recorded_flows(monkeypatch)
    assert main(["continue", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    # the one step's guess, cold, which already solves lambda = 1; the lambda = 0 start is
    # closed-form and not flowed
    assert [(traj.lam, cfg.rtol, step is None) for cfg, traj, step in flows] == [(1.0, 1e-10, True)]
    history = json.loads((tmp_path / "out" / "run_report.json").read_text())["continuation"]["history"]
    assert [step["guess_rtol"] for step in history] == [1e-10]


def test_a1_kinematics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_rt = 0.0
    for _ in range(10_000):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        v = d * rng.uniform(0.0, 1.0 - 1e-6)
        worst_rt = max(worst_rt, float(np.abs(phi_inv(phi(v)) - v).max()))
    worst_speed = 0.0
    for _ in range(10_000):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        p = d * 10.0 ** rng.uniform(-3.0, 6.0)
        worst_speed = max(worst_speed, float(np.linalg.norm(phi_inv(p))))
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-12 and worst_speed < 1.0 and elapsed < 1.0
    report(
        "A1",
        ok,
        f"round-trip max {worst_rt:.3e} (tol 1e-12), max speed {worst_speed:.12f} < 1, "
        f"{elapsed:.2f}s < 1s",
    )


def test_a2_fields():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    variants = [
        GeneralizedCoulomb(1.0, 1.0),
        GeneralizedCoulomb(2.0, 2.5),
        GeneralizedCoulomb(0.7, 3.0),
        TabulatedPotential(
            lambda q: float(np.exp(-np.dot(q, q))),
            lambda q: -2.0 * q * float(np.exp(-np.dot(q, q))),
        ),
    ]
    worst_grad = 0.0
    for pot in variants:
        for _ in range(1000):
            q = rng.normal(size=3)
            r = np.linalg.norm(q)
            if r < 0.3:
                q *= 0.3 / r
            fd = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6
                fd[i] = (pot.value(q + e) - pot.value(q - e)) / 2e-6
            worst_grad = max(worst_grad, float(np.abs(pot.gradient(*radial_powers(q)) - fd).max()))

    dipole = DipoleField([0.0, 0.0, 0.1])
    c1 = 2.0 * np.linalg.norm(dipole.moment)
    worst_excess = -math.inf
    for _ in range(10_000):
        q = rng.normal(size=3)
        q *= rng.uniform(0.05, 20.0) / np.linalg.norm(q)
        r = np.linalg.norm(q)
        excess = float(np.linalg.norm(dipole.eval(0.0, *radial_powers(q)))) - c1 / r**3
        worst_excess = max(worst_excess, excess * r**3 / c1)  # relative excess
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-5 and worst_excess <= 1e-12 and elapsed < 5.0
    report(
        "A2",
        ok,
        f"max |grad - FD| {worst_grad:.3e} (tol 1e-5), dipole bound relative excess "
        f"{worst_excess:.2e}, {elapsed:.2f}s < 5s",
    )


def test_a3_integrator():
    t0 = time.perf_counter()
    gyro = HomotopySystem(gyro_config())
    x0 = State(q=[5.0, 0.0, 0.0], p=[0.75, 0.0, 0.0])
    traj = integrate(gyro, x0, (0.0, GYRO_PERIOD), 1.0)
    gyro_err = float(np.abs(traj.states[-1] - traj.states[0]).max())

    coulomb = HomotopySystem(coulomb_config())
    eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    perturbed = State(q=eq.q + np.array([1e-2, 0.0, 0.0]), p=np.zeros(3))
    drift = energy_drift(coulomb, integrate(coulomb, perturbed, (0.0, 1.0), 0.0))

    hs, errs = [], []
    for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        tr = integrate(gyro, x0, (0.0, GYRO_PERIOD), 1.0, cfg)
        hs.append(GYRO_PERIOD / (len(tr.ts) - 1))
        errs.append(max(float(np.abs(tr.states[-1] - x0.as_array()).max()), 1e-15))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = gyro_err < 1e-8 and drift < 1e-8 and slope >= 4.5 and elapsed < 10.0
    report(
        "A3",
        ok,
        f"gyration return error {gyro_err:.3e} (tol 1e-8), energy drift {drift:.3e} "
        f"(tol 1e-8), observed DOP853 order {slope:.3g} (>= 4.5), {elapsed:.2f}s < 10s",
    )


def test_a4_degree(a5_run):
    cert, _ = a5_run
    t0 = time.perf_counter()
    x0 = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    zero_err = float(
        np.abs(x0.as_array() - np.array([0.0, 0.0, -(2.0**-0.5), 0.0, 0.0, 0.0])).max()
    )
    deg = brouwer_degree(1.0, [0.0, 0.0, 2.0], cert.region(), period=1.0, seed=SEED)
    field = AutonomousField(c0=1.0, h_mean=np.array([0.0, 0.0, 2.0]))
    det_numeric = float(np.linalg.det(fd_jacobian_momentum_first(field, deg.x0)))
    rel_det = abs(det_numeric - deg.det_analytic) / abs(deg.det_analytic)
    elapsed = time.perf_counter() - t0
    ok = (
        zero_err < 1e-12
        and rel_det <= 1e-5
        and deg.det_analytic < 0.0
        and det_numeric < 0.0
        and deg.degree == -1
        and deg.sweep["starts"] >= 1000
        and deg.sweep["converged_to_zero"] >= 1
        and deg.sweep["converged_to_zero"] + deg.sweep["escaped"] == deg.sweep["starts"]
        and elapsed < 30.0
    )
    report(
        "A4",
        ok,
        f"zero offset {zero_err:.2e} (tol 1e-12), det {deg.det_analytic:.6f} vs FD "
        f"rel {rel_det:.2e} (tol 1e-5), degree {deg.degree}, sweep {deg.sweep['starts']} starts "
        f"-> one basin ({deg.sweep['converged_to_zero']} hits), {elapsed:.1f}s < 30s",
    )


def test_a5_certificates(a5_run):
    cert, elapsed = a5_run
    hand_R = 1.0  # c0 / R^2 < |mean h| - c_B  first holds at R = 1
    m = cert.m
    within_grid = abs(math.log2(cert.R / hand_R)) <= 1.0
    cond_R = 1.0 / cert.R**2 < 1.0
    rel_M = abs(cert.M - 2.0 / m**2) / (2.0 / m**2)
    L_hand = 2.0 / m**2 + 2.0 * 1.0 * 2.0  # 2T/m^2 + 2T|h| with T = 1
    rel_L = abs(cert.L - L_hand) / L_hand
    repro = cert.m == cert.m_from_constants()
    ok = cond_R and within_grid and rel_M <= 1e-3 and rel_L <= 1e-3 and repro and elapsed < 30.0
    report(
        "A5",
        ok,
        f"R = {cert.R:g} (hand 1, one grid level, c0/R^2 = {1.0 / cert.R**2:g} < 1), "
        f"M rel err {rel_M:.2e}, L rel err {rel_L:.2e} (tol 1e-3), "
        f"m reproduces formula: {repro}, {elapsed:.1f}s < 30s",
    )


def test_a6_end_to_end(a6_run):
    rep = a6_run["report"]
    final = rep["final_orbit"]
    ok = (
        a6_run["exit_code"] == 0
        and rep["validation_passed"] is True
        and rep["continuation"]["status"] == "reached_target"
        and final["lambda"] == 1.0
        and final["residual_norm"] < 1e-9
        and final["verified"] is True
        and final["mean_identity"] <= 1e-6
        and final["virial_gap"] <= 1e-6
        and a6_run["elapsed"] < 300.0
    )
    report(
        "A6",
        ok,
        f"continue exit {a6_run['exit_code']}, {rep['continuation']['status']} at lam=1 "
        f"with residual {final['residual_norm']:.2e} (tol 1e-9), verified {final['verified']}, "
        f"mean identity {final['mean_identity']:.2e}, virial gap {final['virial_gap']:.2e} "
        f"(tol 1e-6), {a6_run['elapsed']:.1f}s < 300s",
    )


def test_a7_identity_suite(desk_start, desk_path):
    """Every converged orbit this run produced satisfies the integral identities."""
    orbits = [desk_start, *desk_path.solutions]
    worst_mean = 0.0
    worst_virial = -math.inf
    checked = 0
    for orbit in orbits:
        diag = orbit.diagnostics
        worst_mean = max(worst_mean, diag["mean_identity"])
        assert diag["virial_lhs"] <= 1e-6
        spread = float(np.abs(orbit.trajectory.states - orbit.trajectory.states[0]).max())
        if spread > 1e-9:  # non-equilibrium orbit: strict negativity
            assert diag["virial_lhs"] < 0.0
            worst_virial = max(worst_virial, diag["virial_lhs"])
        checked += 1
    # the lambda = 0 start, counted twice, and the two steps of the desk path
    ok = worst_mean <= 1e-6 and checked == 4
    report(
        "A7",
        ok,
        f"{checked} converged orbits: max |integral p'| {worst_mean:.2e} (tol 1e-6), "
        f"largest non-equilibrium virial value {worst_virial:.2e} < 0",
    )


LIGHT_CONFIG = """
[potential]
c0 = 1.0
gamma = 1.0

[magnetic]
kind = zero
c_B = 1.0

[forcing]
period = 1.0
mean = 0 0 2

[solver]
dlam_init = 1.0
seed = 7

[output]
sample_points = 200
"""


def test_a8_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    config = tmp_path / "scenario.ini"
    config.write_text(LIGHT_CONFIG, encoding="utf-8")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["continue", "--config", str(config), "--out", str(out)])
        assert code == 0
        outs.append(out)
    orbit_same = (outs[0] / "orbit.csv").read_bytes() == (outs[1] / "orbit.csv").read_bytes()
    cont_same = (
        (outs[0] / "continuation.csv").read_bytes() == (outs[1] / "continuation.csv").read_bytes()
    )
    ok = orbit_same and cont_same
    report(
        "A8",
        ok,
        f"repeated continue runs byte-identical: orbit.csv {orbit_same}, "
        f"continuation.csv {cont_same}",
    )


def test_run_report_differs_between_runs_only_in_its_timings(tmp_path, monkeypatch):
    monkeypatch.setenv("LFE_VERBOSITY", "0")
    config = tmp_path / "scenario.ini"
    config.write_text(LIGHT_CONFIG, encoding="utf-8")
    reports = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["continue", "--config", str(config), "--out", str(out)]) == 0
        reports.append(json.loads((out / "run_report.json").read_text()))
    stages = ["validate", "certificate", "degree", "continuation", "verify", "write"]
    for payload in reports:
        assert sorted(payload["timings"]) == sorted(stages)
        assert all(seconds >= 0.0 for seconds in payload["timings"].values())
        assert sum(payload["timings"].values()) <= payload["wall_clock_s"]
        del payload["timings"], payload["wall_clock_s"]
    assert reports[0] == reports[1]
