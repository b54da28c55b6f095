"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just printed.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import SEED, coulomb_config, gyro_config
from lfe.certificate import compute_certificate
from lfe.cli import main
from lfe.degree import brouwer_degree, find_zero_f0
from lfe.fields import (
    DipoleField,
    GeneralizedCoulomb,
    TabulatedPotential,
    radial_powers,
)
from lfe.homotopy import HomotopySystem
from lfe.integrator import IntegratorConfig, energy_drift, integrate
from lfe.kinematics import State, phi, phi_inv

GYRO_PERIOD = 2.0 * math.pi * 1.25


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def a5_run():
    t0 = time.perf_counter()
    cert = compute_certificate(coulomb_config(), seed=SEED)
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


@pytest.fixture(scope="module")
def a6_run(tmp_path_factory):
    """The desk scenario driven through the `continue` subcommand, timed end to end."""
    import json
    import os

    base = tmp_path_factory.mktemp("a6")
    config = base / "desk.ini"
    config.write_text(DESK_CONFIG, encoding="utf-8")
    out = base / "out"
    previous = os.environ.get("LFE_VERBOSITY")
    os.environ["LFE_VERBOSITY"] = "0"
    try:
        t0 = time.perf_counter()
        code = main(["continue", "--config", str(config), "--out", str(out)])
        elapsed = time.perf_counter() - t0
    finally:
        if previous is None:
            os.environ.pop("LFE_VERBOSITY", None)
        else:
            os.environ["LFE_VERBOSITY"] = previous
    payload = json.loads((out / "run_report.json").read_text())
    return {"exit_code": code, "report": payload, "out": out, "elapsed": elapsed}


def test_run_report_records_the_newton_trace(a6_run):
    final = a6_run["report"]["final_orbit"]
    trace = final["newton_trace"]
    assert len(trace) == final["newton_iterations"] > 0
    assert all(0.0 < step["alpha"] <= 1.0 for step in trace)
    residuals = [step["residual"] for step in trace] + [final["residual_norm"]]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_run_report_records_every_newton_trace_and_the_rejected_steps(a6_run):
    report = a6_run["report"]
    history = report["continuation"]["history"]
    assert [len(h["newton_trace"]) for h in history] == [3] * 6
    assert history[-1]["newton_trace"] == report["final_orbit"]["newton_trace"]
    # step control rejected two trial steps in the final orbit's flow
    assert report["final_orbit"]["n_rejected"] == 2


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
    deg = brouwer_degree(1.0, [0.0, 0.0, 2.0], cert.region(), sweep_pow2=10, seed=SEED)
    rel_det = abs(deg.det_numeric - deg.det_analytic) / abs(deg.det_analytic)
    elapsed = time.perf_counter() - t0
    ok = (
        zero_err < 1e-12
        and rel_det <= 1e-5
        and deg.det_analytic < 0.0
        and deg.det_numeric < 0.0
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
    ok = worst_mean <= 1e-6 and checked >= 7
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
