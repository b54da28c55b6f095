import argparse
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

import lfe.cli
import lfe.degree
import lfe.shooting
from conftest import recorded_flows
from lfe.certificate import CertificateError
from lfe.cli import main
from lfe.config_io import ConfigError, parse_config
from lfe.degree import DegenerateForcing, DegreeError, MultipleZeros
from lfe.fields import ABCField, DipoleField, GeneralizedCoulomb, ZeroField
from lfe.integrator import SolverError

MINIMAL = """
[potential]
c0 = 1.0
gamma = 3.0

[forcing]
period = 1.0
mean = 0 0 2
"""

DESK = """
[potential]
kind = generalized-coulomb
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
seed = 42
"""

# plain Coulomb + constant forcing: the deformation family is constant in
# its parameter, so the continuation is a single cheap step
LIGHT = """
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
sample_points = 101
"""

BAD_ORDERING = """
[potential]
c0 = 1.0
gamma = 1.0

[magnetic]
kind = dipole
moment = 0 0 0.1
c_B = 0.5

[forcing]
period = 1.0
mean = 0 0 2
"""


COMMANDS = ("validate", "bounds", "degree", "integrate", "find-orbit", "continue")


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_minimal_applies_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert isinstance(cfg.fields.potential, GeneralizedCoulomb)
    assert isinstance(cfg.fields.magnetic, ZeroField)
    assert cfg.fields.c1 == 0.0
    assert cfg.fields.beta == 1.5  # half the potential exponent for a vanishing field
    assert cfg.integrator.rtol == 1e-10
    assert cfg.solver.newton_tol == 1e-9
    assert cfg.initial.q is None
    assert cfg.output.sample_points == 1000
    # a uniform or abc field that vanishes takes the same (c1, beta) and passes all six rows
    for magnetic in ("kind = uniform\nb = 0 0 0", "kind = abc\nabc = 0 0 0"):
        path = write(tmp_path, MINIMAL + f"\n[magnetic]\n{magnetic}\nc_B = auto\n")
        cfg = parse_config(path)
        assert (cfg.fields.c1, cfg.fields.beta, cfg.fields.c_B) == (0.0, 1.5, 1.0)
        assert "c1 = 0.0\nbeta = 1.5\n" in cfg.text
        out = tmp_path / "validate"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "validate_report.txt").read_text().splitlines()
        assert sum(row.startswith("pass  ") for row in rows) == 6 and rows[-1] == "overall: pass"


def test_parse_desk_scenario(tmp_path):
    cfg = parse_config(write(tmp_path, DESK))
    assert isinstance(cfg.fields.magnetic, DipoleField)
    assert cfg.fields.c1 == pytest.approx(0.2)
    assert cfg.fields.beta == 2.0
    assert "c_B = auto" in cfg.text
    assert cfg.fields.c_B == pytest.approx(0.2, rel=1e-9)
    assert len(cfg.fields.forcing.harmonics) == 1
    assert np.array_equal(cfg.fields.forcing.harmonics[0].cos_coeff, [0.1, 0, 0])


def test_unknown_key_is_an_error(tmp_path):
    bad = MINIMAL.replace("gamma = 3.0", "gamm = 3.0")
    with pytest.raises(ConfigError, match="gamm"):
        parse_config(write(tmp_path, bad))


def test_unknown_section_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="outputs"):
        parse_config(write(tmp_path, MINIMAL + "\n[outputs]\nx = 1\n"))


def test_vector_key_of_wrong_field_kind_is_an_error(tmp_path):
    bad = DESK.replace("kind = dipole", "kind = uniform\nb = 0 0 1")
    with pytest.raises(ConfigError, match="moment"):
        parse_config(write(tmp_path, bad))


def test_malformed_vector_is_an_error(tmp_path):
    bad = MINIMAL.replace("mean = 0 0 2", "mean = 0 0")
    with pytest.raises(ConfigError, match="mean"):
        parse_config(write(tmp_path, bad))


def test_missing_required_section(tmp_path):
    with pytest.raises(ConfigError, match="forcing"):
        parse_config(write(tmp_path, "[potential]\nc0 = 1.0\n"))


MINIMAL_SERIALIZED = """[potential]
kind = generalized-coulomb
c0 = 1.0
gamma = 3.0
eps0 = 1.0

[magnetic]
kind = zero
c_B = auto
c1 = 0.0
beta = 1.5
eps1 = 1.0

[forcing]
period = 1.0
mean = 0.0 0.0 2.0

[integrator]
rtol = 1e-10
atol = 1e-12
max_steps = 1000000
r_min = auto

[solver]
newton_tol = 1e-09
max_iterations = 50
dlam_init = 1.0
dlam_floor = 0.0001
target_lambda = 1.0
seed = 20240803

[initial-state]
lambda = 0.0
q = equilibrium
p = 0.0 0.0 0.0

[output]
sample_points = 1000
"""


# a uniform field, a sin harmonic and harmonic indices out of order
UNIFORM = """
[potential]
c0 = 1.0
gamma = 3.0

[magnetic]
kind = uniform
b = 0 0 0.05
c_B = 0.1
c1 = 0.05
beta = 0.5

[forcing]
period = 2
mean = 0 0 2
harmonic_3_sin = 0 0.01 0
harmonic_1_cos = 0.1 0 0
harmonic_2_sin = 0 0 0.02
"""

# an abc field with c_B = auto, an explicit r_min, q and t_end
ABC = """
[potential]
c0 = 1.0
gamma = 3.0

[magnetic]
kind = abc
abc = 0.01 0.02 0.03
c_B = auto
c1 = 0.3
beta = 1e-3

[forcing]
period = 1.0
mean = 0 0 2
harmonic_2_sin = 0.02 0 0

[integrator]
r_min = 1e-3

[initial-state]
q = 0.1 0.2 -0.3
t_end = 2
"""

# every key of every section, in an order unlike the canonical one
EVERY_KEY = """
[output]
sample_points = 17

[initial-state]
t_end = 2.5
p = 0 0.1 0
q = 0.1 0.2 -0.3
lambda = 0.5

[solver]
seed = 3
target_lambda = 0.75
dlam_floor = 1e-3
dlam_init = 0.25
max_iterations = 7
newton_tol = 1e-8

[integrator]
r_min = 1e-3
max_steps = 5000
atol = 1e-9
rtol = 1e-8

[forcing]
harmonic_2_cos = 0.02 0 0
harmonic_1_sin = 0 0.05 0
mean = 0.1 0 2
period = 2.5

[magnetic]
eps1 = 0.25
beta = 2.0
c1 = 0.7
c_B = 0.25
moment = 0.01 0 0.1
kind = dipole

[potential]
eps0 = 0.5
gamma = 1
c0 = 2
kind = coulomb
"""

EVERY_KEY_SERIALIZED = """[potential]
kind = generalized-coulomb
c0 = 2.0
gamma = 1.0
eps0 = 0.5

[magnetic]
kind = dipole
moment = 0.01 0.0 0.1
c_B = 0.25
c1 = 0.7
beta = 2.0
eps1 = 0.25

[forcing]
period = 2.5
mean = 0.1 0.0 2.0
harmonic_1_cos = 0.0 0.0 0.0
harmonic_1_sin = 0.0 0.05 0.0
harmonic_2_cos = 0.02 0.0 0.0
harmonic_2_sin = 0.0 0.0 0.0

[integrator]
rtol = 1e-08
atol = 1e-09
max_steps = 5000
r_min = 0.001

[solver]
newton_tol = 1e-08
max_iterations = 7
dlam_init = 0.25
dlam_floor = 0.001
target_lambda = 0.75
seed = 3

[initial-state]
lambda = 0.5
q = 0.1 0.2 -0.3
p = 0.0 0.1 0.0
t_end = 2.5

[output]
sample_points = 17
"""


def test_serialize_echoes_every_default(tmp_path):
    assert parse_config(write(tmp_path, MINIMAL)).text == MINIMAL_SERIALIZED


def test_unknown_option_key_is_an_error(tmp_path):
    for section in ("integrator", "solver", "output"):
        with pytest.raises(ConfigError, match=f"'tol' in section \\[{section}\\]"):
            parse_config(write(tmp_path, MINIMAL + f"\n[{section}]\ntol = 1\n"))


def test_round_trip_is_canonical(tmp_path):
    for text in (MINIMAL, DESK, LIGHT, UNIFORM, ABC, EVERY_KEY):
        serialized = parse_config(write(tmp_path, text)).text
        reparsed = parse_config(write(tmp_path, serialized, "echo.ini"))
        assert reparsed.text == serialized


def test_echo_of_every_key_is_canonical(tmp_path):
    assert parse_config(write(tmp_path, EVERY_KEY)).text == EVERY_KEY_SERIALIZED


# --- CLI ---


def test_cli_validate_pass_and_artifacts(tmp_path):
    cfg = write(tmp_path, DESK)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "validate_report.json").read_text())
    assert payload["passed"] is True
    assert (out / "validate_report.txt").exists()


def test_cli_validate_exit_2_names_failed_check(tmp_path):
    cfg = write(tmp_path, BAD_ORDERING)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    payload = json.loads((out / "validate_report.json").read_text())
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert "beta-below-gamma" in failed


def test_cli_bounds(tmp_path):
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["R"] == 2.0
    assert payload["m"] == pytest.approx(np.exp(-15.0))
    text = (out / "certificate.txt").read_text()
    assert "C_gradV_B" in text and "epsilon" in text


def test_cli_bounds_of_a_forcing_with_an_all_zero_harmonic_is_that_of_the_constant_forcing(tmp_path):
    # a period off the integers, where quadrature of |h| would differ from T |mean| in the last digits
    text = LIGHT.replace("period = 1.0", "period = 2.6").replace("mean = 0 0 2", "mean = 0.3 0 2")
    zero = text.replace("mean = 0.3 0 2", "mean = 0.3 0 2\nharmonic_3_cos = 0 0 0")
    forcing = parse_config(write(tmp_path, zero, "zero.ini")).fields.forcing
    assert forcing.is_constant() and forcing.l1_norm() == forcing.period * forcing.mean_norm
    for name, cfg_text in (("constant", text), ("zero", zero)):
        assert main(["bounds", "--config", str(write(tmp_path, cfg_text)), "--out", str(tmp_path / name)]) == 0
    certificate = (tmp_path / "constant" / "certificate.json").read_bytes()
    assert (tmp_path / "zero" / "certificate.json").read_bytes() == certificate


def test_cli_degree(tmp_path):
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    assert main(["degree", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "degree_report.json").read_text())
    assert payload["degree"] == -1
    assert payload["det_analytic"] < 0
    text = (out / "degree_report.txt").read_text()
    assert "degree:          -1" in text
    # the sweep line stays integer k=v pairs; the escapes per decade are JSON only
    sweep_line = next(line for line in text.splitlines() if line.startswith("sweep:"))
    pairs = dict(item.strip().split("=") for item in sweep_line.split(":", 1)[1].split(","))
    counts = {k: int(v) for k, v in pairs.items()}
    assert counts["converged_to_zero"] + counts["escaped"] == counts["starts"]
    decades = payload["sweep"]["escapes_by_start_decade"]
    assert sum(d["escaped"] for d in decades) == counts["escaped"]
    # the lam = 0 orbit over T = 1: omega = 2^(5/4), so omega T / 2 pi = 0.3785 and T_res = 2.6418,
    # and det(I - M0) = (2 - 2 cosh sT)^2 (2 - 2 cos omega T) = 43.69421
    assert payload["omega_T_over_2pi"] == pytest.approx(2.0**1.25 / (2.0 * math.pi), rel=1e-15)
    assert payload["T_res"] == pytest.approx(2.0 * math.pi / 2.0**1.25, rel=1e-15)
    assert round(payload["det_I_minus_M0"], 5) == 43.69421
    for label, key in (("omega T / 2pi:   ", "omega_T_over_2pi"), ("T_res:           ", "T_res"),
                       ("det(I - M0):     ", "det_I_minus_M0")):
        assert label + repr(payload[key]) in text


def test_cli_integrate_csv_contract(tmp_path):
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3"
    assert len(lines) == 102  # header + sample_points


PLAIN_FLOW = """
[potential]
c0 = 1.0
gamma = 3.0

[magnetic]
kind = dipole
moment = 0 0 0.1
c_B = 0.2

[forcing]
period = 1.0
mean = 0 0 2
harmonic_1_cos = 0.3 0 0
harmonic_2_sin = 0 0.2 0

[initial-state]
lambda = 1.0
q = equilibrium
p = 0.01 0.02 0
t_end = 2.5
"""


# trajectory.csv sha256 of `lfe integrate`: two harmonics and p != 0 over two and a half periods,
# on the dipole at lambda = 1 from the equilibrium, and on an ABC field at lambda = 0.4 from q
PLAIN_FLOW_PINS = {
    "dipole": (PLAIN_FLOW, "22f3524bcc5f6db08aaccd32814256cf344cb236a9bddede19e8c83322307f2e"),
    "abc": (
        PLAIN_FLOW.replace("kind = dipole\nmoment = 0 0 0.1", "kind = abc\nabc = 0.2 0.3 0.1\nc1 = 1.0\nbeta = 1.0")
        .replace("lambda = 1.0", "lambda = 0.4")
        .replace("q = equilibrium", "q = 0.3 -0.2 -0.8"),
        "4d95dc757f64bdb38f307c5cb4a8b232950769c9daa8547079921123d7634252",
    ),
}


@pytest.mark.parametrize("name", PLAIN_FLOW_PINS)
def test_cli_integrate_keeps_the_trajectory_bit_for_bit(tmp_path, name):
    text, sha256 = PLAIN_FLOW_PINS[name]
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    csv = (out / "trajectory.csv").read_bytes()
    assert len(csv.splitlines()) == 1001  # header + sample_points
    assert hashlib.sha256(csv).hexdigest() == sha256


def test_cli_find_orbit(tmp_path):
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "orbit_report.json").read_text())
    assert payload["residual_norm"] < 1e-9
    assert (out / "orbit.csv").exists()


def test_cli_continue_full_pipeline(tmp_path):
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["validation_passed"] is True
    assert payload["degree"] == -1
    assert sum(d["starts"] for d in payload["degree_escapes_by_start_decade"]) == 1024
    assert payload["continuation"]["status"] == "reached_target"
    assert payload["final_orbit"]["residual_norm"] < 1e-9
    assert payload["final_orbit"]["verified"] is True
    assert len(payload["config_sha256"]) == 64
    csv_lines = (out / "orbit.csv").read_text().splitlines()
    assert csv_lines[0] == "t,q1,q2,q3,p1,p2,p3"
    assert (out / "continuation.csv").read_text().splitlines()[0] == (
        "lambda,x0_norm,residual,newton_iterations"
    )
    # every start of the degree sweep converges, and the lam = 0 orbit turns 0.378 times a period
    text = (out / "run_report.txt").read_text()
    assert re.search(r"^ *sweep:.*[ ,]escaped=0(,|$)", text, re.M)
    assert re.search(r"^  omega T / 2pi: +0\.378", text, re.M)


def test_cli_builds_its_argument_parser_once(tmp_path, monkeypatch):
    built, construct = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setenv("LFE_VERBOSITY", "0")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    lfe.cli._parser.cache_clear()
    try:
        cfg = write(tmp_path, LIGHT)
        for name in ("run1", "run2"):
            assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    finally:
        lfe.cli._parser.cache_clear()  # later calls build an uncounted parser
    # the top-level parser and its subcommands' parsers, built by the first call only
    assert built == ["lfe"] + [f"lfe {name}" for name in lfe.cli._COMMANDS]


@pytest.mark.parametrize("argv", [["bogus", "--config", "x.ini"], ["validate"]], ids=["subcommand", "no-config"])
def test_cli_usage_errors_exit_2(argv, capsys):
    for _ in range(2):  # the cached parser rejects the same arguments again
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    assert "usage: lfe" in capsys.readouterr().err


def test_cli_continue_partial_target(tmp_path):
    cfg = write(tmp_path, LIGHT.replace("seed = 7", "seed = 7\ntarget_lambda = 0.5"))
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["continuation"]["status"] == "reached_target"
    assert payload["final_orbit"]["lambda"] == 0.5


def test_cli_continue_solver_failure_writes_partial_report(tmp_path):
    # strangle the solver: one Newton iteration and a huge step floor
    text = LIGHT.replace("dlam_init = 1.0", "dlam_init = 1.0\nmax_iterations = 1\ndlam_floor = 0.9")
    text = text.replace("mean = 0 0 2", "mean = 0 0 2\nharmonic_1_cos = 0.9 0 0")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 3
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["continuation"]["status"] == "stepsize_underflow"
    assert payload["continuation"]["steps"][-1]["lambda"] == 0.0  # path up to last success
    assert (out / "continuation.csv").exists()
    history = payload["continuation"]["history"]
    rejected = [h for h in history if not h["accepted"]]
    assert rejected and rejected[0]["lambda"] == 1.0 and rejected[0]["dlam"] == 1.0
    assert all(h["reason"] for h in rejected)
    # the path stops at the closed-form lam = 0 start, which is flowed to be verified and written
    assert payload["final_orbit"]["lambda"] == 0.0 and payload["final_orbit"]["verified"] is True
    assert len((out / "orbit.csv").read_text().splitlines()) == 1 + 101


def test_cli_continue_rejects_a_step_whose_index_is_not_resolved(tmp_path):
    # over T = 1e-12 the flow moves the difference members, 1e-7 apart, by nothing the forward
    # differences resolve: Phi = I exactly, so M = I and det(I - M) = 0, while the closed-form
    # lambda = 0 start has det(I - M) = 4.5e-71
    cfg, out = write(tmp_path, DESK.replace("period = 1.0", "period = 1e-12")), tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 3
    continuation = json.loads((out / "run_report.json").read_text())["continuation"]
    assert continuation["status"] == "stepsize_underflow"
    reason = "det(I - M) = 0: the difference monodromy does not resolve the orbit's index"
    history = continuation["history"]
    assert len(history) == 14 and all(h["reason"] == reason and h["index_det"] == 0.0 for h in history)
    assert continuation["message"] == f"step below floor 0.0001 at lam = 0: {reason}"


def test_cli_continue_to_target_lambda_zero_verifies_and_writes_the_start(tmp_path, monkeypatch):
    flows = recorded_flows(monkeypatch)
    cfg = write(tmp_path, LIGHT.replace("seed = 7", "seed = 7\ntarget_lambda = 0.0"))
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["continuation"]["status"] == "reached_target"
    assert payload["continuation"]["history"] == []
    final = payload["final_orbit"]
    assert final["lambda"] == 0.0 and final["verified"] is True and final["newton_trace"] == []
    assert final["mean_identity"] <= 1e-6 and final["virial_gap"] <= 1e-6
    assert len((out / "orbit.csv").read_text().splitlines()) == 1 + 101
    # the start's one flow, for verify and orbit.csv: cold, at the configured tolerance
    assert [(traj.lam, flowed.rtol, step) for flowed, traj, step in flows] == [(0.0, 1e-10, None)]


def test_cli_continue_ends_when_the_step_budget_is_used_up(tmp_path):
    # one Newton iteration per step: the path creeps with tiny steps, so only the budget
    # (1 + h)^2 = 225 ends it, with h = ceil(log2(target_lambda / dlam_floor)) = ceil(log2(1e4)) = 14
    text = LIGHT.replace("dlam_init = 1.0", "dlam_init = 1.0\nmax_iterations = 1")
    text = text.replace("mean = 0 0 2", "mean = 0 0 2\nharmonic_1_cos = 0.9 0 0")
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    continuation = json.loads((out / "run_report.json").read_text())["continuation"]
    assert continuation["status"] == "budget_exhausted"
    assert len(continuation["history"]) == 225
    lam = continuation["steps"][-1]["lambda"]
    assert 0.0 < lam < 1.0
    assert continuation["message"] == f"attempted-step budget 225 used up at lam = {lam:.6g}"


def test_cli_continue_history_records_failed_newton_traces(tmp_path):
    # one Newton iteration per solve: a failed attempt keeps the iteration it made
    text = LIGHT.replace("dlam_init = 1.0", "dlam_init = 1.0\nmax_iterations = 1")
    text = text.replace("mean = 0 0 2", "mean = 0 0 2\nharmonic_1_cos = 0.9 0 0")
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    history = json.loads((out / "run_report.json").read_text())["continuation"]["history"]
    failed = [h for h in history if not h["accepted"]]
    assert failed and all(h["reason"].startswith("residual ") for h in failed)
    assert all(len(h["newton_trace"]) == 1 for h in failed)
    # a failed solve names its path and the rtol its guess flowed at (the first, from the
    # equilibrium at lam = 1, drifts by 0.9 and flows at the cap); it has no monodromy, so no
    # singular value, and no x0
    assert all(h["shooting"] == "reversible y" and h["guess_rtol"] is not None for h in failed)
    assert failed[0]["lambda"] == 1.0 and failed[0]["guess_rtol"] == 1e-6
    assert all(h["sigma_min_M_minus_I"] is h["symmetry_defect"] is None for h in failed)
    assert all(0.0 < h["newton_trace"][0]["alpha"] <= 1.0 for h in history)


def test_cli_continue_reports_the_trial_tolerance_of_every_newton_iteration(tmp_path):
    # the harmonic makes the lam = 1 orbit differ from the start: its first trials run loose.
    # (harmonic, segments, whether each iteration is predicted to converge): along x the guess
    # flow takes 3 steps and multiple shooting's third trial, predicted to converge, meets
    # newton_tol (on single shooting it missed it, 1.5e-9, and Newton went on to a fourth, as the
    # third met it, 9.9e-10, when the guess's cold flow started from the initial-step heuristic);
    # along y, sin, the guess flow takes more steps than _MAX_SEGMENTS, so single shooting's third
    # trial, predicted to converge, misses newton_tol (5.9e-9), and Newton goes on from it to a
    # fourth at rtol0.  The guess flows at the tolerance of its drift over the period at t = 0:
    # capped along x, and rtol0 along y, where h(0) is the mean and the equilibrium does not move
    for harmonic, segments, predicted, guess_rtol in [
        ("harmonic_1_cos = 0.9 0 0", 3, [False, False, True], 1e-6),
        ("harmonic_1_sin = 0 0.9 0", 1, [False, False, True, True], 1e-10),
    ]:
        text = LIGHT.replace("mean = 0 0 2", f"mean = 0 0 2\n{harmonic}")
        out = tmp_path / harmonic.split()[0]
        out.mkdir()
        assert main(["continue", "--config", str(write(out, text)), "--out", str(out)]) == 0
        payload = json.loads((out / "run_report.json").read_text())
        (step,) = payload["continuation"]["history"]
        trace = step["newton_trace"]
        assert trace == payload["final_orbit"]["newton_trace"]
        # rtol = max(1e-10, min(1e-6, 1e-4 r)) for the residual r each iteration starts from, or
        # 1e-10 from the second iteration on when a squared contraction predicts convergence:
        # r (r / r_prev)^2 < newton_tol for the residual r_prev of the iteration before
        residuals = [entry["residual"] for entry in trace]
        converging = [False] + [r * (r / r_prev) ** 2 < 1e-9 for r_prev, r in zip(residuals, residuals[1:])]
        assert [entry["rtol"] for entry in trace] == [
            1e-10 if predicted else max(1e-10, min(1e-6, 1e-4 * r)) for r, predicted in zip(residuals, converging)
        ]
        assert step["shooting"] == "reversible y" and step["segments"] == segments
        assert converging == predicted and payload["final_orbit"]["residual_norm"] < 1e-9
        assert [entry["rtol"] for entry in trace] == [1e-6, 1e-4 * residuals[1]] + [1e-10] * (len(trace) - 2)
        assert step["guess_rtol"] == guess_rtol
        assert "rtol" not in (out / "run_report.txt").read_text()


def test_cli_find_orbit_stops_at_round_off_stagnation(tmp_path, monkeypatch):
    # the exact equilibrium has residual 1.7e-16 (read from its half-period flow, reversible
    # about the x mirror); newton_tol = 1e-300 cannot be reached
    flows = []
    integrate = lfe.shooting.integrate
    monkeypatch.setattr(lfe.shooting, "integrate", lambda *a, **k: flows.append(1) or integrate(*a, **k))
    text = LIGHT.replace("seed = 7", "seed = 7\nnewton_tol = 1e-300")
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    assert (out / "orbit_report.txt").read_text() == (
        "shooting failed: round-off stagnation: residual 1.733e-16 is at round-off level and "
        "a trial step does not lower it; newton_tol = 1e-300 is unreachable in double precision\n"
    )
    # the guess's flow and one trial flow: at round-off level a decrease below that level counts
    # as none (the first three of four trials lowered the residual by 3e-24 or less when any
    # decrease counted)
    assert len(flows) == 2


def test_cli_find_orbit_trial_flows_take_fewer_steps_than_configured_ones(tmp_path, monkeypatch):
    # loose trial flows (inexact Newton) against every flow at the configured tolerance:
    # a trial rtol cap of 0 leaves every flow at the configured rtol
    text = DESK.replace("c_B = auto", "c_B = 0.2") + "\n[initial-state]\nlambda = 1.0\n"
    cfg = write(tmp_path, text)
    integrate = lfe.shooting.integrate
    steps, x0 = [], []

    def counting(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        steps[-1] += len(traj.ts) - 1
        return traj

    monkeypatch.setattr(lfe.shooting, "integrate", counting)
    for cap in (lfe.shooting._TRIAL_RTOL_CAP, 0.0):
        monkeypatch.setattr(lfe.shooting, "_TRIAL_RTOL_CAP", cap)
        steps.append(0)
        out = tmp_path / f"out-{cap}"
        assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 0
        orbit = json.loads((out / "orbit_report.json").read_text())
        x0.append(np.array(orbit["x0_q"] + orbit["x0_p"]))
    inexact, configured = steps
    assert inexact < configured
    assert np.abs(x0[0] - x0[1]).max() < 1e-9


def test_cli_reports_the_rejected_steps_of_the_orbit(tmp_path):
    # at lambda = 1 with c_B = 0.2, step control rejects no trial step of the desk orbit's
    # half-period flow, which takes its first step from the previous flow's steps (it rejected
    # one of the full-period flow)
    text = DESK.replace("c_B = auto", "c_B = 0.2") + "\n[initial-state]\nlambda = 1.0\n"
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    assert json.loads((out / "orbit_report.json").read_text())["n_rejected"] == 0
    assert "n_rejected" not in (out / "orbit_report.txt").read_text()


def test_cli_desk_orbit_converges_in_four_newton_iterations(tmp_path, monkeypatch):
    # the benchmark's desk-orbit scenario, a symmetric orbit solved on the reversible path: its
    # final residual is 1.0e-10 (8.6e-10, 14 % below newton_tol, on the full-period path)
    flows = recorded_flows(monkeypatch)
    text = DESK.replace("c_B = auto", "c_B = 0.2") + "\n[initial-state]\nlambda = 1.0\n"
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    orbit = json.loads((out / "orbit_report.json").read_text())
    assert orbit["newton_iterations"] == 4
    assert orbit["residual_norm"] < lfe.shooting.SolverOptions().newton_tol
    trace = orbit["newton_trace"]
    # the guess flows cold at the tolerance of its drift over the period, 2.0, so at the cap
    # 1e-6 (its residual, 0.34, asks for no tighter flow); each iteration flows one warm trial,
    # the last, predicted to converge, at rtol0 = 1e-10, and that flow gives the orbit
    assert [(cfg.rtol, first_step is None) for cfg, _, first_step in flows] == [
        (1e-6, True),
        (1e-6, False),
        (1e-6, False),
        (1e-4 * trace[2]["residual"], False),
        (1e-10, False),
    ]
    assert [entry["rtol"] for entry in trace] == [cfg.rtol for cfg, _, _ in flows[1:]]
    assert len({tuple(traj.states[0, 0]) for _, traj, _ in flows}) == 5
    # the guess flows half the period, and x0 lies in Fix(G) = {y = 0, p_x = 0, p_z = 0}; its 3
    # accepted steps split the half period into 3 segments, which every later flow runs as one
    # stack of 21 members over a sixth of the period
    assert orbit["shooting"] == "reversible y" and orbit["segments"] == 3
    assert [(traj.t0, traj.t1) for _, traj, _ in flows] == [(0.0, 0.5)] + [(0.0, 0.5 / 3)] * 4
    assert [traj.states.shape[1] for _, traj, _ in flows] == [7] + [21] * 4
    assert [orbit["x0_q"][1], orbit["x0_p"][0], orbit["x0_p"][2]] == [0.0, 0.0, 0.0]
    # 667 right-hand-side calls in 6 flows with the guess at rtol0 and the converged loose trial
    # flowed once more, 426 in the 5 full-period flows, 258 with the initial-step heuristic, and
    # 233 ([49, 37, 37, 37, 73]) in the 5 half-period flows of single shooting; the guess's cold
    # flow tries its whole span, which step control rejects once; the warm flows, which take
    # their first step from the previous flow, reject none, and the first two take each segment
    # in one step
    assert [traj.n_rhs_evals for _, traj, _ in flows] == [49, 13, 13, 25, 37]
    assert [traj.n_rejected for _, traj, _ in flows] == [1, 0, 0, 0, 0]
    assert sum(traj.n_rhs_evals for _, traj, _ in flows) == orbit["rhs_calls"] <= 137


def test_cli_light_continue_flows_once_at_the_configured_tolerance(tmp_path, monkeypatch):
    flows, solves = recorded_flows(monkeypatch), []
    solve = lfe.shooting.newton_shooting
    monkeypatch.setattr(lfe.shooting, "newton_shooting", lambda g, p, *a: solves.append(p.lam) or solve(g, p, *a))
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, LIGHT)), "--out", str(out)]) == 0
    # the lambda = 0 start is closed-form and not flowed; the one step's guess is the equilibrium,
    # whose drift at lambda = 1 (7e-16) asks for rtol0, and it converges at its one, cold flow
    assert [(traj.lam, cfg.rtol, first_step is None) for cfg, traj, first_step in flows] == [
        (1.0, 1e-10, True),
    ]
    # that flow tries its whole span, half the period, and step control accepts it: one step of
    # 12 right-hand-side calls after the first (26 calls in 2 steps from the initial-step heuristic)
    ((_, traj, _),) = flows
    assert (len(traj.ts) - 1, traj.n_rejected, traj.n_rhs_evals) == (1, 0, 13)
    assert solves == [1.0]  # no Newton solve at lambda = 0
    (step,) = json.loads((out / "run_report.json").read_text())["continuation"]["history"]
    assert step["guess_rtol"] == 1e-10 and step["newton_trace"] == []


# the counts of a solve's flows in each orbit record and continuation history entry
COUNT_KEYS = ("segments", "flows", "rhs_calls", "steps_accepted", "steps_rejected")
DESK_ORBIT = DESK.replace("c_B = auto", "c_B = 0.2") + "\n[initial-state]\nlambda = 1.0\n"
DESK_ABC = DESK.replace("kind = dipole\nmoment = 0 0 0.1", "kind = abc\nabc = 0.01 0.02 0.03\nc1 = 0.3\nbeta = 1e-3")


@pytest.mark.parametrize(
    "command, text, counts",
    [
        # desk-orbit: its guess flow's 3 steps, then 4 flows of 3 segments each
        ("find-orbit", DESK_ORBIT, (3, 5, 137, 10, 1)),
        # light: the one step's guess is the orbit, one flow of one step on one segment
        ("continue", LIGHT, (1, 1, 13, 1, 0)),
    ],
    ids=["desk-orbit", "light"],
)
def test_cli_orbit_records_count_the_flows_of_their_solve(tmp_path, monkeypatch, command, text, counts):
    # the counts are those a wrapper around integrate sees, and they repeat exactly
    flows = recorded_flows(monkeypatch)
    config = write(tmp_path, text)
    for run in ("first", "second"):
        seen = len(flows)
        out = tmp_path / run
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        trajs = [traj for _, traj, _ in flows[seen:]]
        wrapped = (
            len(trajs),
            sum(traj.n_rhs_evals for traj in trajs),
            sum(len(traj.ts) - 1 for traj in trajs),
            sum(traj.n_rejected for traj in trajs),
        )
        if command == "find-orbit":
            orbit = json.loads((out / "orbit_report.json").read_text())
        else:
            report = json.loads((out / "run_report.json").read_text())
            orbit = report["final_orbit"]
            (step,) = report["continuation"]["history"]
            assert [step[key] for key in COUNT_KEYS] == [orbit[key] for key in COUNT_KEYS]
            assert "segments" not in report["timings"]
        assert tuple(orbit[key] for key in COUNT_KEYS) == (orbit["segments"],) + wrapped == counts


# text, segments, x0 reprs, det(I - M) repr and orbit.csv sha256 of continue and find-orbit at
# lambda = 1.  Light keeps one segment: its guess flow takes one step, and with a y-sine more than
# _MAX_SEGMENTS; its values are pinned from before multiple shooting.  Desk-orbit's fields take
# 3 segments, and the ABC config one on the full path, whose x-cosine the flow reads at each
# member's time
ORBIT_PINS = {
    "light": (LIGHT, 1, ["-0.0", "-0.0", "-0.7071067811865476", "0.0", "0.0", "0.0"], "43.69419455778003",
              "9ced1bc351e37590564c161fad446c8b26023ab5cd2f22b1acd4d76fdedcba5d"),
    "light-y-sine": (LIGHT.replace("mean = 0 0 2", "mean = 0 0 2\nharmonic_1_sin = 0 0.9 0"), 1,
                     ["0.0", "0.0", "-0.706860981127571", "0.0", "-0.13372382994932594", "0.0"], "42.61528168779198",
                     "5e0138f46c1a373bbecc88ddf2676b8313c259417a5c44d91c58aab7f0c3a7ae"),
    "desk-orbit": (DESK.replace("c_B = auto", "c_B = 0.2"), 3,
                   ["-0.0023950326608330333", "0.0", "-0.8408945288334044", "0.0", "0.0007598143859125046", "0.0"],
                   "33.05368510733282", "875ed78eaca9c8827a0f2c93799d7e6a468b3fe6b9e24dfd239c2510b3e34b61"),
    "abc": (DESK_ABC.replace("c_B = auto", "c_B = 0.2"), 1,
            ["-0.002388952862237579", "1.2037212529934323e-08", "-0.8408943964523818", "-3.5930965259826336e-09",
             "4.5061870320173705e-05", "-2.0956853168342358e-05"],
            "33.341233021506625", "acffabff1b7f701abc379050afa2a1765269bbea96fe58da947debb91495f15e"),
}


@pytest.mark.parametrize("name", ORBIT_PINS)
def test_cli_keeps_the_orbit_bit_for_bit(tmp_path, name):
    text, segments, x0, index_det, orbit_sha256 = ORBIT_PINS[name]
    for command, extra, stem in [
        ("continue", "", "run_report"),
        ("find-orbit", "\n[initial-state]\nlambda = 1.0\n", "orbit_report"),
    ]:
        out = tmp_path / command
        assert main([command, "--config", str(write(tmp_path, text + extra)), "--out", str(out)]) == 0
        report = json.loads((out / f"{stem}.json").read_text())
        orbit = report["final_orbit"] if command == "continue" else report
        assert orbit["segments"] == segments
        assert [repr(v) for v in orbit["x0_q"] + orbit["x0_p"]] == x0
        assert repr(float(np.linalg.det(np.eye(6) - np.array(orbit["monodromy"])))) == index_det
        if command == "continue":
            assert repr(report["continuation"]["history"][-1]["index_det"]) == index_det
        assert hashlib.sha256((out / "orbit.csv").read_bytes()).hexdigest() == orbit_sha256


@pytest.mark.parametrize("planted", ["degree", "index_det"])
def test_cli_continue_checks_the_start_orbit_index_against_the_degree(tmp_path, monkeypatch, planted):
    # sign det(I - M) of the lam = 0 orbit (+43.7 on light) must be minus the degree (-1)
    if planted == "degree":
        degree = lfe.cli.brouwer_degree
        monkeypatch.setattr(
            lfe.cli, "brouwer_degree", lambda *a, **k: dataclasses.replace(degree(*a, **k), degree=1)
        )
        expected = r"sign det\(I - M\) = \+1 of the lam = 0 orbit \(det\(I - M\) = 43\.\d+\) is not minus the degree 1"
    else:
        start = lfe.cli.equilibrium_orbit
        monkeypatch.setattr(lfe.cli, "equilibrium_orbit", lambda *a: dataclasses.replace(start(*a), index_det=-2.5))
        expected = r"sign det\(I - M\) = -1 of the lam = 0 orbit \(det\(I - M\) = -2\.5\) is not minus the degree -1"
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, LIGHT)), "--out", str(out)]) == 3
    payload = json.loads((out / "run_report.json").read_text())
    assert re.fullmatch(expected, payload["solver_error"])
    assert "continuation" not in payload
    lines = (out / "run_report.txt").read_text().splitlines()
    assert lines[-3] == "aborted: index check failed: " + payload["solver_error"]


def test_cli_continue_without_start_orbit_records_solver_error(tmp_path):
    # at the resonant periods n T_res, T_res = 2 pi / omega with omega = sqrt(2 c0 / |q*|^3) =
    # sqrt(2) |mean|^(3/4) c0^(-1/4), the lam = 0 orbit has det(I - M) = 0 and no index
    t_res = 2.0 * math.pi / (math.sqrt(2.0) * 2.0**0.75)
    for n in (1, 2):
        text = LIGHT.replace("period = 1.0", f"period = {n * t_res!r}")
        out = tmp_path / f"out-{n}"
        assert main(["continue", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
        payload = json.loads((out / "run_report.json").read_text())
        assert payload["degree"] == -1 and "continuation" not in payload
        assert payload["omega_T_over_2pi"] == pytest.approx(n, rel=1e-15)
        assert payload["T_res"] == pytest.approx(t_res, rel=1e-15)
        assert re.match(
            rf"the period T = {re.escape(repr(n * t_res))} is {n} x T_res = 2 pi / omega = 2\.64175\d*, ",
            payload["solver_error"],
        )
        lines = (out / "run_report.txt").read_text().splitlines()
        assert lines[-3] == "aborted: no starting orbit at lam = 0: " + payload["solver_error"]


def test_cli_continue_start_must_meet_newton_tol(tmp_path, monkeypatch):
    # newton_tol = 1e-300 is below the equilibrium's round-off drift: no solve could reach it
    flows = recorded_flows(monkeypatch)
    text = LIGHT.replace("seed = 7", "seed = 7\nnewton_tol = 1e-300")
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["solver_error"] == (
        "the equilibrium's residual 4.441e-16, its drift T max|f(0, x0)|, is not below newton_tol = 1e-300"
    )
    assert "continuation" not in payload and flows == []


@pytest.mark.parametrize("command,stem", [("bounds", "certificate"), ("degree", "degree_report")])
def test_cli_certificate_failure_writes_only_the_message(tmp_path, command, stem):
    cfg = write(tmp_path, LIGHT.replace("c_B = 1.0", "c_B = 2.5"))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    text = (out / f"{stem}.txt").read_text()
    assert text.startswith("certificate failed:") and len(text.splitlines()) == 1
    assert not list(out.glob("*.json"))


def test_cli_bounds_names_the_momentum_bound_when_the_clearance_underflows(tmp_path):
    # m = 1.9e-174 here, so m^2 underflows and both c0 m^-(gamma+1) and c0 m^-2 overflow
    text = LIGHT.replace("c0 = 1.0", "c0 = 1e-8").replace("period = 1.0", "period = 1e-6")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
    assert (out / "certificate.txt").read_text() == (
        "certificate failed: momentum bound M: |grad V| + c0/|q|^2 + |B| at |q| = m = 1.9144e-174 "
        "leaves the double range; the largest term is |grad V| = inf\n"
    )


def test_cli_bounds_names_the_clearance_that_rounds_to_epsilon(tmp_path, capsys):
    # at T = 1e-18 the period terms of the exponent fall below the rounding of K2 = ln 2, so
    # exp(-K2 - ...) is epsilon = 0.5 itself, and no m < epsilon exists in double precision
    text = DESK.replace("period = 1.0", "period = 1e-18")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
    assert (out / "certificate.txt").read_text() == (
        "certificate failed: clearance m: exp(-0.693147) rounds to epsilon = 0.5, since the terms beside "
        "K2 = 0.693147 fall below its rounding: T/epsilon = 2e-18, T*C_gradV_B/c0_eff = 3.52e-17, "
        "(R+T)*l1/c0_eff = 4.0025e-18\n"
    )
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "c0,code,line",
    [
        # (R+T) l1/c0_eff = 2 * 2/0.005 = 800 of the exponent 803, past exp's range
        ("0.01", 2, "certificate failed: clearance m: exp(-803) underflows to 0; "
         "the largest term of the exponent is (R+T)*l1/c0_eff = 800"),
        # m = 7.7e-118: a sampled |q|^-3 overflowed, but M = 2 c0 m^-2 is finite
        ("0.03", 0, "M          = 1.0177516696810442e+233   (closed-form envelopes of |grad V| + "
         "c0/|q|^2 + |B| at the inner radius of (7.67812e-118, 2))"),
    ],
    ids=["m-underflows", "M-overflows"],
)
def test_cli_bounds_names_the_constant_and_the_term_out_of_range(tmp_path, capsys, c0, code, line):
    text = LIGHT.replace("c0 = 1.0", f"c0 = {c0}")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == code
    lines = (out / "certificate.txt").read_text().splitlines()
    assert (lines == [line]) if code else (line in lines)
    assert capsys.readouterr().err == ""


def test_cli_continue_renders_each_stage_as_its_own_command_does(tmp_path):
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    for command in ("validate", "bounds", "degree", "continue"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    run_text = (out / "run_report.txt").read_text()
    sections = [
        ("hypothesis validation", "validate_report"),
        ("bounds certificate", "certificate"),
        ("degree at the autonomous limit", "degree_report"),
    ]
    for title, stem in sections:
        lines = (out / f"{stem}.txt").read_text().splitlines()
        assert "\n".join(["", title, *("  " + line for line in lines), ""]) in run_text, stem
    run = json.loads((out / "run_report.json").read_text())
    validation = json.loads((out / "validate_report.json").read_text())
    degree = json.loads((out / "degree_report.json").read_text())
    assert run["certificate"] == json.loads((out / "certificate.json").read_text())
    assert run["validation"] == validation["checks"]
    assert run["validation_passed"] is validation["passed"] is True
    assert run["degree"] == degree["degree"]
    assert run["degree_escapes_by_start_decade"] == degree["sweep"]["escapes_by_start_decade"]
    for key in ("omega_T_over_2pi", "T_res", "det_I_minus_M0"):
        assert run[key] == degree[key]


def test_cli_find_orbit_text_matches_json(tmp_path):
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(write(tmp_path, LIGHT)), "--out", str(out)]) == 0
    payload = json.loads((out / "orbit_report.json").read_text())
    lines = (out / "orbit_report.txt").read_text().splitlines()
    keys = []
    for line in lines:
        key, value = line.split(" = ")
        expected = payload[key] if isinstance(payload[key], list) else [payload[key]]
        assert [float(v) for v in value.split()] == expected, key
        keys.append(key)
    solver_data = {"monodromy", "newton_trace", "n_rejected", "shooting", "sigma_min_M_minus_I", "symmetry_defect"}
    solver_data |= {"segments", "flows", "rhs_calls", "steps_accepted", "steps_rejected"}
    assert sorted(keys) == sorted(set(payload) - solver_data)


def test_cli_integrate_zero_mean_forcing_has_no_equilibrium(tmp_path, capsys):
    radius = "the equilibrium radius sqrt(c0/|mean|) = sqrt({}) = {} leaves the double range: {} = {}"
    # (c0, mean, message, exit code of validate): a zero mean, an equilibrium radius r = sqrt(c0/|mean|)
    # that underflows to 0 or overflows to inf, a finite r whose r^-3 overflows or underflows, and a
    # normal r^-3 whose force coefficient c0 r^-3 underflows
    cases = [
        ("1.0", "0 0 0", "mean forcing is zero; the autonomous field has no zero", 2),
        ("1e-300", "0 0 1e150", radius.format("1e-300/1e+150", "0", "r^-3", "inf"), 0),
        ("1e300", "0 0 1e-150", radius.format("1e+300/1e-150", "inf", "r^-3", "0"), 2),
        ("1e-200", "0 0 1e100", radius.format("1e-200/1e+100", "1e-150", "r^-3", "inf"), 0),
        ("1e200", "0 0 1e-100", radius.format("1e+200/1e-100", "1e+150", "r^-3", "0"), 2),
        ("1.24e-95", "0 0 1e-300", radius.format("1.24e-95/1e-300", "3.52136e+102", "c0 r^-3", "0"), 2),
    ]
    for i, (c0, mean, message, validated) in enumerate(cases):
        text = LIGHT.replace("c0 = 1.0", f"c0 = {c0}").replace("mean = 0 0 2", f"mean = {mean}")
        cfg = write(tmp_path, text, f"case{i}.ini")
        out = tmp_path / f"integrate{i}"
        assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().out == f"no equilibrium start: {message}\n"
        assert not list(out.iterdir())
        # a failed single-stage command writes its message to <stem>.txt and no .json
        out = tmp_path / f"find-orbit{i}"
        assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 2
        assert (out / "orbit_report.txt").read_text() == f"no equilibrium guess: {message}\n"
        assert sorted(p.name for p in out.iterdir()) == ["orbit_report.txt"]
        # an explicit guard radius does not hide that there is no equilibrium
        guarded = write(tmp_path, text + "\n[integrator]\nr_min = 1e-6\n", f"guarded{i}.ini")
        assert main(["validate", "--config", str(guarded), "--out", str(tmp_path / f"validate{i}")]) == validated
        assert main(["integrate", "--config", str(guarded), "--out", str(tmp_path / f"guarded{i}")]) == 2
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "old,new,section",
    [
        ("c0 = 1.0", "c0 = -1", "potential"),
        ("period = 1.0", "period = 0", "forcing"),
        ("gamma = 3.0", "gamma = 3.0\neps0 = -1", "potential"),
        ("mean = 0 0 2", "mean = 0 0 2\n[magnetic]\neps1 = -1", "magnetic"),
        ("mean = 0 0 2", "mean = 0 0 2\n[integrator]\nrtol = -1", "integrator"),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nq = 0 0 0", "initial-state"),
        # |q|^2 underflows, so State reads |q| as 0
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nq = 1e-170 0 0", "initial-state"),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nt_end = 0", "initial-state"),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nt_end = -1", "initial-state"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ndlam_init = 0", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ndlam_init = -0.1", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ndlam_floor = 0", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ntarget_lambda = 1.5", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ntarget_lambda = -0.5", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\nnewton_tol = 0", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\nseed = -1", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\nmax_iterations = 0", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[integrator]\nmax_steps = 0", "integrator"),
        ("c0 = 1.0", "c0 = one", "potential"),
        ("c0 = 1.0", "c0 = inf", "potential"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\nmax_iterations = 1.5", "solver"),
        ("gamma = 3.0", "gamma = 3.0\nkind = yukawa", "potential"),
        ("c0 = 1.0\n", "", "potential"),
        ("period = 1.0\n", "", "forcing"),
        ("mean = 0 0 2\n", "", "forcing"),
        ("mean = 0 0 2", "mean = 0 0 2\nharmonic_0_cos = 0.1 0 0", "forcing"),
        ("mean = 0 0 2", "mean = 0 0 2\n[magnetic]\nkind = quadrupole", "magnetic"),
        ("mean = 0 0 2", "mean = 0 0 2\n[magnetic]\nkind = uniform", "magnetic"),
        ("mean = 0 0 2", "mean = 0 0 2\n[magnetic]\nkind = uniform\nb = 0 0 0.1\nc_B = 0.5", "magnetic"),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nlambda = 2", "initial-state"),
        ("mean = 0 0 2", "mean = 0 0 2\n[output]\nsample_points = 1", "output"),
        ("mean = 0 0 2", "mean = 0 0 2\n[integrator]\nr_min = 0", "integrator"),
    ],
    ids=[
        "c0", "period", "eps0", "eps1", "rtol", "q", "q_underflow", "t_end0", "t_end-1",
        "dlam_init0", "dlam_init-", "dlam_floor0", "target>1",
        "target<0", "newton_tol0", "seed-1", "max_iterations0", "max_steps0",
        "not-a-number", "not-finite", "not-an-integer", "potential-kind", "no-c0", "no-period",
        "no-mean", "harmonic_0", "magnetic-kind", "no-b", "no-c1", "lambda2", "sample_points1",
        "r_min0",
    ],
)
def test_cli_out_of_range_value_exits_4(tmp_path, capsys, old, new, section):
    cfg = write(tmp_path, MINIMAL.replace(old, new))
    for command in COMMANDS:  # every command parses the whole file before it runs
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith(f"config error: [{section}] ")


@pytest.mark.parametrize("value", ["0.5", "1.5"], ids=["growth<1", "growth-former-default"])
def test_cli_retired_growth_key_exits_4(tmp_path, capsys, value):
    # continuation steps come from Newton's contraction, so [solver] has no growth key
    cfg = write(tmp_path, MINIMAL.replace("mean = 0 0 2", f"mean = 0 0 2\n[solver]\ngrowth = {value}"))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == "config error: unknown key 'growth' in section [solver]\n"


@pytest.mark.parametrize("value", ["Radau", "RK45", "DOP853"])
def test_cli_retired_method_key_exits_4(tmp_path, capsys, value):
    # DOP853 is the one stepper, so [integrator] has no method key, not even for its only value
    cfg = write(tmp_path, MINIMAL.replace("mean = 0 0 2", f"mean = 0 0 2\n[integrator]\nmethod = {value}"))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == "config error: unknown key 'method' in section [integrator]\n"


def test_cli_bounds_names_the_smallest_grid_radius_when_epsilon_runs_out(tmp_path):
    # c1 / c0 = 2 with beta = gamma: the near-origin inequality 1 >= r^2 / 2 + 2 holds at no radius
    text = UNIFORM.replace("c1 = 0.05", "c1 = 2").replace("beta = 0.5", "beta = 3")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
    assert (out / "certificate.txt").read_text() == (
        "certificate failed: no clearance radius satisfies the near-origin inequality "
        "(it fails down to |q| = 1.013e-06, the smallest grid radius); "
        "the configuration is outside the certified family\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["certificate.txt"]


def test_cli_report_that_cannot_be_written_exits_4(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "certificate.txt").mkdir(parents=True)
    assert main(["bounds", "--config", str(write(tmp_path, LIGHT)), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("I/O error: ")
    assert str(out / "certificate.txt") in captured.err


def test_cli_config_errors_exit_4(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 4
    bad = write(tmp_path, MINIMAL.replace("c0 = 1.0", "c00 = 1.0"))
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 4
    capsys.readouterr()
    # a key before the first section header
    malformed = write(tmp_path, "c0 = 1.0\n" + MINIMAL, "malformed.ini")
    assert main(["validate", "--config", str(malformed), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("config error: malformed config file ")
    # an output directory under an existing file
    blocker = write(tmp_path, MINIMAL, "blocker.ini")
    assert main(["validate", "--config", str(blocker), "--out", str(blocker / "out")]) == 4
    assert capsys.readouterr().err.startswith(f"cannot create output directory {blocker / 'out'}: ")


@pytest.mark.parametrize("index", ["01", "00", "\u0661"], ids=["leading-zero", "zeros", "arabic-indic-one"])
def test_harmonic_index_must_be_canonical(tmp_path, capsys, index):
    # harmonic_01_cos would otherwise replace harmonic_1_cos without a word
    key = f"harmonic_{index}_cos"
    cfg = write(tmp_path, MINIMAL.replace("mean = 0 0 2", f"mean = 0 0 2\n{key} = 5 0 0\nharmonic_1_cos = 0.1 0 0"))
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert key in capsys.readouterr().err


LARGE_MEAN = """
[potential]
c0 = 1

[forcing]
period = 1
mean = 0 0 1e5

[output]
sample_points = 50
"""


@pytest.mark.parametrize("command", ["integrate", "find-orbit"])
def test_cli_mean_forcing_whose_square_overflows_is_a_config_error(tmp_path, capsys, command):
    # |mean| = 1e250 is finite, but |mean|^2 is not, and the equilibrium would land on q = 0
    cfg = write(tmp_path, LIGHT.replace("mean = 0 0 2", "mean = 0 0 1e250"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == (
        "config error: [forcing] mean is too large: |mean| = 1e+250, so |mean|^2 overflows\n"
    )


def test_cli_large_mean_forcing_has_an_equilibrium(tmp_path):
    # the equilibrium residual is about 3e-11 here, rounding of a force balance at |h| = 1e5
    q_star = [0.0, 0.0, -(1e5**-0.5)]
    cfg = parse_config(write(tmp_path, LARGE_MEAN + "[integrator]\nr_min = 1e-3\n"))
    assert cfg.integrator.r_min == 1e-3
    out = tmp_path / "out"
    short = write(tmp_path, LARGE_MEAN + "[initial-state]\nt_end = 0.01\n", "short.ini")
    assert main(["integrate", "--config", str(short), "--out", str(out)]) == 0
    assert np.allclose(np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[0, 1:4], q_star, rtol=1e-15)
    # one period of 0.02 keeps the stiff flow short; the equilibrium does not depend on it
    fast = write(tmp_path, LARGE_MEAN.replace("period = 1", "period = 0.02"), "fast.ini")
    assert main(["find-orbit", "--config", str(fast), "--out", str(out)]) == 0
    assert json.loads((out / "orbit_report.json").read_text())["x0_q"] == pytest.approx(q_star, abs=1e-12)


# |mean|^2 = 1e-400 underflows, but |mean| = 1e-200 is a double and dominates c_B
TINY_MEAN = LIGHT.replace("c_B = 1.0", "c_B = 1e-300").replace("mean = 0 0 2", "mean = 0 0 1e-200")


def test_cli_tiny_mean_forcing_is_not_read_as_zero(tmp_path):
    cfg = write(tmp_path, TINY_MEAN)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads((out / "validate_report.json").read_text())["checks"]}
    dominates = checks["mean-forcing-dominates-ceiling"]
    assert dominates["passed"] and dominates["detail"] == "|mean h| = 1e-200 vs c_B = 1e-300"
    # the equilibrium sits at |q| = sqrt(c0/|mean|) = 1e100
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
    start = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[0, 1:4]
    assert np.array_equal(start, [0.0, 0.0, -1e100])
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 0
    orbit = json.loads((out / "orbit_report.json").read_text())
    assert orbit["x0_q"] == [0.0, 0.0, -1e100]
    # the difference step of z is 1e-7 |z| = 1e93, so the stack's z member differs from the orbit:
    # the flow is near the identity, M's diagonal is 1 (with a step of 1e-7, z + 1e-7 rounds to z,
    # and M[2, 2] read 0), and the guess in Fix(G) of the x mirror takes the reversible path
    assert orbit["shooting"] == "reversible x"
    assert np.diag(orbit["monodromy"]).tolist() == [1.0] * 6


def test_cli_find_orbit_starts_just_outside_the_guard_radius(tmp_path):
    text = LIGHT.replace("sample_points = 101", "sample_points = 101\n[integrator]\nr_min = 0.69")
    cfg = write(tmp_path, text + "\n[initial-state]\nq = 0.7 0 0\n")
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "orbit_report.json").read_text())
    assert payload["residual_norm"] < 1e-9
    assert np.allclose(payload["x0_q"], [0.0, 0.0, -np.sqrt(0.5)], atol=1e-7)
    # full steps into the guard radius are halved, and the trace shows it
    trace = payload["newton_trace"]
    assert len(trace) == payload["newton_iterations"] > 0
    assert all(0.0 < step["alpha"] <= 1.0 for step in trace)
    assert min(step["alpha"] for step in trace) < 1.0
    residuals = [step["residual"] for step in trace] + [payload["residual_norm"]]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_cli_find_orbit_within_the_difference_step_of_the_guard_radius_exits_3(tmp_path, capsys):
    # q + 1e-7 e_1, a member of the monodromy stack, would start inside r_min
    text = LIGHT.replace("sample_points = 101", "sample_points = 101\n[integrator]\nr_min = 0.69")
    cfg = write(tmp_path, text + "\n[initial-state]\nq = -0.69000005 0 0\n")
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 3
    assert (out / "orbit_report.txt").read_text() == (
        "shooting failed: initial guess outside the search region: "
        "|q| = 0.69000005 <= r_min = 0.69 plus the difference step 1e-07\n"
    )
    assert "Traceback" not in capsys.readouterr().err


# a start inside the guard radius, added to LIGHT: (text, the reason integrate gives, the reason
# shooting gives, the exit code of continue, which starts at the equilibrium and reads no [initial-state])
GUARD_FAULTS = {
    # the equilibrium of c0 = 1, mean = 0 0 2 lies at |q| = sqrt(0.5) < r_min = 0.8
    "equilibrium": (
        "[integrator]\nr_min = 0.8\n",
        "|q| = 0.707107 is inside the guard radius r_min = 0.8",
        "|q| = 0.707106781 <= r_min = 0.8 plus the difference step 1e-07",
        3,
    ),
    "explicit": (
        "[integrator]\nr_min = 0.01\n[initial-state]\nq = 0.005 0 0\n",
        "|q| = 0.005 is inside the guard radius r_min = 0.01",
        "|q| = 0.005 <= r_min = 0.01 plus the difference step 1e-07",
        0,
    ),
    # r_min = auto keeps the default 1e-6 where there is no certificate, and continue takes m/2
    "auto": (
        "[initial-state]\nq = 1e-6 0 0\n",
        "|q| = 1e-06 is inside the guard radius r_min = 1e-06",
        "|q| = 1e-06 <= r_min = 1e-06 plus the difference step 1e-07",
        0,
    ),
}


@pytest.mark.parametrize("fault", GUARD_FAULTS)
def test_cli_a_start_inside_the_guard_radius_fails_only_where_it_is_flowed(tmp_path, capsys, fault):
    text, integrate_reason, shooting_reason, continue_code = GUARD_FAULTS[fault]
    cfg = write(tmp_path, LIGHT + "\n" + text)
    for command in ("validate", "bounds", "degree"):  # they flow nothing
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    capsys.readouterr()

    out = tmp_path / "integrate"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().out == f"integration failed: initial position {integrate_reason}\n"
    assert not list(out.iterdir())

    out = tmp_path / "find-orbit"
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 3
    assert (out / "orbit_report.txt").read_text() == (
        f"shooting failed: initial guess outside the search region: {shooting_reason}\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["orbit_report.txt"]

    out = tmp_path / "continue"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == continue_code
    payload = json.loads((out / "run_report.json").read_text())
    if continue_code:
        message = f"equilibrium outside the search region: {shooting_reason}"
        assert payload["solver_error"] == message
        lines = (out / "run_report.txt").read_text().splitlines()
        assert lines[-3] == f"aborted: no starting orbit at lam = 0: {message}"
        # zero mean forcing has no equilibrium, and integrate still says so
        degenerate = write(tmp_path, LIGHT.replace("mean = 0 0 2", "mean = 0 0 0") + "\n" + text)
        assert main(["integrate", "--config", str(degenerate), "--out", str(tmp_path / "zero")]) == 2
    else:
        assert "solver_error" not in payload and payload["continuation"]["status"] == "reached_target"


def test_cli_integrate_ultrarelativistic_start(tmp_path, monkeypatch):
    text = LIGHT.replace("sample_points = 101", "sample_points = 101\n[integrator]\nr_min = 0.69")
    cfg = write(tmp_path, text + "\n[initial-state]\nq = 0.7 0 0\np = 1e9 0 0\n")
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    # the speed saturates, so the monodromy is singular: a solver failure, not a crash
    flows = recorded_flows(monkeypatch)
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 3
    assert (out / "orbit_report.txt").read_text().startswith("shooting failed: ")
    # the guess lies in neither Fix(G) of light's mirrors x (q_x = 0.7) and y (p_x = 1e9): every flow
    # spans the whole period
    assert flows and {(traj.t0, traj.t1) for _, traj, _ in flows} == {(0.0, 1.0)}


# configs whose parts share no mirror, with the flows, Newton iterations and segments of
# find-orbit at lambda = 1 on the full-period path (as before reversible shooting, with the same
# x0 bit for bit on one segment)
NO_COMMON_MIRROR = {
    # the x-cosine breaks the mirror x, and the x-sine the mirror y, which asks for a sine along y
    "sine": (DESK.replace("harmonic_1_cos = 0.1 0 0", "harmonic_1_cos = 0.1 0 0\nharmonic_1_sin = 0.1 0 0"), 5, 4, 1),
    # an ABC field commutes with no mirror
    "abc": (DESK_ABC, 5, 4, 1),
    # a dipole with mu_y != 0 commutes with the mirror x only, which the x-cosine breaks; its
    # guess flow takes 4 steps, so the later flows run 4 segments of a quarter period each
    "dipole": (DESK.replace("moment = 0 0 0.1", "moment = 0 0.1 0.1"), 6, 5, 4),
}


@pytest.mark.parametrize("name", NO_COMMON_MIRROR)
def test_cli_a_config_with_no_common_mirror_takes_the_full_period_path(tmp_path, monkeypatch, name):
    text, n_flows, iterations, segments = NO_COMMON_MIRROR[name]
    assert parse_config(write(tmp_path, text)).fields.mirrors() == ()
    text = text.replace("c_B = auto", "c_B = 0.2") + "\n[initial-state]\nlambda = 1.0\n"
    flows = recorded_flows(monkeypatch)
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    orbit = json.loads((out / "orbit_report.json").read_text())
    assert orbit["shooting"] == "full" and orbit["symmetry_defect"] is None
    assert orbit["segments"] == segments
    assert [(traj.t0, traj.t1) for _, traj, _ in flows] == [(0.0, 1.0)] + [(0.0, 1.0 / segments)] * (n_flows - 1)
    assert orbit["newton_iterations"] == iterations and orbit["residual_norm"] < 1e-9


def test_cli_integrate_equilibrium_inside_the_auto_guard_radius_exits_3(tmp_path, capsys):
    # the equilibrium lies at |q| = 1e13**-0.5 = 3.2e-7, inside the default guard radius 1e-6
    cfg = write(tmp_path, "[potential]\nc0 = 1\n\n[forcing]\nperiod = 0.02\nmean = 0 0 1e13\n")
    assert parse_config(cfg).r_min_auto  # continue replaces the radius by m/2, so parsing accepts it
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == (
        "integration failed: initial position |q| = 3.16228e-07 is inside the guard radius r_min = 1e-06\n"
    )
    assert "Traceback" not in captured.err
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 3
    assert (out / "orbit_report.txt").read_text() == (
        "shooting failed: initial guess outside the search region: "
        "|q| = 3.16227766e-07 <= r_min = 1e-06 plus the difference step 1e-07\n"
    )


def test_cli_integrate_step_budget_exhausted_exits_3(tmp_path, capsys):
    # away from the equilibrium the flow cannot cover one period in a single step
    cfg = write(tmp_path, LIGHT + "\n[integrator]\nmax_steps = 1\n[initial-state]\nq = 1 0 0\n")
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().out == "integration failed: no convergence within 1 steps\n"
    assert not (out / "trajectory.csv").exists()


def test_cli_continue_stops_on_a_failed_hypothesis(tmp_path):
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, BAD_ORDERING)), "--out", str(out)]) == 2
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["validation_passed"] is False
    assert "certificate" not in payload
    failed = [c["name"] for c in payload["validation"] if not c["passed"]]
    assert "beta-below-gamma" in failed
    lines = (out / "run_report.txt").read_text().splitlines()
    assert lines[-3] == "aborted: hypothesis validation failed"


# c0 = 1e-7 puts the zero at |q| = 2.2e-4, where a central-difference
# determinant (step 1e-6) misses the closed form by more than 1e-5
TINY_C0 = """
[potential]
c0 = 1e-7

[forcing]
period = 1e-6
mean = 0 0 2
"""


def test_cli_degree_failure_exits_3(tmp_path, monkeypatch):
    # the degree stage fails on a second zero or a zero outside the region; the sweep is made to find a second one
    def second_zero(*args):
        raise MultipleZeros("Newton converged to a second zero near [0. 0. 1. 0. 0. 0.]")

    monkeypatch.setattr(lfe.degree, "_newton_sweep", second_zero)
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 3
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["validation_passed"] is True and "certificate" in payload
    assert payload["degree_error"] == "Newton converged to a second zero near [0. 0. 1. 0. 0. 0.]"
    assert "degree" not in payload and "continuation" not in payload
    lines = (out / "run_report.txt").read_text().splitlines()
    assert lines[-3] == "aborted: degree computation failed: " + payload["degree_error"]
    assert main(["degree", "--config", str(cfg), "--out", str(out)]) == 3
    text = (out / "degree_report.txt").read_text()
    assert text == "degree computation failed: " + payload["degree_error"] + "\n"


# c0 = 1e-300 puts the equilibrium at |q| = 7.1e-151, where r^-3 overflows; the tiny period
# keeps the clearance m from underflowing, so the certificate passes and the degree stage fails
OUT_OF_RANGE_EQUILIBRIUM = """
[potential]
c0 = 1e-300
gamma = 1

[magnetic]
kind = zero
c_B = auto

[forcing]
period = 1e-300
mean = 0 0 2
"""
OUT_OF_RANGE_MESSAGE = (
    "the equilibrium radius sqrt(c0/|mean|) = sqrt(1e-300/2) = 7.07107e-151 leaves the double range: r^-3 = inf"
)


def test_cli_continue_reports_an_equilibrium_out_of_the_double_range(tmp_path):
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, OUT_OF_RANGE_EQUILIBRIUM)), "--out", str(out)]) == 2
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["validation_passed"] is True and "certificate" in payload
    assert payload["degree_error"] == OUT_OF_RANGE_MESSAGE
    assert "degree" not in payload and "continuation" not in payload
    lines = (out / "run_report.txt").read_text().splitlines()
    assert lines[-3] == "aborted: degree computation failed: " + OUT_OF_RANGE_MESSAGE


def test_cli_degree_reports_an_equilibrium_out_of_the_double_range(tmp_path):
    out = tmp_path / "out"
    assert main(["degree", "--config", str(write(tmp_path, OUT_OF_RANGE_EQUILIBRIUM)), "--out", str(out)]) == 2
    assert (out / "degree_report.txt").read_text() == "degree computation failed: " + OUT_OF_RANGE_MESSAGE + "\n"
    assert not list(out.glob("*.json"))


# T = 8.13 puts the clearance at m = 2.2e-154, so M = 2/m^2 = 4.2e307 is a double but L = T*M is not
MOMENTUM_OVERFLOW = OUT_OF_RANGE_EQUILIBRIUM.replace("c0 = 1e-300", "c0 = 1").replace("period = 1e-300", "period = 8.13")
MOMENTUM_OVERFLOW_MESSAGE = (
    "momentum bound L: T*M + 2*l1 with T = 8.13, M = 4.19848e+307 and l1 = 16.26 leaves the double range: L = inf"
)
# a subnormal c0, c_B and mean: T*M and l1 underflow, so L = 0
MOMENTUM_UNDERFLOW = """
[potential]
c0 = 1e-323
gamma = 1

[magnetic]
kind = zero
c_B = 5e-324

[forcing]
period = 1e-10
mean = 0 0 1e-320
"""
MOMENTUM_UNDERFLOW_MESSAGE = (
    "momentum bound L: T*M + 2*l1 with T = 1e-10, M = 1.97626e-323 and l1 = 0 leaves the double range: L = 0"
)


@pytest.mark.parametrize(
    "text,message",
    [(MOMENTUM_OVERFLOW, MOMENTUM_OVERFLOW_MESSAGE), (MOMENTUM_UNDERFLOW, MOMENTUM_UNDERFLOW_MESSAGE)],
    ids=["overflow", "underflow"],
)
def test_cli_bounds_reports_a_momentum_bound_out_of_the_double_range(tmp_path, text, message):
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
    assert (out / "certificate.txt").read_text() == "certificate failed: " + message + "\n"
    assert not list(out.glob("*.json"))


def test_cli_continue_reports_a_momentum_bound_out_of_the_double_range(tmp_path):
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, MOMENTUM_OVERFLOW)), "--out", str(out)]) == 2
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["validation_passed"] is True and "certificate" not in payload
    assert payload["certificate_error"] == MOMENTUM_OVERFLOW_MESSAGE
    lines = (out / "run_report.txt").read_text().splitlines()
    assert lines[-3] == "aborted: certificate failed: " + MOMENTUM_OVERFLOW_MESSAGE


# each failure family and its exit code
FAMILIES = {CertificateError: 2, DegenerateForcing: 2, DegreeError: 3, SolverError: 3}

# (command, the lfe.cli callee of a stage, or a dotted attribute of one, the stage's report prefix,
# its run_report key)
STAGES = [
    ("continue", "compute_certificate", "certificate failed", "certificate_error"),
    ("bounds", "compute_certificate", "certificate failed", None),
    ("continue", "brouwer_degree", "degree computation failed", "degree_error"),
    ("degree", "brouwer_degree", "degree computation failed", None),
    ("continue", "equilibrium_orbit", "no starting orbit at lam = 0", "solver_error"),
    ("continue", "_check_index", "index check failed", "solver_error"),
    ("find-orbit", "find_zero_f0", "no equilibrium guess", None),
    ("find-orbit", "newton_shooting", "shooting failed", None),
    ("integrate", "find_zero_f0", "no equilibrium start", None),
    ("integrate", "ShootingProblem.flow", "integration failed", None),
]
STAGE_IDS = [f"{command}-{callee}" for command, callee, _, _ in STAGES]
STEMS = {"continue": "run_report", "bounds": "certificate", "degree": "degree_report", "find-orbit": "orbit_report"}


def plant(monkeypatch, callee, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"lfe.cli.{callee}", failing)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.__name__)
@pytest.mark.parametrize("command,callee,what,key", STAGES, ids=STAGE_IDS)
def test_cli_every_stage_reports_every_failure_family(
    tmp_path, monkeypatch, capsys, command, callee, what, key, family
):
    plant(monkeypatch, callee, family("planted failure"))
    out = tmp_path / "out"
    assert main([command, "--config", str(write(tmp_path, LIGHT)), "--out", str(out)]) == FAMILIES[family]
    if command == "continue":
        payload = json.loads((out / "run_report.json").read_text())
        assert payload[key] == "planted failure"
        lines = (out / "run_report.txt").read_text().splitlines()
        assert lines[-3] == f"aborted: {what}: planted failure"
    elif command == "integrate":
        assert capsys.readouterr().out == f"{what}: planted failure\n"
    else:
        assert (out / f"{STEMS[command]}.txt").read_text() == f"{what}: planted failure\n"
        assert not list(out.glob("*.json"))


@pytest.mark.parametrize("command,callee", [stage[:2] for stage in STAGES], ids=STAGE_IDS)
def test_cli_a_bare_value_error_is_not_a_stage_failure(tmp_path, monkeypatch, command, callee):
    plant(monkeypatch, callee, ValueError("planted programming error"))
    with pytest.raises(ValueError, match="^planted programming error$"):
        main([command, "--config", str(write(tmp_path, LIGHT)), "--out", str(tmp_path / "out")])


def test_cli_degree_takes_the_closed_form_determinant_at_a_tiny_c0(tmp_path):
    # the closed form alone gives the sign: no central-difference check refuses this zero
    cfg = write(tmp_path, TINY_C0)
    out = tmp_path / "out"
    assert main(["degree", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "degree_report.json").read_text())
    assert payload["degree"] == -1
    r_star = float(np.linalg.norm(payload["x0_q"]))
    assert payload["det_analytic"] == pytest.approx(-2.0 * 1e-21 * r_star**-9, rel=1e-12)


def test_tiny_dipole_moment_is_not_read_as_zero(tmp_path):
    # squaring 1e-170 underflows, so a norm by squares gave c1 = 0 and the false bound |B| <= 0
    cfg = parse_config(write(tmp_path, DESK.replace("moment = 0 0 0.1", "moment = 0 0 1e-170")))
    assert cfg.fields.c1 == cfg.fields.c_B == 2e-170


def test_large_dipole_moment_has_a_finite_bound_or_is_refused(tmp_path):
    # squaring 1e200 overflows, but 2|moment| does not
    cfg = parse_config(write(tmp_path, DESK.replace("moment = 0 0 0.1", "moment = 0 0 1e200")))
    assert cfg.fields.c1 == cfg.fields.c_B == 2e200
    with pytest.raises(ConfigError, match=r"^\[magnetic\] moment is too large: \|moment\| = 1e\+308, so 2\|moment\| overflows$"):
        parse_config(write(tmp_path, DESK.replace("moment = 0 0 0.1", "moment = 0 0 1e308")))


def test_cli_auto_ceiling_of_an_abc_field_is_its_sup_bound(tmp_path):
    cfg = write(tmp_path, ABC)
    assert parse_config(cfg).fields.c_B == ABCField(0.01, 0.02, 0.03).envelope(1.0)
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "certificate.json").read_text())["R"] == 1.0
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0


def test_large_abc_coefficients_have_a_finite_ceiling_or_are_refused(tmp_path, capsys):
    # squaring |A| + |C| = 1e200 overflows, but its hypot does not
    cfg = write(tmp_path, ABC.replace("abc = 0.01 0.02 0.03", "abc = 1e200 0 0"))
    assert parse_config(cfg).fields.c_B == 1.414213562373095e200
    # the ceiling is finite, and c_B = 1.4e200 > |mean h| = 2 fails the hypotheses
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "big")]) == 2
    capsys.readouterr()
    cfg = write(tmp_path, ABC.replace("abc = 0.01 0.02 0.03", "abc = 1e308 1e308 0"))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "huge")]) == 4
    assert capsys.readouterr().err == (
        "config error: [magnetic] abc = 1e+308 1e+308 0 is too large: "
        "the sup of |B|, |(|A| + |C|, |B| + |A|, |C| + |B|)|, overflows\n"
    )


def test_cli_auto_ceiling_of_a_uniform_field_is_its_magnitude(tmp_path):
    # |B| = |b| everywhere; the ceiling row and the certificate's R both take c_B = |b|
    cfg = write(tmp_path, UNIFORM.replace("c_B = 0.1", "c_B = auto"))
    assert parse_config(cfg).fields.c_B == 0.05
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads((out / "validate_report.json").read_text())["checks"]}
    assert checks["magnetic-ceiling-at-infinity"]["margin"] == 0.0
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0


# the uniform field with b = 0 and no c1 or beta: it takes c1 = 0 and beta = gamma/2, as the zero field does
UNIFORM_ZERO = UNIFORM.replace("b = 0 0 0.05", "b = 0 0 0").replace("c1 = 0.05\n", "").replace("beta = 0.5\n", "")


@pytest.mark.parametrize("text", [LIGHT, UNIFORM, ABC], ids=["zero", "uniform", "abc"])
def test_cli_certificate_of_every_closed_form_kind_samples_nothing(tmp_path, text):
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    cert = (out / "certificate.txt").read_text()
    assert len(re.findall(r"^(R|epsilon|C_gradV_B|M) .*closed-form", cert, re.M)) == 4, cert
    assert "sampled" not in cert


@pytest.mark.parametrize(
    "text", [DESK, LIGHT, UNIFORM, UNIFORM_ZERO, ABC], ids=["desk", "zero", "uniform", "uniform-zero", "abc"]
)
def test_cli_validate_of_every_closed_form_kind_passes_six_rows_and_samples_nothing(tmp_path, text):
    # each row compares the config's constants with the field kind's closed forms
    out = tmp_path / "out"
    assert main(["validate", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    report = (out / "validate_report.txt").read_text()
    rows = report.splitlines()
    assert sum(row.startswith("pass  ") for row in rows) == 6 and rows[-1] == "overall: pass", report
    assert "sampled" not in report
