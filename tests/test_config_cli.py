import json

import numpy as np
import pytest

import lfe.shooting
from lfe.cli import main
from lfe.config_io import ConfigError, parse_config
from lfe.fields import ABCField, DipoleField, GeneralizedCoulomb, ZeroField

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
method = DOP853
r_min = auto

[solver]
newton_tol = 1e-09
max_iterations = 50
dlam_init = 0.1
dlam_floor = 0.0001
growth = 1.5
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
growth = 2
dlam_floor = 1e-3
dlam_init = 0.25
max_iterations = 7
newton_tol = 1e-8

[integrator]
r_min = 1e-3
method = DOP853
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
method = DOP853
r_min = 0.001

[solver]
newton_tol = 1e-08
max_iterations = 7
dlam_init = 0.25
dlam_floor = 0.001
growth = 2.0
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


def test_cli_integrate_csv_contract(tmp_path):
    cfg = write(tmp_path, LIGHT)
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3"
    assert len(lines) == 102  # header + sample_points


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


def test_cli_continue_ends_when_the_step_budget_is_used_up(tmp_path):
    # one Newton iteration per step: the path creeps with tiny steps, so only
    # the budget ceil(1 / 1.0) * (1 + ceil(log2(1.0 / 1e-4))) = 15 ends it
    text = LIGHT.replace("dlam_init = 1.0", "dlam_init = 1.0\nmax_iterations = 1")
    text = text.replace("mean = 0 0 2", "mean = 0 0 2\nharmonic_1_cos = 0.9 0 0")
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    continuation = json.loads((out / "run_report.json").read_text())["continuation"]
    assert continuation["status"] == "budget_exhausted"
    assert len(continuation["history"]) == 15
    lam = continuation["steps"][-1]["lambda"]
    assert 0.0 < lam < 1.0
    assert continuation["message"] == f"attempted-step budget 15 used up at lam = {lam:.6g}"


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
    assert all(0.0 < h["newton_trace"][0]["alpha"] <= 1.0 for h in history)


def test_cli_find_orbit_stops_at_round_off_stagnation(tmp_path, monkeypatch):
    # the exact equilibrium has residual 1.1e-16; newton_tol = 1e-300 cannot be reached
    flows = []
    integrate = lfe.shooting.integrate
    monkeypatch.setattr(lfe.shooting, "integrate", lambda *a, **k: flows.append(1) or integrate(*a, **k))
    text = LIGHT.replace("seed = 7", "seed = 7\nnewton_tol = 1e-300")
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    assert (out / "orbit_report.txt").read_text() == (
        "shooting failed: round-off stagnation: residual 1.110e-16 is at round-off level and "
        "a trial step does not lower it; newton_tol = 1e-300 is unreachable in double precision\n"
    )
    assert len(flows) <= 2  # the guess's flow and at most one trial flow


def test_cli_reports_the_rejected_steps_of_the_orbit(tmp_path):
    # at lambda = 1 with c_B = 0.2, step control rejects two trial steps of the desk orbit's flow
    text = DESK.replace("c_B = auto", "c_B = 0.2") + "\n[initial-state]\nlambda = 1.0\n"
    out = tmp_path / "out"
    assert main(["find-orbit", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 0
    assert json.loads((out / "orbit_report.json").read_text())["n_rejected"] == 2
    assert "n_rejected" not in (out / "orbit_report.txt").read_text()


def test_cli_continue_without_start_orbit_records_solver_error(tmp_path):
    text = LIGHT.replace("seed = 7", "seed = 7\nnewton_tol = 1e-300\nmax_iterations = 1")
    out = tmp_path / "out"
    assert main(["continue", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 3
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["degree"] == -1 and payload["solver_error"]
    assert "continuation" not in payload
    lines = (out / "run_report.txt").read_text().splitlines()
    assert lines[-3] == "aborted: no starting orbit at lam = 0: " + payload["solver_error"]


@pytest.mark.parametrize("command,stem", [("bounds", "certificate"), ("degree", "degree_report")])
def test_cli_certificate_failure_writes_only_the_message(tmp_path, command, stem):
    cfg = write(tmp_path, LIGHT.replace("c_B = 1.0", "c_B = 2.5"))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    text = (out / f"{stem}.txt").read_text()
    assert text.startswith("certificate failed:") and len(text.splitlines()) == 1
    assert not list(out.glob("*.json"))


def test_cli_bounds_names_the_momentum_bound_when_the_clearance_underflows(tmp_path):
    # m = 1.9e-174 here, so |q|^2 on the inner sphere of the M sweep is 0
    text = LIGHT.replace("c0 = 1.0", "c0 = 1e-8").replace("period = 1.0", "period = 1e-6")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
    message = (out / "certificate.txt").read_text()
    assert message.startswith("certificate failed: momentum bound M: |q|^2 underflows")
    assert "m = 1.9" in message and "e-174" in message


@pytest.mark.parametrize(
    "c0,message",
    [
        # (R+T) l1/c0_eff = 2 * 2/0.005 = 800 of the exponent 803, past exp's range
        ("0.01", "clearance m: exp(-803) underflows to 0; "
         "the largest term of the exponent is (R+T)*l1/c0_eff = 800"),
        # m = 7.7e-118: c0/m^2 is finite, but |q|^-3 on the way to grad V is not
        ("0.03", "momentum bound M: the sampled force ceiling is inf, outside the double range "
         "(the powers of 1/|q| overflow near the sphere |q| = m = 7.67812e-118)"),
    ],
    ids=["m-underflows", "M-overflows"],
)
def test_cli_bounds_names_the_constant_and_the_term_out_of_range(tmp_path, capsys, c0, message):
    text = LIGHT.replace("c0 = 1.0", f"c0 = {c0}")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
    assert (out / "certificate.txt").read_text() == f"certificate failed: {message}\n"
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
    assert sorted(keys) == sorted(set(payload) - {"monodromy", "newton_trace", "n_rejected"})


def test_cli_integrate_zero_mean_forcing_has_no_equilibrium(tmp_path, capsys):
    cfg = write(tmp_path, LIGHT.replace("mean = 0 0 2", "mean = 0 0 0"))
    message = "mean forcing is zero; the autonomous field has no zero"
    out = tmp_path / "integrate"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().out == f"no equilibrium start: {message}\n"
    assert not list(out.iterdir())
    # a failed single-stage command writes its message to <stem>.txt and no .json
    out = tmp_path / "find-orbit"
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 2
    assert (out / "orbit_report.txt").read_text() == f"no equilibrium guess: {message}\n"
    assert sorted(p.name for p in out.iterdir()) == ["orbit_report.txt"]


@pytest.mark.parametrize(
    "old,new,section",
    [
        ("c0 = 1.0", "c0 = -1", "potential"),
        ("period = 1.0", "period = 0", "forcing"),
        ("gamma = 3.0", "gamma = 3.0\neps0 = -1", "potential"),
        ("mean = 0 0 2", "mean = 0 0 2\n[magnetic]\neps1 = -1", "magnetic"),
        ("mean = 0 0 2", "mean = 0 0 2\n[integrator]\nrtol = -1", "integrator"),
        ("mean = 0 0 2", "mean = 0 0 2\n[integrator]\nmethod = Radau", "integrator"),
        ("mean = 0 0 2", "mean = 0 0 2\n[integrator]\nmethod = RK45", "integrator"),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nq = 0 0 0", "initial-state"),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nt_end = 0", "initial-state"),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nt_end = -1", "initial-state"),
        (
            "mean = 0 0 2",
            "mean = 0 0 2\n[integrator]\nr_min = 0.01\n[initial-state]\nq = 0.005 0 0",
            "initial-state",
        ),
        ("mean = 0 0 2", "mean = 0 0 2\n[initial-state]\nq = 1e-6 0 0", "initial-state"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ndlam_init = 0", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ndlam_init = -0.1", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ndlam_floor = 0", "solver"),
        ("mean = 0 0 2", "mean = 0 0 2\n[solver]\ngrowth = 0.5", "solver"),
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
        "c0", "period", "eps0", "eps1", "rtol", "method", "method-RK45", "q", "t_end0", "t_end-1",
        "q_r_min", "q_r_min_auto", "dlam_init0", "dlam_init-", "dlam_floor0", "growth<1",
        "target>1", "target<0", "newton_tol0", "seed-1", "max_iterations0", "max_steps0",
        "not-a-number", "not-finite", "not-an-integer", "potential-kind", "no-c0", "no-period",
        "no-mean", "harmonic_0", "magnetic-kind", "no-b", "no-c1", "lambda2", "sample_points1",
        "r_min0",
    ],
)
def test_cli_out_of_range_value_exits_4(tmp_path, capsys, old, new, section):
    cfg = write(tmp_path, MINIMAL.replace(old, new))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith(f"config error: [{section}] ")


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


def test_cli_equilibrium_inside_the_guard_radius_exits_4(tmp_path, capsys):
    # the equilibrium of c0 = 1, mean = 0 0 2 lies at |q| = sqrt(0.5) < r_min = 0.8
    text = LIGHT + "\n[integrator]\nr_min = 0.8\n"
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("config error: [initial-state] ")
    # zero mean forcing has no equilibrium, and integrate still says so
    degenerate = write(tmp_path, text.replace("mean = 0 0 2", "mean = 0 0 0"))
    assert main(["integrate", "--config", str(degenerate), "--out", str(out)]) == 2


def test_cli_integrate_ultrarelativistic_start(tmp_path):
    text = LIGHT.replace("sample_points = 101", "sample_points = 101\n[integrator]\nr_min = 0.69")
    cfg = write(tmp_path, text + "\n[initial-state]\nq = 0.7 0 0\np = 1e9 0 0\n")
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    # the speed saturates, so the monodromy is singular: a solver failure, not a crash
    assert main(["find-orbit", "--config", str(cfg), "--out", str(out)]) == 3
    assert (out / "orbit_report.txt").read_text().startswith("shooting failed: ")


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


# c0 = 1e-7 puts the zero at |q| = 2.2e-4, where the central-difference
# determinant (step 1e-6) misses the closed form by more than 1e-5
TINY_C0 = """
[potential]
c0 = 1e-7

[forcing]
period = 1e-6
mean = 0 0 2
"""


def test_cli_degree_failure_exits_3(tmp_path):
    cfg = write(tmp_path, TINY_C0)
    out = tmp_path / "out"
    assert main(["continue", "--config", str(cfg), "--out", str(out)]) == 3
    payload = json.loads((out / "run_report.json").read_text())
    assert payload["validation_passed"] is True and "certificate" in payload
    assert payload["degree_error"].startswith("analytic ")
    assert "degree" not in payload and "continuation" not in payload
    lines = (out / "run_report.txt").read_text().splitlines()
    assert lines[-3] == "aborted: degree computation failed: " + payload["degree_error"]
    assert main(["degree", "--config", str(cfg), "--out", str(out)]) == 3
    text = (out / "degree_report.txt").read_text()
    assert text == "degree computation failed: " + payload["degree_error"] + "\n"


def test_cli_auto_ceiling_of_an_abc_field_is_its_sup_bound(tmp_path):
    cfg = write(tmp_path, ABC)
    assert parse_config(cfg).fields.c_B == ABCField(0.01, 0.02, 0.03).sup_bound()
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "certificate.json").read_text())["R"] == 1.0
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0


def test_cli_auto_ceiling_of_a_uniform_field_exits_4(tmp_path, capsys):
    cfg = write(tmp_path, UNIFORM.replace("c_B = 0.1", "c_B = auto"))
    with pytest.raises(ConfigError, match="c_B"):
        parse_config(cfg)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == (
        "config error: [magnetic] c_B = auto: a uniform field has |B| = 0.05 everywhere, "
        "and c_B must lie strictly above it; give c_B as a number\n"
    )
