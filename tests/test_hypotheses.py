"""The closed-form hypothesis rows of `validate_hypotheses` against the sampled oracle of sampled_checks.py."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

import lfe.fields
from conftest import PulsedField, TabulatedPotential, coulomb_config, desk_config
from lfe.fields import (
    ABCField,
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    UniformField,
    ZeroField,
    dominated,
    magnetic_ceiling,
    power_law,
    validate_hypotheses,
)
from sampled_checks import NEAR_DEPTH, sampled_hypotheses, sampled_radial_law

DECAY, SIGN = "electric-decay-at-infinity", "repulsion-sign-global"
CEILING, GROWTH = "magnetic-ceiling-at-infinity", "magnetic-growth-near-origin"
ORDER, DOMINATES = "beta-below-gamma", "mean-forcing-dominates-ceiling"


def rows(config):
    return {c.name: c for c in validate_hypotheses(config).checks}


@pytest.mark.parametrize("config", [desk_config(), coulomb_config()], ids=["desk", "light"])
def test_validate_evaluates_no_field_and_draws_no_sample(monkeypatch, config):
    calls = []

    def recording(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(lfe.fields, "radial_powers", recording("radial_powers", lfe.fields.radial_powers))
    monkeypatch.setattr(np.random, "default_rng", recording("default_rng", np.random.default_rng))
    monkeypatch.setattr(GeneralizedCoulomb, "gradient", recording("gradient", GeneralizedCoulomb.gradient))
    for kind in (ZeroField, UniformField, DipoleField, ABCField):
        monkeypatch.setattr(kind, "eval", recording("eval", kind.eval))
    assert validate_hypotheses(config).passed
    assert calls == []
    # and the module binds no sampler of its own
    bound = vars(lfe.fields)
    assert not [
        k for k, v in bound.items() if v is np.random or str(getattr(v, "__module__", "")).startswith("numpy.random")
    ]


def test_rows_of_kinds_without_closed_forms_fail_and_name_the_kind():
    config = dataclasses.replace(
        coulomb_config(),
        potential=TabulatedPotential(lambda q: 1.0 / np.linalg.norm(q), lambda q: -q / np.linalg.norm(q) ** 3),
        magnetic=PulsedField(0.1, 1.0),
    )
    checks = rows(config)
    missing = {
        DECAY: "a TabulatedPotential has no closed-form envelope",
        SIGN: "a TabulatedPotential has no closed-form radial law",
        CEILING: "a PulsedField has no closed-form envelope",
        GROWTH: "a PulsedField has no closed-form envelope law",
        # gamma has one home, the radial law, so the order of the singularities needs it too
        ORDER: "a TabulatedPotential has no closed-form radial law",
    }
    assert len(checks) == 6
    for name, detail in missing.items():
        assert not checks[name].passed and math.isnan(checks[name].margin)
        assert checks[name].detail == detail
    assert checks[DOMINATES].passed


@pytest.mark.parametrize(
    "kind", [ZeroField(), UniformField([0.3, -0.2, 0.1]), DipoleField([0.3, -0.2, 0.9]), ABCField(0.7, -1.3, 0.4)]
)
def test_magnetic_envelope_is_its_power_law(kind):
    c, k = kind.envelope_law()
    for r in np.geomspace(1e-120, 1e6, 50):
        assert kind.envelope(r) == power_law(c, r, k)


def test_power_law_comparison_hand_values():
    # equal exponents: the coefficients decide, exactly
    assert dominated(1.0, 3.0, 1.0, 3.0, 0.5) == (True, 0.0)
    assert dominated(2.0, 3.0, 1.0, 3.0, 0.5) == (False, -1.0)
    # 0.5 r^-1 <= 1 r^-3 on (0, 2]: 0.5 r^2 <= 1 at r = 2 fails by 1, at r = 1 holds by 0.5
    assert dominated(0.5, 1.0, 1.0, 3.0, 2.0) == (False, -1.0)
    assert dominated(0.5, 1.0, 1.0, 3.0, 1.0) == (True, 0.5)
    # a stronger singularity on the left fails as r -> 0, unless its coefficient is 0
    assert dominated(1e-300, 3.0, 1e300, 2.9, 1e-9) == (False, -math.inf)
    assert dominated(0.0, 3.0, 0.2, 2.0, 0.5) == (True, 0.2)
    # no OverflowError where r^(bound_k - k) leaves the double range
    assert dominated(1.0, 0.0, 1.0, 4.0, 1e100) == (False, -math.inf)
    assert dominated(1.0, 0.0, 1.0, 4.0, 1e-100) == (True, 1.0)


@dataclass(frozen=True)
class PowerPotential:
    """-q . grad V = a |q|^-g exactly, for any sign of a and any g: grad V = -a |q|^-(g+2) q."""

    a: float
    g: float

    def gradient(self, q, rad):
        return -self.a * rad[0] ** (0.5 * self.g + 1.0) * q

    def envelope(self, r):
        return power_law(abs(self.a), r, self.g + 1.0)

    def radial_law(self):
        return self.a, self.g


def _planted(**changes) -> FieldConfig:
    """The desk fields with beta = 2.5, which pass every row, changed by `changes`."""
    base = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=DipoleField([0.0, 0.0, 0.1]),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=0.5,
        c_B=0.2,
        c1=0.2,
        beta=2.5,
        eps1=0.5,
    )
    return dataclasses.replace(base, **changes)


_PLANTED = {
    # |grad V| = |q|^-0.5 falls by 10^-1.5, not 1e-3, over the far radii
    DECAY: _planted(potential=PowerPotential(1.0, -0.5)),
    # an attracting potential: q . grad V = +|q|^-3
    SIGN: _planted(potential=PowerPotential(-1.0, 3.0)),
    # |B| = 0.3 everywhere, above c_B = 0.25
    CEILING: _planted(magnetic=UniformField([0.0, 0.0, 0.3]), c_B=0.25),
    # the dipole's 0.2 |q|^-3 outgrows c1 |q|^-(beta+1) = 0.2 |q|^-2.5 as |q| -> 0
    GROWTH: _planted(beta=1.5),
    ORDER: _planted(beta=3.5),
    DOMINATES: _planted(forcing=Forcing(1.0, [0.0, 0.0, 0.1])),
}


def test_the_planted_configs_change_a_config_that_passes_both():
    assert validate_hypotheses(_planted()).passed
    assert all(passed for passed, _, _ in sampled_hypotheses(_planted(), 5).values())


@pytest.mark.parametrize("row", list(_PLANTED))
def test_planted_config_fails_its_row_in_both(row):
    config = _PLANTED[row]
    closed = rows(config)[row]
    assert not closed.passed and closed.margin < 0.0, closed
    for seed in (1, 2, 3):
        passed, detail, margin = sampled_hypotheses(config, seed)[row]
        assert not passed and margin < 0.0, (seed, detail)


@dataclass(frozen=True)
class MisstatedLaw(PowerPotential):
    """A PowerPotential whose `radial_law()` states twice the a of its gradient."""

    def radial_law(self):
        return 2.0 * self.a, self.g


def test_sampled_radial_law_fails_a_law_that_is_not_the_gradients():
    passed, detail, margin = sampled_radial_law(PowerPotential(1.0, 3.0), 0.5, 1)
    assert passed and margin > 0.0 and detail == "q.grad V = -1 |q|^-3 on |q| < eps=0.5"
    for seed in (1, 2, 3):
        passed, detail, margin = sampled_radial_law(MisstatedLaw(1.0, 3.0), 0.5, seed)
        assert not passed and margin < 0.0, (seed, detail)


# --- random configs: the closed form never passes a row the oracle fails ---

_KINDS = ("zero", "uniform", "dipole", "abc")


def _random_config(rng, kind) -> FieldConfig:
    """A Coulomb-family potential with a field of `kind` and random recorded constants, some of them false."""
    gamma, c0 = rng.uniform(1.0, 4.0), 10.0 ** rng.uniform(-1.0, 2.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    c_B = 10.0 ** rng.uniform(-1.5, 0.5)
    magnetic = {
        "zero": ZeroField,
        "uniform": lambda: UniformField(c_B * 10.0 ** rng.uniform(-0.5, 0.3) * direction),
        "dipole": lambda: DipoleField(c_B * 10.0 ** rng.uniform(-1.0, 3.5) * direction),
        "abc": lambda: ABCField(*(c_B * rng.uniform(0.1, 1.0, size=3))),
    }[kind]()
    if rng.uniform() < 0.3:
        c_B = magnetic_ceiling(magnetic)  # as c_B = auto
    b, k = magnetic.envelope_law()
    beta = rng.uniform(0.05, 1.0) * gamma
    return FieldConfig(
        potential=GeneralizedCoulomb(c0, gamma),
        magnetic=magnetic,
        forcing=Forcing(rng.uniform(0.5, 2.0), c_B / rng.uniform(0.05, 1.2) * direction),
        eps0=rng.uniform(0.2, 2.0),
        c_B=c_B,
        c1=float(rng.choice([0.0, (b or 1.0) * 10.0 ** rng.uniform(-1.0, 1.0)])),
        beta=beta,
        eps1=rng.uniform(0.2, 2.0),
    )


def _disagreement(config, kind, row, closed) -> str:
    """Why the closed form fails a row the oracle passes; '' if no named reason holds."""
    if kind == "abc" and row in (CEILING, GROWTH):
        return "unattained sup"  # the ABC envelope is a sup bound that no point attains
    if row == GROWTH and closed.margin == -math.inf:
        # the power-law comparison  c r^-k <= bound_c r^-bound_k
        c, k, bound_c, bound_k, eps = (*config.magnetic.envelope_law(), config.c1, config.beta + 1.0, config.eps1)
        # the row fails on (0, r_star) only, and the oracle samples no radius below eps * NEAR_DEPTH
        r_star = (c / bound_c) ** (1.0 / (k - bound_k)) if bound_c > 0 else math.inf
        if r_star <= eps * NEAR_DEPTH * (1.0 + 1e-6):
            return "below the sampled radii"
    return ""


@pytest.mark.parametrize("kind", _KINDS)
def test_closed_form_rows_never_pass_what_the_oracle_fails(kind):
    rng = np.random.default_rng(100 + _KINDS.index(kind))
    # the rows whose outcome the random constants vary: a zero field passes the magnetic rows at any c_B and c1
    outcomes = {row: set() for row in ((DOMINATES,) if kind == "zero" else (CEILING, GROWTH, DOMINATES))}
    for i in range(60):
        config = _random_config(rng, kind)
        seed = 1000 + i
        # the radial law that every row and the certificate read is the gradient's, on a near-origin cloud
        law = sampled_radial_law(config.potential, config.eps0, seed)
        assert law[0], (i, law, config)
        oracle = sampled_hypotheses(config, seed)
        for row, closed in rows(config).items():
            passed = oracle[row][0]
            if row in outcomes:
                outcomes[row].add(closed.passed)
            if closed.passed:
                assert passed, (i, row, closed, oracle[row], config)
            elif passed:
                assert _disagreement(config, kind, row, closed), (i, row, closed, oracle[row], config)
    # the random constants are true for some configs and false for others
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes
