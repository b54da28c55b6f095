import dataclasses
import math

import numpy as np
import pytest

import lfe.certificate
import lfe.fields
from conftest import SEED, TabulatedPotential, coulomb_config, desk_config, pulsed_config
from lfe.certificate import (
    VERIFICATION_WIDTHS,
    CertificateError,
    InequalityFails,
    RadiusNotFound,
    clearance_formula,
    compute_R,
    compute_certificate,
    compute_epsilon,
    compute_lower_constants,
    compute_momentum_bound,
    verify_orbit,
)
from lfe.fields import (
    VALIDATION_WIDTHS,
    ABCField,
    CheckTable,
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    HypothesisCheck,
    UniformField,
    ZeroField,
    near_origin_constants,
    radial_powers,
    validate_hypotheses,
)
from sampled_checks import shell_maxima, sphere_directions


@pytest.fixture(scope="module")
def a5_cert():
    return compute_certificate(coulomb_config())


def test_radius_closed_form_coulomb(a5_cert):
    # hand threshold: c0 / R^2 < |mean h| - c_B = 1 fails at R = 1 (equality) and holds at R = 2
    assert a5_cert.R == 2.0
    assert 1.0 / a5_cert.R**2 < 1.0
    assert abs(math.log2(a5_cert.R / 1.0)) <= 1.0  # within one grid level of the hand value


def test_radius_requires_dominant_mean():
    config = coulomb_config(mean=(0.0, 0.0, 1.0), c_B=1.0)  # |mean h| == c_B
    with pytest.raises(CertificateError, match=r"^requires \|mean h\| > c_B, got 1 <= 1$"):
        compute_R(config)


def test_radius_monotone_in_c0():
    r1 = compute_R(coulomb_config(c0=1.0))
    r2 = compute_R(coulomb_config(c0=2.0))
    r4 = compute_R(coulomb_config(c0=4.0))
    assert r2 >= r1
    assert r4 > r1


def test_desk_radius_meets_the_dipole_ceiling_with_equality():
    # c_B = auto is the dipole's envelope at |q| = 1; |v x B| < |B| <= c_B there, as |v| < 1
    config = desk_config()
    assert DipoleField([0.0, 0.0, 0.1]).envelope(1.0) == config.c_B == 0.2
    assert compute_R(config) == 1.0


def test_epsilon_capped_by_config_radii():
    config = desk_config()  # eps0 = eps1 = 0.5 cap the grid
    eps, K2, C, m = compute_lower_constants(config, 1.0, l1=config.forcing.l1_norm())
    assert eps == 0.5
    assert K2 == abs(math.log(0.5))
    assert 0.0 < m < eps


def test_epsilon_uncapped_reaches_one(a5_cert):
    # no magnetic term: the halved-constant inequality holds everywhere
    assert a5_cert.epsilon == 1.0
    assert a5_cert.K2 == 0.0


def _epsilon_margin(config):
    """c0 r^-gamma - (c0/2 r^-1 + c1 r^-beta): -q . grad V of the Coulomb family against the inequality."""
    c0, gamma = config.potential.c0, config.potential.gamma
    return lambda r: c0 * r**-gamma - (0.5 * c0 / r + config.c1 * r**-config.beta)


def _first_grid_point_below_the_root(config):
    """The first point of epsilon's grid at or below the brentq root of the margin, or None below the grid."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    margin = _epsilon_margin(config)
    cap = min(config.eps0, config.eps1, 1.0)
    grid = [cap]
    for _ in range(131):
        grid.append(grid[-1] * 0.9)
    lo = grid[-1] * 0.5
    if margin(cap) >= 0.0:
        return cap
    if margin(lo) < 0.0:
        return None
    root = brentq(margin, lo, cap, xtol=1e-300, rtol=1e-15)
    return next((e for e in grid if e <= root), None)


def test_epsilon_against_scalar_threshold_oracle():
    """Independent oracle: solve the radial inequality margin for its root."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    dipole = DipoleField([0.0, 0.0, 1.0])  # c1 = 2, beta = 2
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=dipole,
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=10.0,
        c_B=2.1,
        c1=2.0,
        beta=2.0,
        eps1=10.0,
    )
    r_star = brentq(_epsilon_margin(config), 0.01, 1.0)
    eps, _, _, _ = compute_lower_constants(config, 2.0, l1=config.forcing.l1_norm())
    # the first grid point at or below the threshold
    assert eps == _first_grid_point_below_the_root(config)
    assert 0.9 * r_star < eps <= r_star


def test_epsilon_holds_between_the_grid_radii():
    # 1 >= 0.5 + 0.59 sqrt(r) up to r = (0.5/0.59)^2 = 0.718: the grid point 0.729 above it fails
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 1.0),
        magnetic=UniformField([0.0, 0.0, 0.05]),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=1.0,
        c_B=0.1,
        c1=0.59,
        beta=0.5,
        eps1=1.0,
    )
    eps = compute_certificate(config).epsilon
    assert eps == 0.6561000000000001  # 0.9^4 on the grid
    assert _epsilon_margin(config)(eps) >= 0.0
    assert _epsilon_margin(config)(0.7290000000000001) < 0.0


def test_epsilon_inequality_fails_for_strong_magnetic_singularity():
    dipole = DipoleField([0.0, 0.0, 0.1])
    c1, beta = near_origin_constants(dipole, 1.0)
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 1.0),  # beta = 2 >= gamma = 1
        magnetic=dipole,
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=1.0,
        c_B=0.2,
        c1=c1,
        beta=beta,
        eps1=1.0,
    )
    with pytest.raises(InequalityFails, match=r"beta = 2 exceeds the potential's gamma = 1"):
        compute_lower_constants(config, 2.0, l1=config.forcing.l1_norm())


def test_radius_not_found_names_the_threshold_the_sphere_and_the_cap():
    # zero field and |mean h| - c_B = 1e-200: |grad V| = 1/|q|^2 falls below it only near |q| = 1e100
    config = coulomb_config(mean=(0.0, 0.0, 1e-200), c_B=1e-300)
    assert config.magnetic == ZeroField()
    with pytest.raises(RadiusNotFound) as err:
        compute_R(config)
    assert str(err.value) == (
        "no radius up to the search cap 1e+06 satisfies the far-field conditions: at the largest "
        "grid radius, |q| = 524288, the envelope of |grad V| and c0/|q|^2 is 3.638e-12 against the "
        "threshold |mean h| - c_B = 1.000e-200 and the envelope of |B| is 0.000e+00 against "
        "c_B = 1.000e-300 (the fields may decay too slowly, or below the threshold only beyond the cap)"
    )


def _radius_window_by_window(config, seed):
    """The smallest 2^k whose spheres 2^k, ..., 2^(k+3) all pass, sampled, each window swept on its own."""
    dirs = sphere_directions(10, seed)
    threshold = float(np.linalg.norm(config.forcing.mean)) - config.c_B
    radius = 1.0
    while radius <= 1e6:
        radii = radius * np.array([1.0, 2.0, 4.0, 8.0])
        e, b = shell_maxima(radii, dirs, config.potential, config.magnetic, config.forcing.period)
        if b.max() < config.c_B and max(e.max(), (config.potential.c0 / radii**2).max()) < threshold:
            return radius
        radius *= 2.0
    return None


_RADIUS_CONFIGS = {
    "coulomb": coulomb_config(),
    "coulomb-c0-50": coulomb_config(c0=50.0),
    "coulomb-thin-margin": coulomb_config(c_B=1.999),
    "desk": desk_config(),
}


@pytest.mark.parametrize("name", list(_RADIUS_CONFIGS))
def test_radius_equals_the_window_by_window_search(name):
    config = _RADIUS_CONFIGS[name]
    assert compute_R(config) == _radius_window_by_window(config, SEED)


def _random_config(rng, kind):
    """A seeded random Coulomb-family config with a field of `kind` and near-origin constants beta < gamma."""
    gamma = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
    c0 = 10.0 ** rng.uniform(-1.0, 2.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    c_B = 10.0 ** rng.uniform(-1.5, 0.5)
    if kind == "zero":
        magnetic = ZeroField()
    elif kind == "uniform":
        magnetic = UniformField(c_B * 10.0 ** rng.uniform(-1.0, 0.3) * direction)
    elif kind == "dipole":
        magnetic = DipoleField(c_B * 10.0 ** rng.uniform(-1.0, 2.0) * direction)
    else:  # ABC with c_B at its sup (as c_B = auto), above it, or at a third of it, below its maximum
        magnetic = ABCField(*(c_B * rng.uniform(0.1, 1.0, size=3)))
        c_B = magnetic.sup / float(rng.choice([1.0, rng.uniform(0.5, 1.0), 3.0]))
    return FieldConfig(
        potential=GeneralizedCoulomb(c0, gamma),
        magnetic=magnetic,
        forcing=Forcing(rng.uniform(0.5, 2.0), c_B / rng.uniform(0.05, 0.95) * direction),
        eps0=rng.uniform(0.2, 2.0),
        c_B=c_B,
        c1=10.0 ** rng.uniform(-2.0, 1.0) * c0,
        beta=rng.uniform(0.05, 0.95) * gamma,
        eps1=rng.uniform(0.2, 2.0),
    )


_KINDS = ("zero", "uniform", "dipole", "abc")


@pytest.mark.parametrize("kind", _KINDS)
def test_closed_form_radius_and_epsilon_match_their_oracles(kind):
    rng = np.random.default_rng(_KINDS.index(kind))
    for i in range(12):
        config = _random_config(rng, kind)
        try:
            R = compute_R(config)
        except RadiusNotFound:
            R = None
        assert R == _radius_window_by_window(config, SEED), (i, config)
        expected = _first_grid_point_below_the_root(config)
        if expected is None:
            with pytest.raises(InequalityFails):
                compute_epsilon(config)
            continue
        eps = compute_epsilon(config)
        assert eps == expected, (i, config)
        assert _epsilon_margin(config)(eps) >= 0.0, (i, config)


@pytest.mark.parametrize("config", [desk_config(), coulomb_config()], ids=["desk", "light"])
def test_certificate_evaluates_no_field(monkeypatch, config):
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
    compute_certificate(config)
    assert calls == []
    # and the module binds no sampler and no sweep
    bound = vars(lfe.certificate)
    assert "shell_maxima" not in bound
    assert not [
        k for k, v in bound.items() if v is np.random or str(getattr(v, "__module__", "")).startswith("numpy.random")
    ]


def test_momentum_bound_closed_form(a5_cert):
    # Coulomb + constant forcing: H = 2/|q|^2, maximal at the inner radius
    m = a5_cert.m
    assert math.isclose(a5_cert.M, 2.0 / m**2, rel_tol=1e-3)
    assert math.isclose(a5_cert.L, 2.0 / m**2 + 4.0, rel_tol=1e-3)
    assert a5_cert.L >= 2.0 * a5_cert.l1_norm


def test_momentum_bound_grows_with_magnetic_field(a5_cert):
    config = coulomb_config()
    uniform = FieldConfig(
        potential=config.potential,
        magnetic=UniformField([0.0, 0.0, 0.1]),
        forcing=config.forcing,
        eps0=config.eps0,
        c_B=config.c_B,
        c1=0.1,
        beta=0.5,
        eps1=config.eps1,
    )
    M_b, _ = compute_momentum_bound(uniform, a5_cert.m, a5_cert.R, l1=uniform.forcing.l1_norm())
    assert M_b > a5_cert.M


@pytest.mark.parametrize(
    "m,outcome",
    [
        (0.0, (ValueError, r"^need 0 < m < R \+ T, got m=0.0, R\+T=3.0$")),
        (3.0, (ValueError, r"^need 0 < m < R \+ T, got m=3.0, R\+T=3.0$")),
        # a sampled |q|^-3 overflowed here, but M = c0 m^-2 + c0 m^-2 is finite
        (1e-120, 2e240),
        # m^2 underflows, so both terms of M overflow
        (1e-160, (CertificateError, r"^momentum bound M: \|grad V\| \+ c0/\|q\|\^2 \+ \|B\| at \|q\| = m = 1e-160 "
                  r"leaves the double range; the largest term is \|grad V\| = inf$")),
    ],
    ids=["m=0", "m=R+T", "M-overflows", "m^2-underflows"],
)
def test_momentum_bound_refuses_what_it_cannot_sample(m, outcome):
    # M is refused only where its closed form leaves the double range; no numpy warning
    # escapes either: the test configuration turns RuntimeWarning into an error
    config = coulomb_config()
    if not isinstance(outcome, tuple):
        assert compute_momentum_bound(config, m, 2.0, l1=0.0) == (outcome, outcome)
        return
    with pytest.raises(outcome[0], match=outcome[1]):
        compute_momentum_bound(config, m, 2.0, l1=config.forcing.l1_norm())


def _tabulated_coulomb_config():
    """The light scenario with its Coulomb potential given as callables, which have no envelope."""
    coulomb = GeneralizedCoulomb(1.0, 1.0)
    potential = TabulatedPotential(coulomb.value, lambda q: coulomb.gradient(q, radial_powers(q)[1]))
    return dataclasses.replace(coulomb_config(), potential=potential)


@pytest.mark.parametrize(
    "config,kind,lower",
    [
        (pulsed_config(1.0), "PulsedField", "C_gradV_B: a PulsedField has no closed-form envelope"),
        (_tabulated_coulomb_config(), "TabulatedPotential", "epsilon: a TabulatedPotential has no closed-form radial law"),
    ],
    ids=["magnetic", "potential"],
)
def test_a_field_kind_without_an_envelope_is_named_with_the_constant(config, kind, lower):
    # R is the first constant the certificate computes, so it names the kind first
    with pytest.raises(CertificateError, match=rf"^R: a {kind} has no closed-form envelope$"):
        compute_certificate(config)
    with pytest.raises(CertificateError, match=rf"^{lower}$"):
        compute_lower_constants(config, 1.0, l1=0.0)
    with pytest.raises(CertificateError, match=rf"^momentum bound M: a {kind} has no closed-form envelope$"):
        compute_momentum_bound(config, 0.1, 2.0, l1=0.0)


def test_clearance_underflow_names_m_and_its_largest_term():
    # terms K2 = 0, T/eps = 1, T C/c0_eff = 2, (R+T) l1/c0_eff = 2 * 2/0.005 = 800: exp(-803) = 0
    config = coulomb_config(c0=0.01)
    with pytest.raises(CertificateError) as err:
        compute_lower_constants(config, 1.0, l1=config.forcing.l1_norm())
    assert str(err.value) == (
        "clearance m: exp(-803) underflows to 0; the largest term of the exponent is (R+T)*l1/c0_eff = 800"
    )


@pytest.mark.parametrize(
    "change,match",
    [
        ({"M": math.inf}, "^certificate constants must be finite$"),
        ({"m": 0.0}, "^need 0 < m < epsilon <= upper"),
        ({"epsilon": 10.0}, "^need 0 < m < epsilon <= upper"),
        ({"L": 0.0}, "^momentum bound must be positive$"),
    ],
    ids=["M-inf", "m=0", "epsilon>upper", "L=0"],
)
def test_certificate_refuses_inconsistent_constants(a5_cert, change, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(a5_cert, **change)


def test_clearance_formula_reproducible(a5_cert):
    assert a5_cert.m == a5_cert.m_from_constants()


def test_clearance_hand_value(a5_cert):
    # K2 = 0, eps = 1, C = 1, l1 = 2, upper = 3, halved constant 0.5:
    # m = exp(-0 - 1 - 2 - 12) = e^-15
    assert math.isclose(a5_cert.m, math.exp(-15.0), rel_tol=1e-9)


def test_monotonicity_in_forcing_l1():
    base = coulomb_config()
    richer = FieldConfig(
        potential=base.potential,
        magnetic=base.magnetic,
        forcing=Forcing(
            1.0, [0.0, 0.0, 2.0], [Harmonic(2, [0.5, 0.0, 0.0], [0.0, 0.5, 0.0])]
        ),
        eps0=base.eps0,
        c_B=base.c_B,
        c1=base.c1,
        beta=base.beta,
        eps1=base.eps1,
    )
    cert_a = compute_certificate(base)
    cert_b = compute_certificate(richer)
    assert cert_b.l1_norm > cert_a.l1_norm
    assert cert_b.m < cert_a.m
    assert cert_b.L > cert_a.L
    # directly from the formula: inflating l1 alone shrinks the clearance
    inflated = clearance_formula(
        cert_a.K2, cert_a.period, cert_a.epsilon, cert_a.C_gradV_B,
        cert_a.c0_eff, cert_a.upper, cert_a.l1_norm * 2,
    )
    assert inflated < cert_a.m


def test_certificate_evaluates_the_forcing_l1_norm_once(monkeypatch):
    calls = []
    l1_norm = Forcing.l1_norm

    def counted(self):
        calls.append(self)
        return l1_norm(self)

    monkeypatch.setattr(Forcing, "l1_norm", counted)
    cert = compute_certificate(desk_config())
    assert len(calls) == 1
    assert cert.l1_norm == l1_norm(desk_config().forcing)


def test_interface_is_deformation_free():
    # the constants depend on the field configuration only; there is no
    # deformation-parameter argument to pass
    config = coulomb_config()
    with pytest.raises(TypeError):
        compute_R(config, lam=0.5)
    with pytest.raises(TypeError):
        compute_certificate(config, lam=0.5)


def test_certificate_invariants(desk_cert):
    assert 0.0 < desk_cert.m < desk_cert.epsilon <= desk_cert.upper
    assert desk_cert.L > 0.0
    assert desk_cert.m == desk_cert.m_from_constants()


def test_verify_equilibrium_orbit(desk_start, desk_cert):
    report = verify_orbit(desk_start, desk_cert)
    assert report.passed, report.lines(*VERIFICATION_WIDTHS)
    assert all(e.margin > 0 for e in report.checks)


def test_verify_flags_synthetic_violation(desk_path, desk_cert):
    # plant one node at half the certified clearance in the converged desk orbit
    orbit = desk_path.final
    states = orbit.trajectory.states.copy()
    states[len(states) // 2, :3] = [desk_cert.m / 2.0, 0.0, 0.0]
    planted = dataclasses.replace(orbit, flow=lambda: dataclasses.replace(orbit.trajectory, states=states))
    report = verify_orbit(planted, desk_cert)
    assert not report.passed
    assert len(report.checks) == 6
    assert [e.name for e in report.checks if not e.passed] == ["clearance"]
    entry = {e.name: e for e in report.checks}["clearance"]
    assert entry.margin < 0.0


def test_verify_final_desk_orbit(desk_path, desk_cert):
    report = verify_orbit(desk_path.final, desk_cert)
    assert report.passed, report.lines(*VERIFICATION_WIDTHS)


def test_validation_and_verification_print_one_check_table_in_their_own_widths():
    checks = (
        HypothesisCheck("clearance", True, "min |q| = 0.7", 0.25),
        HypothesisCheck("virial", False, "virial_lhs = 1", -1.5e-7),
    )
    assert CheckTable(checks).lines(*VALIDATION_WIDTHS) == [
        "pass  clearance                       margin= 2.500e-01  min |q| = 0.7",
        "FAIL  virial                          margin=-1.500e-07  virial_lhs = 1",
        "overall: FAIL",
    ]
    assert CheckTable(checks[:1]).lines(*VERIFICATION_WIDTHS) == [
        "pass  clearance           margin= 2.500000e-01  min |q| = 0.7",
        "overall: pass",
    ]


def test_every_row_name_fits_its_table_width(desk_start, desk_cert):
    # the validation column is as wide as its longest row name, so every margin= lines up
    validation = validate_hypotheses(desk_config())
    assert max(len(c.name) for c in validation.checks) == VALIDATION_WIDTHS[0]
    verification = verify_orbit(desk_start, desk_cert)
    assert max(len(c.name) for c in verification.checks) <= VERIFICATION_WIDTHS[0]
