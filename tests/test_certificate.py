import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import lfe.certificate
from conftest import SEED, PlantedCoulomb, TabulatedPotential, coulomb_config, desk_config, pulsed_config
from lfe.certificate import (
    CertificateError,
    InequalityFails,
    RadiusNotFound,
    VerificationReport,
    clearance_formula,
    compute_R,
    compute_certificate,
    compute_lower_constants,
    compute_momentum_bound,
    verify_orbit,
)
from lfe.fields import (
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    HypothesisCheck,
    UniformField,
    ValidationReport,
    ZeroField,
    radial_powers,
    shell_maxima,
)
from lfe.sampling import log_radii, shells, sphere_directions


@pytest.fixture(scope="module")
def a5_cert():
    return compute_certificate(coulomb_config(), seed=SEED)


def test_radius_closed_form_coulomb(a5_cert):
    # hand threshold: c0 / R^2 < |mean h| - c_B = 1 at R = 1; grid certifies
    # the first power of two at which the sampled sphere values pass strictly
    assert a5_cert.R == 2.0
    assert 1.0 / a5_cert.R**2 < 1.0
    assert abs(math.log2(a5_cert.R / 1.0)) <= 1.0  # within one grid level of the hand value


def test_radius_requires_dominant_mean():
    config = coulomb_config(mean=(0.0, 0.0, 1.0), c_B=1.0)  # |mean h| == c_B
    with pytest.raises(ValueError):
        compute_R(config, seed=SEED)


def test_radius_monotone_in_c0():
    r1 = compute_R(coulomb_config(c0=1.0), seed=SEED)
    r2 = compute_R(coulomb_config(c0=2.0), seed=SEED)
    r4 = compute_R(coulomb_config(c0=4.0), seed=SEED)
    assert r2 >= r1
    assert r4 > r1


def test_epsilon_capped_by_config_radii():
    config = desk_config()  # eps0 = eps1 = 0.5 cap the grid
    eps, K2, C, m = compute_lower_constants(config, 1.0, seed=SEED, l1=config.forcing.l1_norm())
    assert eps == 0.5
    assert K2 == abs(math.log(0.5))
    assert 0.0 < m < eps


def test_epsilon_uncapped_reaches_one(a5_cert):
    # no magnetic term: the halved-constant inequality holds everywhere
    assert a5_cert.epsilon == 1.0
    assert a5_cert.K2 == 0.0


def test_epsilon_against_scalar_threshold_oracle():
    """Independent oracle: solve the radial inequality margin for its root."""
    dipole = DipoleField([0.0, 0.0, 1.0])  # c1 = 2, beta = 2
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=dipole,
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        c0=1.0,
        gamma=3.0,
        eps0=10.0,
        c_B=2.1,
        c1=2.0,
        beta=2.0,
        eps1=10.0,
    )

    def margin(r):
        return r**-3.0 - (0.5 * r**-1.0 + 2.0 * r**-2.0)

    r_star = brentq(margin, 0.01, 1.0)
    eps, _, _, _ = compute_lower_constants(config, 2.0, seed=SEED, l1=config.forcing.l1_norm())
    # sampled grid resolves the threshold to within its own spacing
    assert 0.9 * r_star <= eps <= 1.13 * r_star


def test_epsilon_inequality_fails_for_strong_magnetic_singularity():
    dipole = DipoleField([0.0, 0.0, 0.1])
    c1, beta = dipole.near_origin(1.0)
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 1.0),  # beta = 2 >= gamma = 1
        magnetic=dipole,
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        c0=1.0,
        gamma=1.0,
        eps0=1.0,
        c_B=0.2,
        c1=c1,
        beta=beta,
        eps1=1.0,
    )
    with pytest.raises(InequalityFails):
        compute_lower_constants(config, 2.0, seed=SEED, l1=config.forcing.l1_norm())


def test_radius_compares_against_the_field_at_every_time():
    # |B| peaks at 0.8 at t = T/4 and vanishes at t = 0: a c_B of 0.5 holds at t = 0 only
    assert compute_R(pulsed_config(1.0), seed=SEED) == 2.0
    with pytest.raises(RadiusNotFound):
        compute_R(pulsed_config(0.5), seed=SEED)


def test_radius_not_found_names_the_threshold_the_sphere_and_the_cap():
    # zero field and |mean h| - c_B = 1e-200: |grad V| = 1/|q|^2 falls below it only near |q| = 1e100
    config = coulomb_config(mean=(0.0, 0.0, 1e-200), c_B=1e-300)
    assert config.magnetic == ZeroField()
    with pytest.raises(RadiusNotFound) as err:
        compute_R(config, seed=SEED)
    assert str(err.value) == (
        "no radius up to the search cap 1e+06 satisfies the far-field conditions: on the largest "
        "sphere sampled, |q| = 524288, max |grad V| = 3.638e-12 against the threshold "
        "|mean h| - c_B = 1.000e-200 and max |B| = 0.000e+00 against c_B = 1.000e-300 "
        "(the fields may decay too slowly, or below the threshold only beyond the cap)"
    )


@dataclasses.dataclass(frozen=True)
class _SphereSpike:
    """|B| = value on the shell 3.5 < |q| < 4.5, which holds the sphere |q| = 4 of compute_R, and 0 elsewhere."""

    value: float

    def eval(self, t, q, rad):
        out = np.zeros(np.shape(q))
        out[..., 2] = np.where(np.abs(np.linalg.norm(q, axis=-1) - 4.0) < 0.5, self.value, 0.0)
        return out


def _radius_window_by_window(config, seed):
    """The smallest 2^k whose spheres 2^k, ..., 2^(k+3) all pass, each window swept on its own."""
    dirs = sphere_directions(10, seed)
    threshold = float(np.linalg.norm(config.forcing.mean)) - config.c_B
    radius = 1.0
    while radius <= 1e6:
        radii = radius * np.array([1.0, 2.0, 4.0, 8.0])
        e, b = shell_maxima(radii, dirs, config.potential, config.magnetic, config.forcing.period)
        if b.max() < config.c_B and max(e.max(), (config.c0 / radii**2).max()) < threshold:
            return radius
        radius *= 2.0
    return None


_RADIUS_CONFIGS = {
    "coulomb": coulomb_config(),
    "coulomb-c0-50": coulomb_config(c0=50.0),
    "coulomb-thin-margin": coulomb_config(c_B=1.999),
    "desk": desk_config(),
    "pulsed": pulsed_config(1.0),
    "spike": dataclasses.replace(coulomb_config(), magnetic=_SphereSpike(2.0)),
    "nan-spike": dataclasses.replace(coulomb_config(), magnetic=_SphereSpike(math.nan)),
}


@pytest.mark.parametrize("name", list(_RADIUS_CONFIGS))
def test_radius_equals_the_window_by_window_search(name):
    config = _RADIUS_CONFIGS[name]
    assert compute_R(config, seed=SEED) == _radius_window_by_window(config, SEED)


@pytest.mark.parametrize(
    "name,radius,sweeps",
    [
        ("coulomb", 2.0, [[1.0, 2.0, 4.0, 8.0], [16.0]]),
        # sphere 4 fails, so the radii 1, 2 and 4 are skipped in one step
        ("spike", 8.0, [[1.0, 2.0, 4.0, 8.0], [16.0, 32.0, 64.0]]),
        ("nan-spike", 8.0, [[1.0, 2.0, 4.0, 8.0], [16.0, 32.0, 64.0]]),
    ],
)
def test_radius_samples_each_sphere_once(monkeypatch, name, radius, sweeps):
    seen = []

    def recording(radii, *args, **kwargs):
        seen.append([float(r) for r in radii])
        return shell_maxima(radii, *args, **kwargs)

    monkeypatch.setattr(lfe.certificate, "shell_maxima", recording)
    assert compute_R(_RADIUS_CONFIGS[name], seed=SEED) == radius
    assert seen == sweeps
    flat = [r for sweep in seen for r in sweep]
    assert len(flat) == len(set(flat))


def test_epsilon_scan_sees_a_failing_direction_next_to_a_nan():
    # the scan's own cloud: 160 radii under cap = 1 and 2^6 directions
    radii, dirs = log_radii(1e-8, 1.0, 160), sphere_directions(6, SEED)
    cloud = shells(radii, dirs)
    r_star = radii[150]
    potential = PlantedCoulomb(cloud[150 * len(dirs) + 3], cloud[150 * len(dirs) + 7])
    config = FieldConfig(
        potential=potential,
        magnetic=ZeroField(),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        c0=1.0,
        gamma=1.0,
        eps0=1.0,
        c_B=1.0,
        c1=0.0,
        beta=0.5,
        eps1=1.0,
    )
    eps, _, _, _ = compute_lower_constants(config, 2.0, seed=SEED, l1=config.forcing.l1_norm())
    # everywhere else -q.grad V = 1/|q| clears c0/2 |q|^-1, so r_star is the first failure
    assert 0.9 * r_star < eps <= r_star


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
        c0=config.c0,
        gamma=config.gamma,
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
    "config,kind",
    [(pulsed_config(1.0), "PulsedField"), (_tabulated_coulomb_config(), "TabulatedPotential")],
    ids=["magnetic", "potential"],
)
def test_a_field_kind_without_an_envelope_is_named_with_the_constant(config, kind):
    with pytest.raises(CertificateError, match=rf"^C_gradV_B: a {kind} has no closed-form envelope$"):
        compute_certificate(config, seed=SEED)
    with pytest.raises(CertificateError, match=rf"^momentum bound M: a {kind} has no closed-form envelope$"):
        compute_momentum_bound(config, 0.1, 2.0, l1=0.0)


def test_clearance_underflow_names_m_and_its_largest_term():
    # terms K2 = 0, T/eps = 1, T C/c0_eff = 2, (R+T) l1/c0_eff = 2 * 2/0.005 = 800: exp(-803) = 0
    config = coulomb_config(c0=0.01)
    with pytest.raises(CertificateError) as err:
        compute_lower_constants(config, 1.0, seed=SEED, l1=config.forcing.l1_norm())
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
        c0=base.c0,
        gamma=base.gamma,
        eps0=base.eps0,
        c_B=base.c_B,
        c1=base.c1,
        beta=base.beta,
        eps1=base.eps1,
    )
    cert_a = compute_certificate(base, seed=SEED)
    cert_b = compute_certificate(richer, seed=SEED)
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
    cert = compute_certificate(desk_config(), seed=SEED)
    assert len(calls) == 1
    assert cert.l1_norm == l1_norm(desk_config().forcing)


def test_interface_is_deformation_free():
    # the constants depend on the field configuration only; there is no
    # deformation-parameter argument to pass
    config = coulomb_config()
    with pytest.raises(TypeError):
        compute_R(config, lam=0.5, seed=SEED)
    with pytest.raises(TypeError):
        compute_certificate(config, lam=0.5, seed=SEED)


def test_certificate_invariants(desk_cert):
    assert 0.0 < desk_cert.m < desk_cert.epsilon <= desk_cert.upper
    assert desk_cert.L > 0.0
    assert desk_cert.m == desk_cert.m_from_constants()


def test_verify_equilibrium_orbit(desk_start, desk_cert):
    report = verify_orbit(desk_start, desk_cert)
    assert report.passed, report.lines()
    assert all(e.margin > 0 for e in report.entries)


def test_verify_flags_synthetic_violation(desk_path, desk_cert):
    # plant one node at half the certified clearance in the converged desk orbit
    orbit = desk_path.final
    states = orbit.trajectory.states.copy()
    states[len(states) // 2, :3] = [desk_cert.m / 2.0, 0.0, 0.0]
    planted = dataclasses.replace(orbit, trajectory=dataclasses.replace(orbit.trajectory, states=states))
    report = verify_orbit(planted, desk_cert)
    assert not report.passed
    assert len(report.entries) == 6
    assert [e.name for e in report.entries if not e.passed] == ["clearance"]
    entry = {e.name: e for e in report.entries}["clearance"]
    assert entry.margin < 0.0


def test_verify_final_desk_orbit(desk_path, desk_cert):
    report = verify_orbit(desk_path.final, desk_cert)
    assert report.passed, report.lines()


def test_validation_and_verification_print_one_check_table_in_their_own_widths():
    checks = (
        HypothesisCheck("clearance", True, "min |q| = 0.7", 0.25),
        HypothesisCheck("virial", False, "virial_lhs = 1", -1.5e-7),
    )
    assert ValidationReport(checks, seed=7).lines() == [
        "pass  clearance                     margin= 2.500e-01  min |q| = 0.7",
        "FAIL  virial                        margin=-1.500e-07  virial_lhs = 1",
        "overall: FAIL  (seed=7; sampled, not proven)",
    ]
    assert VerificationReport(checks[:1]).lines() == [
        "pass  clearance           margin= 2.500000e-01  min |q| = 0.7",
        "overall: pass",
    ]
