import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import PlantedCoulomb, coulomb_config, desk_config, pulsed_config
from lfe.certificate import compute_R
from lfe.fields import (
    ABCField,
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    SingularityError,
    TabulatedPotential,
    UniformField,
    ZeroField,
    magnetic_ceiling,
    radial_powers,
    shell_maxima,
    validate_hypotheses,
)
from lfe.sampling import log_radii, shells, sphere_directions

VALIDATION_SEED = 20240801


def fd_gradient(potential, q, step=1e-6):
    g = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        g[i] = (potential.value(q + e) - potential.value(q - e)) / (2 * step)
    return g


def gradient(potential, q):
    return potential.gradient(*radial_powers(q))


def test_radial_powers():
    q, (s, s3) = radial_powers([[0.0, 0.0, 2.0], [3.0, 0.0, 4.0]])
    assert q.dtype == float
    assert np.array_equal(s, [[0.25], [0.04]])
    assert np.array_equal(s3, [[0.125], [0.008]])
    _, (s, s3) = radial_powers([0.0, 2.0, 0.0])
    assert s.shape == s3.shape == (1,)


def test_coulomb_gradient_closed_form():
    pot = GeneralizedCoulomb(1.0, 1.0)
    assert np.allclose(gradient(pot, [1.0, 0.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(gradient(pot, [0.0, 0.0, 2.0]), [0.0, 0.0, -0.25], atol=1e-15)


@pytest.mark.parametrize(
    "potential",
    [
        GeneralizedCoulomb(1.0, 1.0),
        GeneralizedCoulomb(2.0, 2.5),
        GeneralizedCoulomb(0.7, 3.0),
        TabulatedPotential(
            lambda q: float(np.exp(-np.dot(q, q))),
            lambda q: -2.0 * q * float(np.exp(-np.dot(q, q))),
        ),
    ],
)
def test_gradient_matches_finite_differences(potential):
    rng = np.random.default_rng(21)
    for _ in range(1000):
        q = rng.normal(size=3)
        r = np.linalg.norm(q)
        if r < 0.3:
            q *= 0.3 / r
        assert np.abs(gradient(potential, q) - fd_gradient(potential, q)).max() <= 1e-5


def test_tabulated_fd_fallback():
    pot = TabulatedPotential(lambda q: float(np.dot(q, q)))
    q = np.array([0.7, -0.2, 1.1])
    assert np.abs(gradient(pot, q) - 2 * q).max() <= 1e-8


def test_radial_identity_exact():
    rng = np.random.default_rng(22)
    for c0, gamma in [(1.0, 1.0), (2.0, 3.0), (0.5, 2.2)]:
        pot = GeneralizedCoulomb(c0, gamma)
        for _ in range(200):
            q = rng.normal(size=3)
            q *= rng.uniform(0.1, 10.0) / np.linalg.norm(q)
            r = np.linalg.norm(q)
            val = np.dot(q, gradient(pot, q))
            assert math.isclose(val, -c0 * r**-gamma, rel_tol=1e-12)


def test_gradient_singular_at_origin():
    with pytest.raises(SingularityError):
        GeneralizedCoulomb(1.0, 1.0).gradient(*radial_powers([0.0, 0.0, 0.0]))
    with pytest.raises(SingularityError):
        DipoleField([0.0, 0.0, 1.0]).eval(0.0, *radial_powers([0.0, 0.0, 0.0]))
    with pytest.raises(SingularityError):
        GeneralizedCoulomb(1.0, 1.0).value([0.0, 0.0, 0.0])


def test_dipole_values():
    d = DipoleField([0.0, 0.0, 1.0])
    # perpendicular to the moment: 3q(mu.q) term vanishes
    assert np.allclose(d.eval(0.0, *radial_powers([1.0, 0.0, 0.0])), [0.0, 0.0, -1.0], atol=1e-15)
    # on the axis: 3*mu - mu
    assert np.allclose(d.eval(0.0, *radial_powers([0.0, 0.0, 1.0])), [0.0, 0.0, 2.0], atol=1e-15)


def test_dipole_bound():
    d = DipoleField([0.3, -0.2, 0.9])
    c1, beta = d.bound_constants()
    assert math.isclose(c1, 2 * np.linalg.norm(d.moment))
    assert beta == 2.0
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        q = rng.normal(size=3)
        q *= rng.uniform(0.05, 20.0) / np.linalg.norm(q)
        r = np.linalg.norm(q)
        assert np.linalg.norm(d.eval(0.0, *radial_powers(q))) <= c1 / r**3 * (1 + 1e-12)


def test_abc_values_and_bound():
    f = ABCField(1.0, 1.0, 1.0)
    # bounded fields ignore the radial data, so the origin is allowed
    assert np.allclose(f.eval(0.0, [0.0, 0.0, 0.0], None), [1.0, 1.0, 1.0], atol=1e-15)
    g = ABCField(0.7, -1.3, 0.4)
    bound = g.sup_bound()
    rng = np.random.default_rng(24)
    for _ in range(2000):
        q = rng.uniform(-10, 10, size=3)
        assert np.linalg.norm(g.eval(0.0, q, None)) <= bound + 1e-12


def test_uniform_and_zero_fields():
    assert np.array_equal(ZeroField().eval(0.3, [1.0, 2.0, 3.0], None), np.zeros(3))
    assert np.array_equal(UniformField([0, 0, 2.0]).eval(0.3, [1.0, 2.0, 3.0], None), [0, 0, 2.0])


def _gauss(q):
    return float(np.exp(-np.dot(q, q)))


def _point_functions(field, singular):
    """value and gradient of a potential, or q -> B(t, q) of a magnetic field.

    A singular field takes its radial data from `radial_powers`, as every
    caller does; a bounded magnetic field ignores it, so it gets None.
    """
    if hasattr(field, "gradient"):
        return [field.value, lambda q: gradient(field, q)]
    if singular:
        return [lambda q: field.eval(0.3, *radial_powers(q))]
    return [lambda q: field.eval(0.3, q, None)]


@pytest.mark.parametrize(
    "field, singular",
    [
        pytest.param(GeneralizedCoulomb(1.0, 1.0), True, id="coulomb-gamma1"),
        pytest.param(GeneralizedCoulomb(0.7, 3.0), True, id="coulomb-gamma3"),
        pytest.param(TabulatedPotential(_gauss, lambda q: -2.0 * q * _gauss(q)), True, id="tabulated"),
        pytest.param(TabulatedPotential(_gauss), True, id="tabulated-fd"),
        pytest.param(ZeroField(), False, id="zero"),
        pytest.param(UniformField([0.1, -0.2, 2.0]), False, id="uniform"),
        pytest.param(DipoleField([0.3, -0.2, 0.9]), True, id="dipole"),
        pytest.param(ABCField(0.7, -1.3, 0.4), False, id="abc"),
    ],
)
def test_cloud_equals_stacked_points(field, singular):
    rng = np.random.default_rng(26)
    cloud = rng.normal(size=(64, 3)) * np.exp(rng.uniform(-8.0, 8.0, size=(64, 1)))
    with_origin = cloud.copy()
    with_origin[17] = 0.0
    for evaluate in _point_functions(field, singular):
        assert np.array_equal(evaluate(cloud), np.array([evaluate(q) for q in cloud]))
        if singular:
            with pytest.raises(SingularityError):
                evaluate(with_origin)
        else:
            assert np.array_equal(evaluate(with_origin), np.array([evaluate(q) for q in with_origin]))


def test_forcing_constant_stats():
    f = Forcing(1.0, [2.0, 0.0, 0.0])
    assert np.array_equal(f.mean, [2.0, 0.0, 0.0])
    assert f.l1_norm() == 2.0


def test_forcing_pure_sine_stats():
    f = Forcing(1.0, [0.0, 0.0, 0.0], [Harmonic(1, [0, 0, 0], [1.0, 0, 0])])
    assert np.array_equal(f.mean, np.zeros(3))
    assert math.isclose(f.l1_norm(), 2.0 / math.pi, rel_tol=1e-8)


def test_forcing_mean_is_exact_readoff():
    f = Forcing(
        2.0,
        [2.0, 0.0, 0.0],
        [Harmonic(1, [0.4, 1.0, 0.0], [0.0, -0.3, 2.0]), Harmonic(3, [0, 0.2, 0], [1, 0, 0])],
    )
    assert np.array_equal(f.mean, [2.0, 0.0, 0.0])
    # quadrature oracle for the mean
    for i in range(3):
        avg = quad(lambda t: f.eval(t)[i], 0.0, f.period, limit=200)[0] / f.period
        assert math.isclose(avg, f.mean[i], abs_tol=1e-10)


def test_forcing_l1_oracle_mixed():
    f = Forcing(1.0, [0.0, 0.0, 2.0], [Harmonic(1, [0.1, 0, 0], [0, 0, 0])])
    oracle = quad(lambda t: np.linalg.norm(f.eval(t)), 0.0, 1.0, limit=200)[0]
    assert math.isclose(f.l1_norm(), oracle, rel_tol=1e-8)


@pytest.mark.parametrize(
    "forcing",
    [
        # h passes through 0 at t = 0.25 and 0.75 (|h| has kinks where the rule cannot see them)
        Forcing(1.0, [0.0, 0.0, 0.0], [Harmonic(1, [1.0, 0, 0], [0, 0, 0])]),
        # zeros of h off every dyadic point, from a shifted third harmonic
        Forcing(1.0, [0.3, 0.0, 0.0], [Harmonic(3, [1.0, 0, 0], [0.4, 0, 0])]),
        Forcing(
            2.0,
            [2.0, 0.0, 0.0],
            [Harmonic(1, [0.4, 1.0, 0.0], [0.0, -0.3, 2.0]), Harmonic(3, [0, 0.2, 0], [1, 0, 0])],
        ),
    ],
    ids=["kink-on-grid", "kink-off-grid", "smooth"],
)
def test_forcing_l1_matches_adaptive_quadrature(forcing):
    oracle = quad(
        lambda t: np.linalg.norm(forcing.eval(t)), 0.0, forcing.period, epsabs=1e-14, epsrel=1e-10, limit=400
    )[0]
    assert math.isclose(forcing.l1_norm(), oracle, rel_tol=1e-8)


def test_forcing_takes_one_time_per_row():
    f = Forcing(
        2.0, [2.0, 0.0, 0.0], [Harmonic(1, [0.4, 1.0, 0.0], [0.0, -0.3, 2.0]), Harmonic(3, [0, 0.2, 0], [1, 0, 0])]
    )
    times = np.random.default_rng(5).uniform(-3.0, 3.0, size=50)
    assert f.eval(0.7).shape == (3,)
    assert np.array_equal(f.eval(times), [f.eval(t) for t in times])


def test_validate_passes_on_desk_scenario():
    report = validate_hypotheses(desk_config(), seed=VALIDATION_SEED)
    assert report.passed, report.lines()
    assert report.note == "sampled, not proven"


def test_validate_flags_singularity_order():
    # plain Coulomb with a dipole: the magnetic singularity is too strong
    dipole = DipoleField([0.0, 0.0, 0.1])
    c1, beta = dipole.bound_constants()
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 1.0),
        magnetic=dipole,
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        c0=1.0,
        gamma=1.0,
        eps0=1.0,
        c_B=0.2,
        c1=c1,
        beta=beta,
        eps1=0.5,
    )
    report = validate_hypotheses(config, seed=VALIDATION_SEED)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "beta-below-gamma" in failed


def test_validate_flags_equal_mean_and_ceiling():
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=ZeroField(),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        c0=1.0,
        gamma=3.0,
        eps0=0.5,
        c_B=2.0,  # exactly |mean h|
        c1=0.0,
        beta=1.5,
        eps1=0.5,
    )
    report = validate_hypotheses(config, seed=VALIDATION_SEED)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "mean-forcing-dominates-ceiling" in failed


def test_validate_is_reproducible():
    a = validate_hypotheses(desk_config(), seed=7)
    b = validate_hypotheses(desk_config(), seed=7)
    assert [c.margin for c in a.checks] == [c.margin for c in b.checks]


def test_magnetic_ceiling_dipole_sharp():
    assert math.isclose(magnetic_ceiling(DipoleField([0, 0, 0.1]), period=1.0, seed=VALIDATION_SEED), 0.2, rel_tol=1e-12)


def _abc_config(c_B: float) -> FieldConfig:
    return FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=ABCField(0.1, 0.05, 0.03),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        c0=1.0,
        gamma=3.0,
        eps0=1.0,
        c_B=c_B,
        c1=0.3,
        beta=1e-3,
        eps1=1.0,
    )


def test_magnetic_ceiling_of_an_abc_field_passes_the_checks_on_every_seed():
    # a sampled maximum lies below the sup, so other seeds' samples can exceed it
    abc = ABCField(0.1, 0.05, 0.03)
    for seed in range(40):
        c_B = magnetic_ceiling(abc, period=1.0, seed=seed)
        assert c_B == abc.sup_bound()
        config = _abc_config(c_B)
        checks = {c.name: c for c in validate_hypotheses(config, seed=seed).checks}
        assert checks["magnetic-ceiling-at-infinity"].passed, seed
        assert compute_R(config, seed=seed) == 1.0, seed


def test_magnetic_ceiling_of_a_uniform_field_is_refused():
    # |B| = 0.1 at every sample: no c_B equal to the sup passes the strict ceiling check
    for seed in range(40):
        with pytest.raises(ValueError, match=r"^c_B = auto: a uniform field has \|B\| = 0.1 everywhere"):
            magnetic_ceiling(UniformField([0.0, 0.0, 0.1]), period=1.0, seed=seed)
    assert magnetic_ceiling(UniformField([0.0, 0.0, 0.0]), period=1.0, seed=0) == 0.0


def test_config_rejects_nonpositive_constants():
    with pytest.raises(ValueError):
        GeneralizedCoulomb(-1.0, 1.0)
    with pytest.raises(ValueError):
        GeneralizedCoulomb(1.0, 0.5)
    with pytest.raises(ValueError):
        Forcing(0.0, [1, 0, 0])
    with pytest.raises(ValueError, match="^harmonic index must be >= 1$"):
        Harmonic(0, [0.1, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="^mean is too large"):
        Forcing(1.0, [0, 0, 1e250])
    with pytest.raises(ValueError, match="^gamma must be >= 1$"):
        dataclasses.replace(coulomb_config(), gamma=0.5)
    with pytest.raises(ValueError):
        FieldConfig(
            potential=GeneralizedCoulomb(1.0, 1.0),
            magnetic=ZeroField(),
            forcing=Forcing(1.0, [0, 0, 2]),
            c0=1.0,
            gamma=1.0,
            eps0=1.0,
            c_B=1.0,
            c1=-0.1,
            beta=0.5,
            eps1=1.0,
        )


def test_sweeps_read_every_time_of_the_grid():
    # |B| is 0.8 at t = T/4 and 0 at t = 0: a sweep of t = 0 alone would see no field
    assert magnetic_ceiling(pulsed_config(1.0).magnetic, period=1.0, seed=VALIDATION_SEED) == 0.8
    report = validate_hypotheses(pulsed_config(0.5), seed=VALIDATION_SEED)
    ceiling = {c.name: c for c in report.checks}["magnetic-ceiling-at-infinity"]
    assert not ceiling.passed
    assert ceiling.detail == "max |B| on far spheres = 8.000e-01 vs c_B = 0.5"
    assert ceiling.margin == 0.5 - 0.8


def _bump(q, centre):
    """1 at `centre`, 0 (underflowed) one sample spacing away."""
    return np.exp(-np.sum((q - centre) ** 2, axis=-1) / 1e-4)


@dataclass(frozen=True)
class _PlantedField:
    """A smooth field with a peak of |B| about 4 at q = centre, t = t_peak."""

    centre: np.ndarray
    t_peak: float

    def eval(self, t, q, rad):
        smooth = np.stack([np.cos(t) * q[..., 1], q[..., 2] ** 2 / 4, np.sin(t + q[..., 0])], axis=-1)
        return smooth + 3.0 * (_bump(q, self.centre) * np.exp(-((t - self.t_peak) ** 2) / 1e-4))[..., None]


def test_shell_maxima_match_a_brute_force_loop():
    radii, dirs, period = np.array([0.5, 1.0, 2.0]), sphere_directions(4, 5), 2.0
    cloud = shells(radii, dirs)
    centre = cloud[len(dirs) + 6]  # the planted maximum: radius 1, direction 6, t = 3T/4
    potential = TabulatedPotential(
        lambda q: 0.0, lambda q: np.array([np.sin(q[0]), q[1] * q[2], 0.5]) + 4.0 * _bump(q, centre) * q
    )
    magnetic = _PlantedField(centre, 0.75 * period)
    gv, b = shell_maxima(radii, dirs, potential, magnetic, period)
    qv, none = shell_maxima(radii, dirs, potential, radial=True)
    assert none is None

    def norm(v):
        return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])

    for i in range(len(radii)):
        gv_i = qv_i = b_i = -math.inf
        for q in cloud[i * len(dirs) : (i + 1) * len(dirs)]:
            g = potential.gradient(q, None)
            gv_i = max(gv_i, norm(g))
            qv_i = max(qv_i, q[0] * g[0] + q[1] * g[1] + q[2] * g[2])
            for t in [0.0, 0.25 * period, 0.5 * period, 0.75 * period, period]:
                b_i = max(b_i, norm(magnetic.eval(t, q, None)))
        assert (gv[i], qv[i], b[i]) == (gv_i, qv_i, b_i)
    # the planted point holds the maximum of its sphere, at its time
    assert b[1] == norm(magnetic.eval(0.75 * period, centre, None)) > 3.0
    assert gv[1] == norm(potential.gradient(centre, None)) > gv[0]


def test_shell_maxima_nan_samples():
    # q.grad V = -1/|q| on both spheres, except NaN and 0 at two points of the second
    radii, dirs = np.array([1.0, 2.0]), sphere_directions(3, 5)
    cloud = shells(radii, dirs)
    potential = PlantedCoulomb(cloud[len(dirs) + 1], cloud[len(dirs) + 4])
    v, _ = shell_maxima(radii, dirs, potential, radial=True)
    assert v[0] == pytest.approx(-1.0) and math.isnan(v[1])
    # skipped, the NaN does not hide the largest sample on its sphere
    v, _ = shell_maxima(radii, dirs, potential, radial=True, skip_nan=True)
    assert v[0] == pytest.approx(-1.0) and v[1] == 0.0


def test_validate_fails_a_nan_sample():
    # one point of the near-origin cloud of the repulsion-rate check
    radii, dirs = log_radii(1e-4, 1.0 - 1e-9, 64), sphere_directions(6, VALIDATION_SEED)
    nan_q = shells(radii, dirs)[10 * len(dirs) + 3]
    nowhere = np.full(3, np.inf)
    for planted, fails in [(PlantedCoulomb(nowhere, nowhere), False), (PlantedCoulomb(nan_q, nowhere), True)]:
        config = dataclasses.replace(coulomb_config(), potential=planted)
        check = {c.name: c for c in validate_hypotheses(config, seed=VALIDATION_SEED).checks}
        rate = check["repulsion-rate-near-origin"]
        assert rate.passed is not fails and math.isnan(rate.margin) is fails


@dataclass(frozen=True)
class _NanAtQuarterPeriod:
    """B = 0, except NaN everywhere at t = 1/4."""

    def eval(self, t, q, rad):
        return np.full(np.shape(q), np.nan if t == 0.25 else 0.0)


def test_validate_fails_a_nan_field_at_a_later_time():
    config = dataclasses.replace(coulomb_config(), magnetic=_NanAtQuarterPeriod())
    checks = {c.name: c for c in validate_hypotheses(config, seed=VALIDATION_SEED).checks}
    ceiling = checks["magnetic-ceiling-at-infinity"]
    assert not ceiling.passed and math.isnan(ceiling.margin)
    assert math.isnan(magnetic_ceiling(config.magnetic, period=1.0, seed=VALIDATION_SEED))
