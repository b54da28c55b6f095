import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import (
    PlantedCoulomb,
    PulsedField,
    TabulatedPotential,
    coulomb_config,
    desk_config,
    force_free_config,
    pulsed_config,
)
from lfe.certificate import compute_R
from lfe.fields import (
    VALIDATION_WIDTHS,
    ABCField,
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    SingularityError,
    UniformField,
    ZeroField,
    gauss_legendre,
    magnetic_ceiling,
    near_origin_constants,
    power_law,
    radial_powers,
    validate_hypotheses,
)
from sampled_checks import log_radii, sampled_hypotheses, sampled_radial_law, shell_maxima, shells, sphere_directions

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
    c1, beta = near_origin_constants(d, 1.0)
    assert math.isclose(c1, 2 * np.linalg.norm(d.moment))
    assert beta == 2.0
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        q = rng.normal(size=3)
        q *= rng.uniform(0.05, 20.0) / np.linalg.norm(q)
        r = np.linalg.norm(q)
        assert np.linalg.norm(d.eval(0.0, *radial_powers(q))) <= c1 / r**3 * (1 + 1e-12)
        assert math.isclose(d.envelope(r), c1 / r**3, rel_tol=1e-14)


def test_abc_values_and_bound():
    f = ABCField(1.0, 1.0, 1.0)
    # bounded fields ignore the radial data, so the origin is allowed
    assert np.allclose(f.eval(0.0, [0.0, 0.0, 0.0], None), [1.0, 1.0, 1.0], atol=1e-15)
    g = ABCField(0.7, -1.3, 0.4)
    bound = g.envelope(1.0)
    rng = np.random.default_rng(24)
    for _ in range(2000):
        q = rng.uniform(-10, 10, size=3)
        assert np.linalg.norm(g.eval(0.0, q, None)) <= bound + 1e-12


@pytest.mark.parametrize(
    "kind",
    [
        GeneralizedCoulomb(1.0, 1.0),
        GeneralizedCoulomb(1e-3, 3.5),
        DipoleField([0.3, -0.2, 0.9]),
        DipoleField([0.0, 0.0, 0.0]),
        UniformField([0.0, 0.1, 0.0]),
        ZeroField(),
        ABCField(0.7, -1.3, 0.4),
    ],
    ids=["coulomb", "cubic", "dipole", "zero-dipole", "uniform", "zero", "abc"],
)
def test_envelope_is_non_increasing_in_the_radius(kind):
    # down to radii where the power laws leave the double range: inf there, and no OverflowError
    values = [kind.envelope(r) for r in np.geomspace(1e-300, 1e6, 400)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v >= 0.0 and not math.isnan(v) for v in values)


def test_power_law_is_finite_where_only_the_power_overflows():
    # 1e-103^-3 = 1e309 overflows, 1e-10 * 1e309 does not; 1e-200^-3 does
    assert math.isclose(power_law(1e-10, 1e-103, 3.0), 1e299, rel_tol=1e-12)
    assert power_law(1.0, 1e-200, 3.0) == math.inf and power_law(0.0, 1e-200, 3.0) == 0.0


def test_uniform_and_zero_fields():
    assert np.array_equal(ZeroField().eval(0.3, [1.0, 2.0, 3.0], None), np.zeros(3))
    assert np.array_equal(UniformField([0, 0, 2.0]).eval(0.3, [1.0, 2.0, 3.0], None), [0, 0, 2.0])


def _gauss(q):
    return np.exp(-np.add.reduce(q * q, axis=-1))


def _gauss_gradient(q):
    return -2.0 * q * _gauss(q)[..., None]


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
        pytest.param(TabulatedPotential(_gauss, _gauss_gradient), True, id="tabulated"),
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


def test_tabulated_potential_takes_the_cloud_in_one_call():
    shapes = []

    def recorded(fn):
        def call(q):
            shapes.append(np.shape(q))
            return fn(q)

        return call

    pot = TabulatedPotential(recorded(_gauss), recorded(_gauss_gradient))
    cloud = np.random.default_rng(27).normal(size=(64, 3))
    with_origin = cloud.copy()
    with_origin[17] = 0.0
    for evaluate in (pot.value, lambda q: gradient(pot, q)):
        shapes.clear()
        out = evaluate(cloud)
        assert shapes == [(64, 3)]
        assert np.array_equal(out, np.array([evaluate(q) for q in cloud]))
        with pytest.raises(SingularityError):
            evaluate(with_origin)


def test_forcing_constant_stats():
    f = Forcing(1.0, [2.0, 0.0, 0.0])
    assert np.array_equal(f.mean, [2.0, 0.0, 0.0])
    assert f.l1_norm() == 2.0


def test_forcing_tiny_mean_is_not_read_as_zero():
    # the squares of these components underflow; math.hypot scales them
    assert Forcing(1.0, [0.0, 0.0, 1e-200]).l1_norm() == 1e-200
    assert Forcing(2.0, [3e-160, 4e-160, 0.0]).mean_norm == 5e-160
    report = validate_hypotheses(coulomb_config(mean=(0.0, 0.0, 1e-200), c_B=1e-300))
    dominates = {c.name: c for c in report.checks}["mean-forcing-dominates-ceiling"]
    assert dominates.passed and dominates.margin == 1e-200


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
    quad = pytest.importorskip("scipy.integrate").quad
    for i in range(3):
        avg = quad(lambda t: f.eval(t)[i], 0.0, f.period, limit=200)[0] / f.period
        assert math.isclose(avg, f.mean[i], abs_tol=1e-10)


def test_forcing_l1_oracle_mixed():
    f = Forcing(1.0, [0.0, 0.0, 2.0], [Harmonic(1, [0.1, 0, 0], [0, 0, 0])])
    quad = pytest.importorskip("scipy.integrate").quad
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
    quad = pytest.importorskip("scipy.integrate").quad
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


def test_gauss_legendre_rule_is_numpys_leggauss():
    # the runtime writes the nodes and weights out instead of importing numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    nodes, weights = gauss_legendre([-1.0], [1.0])
    expected = leggauss(6)
    assert np.array_equal(nodes[0], expected[0]) and np.array_equal(weights[0], expected[1])


def test_validate_passes_on_desk_scenario():
    report = validate_hypotheses(desk_config())
    assert report.passed, report.lines(*VALIDATION_WIDTHS)
    assert not [line for line in report.lines(*VALIDATION_WIDTHS) if "sampled" in line]


def test_validate_flags_singularity_order():
    # plain Coulomb with a dipole: the magnetic singularity is too strong
    dipole = DipoleField([0.0, 0.0, 0.1])
    c1, beta = near_origin_constants(dipole, 1.0)
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 1.0),
        magnetic=dipole,
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=1.0,
        c_B=0.2,
        c1=c1,
        beta=beta,
        eps1=0.5,
    )
    report = validate_hypotheses(config)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "beta-below-gamma" in failed


def test_validate_flags_equal_mean_and_ceiling():
    config = FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=ZeroField(),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=0.5,
        c_B=2.0,  # exactly |mean h|
        c1=0.0,
        beta=1.5,
        eps1=0.5,
    )
    report = validate_hypotheses(config)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "mean-forcing-dominates-ceiling" in failed


def test_validate_is_reproducible():
    a = validate_hypotheses(desk_config())
    b = validate_hypotheses(desk_config())
    assert [c.margin for c in a.checks] == [c.margin for c in b.checks]


def test_magnetic_ceiling_dipole_sharp():
    assert math.isclose(magnetic_ceiling(DipoleField([0, 0, 0.1])), 0.2, rel_tol=1e-12)
    # the law 2|mu| r^-3 gives the sharp (c1, beta) = (2|mu|, 3 - 1) for every gamma
    for gamma in (1.0, 3.0):
        assert near_origin_constants(DipoleField([0, 0, 0.1]), gamma) == (0.2, 2.0)


def _abc_config(c_B: float) -> FieldConfig:
    return FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=ABCField(0.1, 0.05, 0.03),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=1.0,
        c_B=c_B,
        c1=0.3,
        beta=1e-3,
        eps1=1.0,
    )


def test_magnetic_ceiling_of_an_abc_field_passes_the_checks_on_every_seed():
    # the sup bound is the closed-form row's envelope; every seed's sampled maximum lies below it
    abc = ABCField(0.1, 0.05, 0.03)
    c_B = magnetic_ceiling(abc)
    assert c_B == abc.envelope(1.0)
    # a bounded field that does not vanish has no default c1: it depends on the beta and eps1 chosen
    assert near_origin_constants(abc, 3.0) == (None, None)
    config = _abc_config(c_B)
    ceiling = {c.name: c for c in validate_hypotheses(config).checks}["magnetic-ceiling-at-infinity"]
    assert ceiling.passed and ceiling.margin == 0.0
    for seed in range(40):
        passed, _, margin = sampled_hypotheses(config, seed, slack=0.0)["magnetic-ceiling-at-infinity"]
        assert passed and margin > 0.0, seed
    assert compute_R(config) == 1.0  # envelope_B = c_B is allowed: |v x B| < |B| for |v| < 1


def test_magnetic_ceiling_of_a_uniform_field_is_its_magnitude():
    # |B| = |b| everywhere, and the ceiling row, like the certificate's R, is non-strict
    uniform = UniformField([0.0, 0.3, 0.4])
    assert magnetic_ceiling(uniform) == 0.5
    assert near_origin_constants(uniform, 3.0) == (None, None)
    config = dataclasses.replace(_abc_config(0.5), magnetic=uniform, c1=0.5)
    ceiling = {c.name: c for c in validate_hypotheses(config).checks}["magnetic-ceiling-at-infinity"]
    assert ceiling.passed and ceiling.margin == 0.0
    assert compute_R(config) == 1.0


def test_magnetic_ceiling_of_a_vanishing_field_is_one():
    # any positive ceiling passes the checks of a field that is zero everywhere
    assert magnetic_ceiling(ZeroField()) == 1.0
    assert magnetic_ceiling(UniformField([0.0, 0.0, 0.0])) == 1.0
    assert magnetic_ceiling(DipoleField([0.0, 0.0, 0.0])) == magnetic_ceiling(ABCField(0.0, 0.0, 0.0)) == 1.0
    # and any beta: gamma/2, the middle of (0, gamma), but for the dipole's law r^-3, which keeps beta = 2
    for gamma in (1.0, 3.0):
        for vanishing in (ZeroField(), UniformField([0.0, 0.0, 0.0]), ABCField(0.0, 0.0, 0.0)):
            assert near_origin_constants(vanishing, gamma) == (0.0, 0.5 * gamma)
        assert near_origin_constants(DipoleField([0.0, 0.0, 0.0]), gamma) == (0.0, 2.0)


def test_config_rejects_nonpositive_constants():
    # c0 and gamma have one home, the potential, which checks them
    with pytest.raises(ValueError, match="^c0 must be positive$"):
        GeneralizedCoulomb(-1.0, 1.0)
    with pytest.raises(ValueError, match="^gamma must be >= 1$"):
        GeneralizedCoulomb(1.0, 0.5)
    with pytest.raises(ValueError):
        Forcing(0.0, [1, 0, 0])
    with pytest.raises(ValueError, match="^harmonic index must be >= 1$"):
        Harmonic(0, [0.1, 0, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="^mean is too large"):
        Forcing(1.0, [0, 0, 1e250])
    with pytest.raises(ValueError):
        FieldConfig(
            potential=GeneralizedCoulomb(1.0, 1.0),
            magnetic=ZeroField(),
            forcing=Forcing(1.0, [0, 0, 2]),
            eps0=1.0,
            c_B=1.0,
            c1=-0.1,
            beta=0.5,
            eps1=1.0,
        )


def test_sweeps_read_every_time_of_the_grid():
    # |B| is 0.8 at t = T/4 and 0 at t = 0: a sweep of t = 0 alone would see no field
    passed, detail, margin = sampled_hypotheses(pulsed_config(0.5), VALIDATION_SEED, slack=0.0)[
        "magnetic-ceiling-at-infinity"
    ]
    assert not passed
    assert detail == "max |B| on far spheres = 8.000e-01 vs c_B = 0.5"
    assert margin == 0.5 - 0.8


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
        lambda q: np.zeros(np.shape(q)[:-1]),
        lambda q: np.stack([np.sin(q[..., 0]), q[..., 1] * q[..., 2], np.full(np.shape(q)[:-1], 0.5)], axis=-1)
        + 4.0 * _bump(q, centre)[..., None] * q,
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


def test_shell_maxima_of_weak_and_strong_fields():
    # squared, |grad V| = 1e-172 ... 1e-178 underflows to 0, and |B| = 1e200 overflows to inf
    config = coulomb_config(c0=1e-170)
    radii = np.array([1e1, 1e2, 1e3, 1e4])
    for b_z in (1e-200, 1e200):
        gv, b = shell_maxima(radii, sphere_directions(6, 5), config.potential, UniformField([0.0, b_z, b_z]), 1.0)
        assert np.abs(gv / (1e-170 / radii**2) - 1.0).max() < 1e-12
        assert np.abs(b / (math.sqrt(2.0) * b_z) - 1.0).max() < 1e-15
    decay = {c.name: c for c in validate_hypotheses(config).checks}["electric-decay-at-infinity"]
    assert decay.passed and decay.margin > 0.0, decay.detail
    passed, detail, margin = sampled_hypotheses(config, VALIDATION_SEED)["electric-decay-at-infinity"]
    assert passed and margin > 0.0, detail


def test_shell_maxima_nan_samples():
    # q.grad V = -1/|q| on both spheres, except NaN and 0 at two points of the second
    radii, dirs = np.array([1.0, 2.0]), sphere_directions(3, 5)
    cloud = shells(radii, dirs)
    potential = PlantedCoulomb(cloud[len(dirs) + 1], cloud[len(dirs) + 4])
    v, _ = shell_maxima(radii, dirs, potential, radial=True)
    assert v[0] == pytest.approx(-1.0) and math.isnan(v[1])


def test_validate_fails_a_nan_sample():
    # one point of the near-origin cloud of the oracle's radial-law check
    radii, dirs = log_radii(1e-4, 1.0 - 1e-9, 64), sphere_directions(6, VALIDATION_SEED)
    nan_q = shells(radii, dirs)[10 * len(dirs) + 3]
    nowhere = np.full(3, np.inf)
    for planted, fails in [(PlantedCoulomb(nowhere, nowhere), False), (PlantedCoulomb(nan_q, nowhere), True)]:
        passed, _, margin = sampled_radial_law(planted, 1.0, VALIDATION_SEED)
        assert passed is not fails and math.isnan(margin) is fails


@dataclass(frozen=True)
class _NanAtQuarterPeriod:
    """B = 0, except NaN everywhere at t = 1/4."""

    def eval(self, t, q, rad):
        return np.full(np.shape(q), np.nan if t == 0.25 else 0.0)


def test_validate_fails_a_nan_field_at_a_later_time():
    config = dataclasses.replace(coulomb_config(), magnetic=_NanAtQuarterPeriod())
    passed, _, margin = sampled_hypotheses(config, VALIDATION_SEED)["magnetic-ceiling-at-infinity"]
    assert not passed and math.isnan(margin)
    # the closed-form row fails too: the kind has no envelope
    ceiling = {c.name: c for c in validate_hypotheses(config).checks}["magnetic-ceiling-at-infinity"]
    assert not ceiling.passed and math.isnan(ceiling.margin)
    assert ceiling.detail == "a _NanAtQuarterPeriod has no closed-form envelope"


@pytest.mark.parametrize("magnetic", [_NanAtQuarterPeriod(), PulsedField(0.8, 1.0)], ids=["nan", "pulsed"])
def test_magnetic_ceiling_of_a_kind_with_no_closed_form_is_refused(magnetic):
    # no closed form is known for these kinds; a sampled sup can lie below the sup, or be NaN
    name = type(magnetic).__name__
    with pytest.raises(ValueError, match=rf"^c_B = auto: a {name} has no closed-form envelope law$"):
        magnetic_ceiling(magnetic)
    with pytest.raises(ValueError, match=rf"^c1, beta defaults: a {name} has no closed-form envelope law$"):
        near_origin_constants(magnetic, 1.0)


# The coordinate mirrors R_n: q_n -> -q_n.  Test oracle: each stated mirror is checked against
# grad V(R q) = R grad V(q), B(R q) = R B(q) or R h(-t) = h(t) at random points, and every
# mirror a kind does not state must fail there.
MIRROR_SEED = 36
MIRRORS = [np.diag([-1.0 if i == n else 1.0 for i in range(3)]) for n in range(3)]
MIRROR_FIELDS = {
    "coulomb": (GeneralizedCoulomb(1.0, 1.0), (0, 1, 2)),
    "cubic": (GeneralizedCoulomb(2.0, 3.0), (0, 1, 2)),
    "zero": (ZeroField(), (0, 1, 2)),
    "uniform-z": (UniformField([0.0, 0.0, 0.05]), (0, 1)),
    "uniform-xy": (UniformField([0.3, -0.2, 0.0]), (2,)),
    "dipole-z": (DipoleField([0.0, 0.0, 0.1]), (0, 1)),
    "dipole-yz": (DipoleField([0.0, 0.1, 0.1]), (0,)),
    "dipole-xyz": (DipoleField([0.2, -0.1, 0.3]), ()),
    "abc": (ABCField(0.01, 0.02, 0.03), ()),
}
MIRROR_FORCINGS = {
    "constant-z": (Forcing(1.0, [0.0, 0.0, 2.0]), (0, 1)),
    "desk": (Forcing(1.0, [0.0, 0.0, 2.0], [Harmonic(1, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0])]), (1,)),
    "sine-x": (Forcing(1.0, [0.0, 0.0, 2.0], [Harmonic(1, [0.1, 0.0, 0.0], [0.1, 0.0, 0.0])]), ()),
    "sine-y": (Forcing(2.0, [0.0, 0.0, 2.0], [Harmonic(2, [0.0, 0.0, 0.3], [0.0, 0.2, 0.0])]), (1,)),
    "two-harmonics": (
        Forcing(1.5, [0.0, 1.0, 0.0], [Harmonic(1, [0.0, 0.4, 0.0], [0.1, 0.0, 0.0]), Harmonic(3, [0.0, 0.0, 0.2], [0.0] * 3)]),
        (0,),
    ),
}


@pytest.mark.parametrize("name", MIRROR_FIELDS)
def test_each_field_kind_states_exactly_the_mirrors_it_commutes_with(name):
    kind, stated = MIRROR_FIELDS[name]
    assert getattr(kind, "mirrors", tuple)() == stated
    q = np.random.default_rng(MIRROR_SEED).normal(size=(64, 3))
    field = kind.gradient if hasattr(kind, "gradient") else lambda q, rad: kind.eval(0.0, q, rad)
    for n, mirror in enumerate(MIRRORS):
        commutes = np.allclose(field(*radial_powers(q @ mirror)), field(*radial_powers(q)) @ mirror, rtol=1e-14, atol=0.0)
        assert commutes == (n in stated), n


@pytest.mark.parametrize("name", MIRROR_FORCINGS)
def test_a_forcing_states_exactly_the_mirrors_it_reverses(name):
    forcing, stated = MIRROR_FORCINGS[name]
    assert forcing.mirrors() == stated
    t = np.random.default_rng(MIRROR_SEED).uniform(-2.0, 2.0, size=64)
    for n, mirror in enumerate(MIRRORS):
        reverses = np.allclose(forcing.eval(-t) @ mirror, forcing.eval(t), rtol=1e-14, atol=1e-15)
        assert reverses == (n in stated), n


def test_a_configuration_shares_the_mirrors_of_its_parts():
    assert desk_config().mirrors() == (1,)
    assert coulomb_config().mirrors() == (0, 1)
    # a potential that states no mirror commutes with none
    assert force_free_config().mirrors() == ()


@pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
def test_the_desk_family_is_reversible_under_its_mirror(desk, lam):
    # G = diag(R_y, -R_y): f(t, G y) = -G f(-t, y), so G x(-t) solves the equation when x(t) does
    _, system = desk
    g = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    rng = np.random.default_rng(MIRROR_SEED)
    y = np.column_stack([rng.normal(size=(32, 3)), 0.3 * rng.normal(size=(32, 3))])
    t = rng.uniform(0.0, 1.0, size=32)
    assert np.allclose(system.rhs_array(t, g * y, lam), -g * system.rhs_array(-t, y, lam), rtol=1e-13, atol=1e-15)
