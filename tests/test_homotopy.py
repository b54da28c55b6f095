import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import TabulatedPotential, coulomb_config, desk_config, fd_jacobian_momentum_first
from lfe.degree import find_zero_f0
from lfe.fields import (
    ABCField,
    DipoleField,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    SingularityError,
    UniformField,
    ZeroField,
    radial_powers,
)
from lfe.homotopy import (
    AutonomousField,
    EquilibriumLinearization,
    HomotopySystem,
    coulomb_force_jacobian,
    f0_determinant_closed_form,
)
from lfe.integrator import integrate
from lfe.kinematics import State, phi_inv, velocity_jacobian


@pytest.fixture(scope="module")
def system():
    return HomotopySystem(desk_config())


def random_state(rng):
    q = rng.normal(size=3)
    q *= rng.uniform(0.3, 3.0) / np.linalg.norm(q)
    return State(q=q, p=rng.normal(size=3))


def test_grad_V_lambda_endpoints(system):
    rng = np.random.default_rng(31)
    for _ in range(50):
        q, rad = radial_powers(rng.normal(size=3))
        assert np.allclose(
            system.grad_V_lambda(q, rad, 1.0), system.config.potential.gradient(q, rad), atol=1e-15
        )
        r = np.linalg.norm(q)
        expected = -system.config.potential.c0 * q / r**3
        assert np.allclose(system.grad_V_lambda(q, rad, 0.0), expected, atol=1e-15)


def test_grad_V_lambda_is_affine(system):
    rng = np.random.default_rng(32)
    for _ in range(50):
        q, rad = radial_powers(rng.normal(size=3))
        mid = system.grad_V_lambda(q, rad, 0.5)
        mean = 0.5 * (system.grad_V_lambda(q, rad, 0.0) + system.grad_V_lambda(q, rad, 1.0))
        assert np.allclose(mid, mean, rtol=1e-14, atol=1e-16)


def test_coulomb_gradient_at_unit_point():
    sys0 = HomotopySystem(coulomb_config())
    gradient = sys0.grad_V_lambda(*radial_powers([1.0, 0.0, 0.0]), 0.0)
    assert np.allclose(gradient, [-1.0, 0.0, 0.0], atol=1e-15)


def test_h_lambda_endpoints_and_mean(system):
    f = system.config.forcing
    assert np.array_equal(f.eval(0.3, 0.0), f.mean)
    assert np.allclose(f.eval(0.3, 1.0), f.eval(0.3), atol=1e-15)
    # the period average equals the stored mean for every lam
    quad = pytest.importorskip("scipy.integrate").quad
    for lam in (0.0, 0.3, 1.0):
        for i in range(3):
            avg = quad(lambda t: f.eval(t, lam)[i], 0.0, f.period, limit=200)[0]
            assert math.isclose(avg / f.period, f.mean[i], abs_tol=1e-10)


def test_rhs_zero_at_equilibrium():
    sys0 = HomotopySystem(coulomb_config())
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    assert np.abs(sys0.rhs_array(0.0, x_eq.as_array(), 0.0)).max() < 1e-12


def test_rhs_magnetic_term_does_no_work(system):
    rng = np.random.default_rng(33)
    for lam in (0.3, 1.0):
        for _ in range(50):
            x = random_state(rng)
            v = phi_inv(x.p)
            force = system.rhs_array(0.4, x.as_array(), lam)[3:]
            conservative = -system.grad_V_lambda(*radial_powers(x.q), lam) + system.config.forcing.eval(0.4, lam)
            # v . (v x B) = 0, so the magnetic part is orthogonal to v
            assert abs(np.dot(v, force - conservative)) <= 1e-13 * (1 + np.abs(force).max())


def test_rhs_is_affine_in_lambda(system):
    rng = np.random.default_rng(34)
    for _ in range(50):
        x = random_state(rng)
        t = rng.uniform(0.0, 1.0)
        r0 = system.rhs_array(t, x.as_array(), 0.0)
        r1 = system.rhs_array(t, x.as_array(), 1.0)
        for lam in (0.25, 0.5, 0.9):
            blend = (1 - lam) * r0 + lam * r1
            assert np.allclose(system.rhs_array(t, x.as_array(), lam), blend, rtol=1e-13, atol=1e-14)


def test_rhs_autonomous_at_lambda_zero(system):
    x = State(q=[0.5, -0.2, 0.8], p=[0.1, 0.0, -0.3])
    y = x.as_array()
    assert np.array_equal(system.rhs_array(0.0, y, 0.0), system.rhs_array(0.77, y, 0.0))


def test_rhs_lambda_one_matches_unhomotoped(system):
    rng = np.random.default_rng(35)
    for _ in range(30):
        x = random_state(rng)
        t = rng.uniform(0.0, 1.0)
        v = phi_inv(x.p)
        q, rad = radial_powers(x.q)
        expected_force = (
            -system.config.potential.gradient(q, rad)
            + system.config.forcing.eval(t)
            + np.cross(v, system.config.magnetic.eval(t, q, rad))
        )
        out = system.rhs_array(t, x.as_array(), 1.0)
        assert np.allclose(out[:3], v, atol=1e-15)
        assert np.allclose(out[3:], expected_force, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize(
    "magnetic",
    [
        ZeroField(),
        UniformField([0.3, -0.2, 1.0]),
        DipoleField([0.0, 0.0, 0.1]),
        ABCField(1.0, 0.5, 0.3),
    ],
    ids=["zero", "uniform", "dipole", "abc"],
)
def test_rhs_stack_rows_match_single_states(magnetic):
    system = HomotopySystem(dataclasses.replace(desk_config(), magnetic=magnetic))
    rng = np.random.default_rng(36)
    stack = np.array([random_state(rng).as_array() for _ in range(7)])
    for lam in (0.0, 0.4, 1.0):
        out = system.rhs_array(0.3, stack, lam)
        assert out.shape == stack.shape
        for row, y in zip(out, stack):
            assert np.array_equal(row, system.rhs_array(0.3, y, lam))


def _gauss_potential(q):
    return np.exp(-np.add.reduce(q * q, axis=-1))


def _central_difference_gradient(q, step=1e-6):
    """Central-difference gradient of `_gauss_potential` at q of shape (3,) or (N, 3)."""
    e = step * np.eye(3)
    q = q[..., None, :]
    return (_gauss_potential(q + e) - _gauss_potential(q - e)) / (2.0 * step)


def _reference_gradient(potential, q):
    """grad V from |q| directly for the generalized Coulomb family, else the potential's gradient.

    The tabulated potential ignores the radial data; its gradient callable differentiates its values.
    """
    if isinstance(potential, GeneralizedCoulomb):
        r = np.linalg.norm(q, axis=-1, keepdims=True)
        return -potential.c0 * q / r ** (potential.gamma + 2.0)
    return potential.gradient(q, None)


@pytest.mark.parametrize(
    "potential",
    [
        GeneralizedCoulomb(0.7, 1.0),
        GeneralizedCoulomb(0.7, 2.5),
        GeneralizedCoulomb(0.7, 3.0),
        TabulatedPotential(_gauss_potential, _central_difference_gradient),
    ],
    ids=["coulomb-gamma1", "coulomb-gamma2.5", "coulomb-gamma3", "tabulated-fd"],
)
@pytest.mark.parametrize(
    "magnetic",
    [ZeroField(), UniformField([0.3, -0.2, 1.0]), DipoleField([0.05, -0.1, 0.3]), ABCField(1.0, 0.5, 0.3)],
    ids=["zero", "uniform", "dipole", "abc"],
)
def test_rhs_matches_the_field_methods(potential, magnetic):
    # below lam = 1 the Coulomb term takes the potential's own c0 (0.7, not the desk's 1.0);
    # a potential without a radial law runs at lam = 1 only
    system = HomotopySystem(dataclasses.replace(desk_config(), potential=potential, magnetic=magnetic))
    coulomb_law = isinstance(potential, GeneralizedCoulomb)
    c0, lams = (potential.c0, (0.0, 0.37, 1.0)) if coulomb_law else (0.0, (1.0,))
    rng = np.random.default_rng(40)
    stack = np.array([random_state(rng).as_array() for _ in range(7)])
    times = rng.uniform(0.0, 1.0, size=7)
    for lam in lams:
        for t, y in [(times[0], stack[0]), (times, stack)]:
            q, p = y[..., :3], y[..., 3:]
            v = phi_inv(p)
            grad_v = _reference_gradient(potential, q)
            coulomb = c0 * q / np.linalg.norm(q, axis=-1, keepdims=True) ** 3
            b = magnetic.eval(t, *radial_powers(q))
            terms = (system.config.forcing.eval(t, lam), lam * grad_v, (1.0 - lam) * coulomb, lam * np.cross(v, b))
            # the Coulomb term repels: -grad(c0/|q|) = c0 q/|q|^3
            expected = terms[0] - terms[1] + terms[2] + terms[3]
            out = system.rhs_array(t, y, lam)
            assert np.array_equal(out[..., :3], v)
            # rtol 1e-13 against the size of the terms, so a cancelling sum is not held to its own size
            scale = sum(np.abs(term) for term in terms)
            assert np.all(np.abs(out[..., 3:] - expected) <= 1e-13 * scale), (lam, np.shape(t))


def test_a_zero_field_system_never_evaluates_its_field(monkeypatch):
    # the zero field adds no magnetic term, so rhs_array takes the lam = 0 branch for it; the
    # values equal those of a uniform field of strength 0, whose v x B is exactly zero
    system = HomotopySystem(coulomb_config())
    reference = HomotopySystem(dataclasses.replace(coulomb_config(), magnetic=UniformField([0.0, 0.0, 0.0])))
    rng = np.random.default_rng(41)
    stack = np.array([random_state(rng).as_array() for _ in range(7)])
    expected = {lam: reference.rhs_array(0.5, stack, lam) for lam in (0.0, 0.37, 1.0)}

    def refuse(self, t, q, rad):
        raise AssertionError("ZeroField.eval was called")

    monkeypatch.setattr(ZeroField, "eval", refuse)
    for lam, values in expected.items():
        assert np.array_equal(system.rhs_array(0.5, stack, lam), values)
    integrate(system, find_zero_f0(1.0, [0.0, 0.0, 2.0]), (0.0, 1.0), 1.0)


def test_the_coulomb_term_reads_c0_from_the_radial_law_once(monkeypatch):
    calls = []
    radial_law = GeneralizedCoulomb.radial_law
    monkeypatch.setattr(GeneralizedCoulomb, "radial_law", lambda self: calls.append(self) or radial_law(self))
    system = HomotopySystem(desk_config())
    y = random_state(np.random.default_rng(43)).as_array()
    for lam in (1.0, 0.0, 0.5, 0.5, 0.0):
        system.rhs_array(0.3, y, lam)
    assert len(calls) == 1 and system.c0 == 1.0


def test_lambda_below_one_needs_the_potential_radial_law():
    potential = TabulatedPotential(_gauss_potential, _central_difference_gradient)
    system = HomotopySystem(dataclasses.replace(desk_config(), potential=potential))
    y = random_state(np.random.default_rng(42)).as_array()
    assert np.isfinite(system.rhs_array(0.3, y, 1.0)).all()
    message = "lam < 1 needs the potential's c0 for its Coulomb term: a TabulatedPotential has no closed-form radial law"
    for lam in (0.0, 0.5):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            system.rhs_array(0.3, y, lam)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_rhs_stack_singular_and_non_finite_rows(system, lam):
    rng = np.random.default_rng(41)
    stack = np.array([random_state(rng).as_array() for _ in range(7)])
    at_origin = stack.copy()
    at_origin[4, :3] = 0.0
    with pytest.raises(SingularityError):
        system.rhs_array(0.3, at_origin, lam)
    # a non-finite row does not raise, so the step controller can reject the step
    with_nan = stack.copy()
    with_nan[2] = np.nan
    out = system.rhs_array(0.3, with_nan, lam)
    assert not np.isfinite(out[2]).any()
    finite = [0, 1, 3, 4, 5, 6]
    assert np.array_equal(out[finite], system.rhs_array(0.3, stack, lam)[finite])


def test_rhs_validates_inputs(system):
    x = State(q=[1.0, 0.0, 0.0], p=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        integrate(system, x, (0.0, 1.0), 1.5)
    with pytest.raises(SingularityError):
        system.rhs_array(0.0, np.array([0.0, 0.0, 0.0, 0.1, 0.0, 0.0]), 0.0)


# --- autonomous field and its Jacobian ---


def test_f0_determinant_at_unit_radius_rest():
    assert math.isclose(
        f0_determinant_closed_form(1.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), -2.0, rel_tol=1e-12
    )


def test_f0_value_vanishes_at_equilibrium():
    x_eq = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    field = AutonomousField(c0=1.0, h_mean=np.array([0.0, 0.0, 2.0]))
    assert np.abs(field.value(x_eq.q, phi_inv(x_eq.p))).max() < 1e-12


def test_f0_jacobian_block_structure():
    x = State(q=[0.4, -0.7, 0.2], p=[0.3, 0.1, -0.2])
    field = AutonomousField(c0=1.3, h_mean=np.array([0.0, 1.0, 1.0]))
    jac = fd_jacobian_momentum_first(field, x)
    # momentum-first coordinates: off-diagonal blocks vanish identically
    assert np.array_equal(jac[:3, 3:], np.zeros((3, 3)))
    assert np.array_equal(jac[3:, :3], np.zeros((3, 3)))
    assert np.allclose(jac[:3, :3], velocity_jacobian(x.p), atol=1e-8)
    assert np.allclose(jac[3:, 3:], coulomb_force_jacobian(x.q, 1.3), atol=1e-8)
    # so the determinant is the product of the block determinants, the closed form
    rng = np.random.default_rng(39)
    for _ in range(200):
        x = random_state(rng)
        c0 = rng.uniform(0.1, 10.0)
        product = np.linalg.det(velocity_jacobian(x.p)) * np.linalg.det(
            coulomb_force_jacobian(x.q, c0)
        )
        assert math.isclose(product, f0_determinant_closed_form(c0, x.q, x.p), rel_tol=1e-8)


def test_autonomous_field_and_blocks_take_a_cloud():
    rng = np.random.default_rng(38)
    q = rng.normal(size=(64, 3)) * np.exp(rng.uniform(-8.0, 8.0, size=(64, 1)))
    # momenta up to ~1e170, past where |p|^2 overflows
    p = rng.normal(size=(64, 3)) * np.exp(rng.uniform(-8.0, 390.0, size=(64, 1)))
    v = phi_inv(p)
    field = AutonomousField(c0=1.3, h_mean=np.array([0.0, 1.0, 1.0]))
    assert np.array_equal(field.value(q, v)[:, :3], v)
    cases = (
        (field.value, v),
        (lambda q, p: velocity_jacobian(p), p),
        (lambda q, p: coulomb_force_jacobian(q, 1.3), p),
    )
    # the velocity block overflows to nan past |p| ~ 1e154
    with np.errstate(over="ignore", invalid="ignore"):
        for evaluate, second in cases:
            stacked = np.array([evaluate(a, b) for a, b in zip(q, second)])
            assert np.array_equal(evaluate(q, second), stacked, equal_nan=True)
    q[17] = 0.0
    with pytest.raises(SingularityError):
        field.value(q, v)
    with pytest.raises(SingularityError):
        coulomb_force_jacobian(q, 1.3)


def test_f0_determinant_matches_finite_differences():
    rng = np.random.default_rng(36)
    for _ in range(20):
        x = random_state(rng)
        c0 = rng.uniform(0.5, 3.0)
        field = AutonomousField(c0=c0, h_mean=rng.normal(size=3))
        det_fd = np.linalg.det(fd_jacobian_momentum_first(field, x))
        det_closed = f0_determinant_closed_form(c0, x.q, x.p)
        assert math.isclose(det_fd, det_closed, rel_tol=1e-5)


def equilibrium_generator(c0: float, q) -> np.ndarray:
    """A = [[0, Dphi_inv(0)], [K, 0]]: the lam = 0 system linearized at its equilibrium (q, 0)."""
    a = np.zeros((6, 6))
    a[:3, 3:] = velocity_jacobian(np.zeros(3))
    a[3:, :3] = coulomb_force_jacobian(q, c0)
    return a


# a mean forcing off the axes, so that P = u u^T and Q = I - P have no zero entries
MEAN_DIRECTION = np.array([1.0, -2.0, 2.0]) / 3.0


@pytest.mark.parametrize("c0", [1e-2, 1.0, 100.0])
@pytest.mark.parametrize("mean", [0.5, 2.0, 50.0])
def test_equilibrium_monodromy_is_the_exponential_of_the_linearization(c0, mean):
    expm = pytest.importorskip("scipy.linalg").expm
    q = find_zero_f0(c0, mean * MEAN_DIRECTION).q
    a = equilibrium_generator(c0, q)
    for period in (0.01, 0.5, 1.0, 2.6, 3.0):
        linear = EquilibriumLinearization.at(c0, q, period)
        oracle = expm(period * a)
        assert np.abs(linear.monodromy() - oracle).max() <= 1e-9 * np.abs(oracle).max()
        # sT reaches 178 at c0 = 1e-2, |mean| = 50, T = 3, where an LU of I - M0 overflows;
        # the closed-form det(I - M0) stays finite, positive and warning-free
        assert 0.0 < linear.index_det() < math.inf


# (period, digits, det(I - M0) to those digits, or None)
@pytest.mark.parametrize("period,digits,det", [(0.01, 0, None), (1.0, 5, 43.69421), (2.6, 2, 58.83), (3.0, 0, None)])
def test_equilibrium_monodromy_keeps_volume_and_det_of_I_minus_it_is_the_product_formula(period, digits, det):
    # the light and desk equilibrium, c0 = 1 and |mean| = 2: s = 2^(3/4), omega = 2^(5/4)
    q = find_zero_f0(1.0, [0.0, 0.0, 2.0]).q
    linear = EquilibriumLinearization.at(1.0, q, period)
    assert math.isclose(linear.s, 2.0**0.75, rel_tol=1e-15)
    assert math.isclose(linear.omega, 2.0**1.25, rel_tol=1e-15)
    m0 = linear.monodromy()
    st, wt = linear.s * period, linear.omega * period
    # the linearized field is divergence-free, so its flow keeps volume (Liouville); an LU
    # loses digits to cosh(sT)^2 - sinh(sT)^2 = 1
    assert abs(np.linalg.det(m0) - 1.0) < 1e-14 * math.cosh(st) ** 2
    product = (2.0 - 2.0 * math.cosh(st)) ** 2 * (2.0 - 2.0 * math.cos(wt))
    assert math.isclose(linear.index_det(), product, rel_tol=1e-9)
    assert math.isclose(linear.index_det(), np.linalg.det(np.eye(6) - m0), rel_tol=1e-9)
    if det is not None:
        assert round(linear.index_det(), digits) == det


def test_a_resonance_is_a_whole_number_of_radial_oscillations_within_round_off():
    q = find_zero_f0(1.0, [0.0, 0.0, 2.0]).q
    t_res = 2.0 * math.pi / (math.sqrt(2.0) * 2.0**0.75)  # 2 pi / omega, omega = sqrt(2) |mean|^(3/4) c0^(-1/4)
    for n in (1, 2, 3):
        linear = EquilibriumLinearization.at(1.0, q, n * t_res)
        assert linear.resonance() == n
        assert math.isclose(linear.resonant_period, t_res, rel_tol=1e-15)
        assert math.isclose(linear.turns, n, rel_tol=1e-15)
        # the factor 2 - 2 cos omega T is zero but for the rounding of omega T
        hyperbolic = (2.0 - 2.0 * math.cosh(linear.s * linear.period)) ** 2
        assert 0.0 <= linear.index_det() < 1e-27 * hyperbolic
    # 1e-12 off a resonance, 2 - 2 cos omega T = 4e-23 is no round-off: T = 2.6 is 0.984 T_res
    for period in (t_res * (1.0 + 1e-12), 2.6, 0.5 * t_res, 1e-9):
        assert EquilibriumLinearization.at(1.0, q, period).resonance() == 0


def test_the_equilibrium_linearization_is_refused_where_it_leaves_the_double_range():
    # c0 = 1, |mean| = 2, s = 2^(3/4): det(I - M0) ~ 4 e^(2 sT) passes the double maximum e^709.78 near sT = 354.2
    q = find_zero_f0(1.0, [0.0, 0.0, 2.0]).q
    s = 2.0**0.75
    inside = EquilibriumLinearization.at(1.0, q, 354.0 / s)
    inside.require_double_range(ValueError)
    assert np.isfinite(inside.monodromy()).all() and 0.0 < inside.index_det() < math.inf
    outside = EquilibriumLinearization.at(1.0, q, 355.5 / s)
    with pytest.raises(ValueError, match=r"^sT = 355\.5 .* det\(I - M0\) ~ 4 e\^\(2 sT\) beyond the double range"):
        outside.require_double_range(ValueError)
    with np.errstate(over="ignore"):  # unchecked, det(I - M0) overflows
        assert outside.index_det() == math.inf
    # c0 = 1e-130, |mean| = 1e-250: s = 1e-155, so sinh(sT)/s in M0 overflows before det(I - M0) does
    q = find_zero_f0(1e-130, [0.0, 0.0, 1e-250]).q
    s = EquilibriumLinearization.at(1e-130, q, 1.0).s
    assert math.isclose(s, 1e-155, rel_tol=1e-12)
    inside = EquilibriumLinearization.at(1e-130, q, 352.0 / s)
    inside.require_double_range(ValueError)
    assert np.isfinite(inside.monodromy()).all() and 0.0 < inside.index_det() < math.inf
    outside = EquilibriumLinearization.at(1e-130, q, 353.8 / s)
    with pytest.raises(ValueError, match=r"^sT = 353\.8 .* beyond the double range"):
        outside.require_double_range(ValueError)
    assert 0.0 < outside.index_det() < math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # unchecked, M0 holds inf and NaN
        assert not np.isfinite(outside.monodromy()).all()


def test_f0_determinant_always_negative():
    rng = np.random.default_rng(37)
    for _ in range(200):
        x = random_state(rng)
        c0 = rng.uniform(0.1, 10.0)
        assert f0_determinant_closed_form(c0, x.q, x.p) < 0.0


@pytest.mark.parametrize(
    "magnetic",
    [ZeroField(), UniformField([0.3, -0.2, 1.0]), DipoleField([0.0, 0.0, 0.1]), ABCField(1.0, 0.5, 0.3)],
    ids=["zero", "uniform", "dipole", "abc"],
)
def test_rhs_takes_one_time_per_row(magnetic):
    # desk forcing has a cosine harmonic, so h_lam depends on each row's time
    system = HomotopySystem(dataclasses.replace(desk_config(), magnetic=magnetic))
    rng = np.random.default_rng(37)
    stack = np.array([random_state(rng).as_array() for _ in range(7)])
    times = rng.uniform(0.0, 1.0, size=7)
    for lam in (0.0, 0.4, 1.0):
        h = system.config.forcing.eval(times, lam)
        assert h.shape == (7, 3)
        assert np.array_equal(h, [system.config.forcing.eval(t, lam) for t in times])
        out = system.rhs_array(times, stack, lam)
        assert np.array_equal(out, [system.rhs_array(t, y, lam) for t, y in zip(times, stack)])


def test_multi_harmonic_forcing_takes_one_time_per_row():
    # three harmonics, each with a cosine and a sine term, against the desk fields
    harmonics = (
        Harmonic(1, [0.3, -0.1, 0.2], [0.05, 0.4, -0.2]),
        Harmonic(2, [-0.2, 0.15, 0.1], [0.1, -0.05, 0.3]),
        Harmonic(3, [0.1, 0.2, -0.15], [-0.25, 0.1, 0.05]),
    )
    forcing = Forcing(1.0, [0.0, 0.0, 2.0], harmonics)
    system = HomotopySystem(dataclasses.replace(desk_config(), forcing=forcing))
    rng = np.random.default_rng(38)
    stack = np.array([random_state(rng).as_array() for _ in range(7)])
    times = rng.uniform(0.0, 1.0, size=7)
    for lam in (0.0, 0.4, 1.0):
        h = forcing.eval(times, lam)
        out = system.rhs_array(times, stack, lam)
        for i, t in enumerate(times):
            assert np.array_equal(forcing.eval(t, lam), h[i])
            assert np.array_equal(system.rhs_array(t, stack[i], lam), out[i])
        # one pass, mean + lam * (h - mean), against the blend that defines h_lam
        blend = lam * forcing.eval(times) + (1.0 - lam) * forcing.mean
        size = np.linalg.norm(blend, axis=-1, keepdims=True)
        assert np.all(np.abs(h - blend) <= 1e-15 * size), lam
