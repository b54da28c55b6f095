import math
import warnings

import numpy as np
import pytest

from conftest import SEED, coulomb_config, fd_jacobian_momentum_first
import lfe.degree
from lfe.certificate import compute_certificate
from lfe.degree import (
    DegenerateForcing,
    DegreeError,
    MultipleZeros,
    ZeroOutsideOmega,
    _newton_sweep,
    brouwer_degree,
    f0_determinant_closed_form,
    find_zero_f0,
)
from lfe.fields import mean_norm
from lfe.homotopy import AutonomousField, coulomb_force_jacobian
from lfe.kinematics import lorentz_factor, phi_inv

OMEGA = (1e-3, 3.0, 10.0)
SWEEP_SEED = 20240802


def test_zero_closed_form_canonical():
    x0 = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    assert np.allclose(x0.q, [0.0, 0.0, -(2.0**-0.5)], atol=1e-15)
    assert np.array_equal(x0.p, np.zeros(3))
    # substitution: the force at the zero balances the mean forcing
    r = np.linalg.norm(x0.q)
    assert np.allclose(1.0 * x0.q / r**3, [0.0, 0.0, -2.0], atol=1e-13)


def test_zero_closed_form_scaled():
    x0 = find_zero_f0(4.0, [1.0, 0.0, 0.0])
    assert np.allclose(x0.q, [-2.0, 0.0, 0.0], atol=1e-14)
    r = np.linalg.norm(x0.q)
    assert np.allclose(4.0 * x0.q / r**3, [-1.0, 0.0, 0.0], atol=1e-14)


def test_zero_residual_is_tiny_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        c0 = rng.uniform(0.1, 10.0)
        h = rng.normal(size=3) * rng.uniform(0.5, 5.0)
        x0 = find_zero_f0(c0, h)
        field = AutonomousField(c0=c0, h_mean=h)
        assert np.linalg.norm(field.value(x0.q, phi_inv(x0.p))) < 1e-12


def test_zero_residual_bound_scales_with_the_mean_forcing():
    # at |h| = 1e5 the balance c0 q/|q|^3 = -h rounds to a residual above 1e-12
    h = np.array([0.0, 0.0, 1e5])
    x0 = find_zero_f0(1.0, h)
    assert np.array_equal(x0.q, -1.0 * h * 1e5**-1.5)
    assert np.array_equal(x0.p, np.zeros(3))
    residual = np.linalg.norm(AutonomousField(c0=1.0, h_mean=h).value(x0.q, phi_inv(x0.p)))
    assert 1e-12 < residual < 1e-12 * 1e5


def test_zero_of_a_tiny_mean_forcing():
    # |h|^2 underflows below |h| ~ 1e-154, and |h|^-1.5 overflows below ~1e-205
    assert np.array_equal(find_zero_f0(1.0, [0.0, 0.0, 1e-200]).q, [0.0, 0.0, -1e100])
    x0 = find_zero_f0(1.0, [3e-160, 4e-160, 0.0])
    assert np.allclose(x0.q, [-0.6 / math.sqrt(5e-160), -0.8 / math.sqrt(5e-160), 0.0], rtol=1e-15)


def test_zero_residual_check_is_relative_to_the_mean_forcing(monkeypatch):
    # |h| read 1e-6 too large shortens q* by 1.5e-6 of |q*|, a residual of 3e-6 |h|;
    # at |h| = 1e-200 a residual bound of 1e-12 in absolute terms would pass it
    monkeypatch.setattr(lfe.degree, "mean_norm", lambda mean: (1.0 + 1e-6) * mean_norm(mean))
    with pytest.raises(ArithmeticError, match=r"^equilibrium residual 3\.000e-206 exceeds 1\.000e-212$"):
        find_zero_f0(1.0, [0.0, 0.0, 1e-200])


def test_zero_of_a_mean_whose_square_overflows_names_the_mean():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^mean is too large: \|mean\| = 1e\+250, so \|mean\|\^2"):
            find_zero_f0(1.0, [0.0, 0.0, 1e250])


def test_degenerate_forcing():
    with pytest.raises(DegenerateForcing):
        find_zero_f0(1.0, [0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "c0,mean,text",
    [
        (1e-300, 1e150, "sqrt(1e-300/1e+150) = 0 leaves the double range: r^-3 = inf"),
        (np.float64(1e300), 1e-150, "sqrt(1e+300/1e-150) = inf leaves the double range: r^-3 = 0"),
        (1e-200, 1e100, "sqrt(1e-200/1e+100) = 1e-150 leaves the double range: r^-3 = inf"),
        (np.float64(1e200), 1e-100, "sqrt(1e+200/1e-100) = 1e+150 leaves the double range: r^-3 = 0"),
        (1.24e-95, 1e-300, "sqrt(1.24e-95/1e-300) = 3.52136e+102 leaves the double range: c0 r^-3 = 0"),
        (1e-315, 1e-312, "sqrt(1e-315/1e-312) = 0.0316228 leaves the double range: |mean| = 1e-312"),
    ],
    ids=[
        "underflows",
        "overflows",
        "inverse-cube-overflows",
        "inverse-cube-underflows",
        "coefficient-underflows",
        "subnormal-mean",
    ],
)
def test_an_equilibrium_radius_outside_the_double_range_is_degenerate_forcing(c0, mean, text):
    # sqrt(c0/|mean|) is 0 or inf, so q* would be the origin or [nan, nan, -inf]; or r is finite but the
    # force c0 r^-3 q* reads r^-3 as inf or 0, so the residual would be inf or |mean|; or r^-3 = 2.3e-308
    # is normal but the coefficient c0 r^-3 = |mean|/r underflows to 0, so the residual would be
    # |mean| = 1e-300; or |mean| = 1e-312 is so far subnormal that the residual bound 1e-12 |mean|
    # rounds to 0; a numpy c0 warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateForcing) as raised:
            find_zero_f0(c0, [0.0, 0.0, mean])
    assert str(raised.value) == f"the equilibrium radius sqrt(c0/|mean|) = {text}"


def test_degree_canonical_case():
    report = brouwer_degree(1.0, [0.0, 0.0, 2.0], OMEGA, period=1.0, seed=SWEEP_SEED)
    assert report.degree == -1
    assert report.det_analytic < 0.0
    # at rest the momentum bracket collapses to 1: det = -2 |q*|^-9
    r_star = np.linalg.norm(report.x0.q)
    assert math.isclose(report.det_analytic, -2.0 * r_star**-9, rel_tol=1e-12)
    field = AutonomousField(c0=1.0, h_mean=np.array([0.0, 0.0, 2.0]))
    det_numeric = np.linalg.det(fd_jacobian_momentum_first(field, report.x0))
    assert det_numeric < 0.0
    assert math.isclose(det_numeric, report.det_analytic, rel_tol=1e-5)
    assert report.sweep["converged_to_zero"] >= 1
    assert report.sweep["converged_to_zero"] + report.sweep["escaped"] == report.sweep["starts"]


def test_degree_invariant_under_scaling_and_rotation():
    rng = np.random.default_rng(42)
    h = np.array([0.0, 0.0, 2.0])
    for _ in range(5):
        s = rng.uniform(0.2, 5.0)
        mat = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(mat) < 0:
            mat[:, 0] *= -1.0
        h_rot = s * mat @ h
        x0 = find_zero_f0(1.0, h_rot)
        r = np.linalg.norm(x0.q)
        report = brouwer_degree(1.0, h_rot, (r / 10, r * 10, 10.0), period=1.0, seed=SWEEP_SEED)
        assert report.degree == -1


def test_zero_outside_omega():
    # |q*| = 1/sqrt(2) for the canonical data; shrink the annulus above it
    with pytest.raises(ZeroOutsideOmega):
        brouwer_degree(1.0, [0.0, 0.0, 2.0], (1.0, 2.0, 10.0), period=1.0, seed=SWEEP_SEED)
    with pytest.raises(ZeroOutsideOmega):
        brouwer_degree(1.0, [0.0, 0.0, 2.0], (1e-3, 0.5, 10.0), period=1.0, seed=SWEEP_SEED)


def test_degree_refuses_a_period_whose_det_of_I_minus_M0_leaves_the_double_range():
    # c0 = 1e-6, |mean| = 50, T = 3: sT = 1783.8, so sinh(sT/2) and det(I - M0) overflow
    r = math.hypot(*find_zero_f0(1e-6, [0.0, 0.0, 50.0]).q)
    with pytest.raises(DegreeError, match=r"^sT = 1783\.81 .* beyond the double range"):
        brouwer_degree(1e-6, [0.0, 0.0, 50.0], (r / 10, r * 10, 10.0), period=3.0, seed=SWEEP_SEED)


def doctored_field(q_b, v_b) -> AutonomousField:
    """The canonical field (c0 = 1, mean 2 z) with a planted zero at (q_b, v_b).

    Within 0.8 of the planted zero the field is its linearisation there,
    built from the analytic force block and the identity velocity block,
    so Newton converges to it.
    """
    y_b = np.concatenate([q_b, v_b])

    class Doctored(AutonomousField):
        def value(self, q, v):
            near = np.linalg.norm(np.concatenate([q, v], axis=-1) - y_b, axis=-1) < 0.8
            local = np.concatenate(
                [
                    np.asarray(v) - v_b,
                    (np.asarray(q) - q_b) @ coulomb_force_jacobian(q_b, self.c0).T,
                ],
                axis=-1,
            )
            return np.where(near[..., None], local, super().value(q, v))

    return Doctored(c0=1.0, h_mean=np.array([0.0, 0.0, 2.0]))


def test_sweep_detects_planted_second_zero():
    field = doctored_field(np.array([0.0, 0.0, 0.5]), np.array([0.05, 0.0, 0.0]))
    x0 = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    with pytest.raises(MultipleZeros):
        _newton_sweep(field, x0, (0.1, 2.0, 1.0), 8, seed=1)


def test_sweep_rejects_a_zero_with_momentum():
    # within the MultipleZeros tolerance of x0 (1e-6 (1 + |q*|)), but |v| = 5e-7
    x0 = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    field = doctored_field(x0.q, np.array([5e-7, 0.0, 0.0]))
    with pytest.raises(DegreeError, match="velocity"):
        _newton_sweep(field, x0, (0.1, 2.0, 1.0), 8, seed=1)


def loop_sweep(field: AutonomousField, x0, omega, n_pow2: int, seed: int) -> dict:
    """Reference: the sweep one start at a time.

    Same starts and the same per-start rules as `_newton_sweep`: for
    g = (G, F) the Newton point in (w, v), w = q |q|^-3, is
    (w - F/c0, v - G), with w - F/c0 formed against the Coulomb model
    -h/c0; a step of length alpha is the convex combination of the current
    point and the Newton point, and q = w |w|^-3/2.  A start or a trial
    whose w or residual is not finite is no point.
    """
    m, upper, p_max = omega
    u = np.random.default_rng(seed).random((2**n_pow2, 6))
    z_q = 1.0 - 2.0 * u[:, 0]
    az_q = 2.0 * math.pi * u[:, 1]
    r_q = np.exp(np.log(m) + u[:, 2] * (np.log(upper) - np.log(m)))
    z_p = 1.0 - 2.0 * u[:, 3]
    az_p = 2.0 * math.pi * u[:, 4]
    p_floor = min(1e-3, 0.1 * p_max)
    r_p = np.exp(np.log(p_floor) + u[:, 5] * (np.log(p_max) - np.log(p_floor)))
    c0, h = field.c0, field.h_mean

    def scale(x, power):
        with np.errstate(all="ignore"):
            return x * np.dot(x, x) ** (-0.5 * power)

    def residual(q, v):
        f = field.value(q, v)
        with np.errstate(over="ignore"):
            return f, float(np.linalg.norm(f))

    ref = np.concatenate([x0.q, x0.p])  # v = 0 where p = 0
    n_converged = 0
    most_iterations = 0
    for i in range(len(u)):
        sq = math.sqrt(max(0.0, 1.0 - z_q[i] ** 2))
        sp = math.sqrt(max(0.0, 1.0 - z_p[i] ** 2))
        q = r_q[i] * np.array([sq * math.cos(az_q[i]), sq * math.sin(az_q[i]), z_q[i]])
        speed = r_p[i] / math.hypot(1.0, r_p[i])
        v = speed * np.array([sp * math.cos(az_p[i]), sp * math.sin(az_p[i]), z_p[i]])
        w = scale(q, 3.0)

        converged = False
        for k in range(1, 61) if np.all(np.isfinite(w)) else ():
            most_iterations = max(most_iterations, k)
            f, res = residual(q, v)
            if res < 1e-11:
                converged = True
                break
            if not math.isfinite(res):
                break
            w_newton = -(h + ((f[3:] - h) - c0 * w)) / c0
            v_newton = v - f[:3]
            alpha = 1.0
            improved = False
            for _ in range(30):
                w_try = (1.0 - alpha) * w + alpha * w_newton
                q_try = scale(w_try, 1.5)
                w_back = scale(q_try, 3.0)
                v_try = (1.0 - alpha) * v + alpha * v_newton
                if np.all(np.isfinite(w_back)) and residual(q_try, v_try)[1] < res:
                    q, v, w = q_try, v_try, w_back
                    improved = True
                    break
                alpha *= 0.5
            if not improved or float(np.linalg.norm(q)) > 1e6 * upper:
                break

        if converged:
            y = np.concatenate([q, v])
            assert float(np.max(np.abs(y - ref))) <= 1e-6 * (1.0 + float(np.max(np.abs(ref))))
            assert float(np.linalg.norm(v)) < 1e-9
            n_converged += 1
    return {
        "starts": len(u),
        "converged_to_zero": n_converged,
        "escaped": len(u) - n_converged,
        "iterations": most_iterations,
    }


@pytest.mark.parametrize("seed", [7, SEED])
@pytest.mark.parametrize("region", ["light", "desk"])
def test_sweep_matches_the_per_start_loop(region, seed, desk_cert):
    # hits may move a little: norms round differently in the batched arithmetic
    cert = desk_cert if region == "desk" else compute_certificate(coulomb_config())
    omega = cert.region()
    x0 = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    field = AutonomousField(c0=1.0, h_mean=np.array([0.0, 0.0, 2.0]))
    oracle = loop_sweep(field, x0, omega, 8, seed)
    sweep = _newton_sweep(field, x0, omega, 8, seed)
    assert sweep["starts"] == oracle["starts"] == 256
    assert sweep["converged_to_zero"] + sweep["escaped"] == sweep["starts"]
    assert sweep["converged_to_zero"] >= 0.99 * oracle["converged_to_zero"] > 0
    # the stack runs until its slowest start ends
    assert sweep["iterations"] == oracle["iterations"] < 60
    assert brouwer_degree(1.0, [0.0, 0.0, 2.0], omega, period=1.0, seed=seed).degree == -1
    # the sweep is a pure function of its seed: the same seed repeats it, another moves its starts
    assert _newton_sweep(field, x0, omega, 8, seed) == sweep
    other = _newton_sweep(field, x0, omega, 8, seed + 1)
    starts = [[d["starts"] for d in s["escapes_by_start_decade"]] for s in (sweep, other)]
    assert starts[0] != starts[1]


@pytest.mark.parametrize("region", ["light", "desk"])
def test_sweep_on_the_acceptance_regions_converges_from_every_decade(region, desk_cert):
    # the regions and seeds of the light and desk `lfe continue` runs, at full size
    seed = SEED if region == "desk" else 7
    cert = desk_cert if region == "desk" else compute_certificate(coulomb_config())
    sweep = brouwer_degree(1.0, [0.0, 0.0, 2.0], cert.region(), period=1.0, seed=seed).sweep
    assert sweep["starts"] == 1024
    assert sweep["converged_to_zero"] >= 0.99 * sweep["starts"]
    assert sweep["iterations"] < 60
    decades = sweep["escapes_by_start_decade"]
    assert [d["decade"] for d in decades] == sorted({d["decade"] for d in decades})
    assert sum(d["starts"] for d in decades) == sweep["starts"]
    assert sum(d["escaped"] for d in decades) == sweep["escaped"]
    # the inner decades are searched too
    assert all(0 <= d["escaped"] < d["starts"] for d in decades)


def test_sweep_counts_every_start_where_w_leaves_double_range():
    # w = q |q|^-3 overflows below |q| ~ 1e-103 and |g|^2 below ~1e-77:
    # those starts escape without a warning, and the sweep still ends
    x0 = find_zero_f0(1.0, [0.0, 0.0, 2.0])
    field = AutonomousField(c0=1.0, h_mean=np.array([0.0, 0.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = _newton_sweep(field, x0, (1e-150, 2.0, 1.0), 10, seed=1)
    assert sweep["starts"] == 1024
    assert sweep["converged_to_zero"] + sweep["escaped"] == sweep["starts"]
    decades = sweep["escapes_by_start_decade"]
    assert sum(d["starts"] for d in decades) == sweep["starts"]
    assert sum(d["escaped"] for d in decades) == sweep["escaped"]
    assert all(d["escaped"] == d["starts"] for d in decades if d["decade"] < -103)
    assert all(d["escaped"] == 0 for d in decades if d["decade"] >= -76)


def test_degree_on_desk_certificate_region(desk_cert, desk_start):
    report = brouwer_degree(1.0, [0.0, 0.0, 2.0], desk_cert.region(), period=1.0, seed=SWEEP_SEED)
    assert report.degree == -1
    # in the stated orientation the degree is minus the fixed-point index of the orbit it anchors
    assert "orientation:     " + report.orientation in report.lines()
    assert report.degree == -np.sign(np.linalg.det(np.eye(6) - desk_start.monodromy))


def test_closed_form_momentum_bracket():
    # the determinant magnitude shrinks with |p| through the energy factors
    det_rest = f0_determinant_closed_form(1.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    det_fast = f0_determinant_closed_form(1.0, [1.0, 0.0, 0.0], [3.0, 0.0, 0.0])
    assert det_rest == -2.0
    assert det_rest < det_fast < 0.0


def test_closed_form_determinant_past_the_range_of_c0_cubed():
    # c0^3 = 1e309 leaves the double range, yet with r* = 1e33 the determinant
    # -2 c0^3 r*^-9 = -2e12 is finite; every start of the sweep converges to the zero
    report = brouwer_degree(1e103, [0.0, 0.0, 1e37], (1.0, 1e40, 10.0), period=1.0, seed=1)
    assert report.degree == -1
    assert report.det_analytic == pytest.approx(-2e12, rel=1e-12)
    assert report.sweep["converged_to_zero"] == report.sweep["starts"] == 1024
    # c0^3 = 1e-330 underflows to 0 where the determinant is -2e-150; r^-9 = 1e-360 underflows and
    # c0^3 = 1e357 overflows where it is -2e-3
    assert f0_determinant_closed_form(1e-110, [1e-20, 0.0, 0.0], np.zeros(3)) == pytest.approx(-2e-150, rel=1e-12)
    assert f0_determinant_closed_form(1e119, [1e40, 0.0, 0.0], np.zeros(3)) == pytest.approx(-2e-3, rel=1e-12)
    # in range, it is the product as written, to the bit
    q, p = [0.3, -0.4, 1.2], [0.2, 0.1, -0.5]
    assert f0_determinant_closed_form(2.5, q, p) == -2.0 * 2.5**3 * math.hypot(*q) ** -9 * float(lorentz_factor(p)) ** -5
