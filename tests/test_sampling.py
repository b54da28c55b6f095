"""The closed-form certificate constants against their scipy L-BFGS-B oracle."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import coulomb_config, desk_config, gyro_config
from lfe.certificate import compute_momentum_bound
from lfe.fields import ABCField, DipoleField, GeneralizedCoulomb, UniformField, ZeroField, radial_powers
from sampled_checks import log_radii, shells, sphere_directions

# the oracle's sweep: log radii x 2^_DIR_POW2 directions x times, then L-BFGS-B from the best _N_REFINE
_N_RADII = 40
_DIR_POW2 = 8
_N_TIME = 4
_N_REFINE = 5


def _lbfgsb_maximum(func, r_lo, r_hi, t_max, seed):
    """The annulus maximum as computed with scipy's L-BFGS-B: same sweep, same 5 seeds."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    points = shells(log_radii(r_lo, r_hi, _N_RADII), sphere_directions(_DIR_POW2, seed))
    times = np.linspace(0.0, t_max, _N_TIME)
    values = np.array([func(t, points) for t in times])
    order = np.argsort(values.ravel())[::-1][:_N_REFINE]

    def neg(z):
        cz = min(1.0, max(-1.0, z[1]))
        s = math.sqrt(max(0.0, 1.0 - cz * cz))
        q = math.exp(z[0]) * np.array([s * math.cos(z[2]), s * math.sin(z[2]), cz])
        return -func(z[3], q)

    best = float(values.ravel()[order[0]])
    bounds = [(math.log(r_lo), math.log(r_hi)), (-1.0, 1.0), (0.0, 2.0 * math.pi), (0.0, t_max)]
    for k in order:
        i, j = np.unravel_index(k, values.shape)
        q = points[j]
        r = float(np.linalg.norm(q))
        z0 = [math.log(r), min(1.0, max(-1.0, q[2] / r)), math.atan2(q[1], q[0]) % (2.0 * math.pi), times[i]]
        best = max(best, float(-minimize(neg, z0, method="L-BFGS-B", bounds=bounds).fun))
    return best


def _certificate_integrands(config):
    """The two functions the certificate maximizes: |grad V| + |B| and that plus c0/|q|^2."""

    def grad_plus_b(t, q):
        q, rad = radial_powers(q)
        return np.linalg.norm(config.potential.gradient(q, rad), axis=-1) + np.linalg.norm(
            config.magnetic.eval(t, q, rad), axis=-1
        )

    def h_total(t, q):
        return grad_plus_b(t, q) + config.potential.c0 / np.linalg.norm(q, axis=-1) ** 2

    return grad_plus_b, h_total


def _closed_form(config, r_lo, r_hi):
    """The certificate's C_gradV_B at epsilon = r_lo and its M at m = r_lo, with R + T = r_hi."""
    C = config.potential.envelope(r_lo) + config.magnetic.envelope(r_lo)
    M, _ = compute_momentum_bound(config, r_lo, r_hi - config.forcing.period, l1=0.0)
    return C, M


def _check_against_the_oracle(config, r_lo, r_hi, seeds, attained):
    """Each closed form bounds the L-BFGS-B maximum of its integrand, and equals it if `attained`."""
    for func, bound, seed in zip(_certificate_integrands(config), _closed_form(config, r_lo, r_hi), seeds):
        oracle = _lbfgsb_maximum(func, r_lo, r_hi, 1.0, seed)
        assert bound >= oracle * (1.0 - 1e-12), (bound, oracle)
        if attained:
            assert math.isclose(bound, oracle, rel_tol=1e-12), (bound, oracle)


@pytest.mark.parametrize(
    "config,attained",
    [
        (desk_config(), True),
        (coulomb_config(), True),  # the light scenario
        (coulomb_config(c0=0.5, mean=(1.0, 0.0, 2.0)), True),
        # the gyration field with the light scenario's potential: the certificate reads its c0
        (dataclasses.replace(coulomb_config(), magnetic=gyro_config().magnetic), True),
        (dataclasses.replace(desk_config(), magnetic=ABCField(1.0, 0.7, 0.4)), False),  # interior maxima
    ],
    ids=["desk", "light", "coulomb", "gyro", "abc"],
)
def test_annulus_maximum_reaches_the_lbfgsb_value(config, attained):
    for r_lo in (0.3, 1e-20):
        _check_against_the_oracle(config, r_lo, 5.0, (20240804, 20240805), attained)


def _random_config(seed):
    """A random Coulomb-family potential, field of the seed's kind and annulus; whether the envelopes are attained."""
    rng = np.random.default_rng(seed)
    c0, gamma = 10.0 ** rng.uniform(-1, 1), rng.uniform(1.0, 4.0)
    kind = ("dipole", "uniform", "abc", "zero")[seed % 4]
    magnetic = {
        "dipole": lambda: DipoleField(rng.normal(size=3)),
        "uniform": lambda: UniformField(rng.normal(size=3)),
        "abc": lambda: ABCField(*rng.normal(size=3)),
        "zero": ZeroField,
    }[kind]()
    potential = GeneralizedCoulomb(c0, gamma)
    config = dataclasses.replace(coulomb_config(), potential=potential, magnetic=magnetic)
    r_lo = 10.0 ** rng.uniform(-3, 0)
    return config, r_lo, r_lo * 10.0 ** rng.uniform(0.5, 2), kind != "abc"


@pytest.mark.parametrize("seed", range(8))
def test_closed_forms_bound_the_lbfgsb_value_on_random_configs(seed):
    config, r_lo, r_hi, attained = _random_config(seed)
    _check_against_the_oracle(config, r_lo, r_hi, (seed, seed + 100), attained)


@pytest.mark.parametrize("r_lo,r_hi", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)], ids=["zero", "equal", "reversed"])
def test_log_radii_needs_an_increasing_positive_range(r_lo, r_hi):
    with pytest.raises(ValueError, match=r"^need 0 < r_lo < r_hi"):
        log_radii(r_lo, r_hi, 5)
