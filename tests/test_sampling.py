"""The numpy samplers against their scipy oracles: Sobol points and the annulus maximum."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import qmc

from conftest import coulomb_config, desk_config, gyro_config
from lfe.fields import ABCField, radial_powers
from lfe.sampling import (
    _DIR_POW2,
    _N_RADII,
    _N_REFINE,
    _N_TIME,
    log_radii,
    maximize_on_annulus,
    shells,
    sobol_points,
    sphere_directions,
)


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_sobol_points_equal_scipy_bit_for_bit(dim):
    for seed in (0, 1, 7, 42, 20240803, 20240804, 20240805, 2**31 + 5):
        for m in range(13):
            ours = sobol_points(m, dim, seed)
            oracle = qmc.Sobol(d=dim, scramble=True, seed=seed).random_base2(m)
            assert ours.dtype == oracle.dtype and np.array_equal(ours, oracle), (dim, seed, m)


def _lbfgsb_maximum(func, r_lo, r_hi, t_max, seed):
    """The annulus maximum as computed with scipy's L-BFGS-B: same sweep, same 5 seeds."""
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
        return grad_plus_b(t, q) + config.c0 / np.linalg.norm(q, axis=-1) ** 2

    return grad_plus_b, h_total


@pytest.mark.parametrize(
    "config",
    [
        desk_config(),
        coulomb_config(),  # the light scenario
        coulomb_config(c0=0.5, mean=(1.0, 0.0, 2.0)),
        gyro_config(),
        dataclasses.replace(desk_config(), magnetic=ABCField(1.0, 0.7, 0.4)),  # interior maxima
    ],
    ids=["desk", "light", "coulomb", "gyro", "abc"],
)
def test_annulus_maximum_reaches_the_lbfgsb_value(config):
    for func, r_lo, r_hi, seed in zip(
        _certificate_integrands(config), (0.3, 1e-20), (5.0, 5.0), (20240804, 20240805)
    ):
        value, q, t, meta = maximize_on_annulus(func, r_lo, r_hi, 1.0, seed=seed)
        assert value >= _lbfgsb_maximum(func, r_lo, r_hi, 1.0, seed) * (1.0 - 1e-9)
        # the reported point is inside the annulus and attains the value
        assert r_lo * (1 - 1e-12) <= np.linalg.norm(q) <= r_hi * (1 + 1e-12) and 0.0 <= t <= 1.0
        assert math.isclose(float(func(np.array([t]), q[None])[0]), value, rel_tol=1e-12)
        assert meta["samples"] == _N_RADII * 2**_DIR_POW2 * _N_TIME


@pytest.mark.parametrize("r_lo,r_hi", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)], ids=["zero", "equal", "reversed"])
def test_log_radii_needs_an_increasing_positive_range(r_lo, r_hi):
    with pytest.raises(ValueError, match=r"^need 0 < r_lo < r_hi"):
        log_radii(r_lo, r_hi, 5)
