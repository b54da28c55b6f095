"""Quasi-random sampling helpers for the certificate and validator sweeps.

Every sweep is seeded and reduced in enumeration order, so repeated runs
of a check are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc


def sobol_points(n_pow2: int, dim: int, seed: int) -> np.ndarray:
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    return sampler.random_base2(n_pow2)


def unit_vectors(u: np.ndarray) -> np.ndarray:
    """One unit vector per row of u in [0, 1)^2; uniform u gives area-uniform directions."""
    z = 1.0 - 2.0 * u[:, 0]
    az = 2.0 * math.pi * u[:, 1]
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(az), s * np.sin(az), z])


def sphere_directions(n_pow2: int, seed: int) -> np.ndarray:
    """2**n_pow2 quasi-random unit vectors, area-uniform on the sphere."""
    return unit_vectors(sobol_points(n_pow2, 2, seed))


def log_radii(r_lo: float, r_hi: float, n: int) -> np.ndarray:
    """Log-spaced radii including both endpoints exactly."""
    if not (0.0 < r_lo < r_hi):
        raise ValueError(f"need 0 < r_lo < r_hi, got [{r_lo}, {r_hi}]")
    r = np.geomspace(r_lo, r_hi, n)
    r[0], r[-1] = r_lo, r_hi
    return r


def shells(radii, dirs: np.ndarray) -> np.ndarray:
    """Cloud of shape (len(radii) * len(dirs), 3): every direction at each radius in turn."""
    return (np.asarray(radii, dtype=float)[:, None, None] * dirs[None, :, :]).reshape(-1, 3)


# maximize_on_annulus: the sweep grid and the number of best samples refined
_N_RADII = 40
_DIR_POW2 = 8
_N_TIME = 4
_N_REFINE = 5


def maximize_on_annulus(func, r_lo: float, r_hi: float, t_max: float, *, seed: int):
    """Sampled maximum of func(t, q) over the shell r_lo <= |q| <= r_hi, t in [0, t_max].

    func takes q of shape (N, 3) for the sweep, one call per time, and of
    shape (3,) during the ascent; it returns one value per point.

    Structured sweep (log radii x quasi-random directions x time grid)
    followed by local ascent from the best seeds, parametrized in
    (log r, cos theta, azimuth, t) with the radius kept inside the shell.
    Returns (value, q, t, meta) where meta records the sample counts.
    """
    points = shells(log_radii(r_lo, r_hi, _N_RADII), sphere_directions(_DIR_POW2, seed))
    times = np.linspace(0.0, t_max, _N_TIME) if t_max > 0 else np.array([0.0])
    values = np.array([func(t, points) for t in times])

    flat = values.ravel()
    order = np.argsort(flat)[::-1][:_N_REFINE]

    log_lo, log_hi = math.log(r_lo), math.log(r_hi)

    def unpack(z):
        r = math.exp(z[0])
        cz = min(1.0, max(-1.0, z[1]))
        s = math.sqrt(max(0.0, 1.0 - cz * cz))
        q = r * np.array([s * math.cos(z[2]), s * math.sin(z[2]), cz])
        return z[3], q

    def neg(z):
        t, q = unpack(z)
        return -func(t, q)

    best_val = float(flat[order[0]])
    i0, j0 = np.unravel_index(order[0], values.shape)
    best_q, best_t = points[j0].copy(), float(times[i0])

    bounds = [(log_lo, log_hi), (-1.0, 1.0), (0.0, 2.0 * math.pi), (0.0, max(t_max, 0.0))]
    for k in order:
        i, j = np.unravel_index(k, values.shape)
        q = points[j]
        r = float(np.linalg.norm(q))
        cz = min(1.0, max(-1.0, q[2] / r))
        az = math.atan2(q[1], q[0]) % (2.0 * math.pi)
        z0 = np.array([math.log(r), cz, az, times[i]])
        res = minimize(neg, z0, method="L-BFGS-B", bounds=bounds)
        if -res.fun > best_val:
            best_val = float(-res.fun)
            best_t, best_q = unpack(res.x)

    meta = {
        "samples": int(flat.size),
        "n_radii": _N_RADII,
        "n_directions": 2**_DIR_POW2,
        "n_time": len(times),
        "seed": seed,
        "refined": _N_REFINE,
    }
    return best_val, best_q, best_t, meta
