"""Quasi-random sampling helpers for the certificate and validator sweeps.

Every sweep is seeded and reduced in enumeration order, so repeated runs
of a check are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

# Sobol direction numbers of dimensions 1-6 (Joe & Kuo 2008): primitive
# polynomial and initial values; dimension 1 is van der Corput's sequence.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19)
_SOBOL_INIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3))
_SOBOL_BITS = 30


def _direction_numbers(dim: int) -> np.ndarray:
    """The 30-bit direction numbers v[d, j] of the first dim Sobol dimensions."""
    v = np.ones((dim, _SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        poly, init = _SOBOL_POLY[d], _SOBOL_INIT[d]
        deg = len(init)
        v[d, :deg] = init
        for j in range(deg, _SOBOL_BITS):
            new = v[d, j - deg]
            for k in range(1, deg + 1):
                if (poly >> (deg - k)) & 1:
                    new ^= v[d, j - k] << k
            v[d, j] = new
    return v << np.arange(_SOBOL_BITS - 1, -1, -1)


def sobol_points(n_pow2: int, dim: int, seed: int) -> np.ndarray:
    """2**n_pow2 scrambled Sobol points in [0, 1)^dim, dim <= 6.

    Linear matrix scrambling plus a digital shift, drawn from
    default_rng(seed) in the order of scipy's qmc.Sobol(dim, scramble=True,
    seed=seed).random_base2(n_pow2), whose output this equals bit for bit.
    """
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, size=(dim, _SOBOL_BITS), dtype=np.uint32) @ (
        1 << np.arange(_SOBOL_BITS)
    )
    ltm = np.tril(rng.integers(0, 2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    # bit l (from the top) of a scrambled number: parity of row l of ltm against its old bits
    top = np.arange(_SOBOL_BITS - 1, -1, -1)
    bits = (_direction_numbers(dim)[:, :, None] >> top) & 1
    v = (np.einsum("dlk,djk->djl", ltm.astype(np.int64), bits) & 1) @ (1 << top)
    # Gray-code order: point i is the shift XOR the direction numbers of the bits of i ^ (i >> 1)
    i = np.arange(2**n_pow2)
    gray = i ^ (i >> 1)
    quasi = np.broadcast_to(shift.astype(np.int64), (len(i), dim))
    for j in range(n_pow2):
        quasi = quasi ^ (((gray >> j) & 1)[:, None] * v[:, j])
    return quasi * 2.0**-_SOBOL_BITS


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
# the ascent: central-difference step, iteration cap, step quarterings per iteration
_FD_STEP = 1e-6
_ASCENT_ITERS = 200
_BACKTRACKS = 25


def _annulus_point(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, q) of parameter rows z = (log r, cos theta, azimuth, t) of shape (k, 4)."""
    r = np.exp(z[:, 0])
    cz = np.clip(z[:, 1], -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - cz * cz))
    return z[:, 3], r[:, None] * np.column_stack([s * np.cos(z[:, 2]), s * np.sin(z[:, 2]), cz])


def _ascend(f, z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent of f inside the box [lo, hi] from every row of z at once.

    f maps rows of shape (k, 4) to k values.  The gradient is a central
    difference, scaled by |f|; each iteration tries the last accepted step
    times 4 and quarters it until the projected point satisfies the Armijo
    condition with a strict increase.  A row stops when no quartering
    increases f.  Returns the final rows and their values.
    """
    z = z.copy()
    fz = f(z)
    probes = _FD_STEP * np.vstack([np.eye(4), -np.eye(4)])
    step = np.ones(len(z))
    live = np.arange(len(z))
    for _ in range(_ASCENT_ITERS):
        zl, fl = z[live], fz[live]
        fp = f((zl[:, None, :] + probes).reshape(-1, 4)).reshape(len(live), 8)
        scale = np.maximum(np.abs(fl), 1e-300)[:, None]
        grad = (fp[:, :4] - fp[:, 4:]) / (2.0 * _FD_STEP * scale)
        trial = 4.0 * step[live]
        moved = np.zeros(len(live), dtype=bool)
        waiting = np.arange(len(live))
        for _ in range(_BACKTRACKS):
            z_try = np.clip(zl[waiting] + trial[waiting, None] * grad[waiting], lo, hi)
            f_try = f(z_try)
            rise = np.add.reduce(grad[waiting] * (z_try - zl[waiting]), axis=1)
            ok = (f_try > fl[waiting]) & (f_try >= fl[waiting] + 1e-4 * scale[waiting, 0] * rise)
            rows = live[waiting[ok]]
            z[rows], fz[rows], step[rows] = z_try[ok], f_try[ok], trial[waiting[ok]]
            moved[waiting[ok]] = True
            waiting = waiting[~ok]
            if not waiting.size:
                break
            trial[waiting] *= 0.25
        live = live[moved]
        if not live.size:
            break
    return z, fz


def maximize_on_annulus(func, r_lo: float, r_hi: float, t_max: float, *, seed: int):
    """Sampled maximum of func(t, q) over the shell r_lo <= |q| <= r_hi, t in [0, t_max], t_max > 0.

    func takes q of shape (N, 3) and t of shape () (the sweep, one call
    per time) or (N,) (the ascent, one time per point); it returns one
    value per point.

    Structured sweep (log radii x quasi-random directions x time grid)
    followed by a projected gradient ascent (`_ascend`) from the best
    seeds, parametrized in (log r, cos theta, azimuth, t) with the radius
    kept inside the shell.  Returns (value, q, t, meta), with the number
    of sweep samples in meta["samples"].
    """
    points = shells(log_radii(r_lo, r_hi, _N_RADII), sphere_directions(_DIR_POW2, seed))
    times = np.linspace(0.0, t_max, _N_TIME)
    values = np.array([func(t, points) for t in times])

    flat = values.ravel()
    order = np.argsort(flat)[::-1][:_N_REFINE]
    i, j = np.unravel_index(order, values.shape)
    q, r = points[j], np.linalg.norm(points[j], axis=1)
    azimuth = np.arctan2(q[:, 1], q[:, 0]) % (2.0 * math.pi)
    z0 = np.column_stack([np.log(r), np.clip(q[:, 2] / r, -1.0, 1.0), azimuth, times[i]])
    lo = np.array([math.log(r_lo), -1.0, 0.0, 0.0])
    hi = np.array([math.log(r_hi), 1.0, 2.0 * math.pi, t_max])
    z, fz = _ascend(lambda z: func(*_annulus_point(z)), z0, lo, hi)

    best_val = float(flat[order[0]])
    best_q, best_t = points[j[0]].copy(), float(times[i[0]])
    k = int(np.argmax(fz))
    if fz[k] > best_val:
        best_val = float(fz[k])
        t, q = _annulus_point(z[k : k + 1])
        best_t, best_q = float(t[0]), q[0]

    return best_val, best_q, best_t, {"samples": int(flat.size)}
