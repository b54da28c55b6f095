"""Quasi-random starts for the degree sweep: scrambled Sobol points and unit vectors.

The sweep is seeded and reduced in enumeration order, so repeated runs
are bit-reproducible.
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

