"""The sampled hypothesis checks: the oracle of `lfe.fields.validate_hypotheses`.

`sampled_hypotheses(config, seed)` checks the six hypothesis rows on
seeded Sobol clouds (scipy's `qmc.Sobol`; a test that draws them skips
without scipy), without the field kinds' closed forms that
`validate_hypotheses` reads.  Its numbers come from one sweep,
`shell_maxima`: per sphere of radius r, the maximum of |grad V|, of
q . grad V, or of |B| over a time grid.  It needs only a field's
`gradient` or `eval`, so it also runs on kinds without closed forms; the
one exception is the beta-below-gamma row, which compares constants and
reads gamma from its one home, the potential's `radial_law()`.

`sampled_radial_law(potential, eps, seed)` is the oracle of that closed
form itself: it compares q . grad V on a near-origin cloud with the
-a |q|^-g of the kind's `radial_law()`.

Every bound comparison allows a rounding slack of `slack` times the bound
(the magnetic growth row: times max(bound, 1)); the magnetic ceiling is
non-strict, |B| <= c_B, as the closed-form row is.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lfe.fields import FieldConfig, radial_powers

_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
FAR_RADII = (1e1, 1e2, 1e3, 1e4)
SLACK = 1e-9
# the near-origin rows sample log radii from NEAR_DEPTH * eps to eps (1 - 1e-9)
NEAR_DEPTH = 1e-4


def sphere_directions(n_pow2: int, seed: int) -> np.ndarray:
    """2**n_pow2 quasi-random unit vectors, area-uniform on the sphere, from scrambled Sobol points."""
    qmc = pytest.importorskip("scipy.stats.qmc")
    u = qmc.Sobol(d=2, scramble=True, seed=seed).random_base2(n_pow2)
    z, az = 1.0 - 2.0 * u[:, 0], 2.0 * math.pi * u[:, 1]
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(az), s * np.sin(az), z])


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


def magnitudes(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis of v (..., 3), without the under- and overflow of its squares.

    np.linalg.norm squares the components, so a row with |v| below about
    sqrt(tiny) reads as 0 or loses digits, and one beyond about 1e154 as
    inf.  Only those rows are redone with nested hypot; an all-zero v has
    nothing to redo.
    """
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v, axis=-1)
    redo = (n < _SQRT_TINY) | np.isinf(n)
    if redo.any() and v.any():
        w = v[redo]
        n[redo] = np.hypot(np.hypot(w[:, 0], w[:, 1]), w[:, 2])
    return n


def shell_maxima(radii, directions, potential=None, magnetic=None, period=None, *, radial=False):
    """(v, b): maxima over each sphere |q| = radii[i], sampled at `directions`.

    v is the maximum of |grad V| of `potential` (of q . grad V if `radial`),
    b of |B| of `magnetic` over the times 0, T/4, T/2, 3T/4, T of `period`;
    each is None if its field is.  A NaN sample makes its sphere's maximum
    NaN.  Rounding is monotone, so a margin bound - v is the least margin
    over the sphere's samples, bit for bit.
    """
    q, rad = radial_powers(shells(radii, directions))
    v = b = None
    if potential is not None:
        g = potential.gradient(q, rad)
        v = np.add.reduce(q * g, axis=-1) if radial else magnitudes(g)
        v = np.maximum.reduce(v.reshape(len(radii), -1), axis=1)
    if magnetic is not None:
        b = [magnitudes(magnetic.eval(t, q, rad)) for t in np.linspace(0.0, period, 5)]
        b = np.maximum.reduce(np.reshape(b, (len(b), len(radii), -1)), axis=(0, 2))
    return v, b


def sampled_hypotheses(config: FieldConfig, seed: int, slack: float = SLACK) -> dict[str, tuple[bool, str, float]]:
    """Row name -> (passed, detail, worst sampled margin), the rows of `validate_hypotheses`, sampled."""
    rows = {}
    dirs = sphere_directions(6, seed)

    # electric decay at infinity: sphere maxima of |grad V| must fall off
    gv, b_far = shell_maxima(FAR_RADII, dirs, config.potential, config.magnetic, config.forcing.period)
    decreasing = all(gv[i + 1] < gv[i] for i in range(len(gv) - 1))
    decayed = gv[-1] <= 1e-3 * gv[0] if gv[0] > 0 else True
    margin = (1e-3 * gv[0] - gv[-1]) if gv[0] > 0 else 0.0
    detail = f"|grad V| on radii {FAR_RADII}: {['%.3e' % g for g in gv]}"
    rows["electric-decay-at-infinity"] = (decreasing and decayed, detail, margin)

    # global repulsion sign: q.grad V < 0 on a quasi-random cloud
    radii = log_radii(1e-3, 1e3, 128)
    cloud_dirs = sphere_directions(7, seed + 1)
    worst = float(shell_maxima(radii, cloud_dirs, config.potential, radial=True)[0].max())
    detail = f"max q.grad V over {len(radii) * len(cloud_dirs)} sampled points = {worst:.3e}"
    rows["repulsion-sign-global"] = (worst < 0.0, detail, -worst)

    # magnetic ceiling at infinity: sampled |B| <= c_B on far spheres
    bmax = float(b_far.max())
    margin = config.c_B - bmax + slack * config.c_B
    detail = f"max |B| on far spheres = {bmax:.3e} vs c_B = {config.c_B}"
    rows["magnetic-ceiling-at-infinity"] = (margin >= 0.0, detail, margin)

    # near-origin magnetic growth: |B| <= c1 |q|^(-beta-1) for |q| < eps1
    radii = log_radii(config.eps1 * NEAR_DEPTH, config.eps1 * (1.0 - 1e-9), 64)
    bound = config.c1 * radii ** (-config.beta - 1.0)
    _, val = shell_maxima(radii, dirs, magnetic=config.magnetic, period=config.forcing.period)
    margin = float(np.min((bound - val) + slack * np.maximum(bound, 1.0)))
    detail = f"|B| <= c1 |q|^-(beta+1) on |q| < eps1={config.eps1}"
    rows["magnetic-growth-near-origin"] = (margin >= 0.0, detail, margin)

    # singularity ordering between the two fields, and the mean forcing over the ceiling
    _, gamma = config.potential.radial_law()
    rows["beta-below-gamma"] = (0.0 < config.beta < gamma, f"beta={config.beta}, gamma={gamma}", gamma - config.beta)
    hm = config.forcing.mean_norm
    detail = f"|mean h| = {hm:.6g} vs c_B = {config.c_B}"
    rows["mean-forcing-dominates-ceiling"] = (hm > config.c_B, detail, hm - config.c_B)
    return rows


def sampled_radial_law(potential, eps: float, seed: int, slack: float = SLACK) -> tuple[bool, str, float]:
    """(passed, detail, worst margin) of the potential's `radial_law()` on the near-origin cloud |q| < eps.

    The law states -q . grad V = a |q|^-g exactly, so every sampled
    q . grad V must lie within slack a |q|^-g of -a |q|^-g, on log radii
    from NEAR_DEPTH eps to eps.  A NaN sample makes the margin NaN, which fails.
    """
    a, g = potential.radial_law()
    radii, dirs = log_radii(eps * NEAR_DEPTH, eps * (1.0 - 1e-9), 64), sphere_directions(6, seed)
    q, rad = radial_powers(shells(radii, dirs))
    law = -a * np.repeat(radii, len(dirs)) ** -g
    sampled = np.add.reduce(q * potential.gradient(q, rad), axis=-1)
    margin = float(np.min(slack * np.abs(law) - np.abs(sampled - law)))
    return margin >= 0.0, f"q.grad V = -{a:.6g} |q|^-{g:g} on |q| < eps={eps}", margin
