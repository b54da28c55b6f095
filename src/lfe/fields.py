"""Electric potentials, magnetic fields, periodic forcings and their hypothesis checks.

The solver needs four structural properties of the field configuration:
the electric force decays at infinity, it repels from the origin at a
known singular rate, the magnetic field has a finite ceiling at infinity,
and its singularity at the origin is strictly weaker than the electric
one.  `validate_hypotheses` checks all of them on seeded sample clouds
and reports pass/fail per condition; the checks are sampled, not proven.
Their numbers come from one sweep, `shell_maxima`: per sphere of radius
r, the maximum of |grad V|, of q . grad V, or of |B| over a time grid.

Each field kind carries the closed forms the certificate reads instead
of sampling: `envelope(r)`, a non-increasing bound of |grad V| or |B| on
the sphere |q| = r (attained but for ABC), for R, C_gradV_B and M; a
potential kind's `radial_law()`, the (a, g) of its exact
-q . grad V = a |q|^-g, for epsilon; a magnetic kind's `ceiling()`, its
`c_B = auto`; and `near_origin(gamma)`, its default (c1, beta), if any.

Every potential and magnetic field takes one point `q` of shape (3,) or
a cloud of shape (N, 3) through the same code path and returns the
matching shape: `value(q)` gives a scalar or (N,), `gradient(q, rad)`
and `eval(t, q, rad)` give (3,) or (N, 3).  `rad` is the radial data
(|q|^-2, |q|^-3) that `radial_powers(q)` returns with q, so the terms at
the same points share one |q|; `radial_powers` and `value` raise
`SingularityError` if any row is the origin.  `eval` takes t of shape ()
or (N,), one time per point; the fields here are static, so t only
broadcasts.  Row i of a cloud result equals, bit for bit, the result for
row i alone.  `Forcing.eval` takes t of shape () or (n,) in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lfe.sampling import log_radii, shells, sphere_directions


class SingularityError(ValueError):
    """A field was evaluated at the origin, where it is undefined."""


def radial_powers(q) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """q as floats and its radial data (|q|^-2, |q|^-3), each of shape (1,) or (N, 1)."""
    q = np.asarray(q, dtype=float)
    r2 = np.einsum("...i,...i", q, q)[..., None]
    if np.count_nonzero(r2) != r2.size:
        raise SingularityError("fields are singular at the origin")
    s = 1.0 / r2
    return q, (s, s * np.sqrt(s))


def power_law(c: float, r: float, k: float) -> float:
    """c r^-k for c >= 0 and r > 0, or inf where it leaves the double range; never OverflowError."""
    try:
        return float(c) * float(r) ** -k
    except OverflowError:  # r^-k alone overflows; a small c may bring the product back
        e = math.log(c) - k * math.log(r) if c else -math.inf
        return math.exp(e) if e < math.log(np.finfo(float).max) else math.inf


# ---------------------------------------------------------------------------
# Electric potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralizedCoulomb:
    """Radial repulsive potential  V(q) = (c0/gamma) |q|^(-gamma).

    gamma = 1 is the Coulomb potential c0/|q|.  For every gamma the radial
    identity  q . grad V(q) = -c0 |q|^(-gamma)  holds exactly, which makes
    the family sharp for the near-origin hypothesis at any exponent.
    """

    c0: float
    gamma: float = 1.0

    def __post_init__(self):
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")

    def value(self, q):
        _, (s, _) = radial_powers(q)
        return self.c0 / self.gamma * s[..., 0] ** (0.5 * self.gamma)

    def gradient(self, q, rad) -> np.ndarray:
        return -self.c0 * rad[0] ** (0.5 * self.gamma + 1.0) * q

    def envelope(self, r: float) -> float:
        """|grad V| on the sphere |q| = r, exactly: c0 r^-(gamma+1)."""
        return power_law(self.c0, r, self.gamma + 1.0)

    def radial_law(self) -> tuple[float, float]:
        """(c0, gamma): -q . grad V = c0 |q|^-gamma on every sphere, exactly."""
        return self.c0, self.gamma


# ---------------------------------------------------------------------------
# Magnetic fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroField:
    def eval(self, t: float, q, rad) -> np.ndarray:
        return np.zeros(np.shape(q))

    def envelope(self, r: float) -> float:
        return 0.0

    def ceiling(self) -> float:
        return 1.0  # any positive ceiling holds

    def near_origin(self, gamma: float) -> tuple[float, float]:
        return 0.0, 0.5 * gamma


@dataclass(frozen=True)
class UniformField:
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))

    def eval(self, t: float, q, rad) -> np.ndarray:
        return np.broadcast_to(self.b, np.shape(q)).copy()

    def envelope(self, r: float) -> float:
        return math.hypot(*self.b)

    def ceiling(self) -> float:
        if self.b.any():  # |B| = |b| at every sample, so no ceiling lies strictly above it
            raise ValueError(
                f"c_B = auto: a uniform field has |B| = {self.envelope(1.0):g} everywhere, "
                "and c_B must lie strictly above it; give c_B as a number"
            )
        return 1.0


@dataclass(frozen=True)
class DipoleField:
    """Point dipole  B(q) = 3 q (mu.q) |q|^-5 - mu |q|^-3  (prefactor absorbed in mu).

    |B(q)| <= c1 |q|^-3 with c1 = 2|mu| (by `math.hypot`), with equality on
    the dipole axis; a moment whose 2|mu| overflows is a ValueError.
    """

    moment: np.ndarray
    c1: float = field(init=False, repr=False, compare=False)  # 2|moment|

    def __post_init__(self):
        object.__setattr__(self, "moment", np.asarray(self.moment, dtype=float))
        size = math.hypot(*self.moment)
        if 2.0 * size == math.inf:
            raise ValueError(f"moment is too large: |moment| = {size:.6g}, so 2|moment| overflows")
        object.__setattr__(self, "c1", 2.0 * size)

    def eval(self, t: float, q, rad) -> np.ndarray:
        s, s3 = rad
        # einsum, not q @ moment, whose BLAS sum differs between a row and a stack
        mu_q = np.einsum("...i,i", q, self.moment)[..., None]
        return s3 * (3.0 * s * mu_q * q - self.moment)

    def envelope(self, r: float) -> float:
        return power_law(self.c1, r, 3.0)

    def ceiling(self) -> float:
        return self.c1 or 1.0

    def near_origin(self, gamma: float) -> tuple[float, float]:
        return self.c1, 2.0  # sharp


@dataclass(frozen=True)
class ABCField:
    """Arnold-Beltrami-Childress field: bounded, divergence-free, trigonometric.

    |B| <= sup = |(|A| + |C|, |B| + |A|, |C| + |B|)| (by `math.hypot`)
    everywhere, which no sample reaches; coefficients whose sup overflows
    are a ValueError.
    """

    A: float
    B: float
    C: float
    sup: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Python floats, whose sums overflow to inf without a numpy RuntimeWarning
        a, b, c = (abs(float(v)) for v in (self.A, self.B, self.C))
        sup = math.hypot(a + c, b + a, c + b)
        if sup == math.inf:
            raise ValueError(
                f"abc = {self.A:g} {self.B:g} {self.C:g} is too large: "
                "the sup of |B|, |(|A| + |C|, |B| + |A|, |C| + |B|)|, overflows"
            )
        object.__setattr__(self, "sup", sup)

    def eval(self, t: float, q, rad) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        x, y, z = q[..., 0], q[..., 1], q[..., 2]
        return np.stack(
            [
                self.A * np.sin(z) + self.C * np.cos(y),
                self.B * np.sin(x) + self.A * np.cos(z),
                self.C * np.sin(y) + self.B * np.cos(x),
            ],
            axis=-1,
        )

    def envelope(self, r: float) -> float:
        return self.sup

    def ceiling(self) -> float:
        return self.sup or 1.0


# ---------------------------------------------------------------------------
# Periodic forcing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Harmonic:
    k: int
    cos_coeff: np.ndarray
    sin_coeff: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("harmonic index must be >= 1")
        object.__setattr__(self, "cos_coeff", np.asarray(self.cos_coeff, dtype=float))
        object.__setattr__(self, "sin_coeff", np.asarray(self.sin_coeff, dtype=float))


def mean_norm(mean) -> float:
    """|mean| by `math.hypot`, which neither under- nor overflows; ValueError if |mean|^2 overflows."""
    size = math.hypot(*mean)
    if size * size == math.inf:  # |mean|^2 is in every bound and in the equilibrium
        raise ValueError(f"mean is too large: |mean| = {size:.6g}, so |mean|^2 overflows")
    return size


@dataclass(frozen=True)
class Forcing:
    """Finite Fourier forcing h(t) = mean + sum_k a_k cos(2 pi k t/T) + b_k sin(2 pi k t/T).

    The time average over one period is `mean` exactly, by orthogonality;
    no quadrature is involved in reading it off.
    """

    period: float
    mean: np.ndarray
    harmonics: tuple = ()
    mean_norm: float = field(init=False, repr=False, compare=False)  # |mean|, from `mean_norm`
    # (2 pi k / T, np.cos or np.sin, its coefficient) per nonzero a_k and b_k, for `eval`
    _waves: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "mean_norm", mean_norm(self.mean))
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        w = 2.0 * math.pi / self.period
        waves = tuple(
            (w * harm.k, wave, coeff)
            for harm in self.harmonics
            for wave, coeff in ((np.cos, harm.cos_coeff), (np.sin, harm.sin_coeff))
            if coeff.any()
        )
        object.__setattr__(self, "_waves", waves)

    def eval(self, t, scale: float = 1.0) -> np.ndarray:
        """mean + scale * (h(t) - mean) at t of shape () or (n,): shape (3,) or (n, 3).

        scale = 1 gives h(t).  The harmonic terms are summed first and the
        mean is added once, so a scaled forcing costs one pass; row i equals
        the value at time i alone.
        """
        t = np.asarray(t, dtype=float)
        if scale == 0.0 or not self._waves:
            h = np.empty(t.shape + (3,))
            h[...] = self.mean
            return h
        # a numpy scalar, not a 0-d array: it multiplies a Python float at a tenth of the cost
        t = t[..., None] if t.ndim else t[()]
        total = None
        for w, wave, coeff in self._waves:
            term = coeff * wave(w * t)
            total = term if total is None else total + term
        return self.mean + scale * total

    def is_constant(self) -> bool:
        return len(self.harmonics) == 0

    def l1_norm(self) -> float:
        """Integral of |h(t)| over one period.

        Exact for a constant forcing.  Otherwise adaptive composite
        Gauss-Legendre (`gauss_legendre`), every interval of a round in one
        evaluation: starting from 64 intervals, an interval is halved until
        the rule on its halves agrees with the rule on the whole within
        1e-12 of the first estimate per unit time.  That resolves the kinks
        of |h| where h passes through 0.
        """
        if self.is_constant():
            return self.period * self.mean_norm

        def rule(a, b):
            t, w = gauss_legendre(a, b)
            h = np.linalg.norm(self.eval(t.ravel()), axis=-1).reshape(t.shape)
            return np.add.reduce(w * h, axis=1)

        edges = np.linspace(0.0, self.period, 65)
        a, b = edges[:-1], edges[1:]
        whole = rule(a, b)
        tol = 1e-12 * float(np.sum(whole)) / self.period
        total = 0.0
        for _ in range(_L1_HALVINGS):
            mid = 0.5 * (a + b)
            left, right = rule(a, mid), rule(mid, b)
            done = np.abs(left + right - whole) <= tol * (b - a)
            total += float(np.sum((left + right)[done]))
            a, b = np.concatenate([a[~done], mid[~done]]), np.concatenate([mid[~done], b[~done]])
            whole = np.concatenate([left[~done], right[~done]])
            if not a.size:
                break
        return total + float(np.sum(whole))


# numpy.polynomial.legendre.leggauss(6), written out so the runtime does not import numpy.polynomial
_GL_NODES = np.array(
    [
        -0.9324695142031519,
        -0.6612093864662645,
        -0.2386191860831969,
        0.2386191860831969,
        0.6612093864662645,
        0.9324695142031519,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.17132449237917027,
        0.3607615730481387,
        0.46791393457269104,
        0.46791393457269104,
        0.3607615730481387,
        0.17132449237917027,
    ]
)
_L1_HALVINGS = 60


def gauss_legendre(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, each of shape (n, 6), of the 6-node Gauss-Legendre rule on [a[i], b[i]]."""
    mid, half = 0.5 * (np.asarray(a) + b)[:, None], 0.5 * (np.asarray(b) - a)[:, None]
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


# ---------------------------------------------------------------------------
# Full field configuration and its hypothesis validator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldConfig:
    """Potential + magnetic field + forcing, with the bound constants made explicit.

    c0, gamma, eps0: near-origin electric repulsion,  q.grad V <= -c0 |q|^(-gamma)
                     for |q| < eps0.
    c_B:             ceiling of |B| at large |q|.
    c1, beta, eps1:  near-origin magnetic growth,  |B| <= c1 |q|^(-beta-1)
                     for |q| < eps1.  c1 = 0 is allowed for a vanishing field.

    Construction only enforces positivity/shape; whether the recorded
    constants actually hold for the fields is the validator's job.
    """

    potential: object
    magnetic: object
    forcing: Forcing
    c0: float
    gamma: float
    eps0: float
    c_B: float
    c1: float
    beta: float
    eps1: float

    def __post_init__(self):
        for name in ("c0", "gamma", "eps0", "c_B", "beta", "eps1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.c1 < 0:
            raise ValueError("c1 must be >= 0")


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "margin", float(self.margin))


def check_table(checks, name_width: int, digits: int, overall: str = "") -> list[str]:
    """A `status  name  margin=...  detail` row per check, then `overall: pass` (or FAIL) + overall."""
    status = {True: "pass", False: "FAIL"}
    rows = [
        f"{status[c.passed]:4s}  {c.name:{name_width}s}  margin={c.margin: .{digits}e}  {c.detail}"
        for c in checks
    ]
    return rows + [f"overall: {status[all(c.passed for c in checks)]}{overall}"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the sampled hypothesis checks.

    `passed` is the conjunction of all checks.  The sweeps use the recorded
    seed, so the report is reproducible; sign conditions over all of space
    are sampled, not proven, and the report says so.
    """

    checks: tuple
    seed: int
    passed: bool = field(init=False)
    note: str = "sampled, not proven"

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))

    def failures(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        return check_table(self.checks, 28, 3, f"  (seed={self.seed}; {self.note})")


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _magnitudes(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis of v (..., 3), without the under- and overflow of its squares.

    np.linalg.norm squares the components, so a row with |v| below about
    sqrt(tiny) reads as 0 or loses digits, and one beyond about 1e154 as
    inf.  Only those rows are redone with nested hypot, as in
    `kinematics.lorentz_factor`; an all-zero v has nothing to redo.
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
        v = np.add.reduce(q * g, axis=-1) if radial else _magnitudes(g)
        v = np.maximum.reduce(v.reshape(len(radii), -1), axis=1)
    if magnetic is not None:
        b = [_magnitudes(magnetic.eval(t, q, rad)) for t in np.linspace(0.0, period, 5)]
        b = np.maximum.reduce(np.reshape(b, (len(b), len(radii), -1)), axis=(0, 2))
    return v, b


_FAR_RADII = (1e1, 1e2, 1e3, 1e4)


def validate_hypotheses(config: FieldConfig, *, seed: int) -> ValidationReport:
    """Check the decay/repulsion/ceiling/singularity-order conditions on samples.

    Never raises for a violated hypothesis; every condition becomes a
    pass/fail entry with its worst sampled margin.
    """
    checks = []
    dirs = sphere_directions(6, seed)

    # electric decay at infinity: sphere maxima of |grad V| must fall off
    gv, b_far = shell_maxima(_FAR_RADII, dirs, config.potential, config.magnetic, config.forcing.period)
    decreasing = all(gv[i + 1] < gv[i] for i in range(len(gv) - 1))
    decayed = gv[-1] <= 1e-3 * gv[0] if gv[0] > 0 else True
    margin = (1e-3 * gv[0] - gv[-1]) if gv[0] > 0 else 0.0
    detail = f"|grad V| on radii {_FAR_RADII}: {['%.3e' % g for g in gv]}"
    checks.append(HypothesisCheck("electric-decay-at-infinity", decreasing and decayed, detail, margin))

    # global repulsion sign: q.grad V < 0 on a quasi-random cloud
    radii = log_radii(1e-3, 1e3, 128)
    cloud_dirs = sphere_directions(7, seed + 1)
    worst = float(shell_maxima(radii, cloud_dirs, config.potential, radial=True)[0].max())
    detail = f"max q.grad V over {len(radii) * len(cloud_dirs)} sampled points = {worst:.3e}"
    checks.append(HypothesisCheck("repulsion-sign-global", worst < 0.0, detail, -worst))

    # near-origin repulsion rate: q.grad V <= -c0 |q|^(-gamma) for |q| < eps0
    radii = log_radii(config.eps0 * 1e-4, config.eps0 * (1.0 - 1e-9), 64)
    bound = -config.c0 * radii ** (-config.gamma)
    val, _ = shell_maxima(radii, dirs, config.potential, radial=True)
    margin = float(np.min((bound - val) + 1e-9 * np.abs(bound)))
    detail = f"q.grad V <= -c0 |q|^-gamma on |q| < eps0={config.eps0}"
    checks.append(HypothesisCheck("repulsion-rate-near-origin", margin >= 0.0, detail, margin))

    # magnetic ceiling at infinity: sampled |B| < c_B on far spheres
    bmax = float(b_far.max())
    detail = f"max |B| on far spheres = {bmax:.3e} vs c_B = {config.c_B}"
    checks.append(HypothesisCheck("magnetic-ceiling-at-infinity", bmax < config.c_B, detail, config.c_B - bmax))

    # near-origin magnetic growth: |B| <= c1 |q|^(-beta-1) for |q| < eps1
    radii = log_radii(config.eps1 * 1e-4, config.eps1 * (1.0 - 1e-9), 64)
    bound = config.c1 * radii ** (-config.beta - 1.0)
    _, val = shell_maxima(radii, dirs, magnetic=config.magnetic, period=config.forcing.period)
    margin = float(np.min((bound - val) + 1e-9 * np.maximum(bound, 1.0)))
    detail = f"|B| <= c1 |q|^-(beta+1) on |q| < eps1={config.eps1}"
    checks.append(HypothesisCheck("magnetic-growth-near-origin", margin >= 0.0, detail, margin))

    # singularity ordering between the two fields
    ordered = 0.0 < config.beta < config.gamma
    detail = f"beta={config.beta}, gamma={config.gamma}"
    checks.append(HypothesisCheck("beta-below-gamma", ordered, detail, config.gamma - config.beta))

    # the mean forcing must dominate the magnetic ceiling
    hm = config.forcing.mean_norm
    detail = f"|mean h| = {hm:.6g} vs c_B = {config.c_B}"
    checks.append(HypothesisCheck("mean-forcing-dominates-ceiling", hm > config.c_B, detail, hm - config.c_B))

    return ValidationReport(checks=tuple(checks), seed=seed)


def magnetic_ceiling(magnetic) -> float:
    """The c_B of `c_B = auto`: the kind's `ceiling()` of |B| over |q| >= 1, or ValueError if it has none."""
    ceiling = getattr(magnetic, "ceiling", None)
    if ceiling is None:
        raise ValueError(
            f"c_B = auto: a {type(magnetic).__name__} has no closed-form ceiling; give c_B as a number"
        )
    return ceiling()


def near_origin_constants(magnetic, gamma: float) -> tuple:
    """Default (c1, beta) of the field kind's `near_origin(gamma)`, or (None, None) if it has none."""
    near_origin = getattr(magnetic, "near_origin", None)
    return near_origin(gamma) if near_origin else (None, None)
