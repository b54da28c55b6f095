"""Electric potentials, magnetic fields, periodic forcings and their hypothesis checks.

The solver needs four structural properties of the field configuration:
the electric force decays at infinity, it repels from the origin at a
known singular rate, the magnetic field has a finite ceiling at infinity,
and its singularity at the origin is strictly weaker than the electric
one.  `validate_hypotheses` checks all of them on seeded sample clouds
and reports pass/fail per condition; the checks are sampled, not proven.
Their numbers, those of `magnetic_ceiling` and those of the certificate's
R and epsilon come from one sweep, `shell_maxima`: per sphere of radius
r, the maximum of |grad V|, of q . grad V, or of |B| over a time grid.

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
from numpy.polynomial.legendre import leggauss

from lfe.sampling import log_radii, shells, sphere_directions


class SingularityError(ValueError):
    """A field was evaluated at the origin, where it is undefined."""


def radial_powers(q) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """q as floats and its radial data (|q|^-2, |q|^-3), each of shape (1,) or (N, 1)."""
    q = np.asarray(q, dtype=float)
    r2 = np.add.reduce(q * q, axis=-1, keepdims=True)
    if not r2.all():
        raise SingularityError("fields are singular at the origin")
    s = 1.0 / r2
    return q, (s, s * np.sqrt(s))


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


def _each_row(fn, q: np.ndarray):
    """fn applied to every 3-vector in q, stacked back into q's leading shape.

    A scalar-valued fn on a single point gives a scalar, not a 0-d array.
    """
    out = np.array([fn(row) for row in q.reshape(-1, 3)], dtype=float)
    return out.reshape(q.shape[:-1] + out.shape[1:])[()]


_FD_STEP = 1e-6  # central-difference step of TabulatedPotential.gradient


@dataclass(frozen=True)
class TabulatedPotential:
    """Potential given by one-point callables; gradient falls back to central differences.

    The callables take one (3,) point, so a cloud is evaluated row by row; `gradient` ignores `rad`.
    """

    value_fn: object
    gradient_fn: object = None

    def value(self, q):
        q, _ = radial_powers(q)
        return _each_row(self.value_fn, q)

    def gradient(self, q, rad) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.gradient_fn is not None:
            return _each_row(self.gradient_fn, q)
        e = _FD_STEP * np.eye(3)
        q = q[..., None, :]
        return (_each_row(self.value_fn, q + e) - _each_row(self.value_fn, q - e)) / (2.0 * _FD_STEP)


# ---------------------------------------------------------------------------
# Magnetic fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroField:
    def eval(self, t: float, q, rad) -> np.ndarray:
        return np.zeros(np.shape(q))


@dataclass(frozen=True)
class UniformField:
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))

    def eval(self, t: float, q, rad) -> np.ndarray:
        return np.broadcast_to(self.b, np.shape(q)).copy()


@dataclass(frozen=True)
class DipoleField:
    """Point dipole  B(q) = 3 q (mu.q) |q|^-5 - mu |q|^-3  (prefactor absorbed in mu).

    Satisfies |B(q)| <= 2|mu| |q|^-3, with equality on the dipole axis.
    """

    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "moment", np.asarray(self.moment, dtype=float))

    def eval(self, t: float, q, rad) -> np.ndarray:
        s, s3 = rad
        mu_q = np.add.reduce(q * self.moment, axis=-1, keepdims=True)
        return s3 * (3.0 * s * mu_q * q - self.moment)

    def bound_constants(self) -> tuple[float, float]:
        """(c1, beta) with |B| <= c1 |q|^(-beta-1): c1 = 2|mu|, beta = 2."""
        return 2.0 * float(np.linalg.norm(self.moment)), 2.0


@dataclass(frozen=True)
class ABCField:
    """Arnold-Beltrami-Childress field: bounded, divergence-free, trigonometric."""

    A: float
    B: float
    C: float

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

    def sup_bound(self) -> float:
        a, b, c = abs(self.A), abs(self.B), abs(self.C)
        return math.sqrt((a + c) ** 2 + (b + a) ** 2 + (c + b) ** 2)


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


@dataclass(frozen=True)
class Forcing:
    """Finite Fourier forcing h(t) = mean + sum_k a_k cos(2 pi k t/T) + b_k sin(2 pi k t/T).

    The time average over one period is `mean` exactly, by orthogonality;
    no quadrature is involved in reading it off.
    """

    period: float
    mean: np.ndarray
    harmonics: tuple = ()

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        size = math.hypot(*self.mean)
        if size * size == math.inf:  # |mean|^2 is in every bound and in the equilibrium
            raise ValueError(f"mean is too large: |mean| = {size:.6g}, so |mean|^2 overflows")
        object.__setattr__(self, "harmonics", tuple(self.harmonics))

    def eval(self, t) -> np.ndarray:
        """h at t of shape () or (n,): shape (3,) or (n, 3), row i equal to h at time i alone."""
        t = np.asarray(t, dtype=float)
        h = np.empty(t.shape + (3,))
        h[...] = self.mean
        t = t[..., None] if t.ndim else t
        w = 2.0 * math.pi / self.period
        for harm in self.harmonics:
            angle = w * harm.k * t
            h += harm.cos_coeff * np.cos(angle)
            h += harm.sin_coeff * np.sin(angle)
        return h

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
            return self.period * float(np.linalg.norm(self.mean))

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


_GL_NODES, _GL_WEIGHTS = leggauss(6)
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


def shell_maxima(
    radii, directions, potential=None, magnetic=None, period=None, *, radial=False, skip_nan=False
):
    """(v, b): maxima over each sphere |q| = radii[i], sampled at `directions`.

    v is the maximum of |grad V| of `potential` (of q . grad V if `radial`),
    b of |B| of `magnetic` over the times 0, T/4, T/2, 3T/4, T of `period`;
    each is None if its field is.  A NaN sample makes its sphere's maximum
    NaN unless `skip_nan`.  Rounding is monotone, so a margin bound - v is
    the least margin over the sphere's samples, bit for bit.
    """
    q, rad = radial_powers(shells(radii, directions))
    reduce = np.fmax.reduce if skip_nan else np.maximum.reduce
    v = b = None
    if potential is not None:
        g = potential.gradient(q, rad)
        v = np.add.reduce(q * g, axis=-1) if radial else np.linalg.norm(g, axis=-1)
        v = reduce(v.reshape(len(radii), -1), axis=1)
    if magnetic is not None:
        b = [np.linalg.norm(magnetic.eval(t, q, rad), axis=-1) for t in np.linspace(0.0, period, 5)]
        b = reduce(np.reshape(b, (len(b), len(radii), -1)), axis=(0, 2))
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
    hm = float(np.linalg.norm(config.forcing.mean))
    detail = f"|mean h| = {hm:.6g} vs c_B = {config.c_B}"
    checks.append(HypothesisCheck("mean-forcing-dominates-ceiling", hm > config.c_B, detail, hm - config.c_B))

    return ValidationReport(checks=tuple(checks), seed=seed)


def magnetic_ceiling(magnetic, *, period: float, seed: int) -> float:
    """A ceiling of |B(t, q)| over |q| >= 1 that the sampled checks accept as c_B.

    A dipole and an ABC field have closed-form bounds that no sample
    reaches: c1 of `DipoleField.bound_constants` and `ABCField.sup_bound`
    (a sampled maximum lies below the sup, so the checks' own samples
    could exceed it).  A uniform field has |B| = |b| at every sample, so no ceiling lies
    strictly above its sup: a nonzero one raises ValueError.  Any other
    field gets the sampled sup over spheres at radii {1, 2, 4, ..., 64}
    and a time grid.
    """
    if isinstance(magnetic, DipoleField):
        return magnetic.bound_constants()[0]
    if isinstance(magnetic, ABCField):
        return magnetic.sup_bound()
    if isinstance(magnetic, UniformField) and magnetic.b.any():
        raise ValueError(
            f"c_B = auto: a uniform field has |B| = {np.linalg.norm(magnetic.b):g} everywhere, "
            "and c_B must lie strictly above it; give c_B as a number"
        )
    _, b = shell_maxima(2.0 ** np.arange(7), sphere_directions(10, seed), magnetic=magnetic, period=period)
    return float(b.max())
