"""Electric potentials, magnetic fields, periodic forcings and their hypothesis checks.

The solver needs four structural properties of the field configuration:
the electric force decays at infinity, it repels from the origin at a
known singular rate, the magnetic field has a finite ceiling at infinity,
and its singularity at the origin is strictly weaker than the electric
one.  `validate_hypotheses` compares the constants of the configuration
with the field kinds' closed forms and reports pass/fail per condition;
it evaluates no field.  The repulsion rate is not a constant of the
configuration: the potential kind's `radial_law()` states it exactly, and
it is the one home of the electric constants c0 and gamma, read by the
homotopy's Coulomb term, the certificate and the degree stage alike.

Each field kind carries the closed forms that the hypothesis checks and
the certificate read instead of sampling: `envelope(r)`, a
non-increasing bound of |grad V| or |B| on the sphere |q| = r (attained
but for ABC), for R, C_gradV_B and M; a potential kind's `radial_law()`,
the (a, g) of its exact -q . grad V = a |q|^-g, for epsilon; a magnetic
kind's `envelope_law()`, the (c, k) of its envelope c r^-k, for the
magnetic growth check, and for `c_B = auto` and the default (c1, beta)
(`magnetic_ceiling`, `near_origin_constants`).  `closed_form` looks each
one up, and names a kind that lacks it.

Each kind also states which coordinate mirrors R_n (q_n -> -q_n) it
commutes with, as `mirrors()`: the axes n with grad V(R_n q) = R_n grad V(q)
or B(R_n q) = R_n B(q), and for the forcing R_n h(-t) = h(t).  A kind that
states none, such as ABC, commutes with none.  `FieldConfig.mirrors()` is
what the three parts share: under such a mirror the equation is
reversible, which the shooting uses (`lfe.shooting`).

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


# the coordinate axes, each the axis of a mirror R_n: q_n -> -q_n (`mirrors()`)
_AXES = (0, 1, 2)


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


def closed_form(kind, name: str, what: str = "", error: type[Exception] = ValueError):
    """The kind's closed-form method `name`, else error `<what>: a <Kind> has no closed-form <name>`.

    Without `what` the message starts at `a <Kind>`.
    """
    method = getattr(kind, name, None)
    if method is None:
        missing = f"a {type(kind).__name__} has no closed-form {name.replace('_', ' ')}"
        raise error(f"{what}: {missing}" if what else missing)
    return method


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

    def mirrors(self) -> tuple[int, ...]:
        """Every coordinate mirror: V is radial."""
        return _AXES


# ---------------------------------------------------------------------------
# Magnetic fields
# ---------------------------------------------------------------------------


class _PowerLawEnvelope:
    """A magnetic kind whose envelope of |B| is the power law c r^-k of its `envelope_law()`."""

    def envelope(self, r: float) -> float:
        c, k = self.envelope_law()
        return power_law(c, r, k)


@dataclass(frozen=True)
class ZeroField(_PowerLawEnvelope):
    def eval(self, t: float, q, rad) -> np.ndarray:
        return np.zeros(np.shape(q))

    def envelope_law(self) -> tuple[float, float]:
        return 0.0, 0.0

    def mirrors(self) -> tuple[int, ...]:
        return _AXES


@dataclass(frozen=True)
class UniformField(_PowerLawEnvelope):
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))

    def eval(self, t: float, q, rad) -> np.ndarray:
        return np.broadcast_to(self.b, np.shape(q)).copy()

    def envelope_law(self) -> tuple[float, float]:
        return math.hypot(*self.b), 0.0

    def mirrors(self) -> tuple[int, ...]:
        """The mirrors n with b_n = 0, the ones that fix b."""
        return tuple(n for n in _AXES if self.b[n] == 0.0)


@dataclass(frozen=True)
class DipoleField(_PowerLawEnvelope):
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

    def envelope_law(self) -> tuple[float, float]:
        return self.c1, 3.0

    def mirrors(self) -> tuple[int, ...]:
        """The mirrors n with mu_n = 0: then mu . R_n q = mu . q, so B(R_n q) = R_n B(q)."""
        return tuple(n for n in _AXES if self.moment[n] == 0.0)


@dataclass(frozen=True)
class ABCField(_PowerLawEnvelope):
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

    def envelope_law(self) -> tuple[float, float]:
        return self.sup, 0.0


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
        """mean + scale * (h(t) - mean) at times t of any shape: shape t.shape + (3,).

        One time gives (3,) and n times (n, 3).  scale = 1 gives h(t).  The
        harmonic terms are summed first and the mean is added once, so a
        scaled forcing costs one pass; row i equals the value at time i alone.
        """
        t = np.asarray(t, dtype=float)
        if scale == 0.0 or not self._waves:
            h = np.empty(t.shape + (3,))
            h[...] = self.mean
            return h
        t = t[..., None]
        total = None
        for w, wave, coeff in self._waves:
            term = coeff * wave(w * t)
            total = term if total is None else total + term
        return self.mean + scale * total

    def is_constant(self) -> bool:
        """Whether every harmonic coefficient is zero: `eval` and `l1_norm` read the same `_waves`."""
        return not self._waves

    def mirrors(self) -> tuple[int, ...]:
        """The mirrors n with R_n h(-t) = h(t).

        That is mean_n = 0, a_k,n = 0 for every cosine coefficient a_k, and
        every sine coefficient b_k parallel to e_n, as R_n b_k = -b_k asks.
        """

        def reverses(n):
            across = [i for i in _AXES if i != n]
            return self.mean[n] == 0.0 and not any(
                harm.cos_coeff[n] or harm.sin_coeff[across].any() for harm in self.harmonics
            )

        return tuple(n for n in _AXES if reverses(n))

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

    The electric constants (c0, gamma) have one home, the potential kind's
    `radial_law()`: -q . grad V = c0 |q|^(-gamma), exactly.

    eps0:            cap of the certificate's clearance radius epsilon.
    c_B:             ceiling of |B| at large |q|.
    c1, beta, eps1:  near-origin magnetic growth,  |B| <= c1 |q|^(-beta-1)
                     for |q| <= eps1.  c1 = 0 is allowed for a vanishing field.

    Construction only enforces positivity/shape; whether the recorded
    constants hold for the fields is the validator's job, which compares
    them with the field kinds' closed forms.
    """

    potential: object
    magnetic: object
    forcing: Forcing
    eps0: float
    c_B: float
    c1: float
    beta: float
    eps1: float

    def __post_init__(self):
        for name in ("eps0", "c_B", "beta", "eps1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.c1 < 0:
            raise ValueError("c1 must be >= 0")

    def mirrors(self) -> tuple[int, ...]:
        """The axes n of the mirrors that the potential, the magnetic field and the forcing all state.

        Under each, with G = diag(R_n, -R_n) on (q, p), G x(-t) solves the
        equation whenever x(t) does, at every lam: the family is reversible.
        A part that states no `mirrors()` commutes with none.
        """
        common = set(_AXES)
        for part in (self.potential, self.magnetic, self.forcing):
            stated = getattr(part, "mirrors", None)
            common &= set(stated() if stated is not None else ())
        return tuple(sorted(common))


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "margin", float(self.margin))


@dataclass(frozen=True)
class CheckTable:
    """The hypothesis validation or the orbit verification: `HypothesisCheck` rows, `passed` if all pass."""

    checks: tuple
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))

    def failures(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if not c.passed]

    def lines(self, name_width: int, digits: int) -> list[str]:
        """A `status  name  margin=...  detail` row per check, then `overall: pass` (or FAIL)."""
        status = {True: "pass", False: "FAIL"}
        rows = [
            f"{status[c.passed]:4s}  {c.name:{name_width}s}  margin={c.margin: .{digits}e}  {c.detail}"
            for c in self.checks
        ]
        return rows + [f"overall: {status[self.passed]}"]


_FAR_RADII = (1e1, 1e2, 1e3, 1e4)


def dominated(c: float, k: float, bound_c: float, bound_k: float, eps: float) -> tuple[bool, float]:
    """(holds, margin) of  c r^-k <= bound_c r^-bound_k  for all 0 < r <= eps, with c >= 0.

    Divided by r^-bound_k, the left side c r^(bound_k - k) is non-decreasing
    in r for k <= bound_k, so the end point decides: margin
    bound_c - c eps^(bound_k - k).  For k > bound_k it grows without bound
    as r -> 0, so only c = 0 holds; otherwise the margin is -inf.
    """
    if k > bound_k and c:
        return False, -math.inf
    margin = bound_c - power_law(c, eps, k - bound_k)
    return margin >= 0.0, margin


def _row(name: str, kind, method: str, check) -> HypothesisCheck:
    """Row `name` from check(kind.method) = (passed, detail, margin), or failed, naming the kind, without it."""
    try:
        law = closed_form(kind, method)
    except ValueError as missing:
        return HypothesisCheck(name, False, str(missing), math.nan)
    return HypothesisCheck(name, *check(law))


VALIDATION_WIDTHS = (30, 3)  # `CheckTable.lines` widths: the longest row name, and the margin's digits


def validate_hypotheses(config: FieldConfig) -> CheckTable:
    """Check the decay/repulsion/ceiling/singularity-order conditions from the field kinds' closed forms.

    Each row compares the constants of `config` with the potential's
    `envelope` and `radial_law()` or the magnetic kind's `envelope` and
    `envelope_law()`; no field is evaluated.  Never raises for a violated
    hypothesis; every condition becomes a pass/fail entry with its margin.
    """
    c = config

    def decay(envelope):  # |grad V| falls by 1e-3 or more over the far radii
        gv = [envelope(r) for r in _FAR_RADII]
        margin = 1e-3 * gv[0] - gv[-1] if gv[0] > 0 else 0.0
        detail = f"envelope of |grad V| on radii {_FAR_RADII}: {['%.3e' % g for g in gv]}"
        return all(b < a for a, b in zip(gv, gv[1:])) and margin >= 0.0, detail, margin

    def sign(radial_law):  # -q.grad V = a |q|^-g > 0 everywhere
        a, g = radial_law()
        return a > 0.0, f"-q.grad V = {a:.6g} |q|^-{g:g} on every sphere", a

    def order(radial_law):  # the magnetic singularity is weaker than the electric one
        _, g = radial_law()
        return 0.0 < c.beta < g, f"beta={c.beta}, gamma={g}", g - c.beta

    def ceiling(envelope):  # non-strict, as |v x B| < |B| for |v| < 1
        b = envelope(_FAR_RADII[0])
        return b <= c.c_B, f"|B| <= {b:.3e} (envelope) on |q| >= {_FAR_RADII[0]:g} vs c_B = {c.c_B}", c.c_B - b

    def growth(envelope_law):  # b |q|^-k <= c1 |q|^-(beta+1) on 0 < |q| <= eps1
        b, k = envelope_law()
        passed, margin = dominated(b, k, c.c1, c.beta + 1.0, c.eps1)
        return passed, f"|B| <= {b:.6g} |q|^-{k:g} <= c1 |q|^-(beta+1) on |q| <= eps1={c.eps1}", margin

    hm = c.forcing.mean_norm
    checks = (
        _row("electric-decay-at-infinity", c.potential, "envelope", decay),
        _row("repulsion-sign-global", c.potential, "radial_law", sign),
        _row("magnetic-ceiling-at-infinity", c.magnetic, "envelope", ceiling),
        _row("magnetic-growth-near-origin", c.magnetic, "envelope_law", growth),
        _row("beta-below-gamma", c.potential, "radial_law", order),
        HypothesisCheck(
            "mean-forcing-dominates-ceiling", hm > c.c_B, f"|mean h| = {hm:.6g} vs c_B = {c.c_B}", hm - c.c_B
        ),
    )
    return CheckTable(checks)


def magnetic_ceiling(magnetic) -> float:
    """`c_B = auto`: c of the kind's `envelope_law()` (c, k), for k >= 0 sup |B| on |q| >= 1, or 1.0 if c = 0."""
    return closed_form(magnetic, "envelope_law", "c_B = auto")()[0] or 1.0


def near_origin_constants(magnetic, gamma: float) -> tuple:
    """Default (c1, beta) from `envelope_law()` (c, k): (c, k - 1) if k > 1, (0, gamma/2) if c = 0, else none."""
    c, k = closed_form(magnetic, "envelope_law", "c1, beta defaults")()
    if k > 1.0:
        return c, k - 1.0
    return (0.0, 0.5 * gamma) if c == 0.0 else (None, None)
