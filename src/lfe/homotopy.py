"""The deformation family connecting an autonomous Coulomb system to the full LFE.

For lam in [0, 1] the first-order system in (position, momentum) reads

    q' = phi_inv(p)
    p' = -grad V_lam(q) + h_lam(t) + lam * (phi_inv(p) x B(t, q))

with  V_lam = lam*V + (1-lam)*c0/|q|  and  h_lam = lam*h(t) + (1-lam)*h_mean.
c0 is the a of the potential kind's exact radial law -q . grad V = a |q|^-g
(`radial_law()`), so below lam = 1 the potential needs one; h_lam is
`Forcing.eval(t, lam)`.  At lam = 1 this is the original equation; at
lam = 0 it is autonomous with a single explicit equilibrium, which anchors
both the degree computation and the continuation.  The degree sweep takes
that limit in velocity coordinates v = phi_inv(p), which keeps its zeros
and degree (see AutonomousField); the linearization there, and its flow
over one period, are closed-form (`EquilibriumLinearization`).
`HomotopySystem` holds only its FieldConfig; T and h_mean are read from
`config.forcing`, c0 once from `config.potential` (`HomotopySystem.c0`): the one home of each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from lfe.fields import FieldConfig, ZeroField, closed_form, radial_powers
from lfe.kinematics import lorentz_factor, phi_inv


# (v x B)_i = v_(i+1) b_(i-1) - v_(i-1) b_(i+1): components [i+1, i-1] of v and [i-1, i+1] of b
_V_CROSS, _B_CROSS = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


@dataclass(frozen=True)
class HomotopySystem:
    """Field evaluations of the lam-parametrized system for one FieldConfig."""

    config: FieldConfig

    @functools.cached_property
    def c0(self) -> float:
        """The c0 of the lam < 1 Coulomb term: the a of the potential's `radial_law()`, read once.

        A potential without one is a ValueError naming its kind.
        """
        what = "lam < 1 needs the potential's c0 for its Coulomb term"
        return closed_form(self.config.potential, "radial_law", what)()[0]

    def grad_V_lambda(self, q, rad, lam: float) -> np.ndarray:
        """lam * grad V(q) + (1-lam) * grad(c0/|q|) for q, rad = radial_powers(q) of shape (3,) or (N, 3)."""
        potential = self.config.potential
        if lam == 1.0:
            return potential.gradient(q, rad)
        coulomb = (lam - 1.0) * self.c0 * rad[1] * q
        if lam == 0.0:
            return coulomb
        return lam * potential.gradient(q, rad) + coulomb

    def rhs_array(self, t, y: np.ndarray, lam: float) -> np.ndarray:
        """Vector field on flat states [q, p]; the hot path for integration.

        y of shape (6,) or a stack of shape (N, 6) gives the same shape, at
        one time t of shape () or, for a stack, one time per row, t of
        shape (N,); row i of a stack result equals the result for row i
        alone at its time.
        One pass over the stack: all field terms share one `radial_powers`,
        v = phi_inv(p) once, v x B is one product of two six-wide gathers
        and one difference, and the output is built once.  A `ZeroField`
        adds no magnetic term, so the branch that builds it is skipped as at
        lam = 0.
        A row at the origin raises SingularityError, while non-finite input
        propagates to non-finite output so the step controller can reject
        and shrink the step.
        """
        q, rad = radial_powers(y[..., :3])
        v = phi_inv(y[..., 3:])
        force = self.config.forcing.eval(t, lam) - self.grad_V_lambda(q, rad, lam)
        if lam != 0.0 and not isinstance(self.config.magnetic, ZeroField):
            # v x B from cyclic shifts: np.cross costs more than the rest of the call
            b = self.config.magnetic.eval(t, q, rad)
            vb = v.take(_V_CROSS, -1) * b.take(_B_CROSS, -1)
            force += lam * (vb[..., :3] - vb[..., 3:])
        return np.concatenate((v, force), axis=-1)


@dataclass(frozen=True)
class AutonomousField:
    """The lam = 0 field in velocity coordinates: g(q, v) = (v, h_mean + c0 q/|q|^3).

    This is f0(q, p) = (phi_inv(p), h_mean + c0 q/|q|^3) after v = phi_inv(p),
    a map of R^3 onto the open unit ball with positive Jacobian determinant,
    so g has the zeros and degree of f0.  A caller holding p passes phi_inv(p).
    """

    c0: float
    h_mean: np.ndarray

    def value(self, q, v) -> np.ndarray:
        """g at q and v of shape (3,) or (N, 3); returns shape (6,) or (N, 6).

        Raises SingularityError if any row of q is the origin.
        """
        q, (_, s3) = radial_powers(q)
        return np.concatenate([v, self.h_mean + self.c0 * s3 * q], axis=-1)


def coulomb_force_jacobian(q, c0: float) -> np.ndarray:
    """d/dq of c0 q/|q|^3 = c0 (I |q|^-3 - 3 q q^T |q|^-5).

    q of shape (3,) or (N, 3) gives shape (3, 3) or (N, 3, 3); raises
    SingularityError if any row of q is the origin.
    """
    q, (s, s3) = radial_powers(q)
    s, s3 = s[..., None], s3[..., None]
    return c0 * s3 * (np.eye(3) - 3.0 * s * q[..., :, None] * q[..., None, :])


# omega T / 2 pi within this many eps * n of the integer n >= 1 is the resonance n: r*, omega,
# omega T and the quotient by 2 pi each round by an ulp or two, as does a period written as 2 pi n / omega
_RESONANCE_ROUNDOFF = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class EquilibriumLinearization:
    """The lam = 0 system linearized at its equilibrium (q*, 0), and that linear flow over the period.

    phi_inv has the identity Jacobian at p = 0, so the linearization is
    A = [[0, I], [K, 0]] with K = `coulomb_force_jacobian`(q*, c0).  With
    r = |q*|, u = q*/r, P = u u^T and Q = I - P, K = s^2 Q - omega^2 P:
    s = sqrt(c0/r^3) across the radius, omega = sqrt(2 c0/r^3) along it.
    So the monodromy M0 = exp(T A) of the equilibrium orbit is closed-form
    (`monodromy`): hyperbolic across the radius, a harmonic oscillation
    along it.  Each direction adds a factor to det(I - M0) (`index_det`):
    (2 - 2 cosh sT)^2 (2 - 2 cos omega T), which is >= 0 and vanishes only
    at the resonances omega T = 2 pi n, the periods n T_res with
    T_res = 2 pi / omega (`resonance`).  There the lam = 0 orbit is
    degenerate and has no fixed-point index.
    """

    u: np.ndarray
    s: float
    omega: float
    period: float

    @classmethod
    def at(cls, c0: float, q, period: float) -> "EquilibriumLinearization":
        """The linearization at the equilibrium position q of the lam = 0 field with constant c0."""
        q = np.asarray(q, dtype=float)
        r = math.hypot(*q)
        rate = c0 / r**3
        return cls(u=q / r, s=math.sqrt(rate), omega=math.sqrt(2.0 * rate), period=period)

    @property
    def turns(self) -> float:
        """omega T / 2 pi: the radial oscillations per period."""
        return self.omega * self.period / (2.0 * math.pi)

    @property
    def resonant_period(self) -> float:
        """T_res = 2 pi / omega, the period of the radial oscillation."""
        return 2.0 * math.pi / self.omega

    def resonance(self) -> int:
        """The n >= 1 with |omega T / 2 pi - n| <= 16 eps n, eps the machine epsilon, else 0.

        Within that bound the factor 2 - 2 cos omega T of det(I - M0) is zero
        up to the rounding of omega T.
        """
        n = round(self.turns)
        return n if n >= 1 and abs(self.turns - n) <= _RESONANCE_ROUNDOFF * n else 0

    def require_double_range(self, error: type[Exception]) -> None:
        """error naming sT if an entry of M0, up to max(1, s, 1/s) e^sT, or det(I - M0) <= 4 e^(2 sT) overflows."""
        st = self.s * self.period
        if max(st + abs(math.log(self.s)), 2.0 * st + math.log(4.0)) >= math.log(np.finfo(float).max):
            raise error(
                f"sT = {st:.6g} (s = sqrt(c0/|q*|^3) = {self.s:.6g}, T = {self.period!r}) puts M0 = exp(TA) or "
                "det(I - M0) ~ 4 e^(2 sT) beyond the double range: the lam = 0 orbit has no computable index"
            )

    def monodromy(self) -> np.ndarray:
        """M0 = exp(T A) = [[C, S], [K S, C]].

        C = cosh(sT) Q + cos(omega T) P and S = sinh(sT)/s Q + sin(omega T)/omega P.
        """
        st, wt = self.s * self.period, self.omega * self.period
        along = np.outer(self.u, self.u)  # P
        across = np.eye(3) - along  # Q
        c = np.cosh(st) * across + math.cos(wt) * along
        sinh, sin = np.sinh(st), math.sin(wt)
        s = sinh / self.s * across + sin / self.omega * along
        return np.block([[c, s], [self.s * sinh * across - self.omega * sin * along, c]])

    def index_det(self) -> float:
        """det(I - M0) = (2 - 2 cosh sT)^2 (2 - 2 cos omega T), from its factors.

        Written as (4 sinh^2(sT/2))^2 * 4 sin^2(omega T/2), which loses no
        digits to cancellation when sT or omega T is small.  Its sign is that
        of the factor 2 - 2 cos omega T: positive but at a resonance, where
        it is zero.  No LU of M0, whose entries grow like e^(sT).
        """
        hyper = 4.0 * np.sinh(0.5 * self.s * self.period) ** 2
        return float(hyper * hyper * 4.0 * math.sin(0.5 * self.omega * self.period) ** 2)


_TINY = np.finfo(float).tiny


def f0_determinant_closed_form(c0: float, q, p) -> float:
    """Closed form of det Jac f0 in momentum-first coordinates (p, q).

    There the Jacobian is block diagonal, with velocity_jacobian(p) and
    coulomb_force_jacobian(q, c0) on the diagonal, so

    det = -2 c0^3 |q|^-9 [ (1+|p|^2)^(-3/2) - |p|^2 (1+|p|^2)^(-5/2) ] = -2 c0^3 |q|^-9 gamma^-5
    with gamma = sqrt(1+|p|^2), strictly negative for every admissible (q, p).
    Where c0^3 or r^-9 leaves the normal double range the determinant
    need not, so it is taken as -2 (c0 r^-3)^3 gamma^-5 instead.
    """
    r = math.hypot(*np.asarray(q, dtype=float))
    gamma_5 = float(lorentz_factor(p)) ** -5
    try:
        c0_cubed, r_9 = c0**3, r**-9
    except OverflowError:
        c0_cubed = r_9 = 0.0
    if c0_cubed < _TINY or r_9 < _TINY:
        k = c0 / r / r / r  # each quotient moves toward k, so none leaves the range where k does not
        return -2.0 * k * k * k * gamma_5
    return -2.0 * c0_cubed * r_9 * gamma_5
