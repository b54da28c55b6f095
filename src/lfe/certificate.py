"""Explicit a priori constants confining every periodic orbit, and orbit verification.

For a valid field configuration the solver can certify, independently of
the deformation parameter:

  * an outer radius:   every periodic orbit stays inside |q| < R + T,
  * a clearance m > 0: no periodic orbit comes closer than m to the
    field singularity at the origin,
  * a momentum bound L: |p(t)| < L along every periodic orbit.

Every constant is closed-form, read from the field kinds' closed forms;
the certificate evaluates no field.  A kind's `envelope(r)` bounds |grad V|
or |B| on the sphere |q| = r and is non-increasing in r.  R is the first
r = 2^k with max(envelope_V(r), c0 r^-2) < |mean h| - c_B and
envelope_B(r) <= c_B, so both hold on every sphere beyond R.  Why that
confines: average p' over one period of a periodic orbit that stays in
|q| > R.  p' averages to 0 and the forcing to mean h, for every lam.  The
electric force, a convex combination of -grad V and c0 q/|q|^3, is
smaller than |mean h| - c_B, and |lam v x B| < c_B, since |v| < 1 (so the
magnetic test may be non-strict).  Then |mean h| < |mean h|, which is
absurd: every periodic orbit meets |q| <= R, and as |v| < 1 it stays
inside |q| < R + T.  epsilon is read from the potential kind's exact
radial law -q . grad V = a |q|^-g (`compute_epsilon`), and c0, here and
below, is its a: the constant of the homotopy's Coulomb term.  C_gradV_B
and M are the envelopes at the inner radius of their annulus: upper
bounds of the suprema, equal to them for the Coulomb family with a
dipole, uniform or zero field.  A kind without a closed form fails with a
CertificateError naming the constant and the kind.  The certificate
carries that provenance.

One deliberate change against the source estimates: the near-origin
inequality is required with half the electric constant on the right-hand
side, and that halved constant is used wherever the downstream formula
divides by it.  As written the inequality is unsatisfiable for the plain
Coulomb exponent; the split preserves the structure of the estimate
while being checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lfe.fields import CheckTable, FieldConfig, HypothesisCheck, closed_form, power_law
from lfe.kinematics import phi_inv


class CertificateError(RuntimeError):
    pass


class RadiusNotFound(CertificateError):
    """No radius up to 1e6 satisfied the far-field smallness conditions."""


class InequalityFails(CertificateError):
    """No clearance radius satisfied the near-origin repulsion inequality."""


@dataclass(frozen=True)
class BoundsCertificate:
    """The computed confinement constants with evaluation provenance.

    upper = R + period is the certified outer radius; m the inner
    clearance; L the momentum bound.  K2, C_gradV_B, epsilon and c0_eff
    are the intermediate constants the m-formula is assembled from, kept
    so the formula can be re-evaluated from the stored values alone.
    """

    R: float
    period: float
    epsilon: float
    K2: float
    C_gradV_B: float
    m: float
    M: float
    L: float
    l1_norm: float
    c0_eff: float
    provenance: dict  # how each constant was found; `compute_certificate` sets every key

    def __post_init__(self):
        vals = [self.R, self.epsilon, self.K2, self.C_gradV_B, self.m, self.M, self.L]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("certificate constants must be finite")
        if not 0.0 < self.m < self.epsilon <= self.upper:
            raise ValueError(
                f"need 0 < m < epsilon <= upper, got m={self.m}, "
                f"epsilon={self.epsilon}, upper={self.upper}"
            )
        if self.L <= 0:
            raise ValueError("momentum bound must be positive")

    @property
    def upper(self) -> float:
        return self.R + self.period

    def m_from_constants(self) -> float:
        """Re-evaluate the clearance formula from the stored constants."""
        return clearance_formula(
            self.K2, self.period, self.epsilon, self.C_gradV_B, self.c0_eff, self.upper, self.l1_norm
        )

    def region(self) -> tuple[float, float, float]:
        """(m, R + period, L): the certified orbit region."""
        return (self.m, self.upper, self.L)

    def lines(self) -> list[str]:
        p = self.provenance
        return [
            f"R          = {self.R!r}   ({p['R']})",
            f"upper      = R + T = {self.upper!r}",
            f"epsilon    = {self.epsilon!r}   ({p['epsilon']})",
            f"K2         = |ln epsilon| = {self.K2!r}",
            f"C_gradV_B  = {self.C_gradV_B!r}   ({p['C_gradV_B']})",
            f"m          = {self.m!r}   ({p['m']})",
            f"M          = {self.M!r}   ({p['M']})",
            f"L          = T*M + 2*l1 = {self.L!r}",
            f"l1_norm    = {self.l1_norm!r}",
            f"c0_eff     = {self.c0_eff!r}   (halved electric constant used in the inequality and divisions)",
            f"note       = {p['note']}",
        ]


def clearance_terms(
    K2: float, period: float, epsilon: float, C_gradV_B: float, c0_eff: float, upper: float, l1: float
) -> dict[str, float]:
    """The four terms of the clearance exponent, m = exp(-sum of the terms), by name."""
    return {
        "K2": K2,
        "T/epsilon": period / epsilon,
        "T*C_gradV_B/c0_eff": period * C_gradV_B / c0_eff,
        "(R+T)*l1/c0_eff": upper * l1 / c0_eff,
    }


def clearance_formula(*constants: float) -> float:
    """m = exp[-K2 - T/eps - T C/c0_eff - (R+T) l1/c0_eff] of `clearance_terms`' arguments."""
    return math.exp(-sum(clearance_terms(*constants).values()))


_MAX_RADIUS = 1e6


def compute_R(config: FieldConfig) -> float:
    """Smallest grid radius 2^k <= 1e6 beyond which both far-field conditions hold.

    max(envelope_V, c0 r^-2) < |mean h| - c_B and envelope_B <= c_B at
    r = 2^k; the envelopes are non-increasing, so they hold beyond r too.
    A mean with |mean h| <= c_B is a CertificateError.
    """
    hm = config.forcing.mean_norm
    if hm <= config.c_B:
        raise CertificateError(f"requires |mean h| > c_B, got {hm:.6g} <= {config.c_B:.6g}")
    threshold = hm - config.c_B
    envelope_V, envelope_B = (
        closed_form(f, "envelope", "R", CertificateError) for f in (config.potential, config.magnetic)
    )
    c0, _ = closed_form(config.potential, "radial_law", "R", CertificateError)()
    for r in (2.0**k for k in range(20)):  # up to 2^19, the last power of two below the cap
        gradient, b = max(envelope_V(r), power_law(c0, r, 2.0)), envelope_B(r)
        if gradient < threshold and b <= config.c_B:
            return r
    raise RadiusNotFound(
        f"no radius up to the search cap {_MAX_RADIUS:g} satisfies the far-field conditions: at the "
        f"largest grid radius, |q| = {r:g}, the envelope of |grad V| and c0/|q|^2 is {gradient:.3e} against "
        f"the threshold |mean h| - c_B = {threshold:.3e} and the envelope of |B| is {b:.3e} against c_B = "
        f"{config.c_B:.3e} (the fields may decay too slowly, or below the threshold only beyond the cap)"
    )


_EPS_GRID_FACTOR = 0.9
_EPS_GRID_STEPS = 132  # down to ~1e-6 of the cap


def compute_epsilon(config: FieldConfig) -> float:
    """The first point of a decreasing geometric grid under min(eps0, eps1, 1) such that

        -q . grad V(q)  >=  (c0/2) |q|^-1  +  c1 |q|^-beta   for all 0 < |q| <= epsilon.

    The potential kind's radial law -q . grad V = a |q|^-g, whose a is c0,
    turns this into 1 >= (1/2) r^(g-1) + (c1/a) r^(g-beta), non-decreasing
    in r for beta <= g (g >= 1), so it holds on (0, epsilon] if it holds at
    epsilon.  With c1 > 0 and beta > g it fails as |q| -> 0.
    """
    a, g = closed_form(config.potential, "radial_law", "epsilon", CertificateError)()
    if config.c1 and config.beta > g:
        raise InequalityFails(
            f"the near-origin inequality fails as |q| -> 0: the magnetic exponent beta = {config.beta:g} "
            f"exceeds the potential's gamma = {g:g}; the configuration is outside the certified family"
        )

    epsilon = min(config.eps0, config.eps1, 1.0)
    for _ in range(_EPS_GRID_STEPS):  # the divided inequality: epsilon <= 1 and both exponents >= 0
        magnetic = config.c1 / a * epsilon ** (g - config.beta) if config.c1 else 0.0
        if 0.5 * epsilon ** (g - 1.0) + magnetic <= 1.0:
            return epsilon
        epsilon *= _EPS_GRID_FACTOR
    raise InequalityFails(
        "no clearance radius satisfies the near-origin inequality "
        f"(it fails down to |q| = {epsilon / _EPS_GRID_FACTOR:.3e}, the smallest grid radius); "
        "the configuration is outside the certified family"
    )


def compute_lower_constants(config: FieldConfig, R: float, *, l1: float) -> tuple[float, float, float, float]:
    """(epsilon, K2, C_gradV_B, m): the singularity-clearance constants.

    epsilon from `compute_epsilon`, K2 = |ln epsilon|, C_gradV_B the
    envelopes of |grad V| + |B| at epsilon, and, with l1 = `Forcing.l1_norm`,

        m = exp[-K2 - T/eps - T C/(c0/2) - (R+T) l1/(c0/2)].
    """
    period = config.forcing.period
    epsilon = compute_epsilon(config)
    c0_eff = 0.5 * config.potential.radial_law()[0]  # compute_epsilon has found the law
    K2 = abs(math.log(epsilon))

    C = sum(
        closed_form(f, "envelope", "C_gradV_B", CertificateError)(epsilon) for f in (config.potential, config.magnetic)
    )
    constants = (K2, period, epsilon, C, c0_eff, R + period, l1)
    m = clearance_formula(*constants)
    if m == 0.0:
        terms = clearance_terms(*constants)
        name = max(terms, key=terms.get)
        raise CertificateError(
            f"clearance m: exp(-{sum(terms.values()):.6g}) underflows to 0; "
            f"the largest term of the exponent is {name} = {terms[name]:.6g}"
        )
    if m >= epsilon:
        terms = clearance_terms(*constants)
        rest = ", ".join(f"{name} = {value:.6g}" for name, value in terms.items() if name != "K2")
        raise CertificateError(
            f"clearance m: exp(-{sum(terms.values()):.6g}) rounds to epsilon = {epsilon:.6g}, since the "
            f"terms beside K2 = {K2:.6g} fall below its rounding: {rest}"
        )
    return epsilon, K2, C, m


def compute_momentum_bound(config: FieldConfig, m: float, R: float, *, l1: float) -> tuple[float, float]:
    """(M, L): the force ceiling on the confined annulus and the momentum bound.

    M bounds |grad V| + c0/|q|^2 + |B| over m <= |q| <= R + T and one
    period by the envelopes at m, plus c0 m^-2; L = T M + 2 l1.
    """
    period = config.forcing.period
    if not 0.0 < m < R + period:
        raise ValueError(f"need 0 < m < R + T, got m={m}, R+T={R + period}")
    what = "momentum bound M"
    grad, b = (closed_form(f, "envelope", what, CertificateError)(m) for f in (config.potential, config.magnetic))
    c0, _ = closed_form(config.potential, "radial_law", what, CertificateError)()
    terms = {"|grad V|": grad, "c0/|q|^2": power_law(c0, m, 2.0), "|B|": b}
    M = sum(terms.values())
    if not math.isfinite(M):
        name = max(terms, key=terms.get)
        raise CertificateError(
            f"momentum bound M: |grad V| + c0/|q|^2 + |B| at |q| = m = {m:.6g} leaves the double "
            f"range; the largest term is {name} = {terms[name]:.6g}"
        )
    L = period * M + 2.0 * l1
    if not (math.isfinite(L) and L > 0.0):  # overflows for a tiny m, underflows for a subnormal c0 and l1
        raise CertificateError(
            f"momentum bound L: T*M + 2*l1 with T = {period:.6g}, M = {M:.6g} and l1 = {l1:.6g} "
            f"leaves the double range: L = {L:.6g}"
        )
    return M, L


def compute_certificate(config: FieldConfig) -> BoundsCertificate:
    """Run the three bound computations and assemble the certificate."""
    period = config.forcing.period
    l1 = config.forcing.l1_norm()
    R = compute_R(config)
    epsilon, K2, C, m = compute_lower_constants(config, R, l1=l1)
    M, L = compute_momentum_bound(config, m, R, l1=l1)
    provenance = {
        "R": "geometric grid 2^k, closed-form envelopes: max(|grad V|, c0/|q|^2) < |mean h| - c_B, |B| <= c_B",
        "epsilon": f"decreasing grid factor {_EPS_GRID_FACTOR} under min(eps0, eps1, 1), closed-form radial law of -q.grad V in the inequality with halved c0",
        "C_gradV_B": f"closed-form envelopes of |grad V| + |B| at the inner radius of ({epsilon:.6g}, {R + period:.6g})",
        "m": "exponential clearance formula, as printed, with halved c0 in the divisions",
        "M": f"closed-form envelopes of |grad V| + c0/|q|^2 + |B| at the inner radius of ({m:.6g}, {R + period:.6g})",
        "note": "every constant closed-form from the field kinds; C_gradV_B and M are bounds, exact but for ABC",
    }
    return BoundsCertificate(
        R=R,
        period=period,
        epsilon=epsilon,
        K2=K2,
        C_gradV_B=C,
        m=m,
        M=M,
        L=L,
        l1_norm=l1,
        c0_eff=0.5 * config.potential.radial_law()[0],
        provenance=provenance,
    )


IDENTITY_TOL = 1e-6
_N_DENSE = 1000


def region_checks(ys: np.ndarray, region: tuple[float, float, float]) -> list[HypothesisCheck]:
    """Clearance, outer-radius and momentum-bound checks of states ys (n, 6) in (m, R + T, L)."""
    m, upper, L = region
    r = np.linalg.norm(ys[:, :3], axis=1)
    pn = np.linalg.norm(ys[:, 3:], axis=1)
    return [
        HypothesisCheck(
            "clearance",
            float(r.min()) > m,
            f"min |q| = {float(r.min()):.6g} vs m = {m:.6g}",
            r.min() - m,
        ),
        HypothesisCheck(
            "outer-radius",
            float(r.max()) < upper,
            f"max |q| = {float(r.max()):.6g} vs R + T = {upper:.6g}",
            upper - r.max(),
        ),
        HypothesisCheck(
            "momentum-bound",
            float(pn.max()) < L,
            f"max |p| = {float(pn.max()):.6g} vs L = {L:.6g}",
            L - pn.max(),
        ),
    ]


VERIFICATION_WIDTHS = (18, 6)  # `CheckTable.lines` widths: the name column, and the margin's digits


def verify_orbit(orbit, cert: BoundsCertificate) -> CheckTable:
    """Check a converged orbit against the certificate.

    Position, momentum and speed are checked at every trajectory node and
    on a dense sample of the interpolant; the integral identities come
    from the orbit diagnostics.  The table always has the same six
    rows; failures are rows with negative margins, never exceptions.
    """
    traj = orbit.trajectory
    ys = np.vstack([traj.states, traj.at(np.linspace(traj.t0, traj.t1, _N_DENSE)).T])
    speeds = np.linalg.norm(phi_inv(ys[:, 3:]), axis=1)

    diag = orbit.diagnostics
    mean_res, virial_lhs, gap = diag["mean_identity"], diag["virial_lhs"], diag["virial_gap"]
    checks = region_checks(ys, cert.region()) + [
        HypothesisCheck(
            "speed-limit",
            float(speeds.max()) < 1.0,
            f"max |v| = {float(speeds.max()):.12g}",
            1.0 - speeds.max(),
        ),
        HypothesisCheck(
            "mean-identity",
            mean_res <= IDENTITY_TOL,
            f"|integral p'| = {mean_res:.3e}",
            IDENTITY_TOL - mean_res,
        ),
        HypothesisCheck(
            "virial-identity",
            virial_lhs <= IDENTITY_TOL and gap <= IDENTITY_TOL,
            f"integral q.p' = {virial_lhs:.6e}, balance gap = {gap:.3e}",
            IDENTITY_TOL - max(virial_lhs, gap),
        ),
    ]
    return CheckTable(tuple(checks))
