"""Explicit a priori constants confining every periodic orbit, and orbit verification.

For a valid field configuration the solver can certify, independently of
the deformation parameter:

  * an outer radius:   every periodic orbit stays inside |q| < R + T,
  * a clearance m > 0: no periodic orbit comes closer than m to the
    field singularity at the origin,
  * a momentum bound L: |p(t)| < L along every periodic orbit.

R and epsilon are found on grids whose conditions are sampled on spheres
(with seeds recorded), not proven.  C_gradV_B and M are closed-form: the
sum of the field kinds' envelopes (`envelope(r)`, non-increasing in r) at
the inner radius of their annulus, so upper bounds of the suprema, and
equal to them for the Coulomb family with a dipole, uniform or zero
field.  The certificate carries that provenance.  One deliberate change
against the source estimates: the near-origin inequality is required with
half the electric constant on the right-hand side, and that halved
constant is used wherever the downstream formula divides by it.  As
written the inequality is unsatisfiable for the plain Coulomb exponent;
the split preserves the structure of the estimate while being checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lfe.fields import FieldConfig, HypothesisCheck, check_table, power_law, shell_maxima
from lfe.kinematics import phi_inv
from lfe.sampling import log_radii, sphere_directions


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


def envelope(constant: str, fld, r: float) -> float:
    """fld.envelope(r) for the named constant; CertificateError naming both if the kind has none."""
    if not hasattr(fld, "envelope"):
        raise CertificateError(f"{constant}: a {type(fld).__name__} has no closed-form envelope")
    return fld.envelope(r)


_SPHERE_MULTIPLES = (1.0, 2.0, 4.0, 8.0)
_MAX_RADIUS = 1e6


def compute_R(config: FieldConfig, *, seed: int) -> float:
    """Smallest grid radius 2^k beyond which both far-field conditions hold.

    Sampled on spheres at {R, 2R, 4R, 8R} with 2^10 quasi-random
    directions (and a time grid for the magnetic field): |B| must fall
    strictly below the ceiling c_B, and both the potential gradient and
    the interpolated Coulomb gradient strictly below |mean h| - c_B.
    Consecutive radii share spheres, so each sphere 2^j is sampled once,
    and after a failing sphere the search resumes at the next radius.
    """
    hm = config.forcing.mean_norm
    if hm <= config.c_B:
        raise ValueError(f"requires |mean h| > c_B, got {hm:.6g} <= {config.c_B:.6g}")
    threshold = hm - config.c_B

    dirs = sphere_directions(10, seed)
    window = len(_SPHERE_MULTIPLES)  # the multiples are 2^0 ... 2^(window - 1)
    passed = []  # passed[j]: sphere 2^j meets both conditions (a NaN maximum fails)
    k = 0
    while 2.0**k <= _MAX_RADIUS:
        radii = 2.0 ** np.arange(len(passed), k + window)
        e, b = shell_maxima(radii, dirs, config.potential, config.magnetic, config.forcing.period)
        passed += list((b < config.c_B) & (np.maximum(e, config.c0 / radii**2) < threshold))
        failed = [j for j in range(k, k + window) if not passed[j]]
        if not failed:
            return 2.0**k
        k = failed[-1] + 1
    gradient = np.maximum(e[-1], config.c0 / radii[-1] ** 2)
    raise RadiusNotFound(
        f"no radius up to the search cap {_MAX_RADIUS:g} satisfies the far-field conditions: "
        f"on the largest sphere sampled, |q| = {radii[-1]:g}, max |grad V| = {gradient:.3e} "
        f"against the threshold |mean h| - c_B = {threshold:.3e} and max |B| = {b[-1]:.3e} "
        f"against c_B = {config.c_B:.3e} (the fields may decay too slowly, or below the "
        "threshold only beyond the cap)"
    )


_EPS_GRID_FACTOR = 0.9
_EPS_GRID_STEPS = 132  # down to ~1e-6 of the cap


def compute_lower_constants(
    config: FieldConfig, R: float, *, seed: int, l1: float
) -> tuple[float, float, float, float]:
    """(epsilon, K2, C_gradV_B, m): the singularity-clearance constants.

    epsilon is the largest value on a decreasing geometric grid below
    min(eps0, eps1, 1) such that the sampled radii underneath all satisfy

        -q . grad V(q)  >=  (c0/2) |q|^-1  +  c1 |q|^-beta.

    K2 = |ln epsilon|; C_gradV_B bounds |grad V| + |B| over the annulus
    epsilon < |q| < R + T by the envelopes at epsilon; and

        m = exp[-K2 - T/eps - T C/(c0/2) - (R+T) l1/(c0/2)],

    with l1 the forcing's L1 norm (`Forcing.l1_norm`).
    """
    period = config.forcing.period
    cap = min(config.eps0, config.eps1, 1.0)
    c0_eff = 0.5 * config.c0

    radii = log_radii(cap * 1e-8, cap, 160)
    # a radius fails if any direction does: its least -q.grad V, skipping NaN directions
    worst, _ = shell_maxima(radii, sphere_directions(6, seed), config.potential, radial=True, skip_nan=True)
    rhs = c0_eff / radii + config.c1 * radii ** (-config.beta)
    failing = radii[-worst < rhs - 1e-12 * rhs]
    r_bad = float(failing.min()) if failing.size else math.inf

    epsilon = cap
    for _ in range(_EPS_GRID_STEPS):
        if epsilon <= r_bad:
            break
        epsilon *= _EPS_GRID_FACTOR
    else:
        raise InequalityFails(
            "no clearance radius satisfies the near-origin inequality "
            f"(first sampled failure at |q| = {r_bad:.3e}); the configuration "
            "is outside the certified family"
        )

    K2 = abs(math.log(epsilon))

    C = sum(envelope("C_gradV_B", f, epsilon) for f in (config.potential, config.magnetic))
    constants = (K2, period, epsilon, C, c0_eff, R + period, l1)
    m = clearance_formula(*constants)
    if m == 0.0:
        terms = clearance_terms(*constants)
        name = max(terms, key=terms.get)
        raise CertificateError(
            f"clearance m: exp(-{sum(terms.values()):.6g}) underflows to 0; "
            f"the largest term of the exponent is {name} = {terms[name]:.6g}"
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
    grad, b = (envelope("momentum bound M", f, m) for f in (config.potential, config.magnetic))
    terms = {"|grad V|": grad, "c0/|q|^2": power_law(config.c0, m, 2.0), "|B|": b}
    M = sum(terms.values())
    if not math.isfinite(M):
        name = max(terms, key=terms.get)
        raise CertificateError(
            f"momentum bound M: |grad V| + c0/|q|^2 + |B| at |q| = m = {m:.6g} leaves the double "
            f"range; the largest term is {name} = {terms[name]:.6g}"
        )
    L = period * M + 2.0 * l1
    return M, L


def compute_certificate(config: FieldConfig, *, seed: int) -> BoundsCertificate:
    """Run the three bound computations and assemble the certificate."""
    period = config.forcing.period
    l1 = config.forcing.l1_norm()
    R = compute_R(config, seed=seed)
    epsilon, K2, C, m = compute_lower_constants(config, R, seed=seed, l1=l1)
    M, L = compute_momentum_bound(config, m, R, l1=l1)
    provenance = {
        "R": f"geometric grid 2^k, spheres x{_SPHERE_MULTIPLES}, 2^10 directions, seed={seed}",
        "epsilon": f"decreasing grid factor {_EPS_GRID_FACTOR} under min(eps0, eps1, 1), sampled inequality with halved c0",
        "C_gradV_B": f"closed-form envelopes of |grad V| + |B| at the inner radius of ({epsilon:.6g}, {R + period:.6g})",
        "m": "exponential clearance formula, as printed, with halved c0 in the divisions",
        "M": f"closed-form envelopes of |grad V| + c0/|q|^2 + |B| at the inner radius of ({m:.6g}, {R + period:.6g})",
        "note": "R and epsilon sampled, not proven; C_gradV_B and M closed-form bounds, exact but for ABC",
        "seed": seed,
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
        c0_eff=0.5 * config.c0,
        provenance=provenance,
    )


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(e.passed for e in self.entries))

    def lines(self) -> list[str]:
        return check_table(self.entries, 18, 6)


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


def verify_orbit(orbit, cert: BoundsCertificate) -> VerificationReport:
    """Check a converged orbit against the certificate.

    Position, momentum and speed are checked at every trajectory node and
    on a dense sample of the interpolant; the integral identities come
    from the orbit diagnostics.  The report always has the same six
    entries; failures are entries with negative margins, never exceptions.
    """
    traj = orbit.trajectory
    ys = np.vstack([traj.states, traj.at(np.linspace(traj.t0, traj.t1, _N_DENSE)).T])
    speeds = np.linalg.norm(phi_inv(ys[:, 3:]), axis=1)

    diag = orbit.diagnostics
    mean_res, virial_lhs, gap = diag["mean_identity"], diag["virial_lhs"], diag["virial_gap"]
    entries = region_checks(ys, cert.region()) + [
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
    return VerificationReport(entries=tuple(entries))
