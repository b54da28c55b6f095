"""Shared scenario fixtures.

The desk-scale scenario (cubic-decay potential, weak dipole, constant
forcing plus one cosine harmonic) is the standard end-to-end case; its
certificate and continuation are computed once per session and shared
between the solver tests and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest

import lfe.shooting
from lfe.certificate import compute_certificate
from lfe.degree import find_zero_f0
from lfe.fields import (
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    UniformField,
    ZeroField,
    magnetic_ceiling,
    near_origin_constants,
    radial_powers,
)
from lfe.homotopy import AutonomousField, HomotopySystem
from lfe.integrator import IntegratorConfig, Trajectory
from lfe.kinematics import State, lorentz_factor, phi_inv
from lfe.shooting import ShootingProblem, SolverOptions, continue_lambda, equilibrium_orbit

SEED = 20240803


@dataclass(frozen=True)
class TabulatedPotential:
    """Potential given by callables `value_fn(q)` and `gradient_fn(q)`; it has no closed-form envelope.

    Both take q of shape (3,) or (N, 3), as every field does, and return a
    scalar or (N,) and (3,) or (N, 3); `gradient` ignores `rad`.
    """

    value_fn: object
    gradient_fn: object

    def value(self, q):
        q, _ = radial_powers(q)
        return self.value_fn(q)

    def gradient(self, q, rad) -> np.ndarray:
        return self.gradient_fn(q)


@dataclass(frozen=True)
class ZeroPotential(TabulatedPotential):
    """V = 0, whose envelope of |grad V| is 0."""

    value_fn: object = lambda q: np.zeros(np.shape(q)[:-1])
    gradient_fn: object = lambda q: np.zeros(np.shape(q))

    def envelope(self, r):
        return 0.0


def zero_potential():
    return ZeroPotential()


def force_free_config(magnetic=None, mean=(0.0, 0.0, 0.0)) -> FieldConfig:
    """No electric force; used for free-particle and gyromotion runs at lam = 1."""
    return FieldConfig(
        potential=zero_potential(),
        magnetic=magnetic if magnetic is not None else ZeroField(),
        forcing=Forcing(1.0, mean),
        eps0=1.0,
        c_B=1.0,
        c1=0.0,
        beta=0.5,
        eps1=1.0,
    )


def coulomb_config(c0=1.0, mean=(0.0, 0.0, 2.0), c_B=1.0) -> FieldConfig:
    """Plain Coulomb potential, no magnetic field, constant forcing."""
    return FieldConfig(
        potential=GeneralizedCoulomb(c0, 1.0),
        magnetic=ZeroField(),
        forcing=Forcing(1.0, np.asarray(mean, dtype=float)),
        eps0=1.0,
        c_B=c_B,
        c1=0.0,
        beta=0.5,
        eps1=1.0,
    )


def desk_config() -> FieldConfig:
    """Cubic-decay potential, dipole, constant + cosine forcing over one period."""
    dipole = DipoleField([0.0, 0.0, 0.1])
    c1, beta = near_origin_constants(dipole, 3.0)
    forcing = Forcing(1.0, [0.0, 0.0, 2.0], [Harmonic(1, [0.1, 0.0, 0.0], [0.0, 0.0, 0.0])])
    c_B = magnetic_ceiling(dipole)
    return FieldConfig(
        potential=GeneralizedCoulomb(1.0, 3.0),
        magnetic=dipole,
        forcing=forcing,
        eps0=0.5,
        c_B=c_B,
        c1=c1,
        beta=beta,
        eps1=0.5,
    )


@dataclass(frozen=True)
class PulsedField:
    """Uniform field b max(sin(2 pi t/T), 0) e_z.

    |B| = b at t = T/4 and 0 (to rounding) at t = 0, T/2, 3T/4 and T.
    """

    b: float
    period: float

    def eval(self, t, q, rad):
        out = np.zeros(np.shape(q))
        out[..., 2] = self.b * np.maximum(np.sin(2.0 * np.pi * np.asarray(t) / self.period), 0.0)
        return out


@dataclass(frozen=True)
class PlantedCoulomb:
    """Coulomb gradient -q/|q|^3, except NaN at the point nan_q and 0 (not repelling) at zero_q.

    Its `radial_law()` states the Coulomb law, which the two points break.
    """

    nan_q: np.ndarray
    zero_q: np.ndarray

    def radial_law(self):
        return 1.0, 1.0

    def gradient(self, q, rad):
        g = -q * rad[1]
        g[np.all(q == self.nan_q, axis=-1)] = np.nan
        g[np.all(q == self.zero_q, axis=-1)] = 0.0
        return g


def pulsed_config(c_B: float) -> FieldConfig:
    """Coulomb potential, a field pulsing to |B| = 0.8 at t = T/4, constant forcing |h| = 2."""
    return FieldConfig(
        potential=GeneralizedCoulomb(1.0, 1.0),
        magnetic=PulsedField(0.8, 1.0),
        forcing=Forcing(1.0, [0.0, 0.0, 2.0]),
        eps0=1.0,
        c_B=c_B,
        c1=0.0,
        beta=0.5,
        eps1=1.0,
    )


def gyro_config() -> FieldConfig:
    return force_free_config(magnetic=UniformField([0.0, 0.0, 1.0]))


@pytest.fixture(scope="session")
def desk():
    config = desk_config()
    return config, HomotopySystem(config)


@pytest.fixture(scope="session")
def desk_cert(desk):
    config, _ = desk
    return compute_certificate(config)


@pytest.fixture(scope="session")
def desk_problem(desk, desk_cert):
    _, system = desk
    return ShootingProblem(
        system=system,
        lam=0.0,
        integrator=IntegratorConfig(r_min=0.5 * desk_cert.m),
        region=desk_cert.region(),
    )


@pytest.fixture(scope="session")
def desk_start(desk_problem):
    return equilibrium_orbit(desk_problem, find_zero_f0(1.0, [0.0, 0.0, 2.0]))


@pytest.fixture(scope="session")
def desk_continuation(desk_problem, desk_start):
    """The desk continuation path with a first step of 0.1 and its recorded shooting flows (`recorded_flows`).

    Its first step is dlam_init = 0.1, so a second step, to the end of the
    interval, starts from a warm guess.
    """
    problem = replace(desk_problem, solver=SolverOptions(dlam_init=0.1))
    with pytest.MonkeyPatch.context() as patch:
        flows = recorded_flows(patch)
        path = continue_lambda(problem, desk_start)
    return path, flows


@pytest.fixture(scope="session")
def desk_path(desk_continuation):
    return desk_continuation[0]


def recorded_flows(monkeypatch) -> list:
    """Wrap lfe.shooting.integrate: append each flow's (IntegratorConfig, Trajectory, first_step)."""
    flows = []
    integrate = lfe.shooting.integrate

    def recording(*args, first_step=None, **kwargs):
        traj = integrate(*args, first_step=first_step, **kwargs)
        flows.append((args[4], traj, first_step))
        return traj

    monkeypatch.setattr(lfe.shooting, "integrate", recording)
    return flows


def counted_identities(monkeypatch) -> list:
    """Wrap lfe.shooting.orbit_identities: append the trajectory of each call."""
    calls = []
    identities = lfe.shooting.orbit_identities

    def counting(system, traj):
        calls.append(traj)
        return identities(system, traj)

    monkeypatch.setattr(lfe.shooting, "orbit_identities", counting)
    return calls


def flowed_from(traj: Trajectory, flowed: Trajectory) -> bool:
    """Whether traj is the orbit of the recorded stacked flow flowed.

    That is the first members of its K blocks of 7, one per segment, joined
    over the span (`Trajectory.joined`); for a reversible solve that
    reflected to the whole period (`Trajectory.reflected`).
    """
    n, k = len(flowed.ts) - 1, flowed.states.shape[1] // 7
    if k == 0 or len(traj.ts) not in (k * n + 1, 2 * k * n + 1):
        return False
    orbit = np.concatenate([flowed.states[:-1, 7 * i] for i in range(k)] + [flowed.states[-1:, 7 * (k - 1)]])
    return np.array_equal(traj.ts[: n + 1], flowed.ts) and np.array_equal(traj.states[: k * n + 1], orbit)


def first_step_of(flows: list, traj) -> float | None:
    """The first_step of the one recorded flow that traj is the orbit of (`flowed_from`)."""
    (first_step,) = [step for _, flowed, step in flows if flowed_from(traj, flowed)]
    return first_step


def read_flow(problem: ShootingProblem, flowed: Trajectory):
    """A recorded stacked flow of a solve of problem, read as the solve reads it (`_Shooting.read`)."""
    starts = flowed.states[0, ::7]
    shooting = replace(lfe.shooting._shooting(problem, starts[0]), segments=len(starts))
    end = flowed.states[-1].reshape(-1, 7, 6)
    return shooting.read(starts, flowed, lfe.shooting._difference_jacobian(starts, end))


def reflow(problem: ShootingProblem, x0, first_step: float | None):
    """The flow of a solve of problem at x0 again, read as the solve reads it: its residual norm and monodromy.

    x0 is a State, or the segment starts (K, 6) of a solve of K segments.
    """
    starts = np.reshape(x0.as_array() if isinstance(x0, State) else x0, (-1, 6))
    shooting = replace(lfe.shooting._shooting(problem, starts[0]), segments=len(starts))
    span = shooting.span / shooting.segments
    return shooting.read(starts, *problem.flow_with_monodromy(starts, first_step, span, shooting.offsets))


def loosened(cfg: IntegratorConfig, rtol: float) -> IntegratorConfig:
    """cfg at rtol, with atol scaled by the same factor, as a trial flow's tolerance."""
    return replace(cfg, rtol=rtol, atol=cfg.atol * (rtol / cfg.rtol))


def conserved_energy(system: HomotopySystem, y: np.ndarray, lam: float):
    """sqrt(1+|p|^2) + V_lam(q) - h_mean . q for y of shape (6,) or (n, 6); shape () or (n,).

    Constant along a flow when h_lam is time-independent.
    """
    q, (s, _) = radial_powers(y[..., :3])
    v_lam = 0.0 if lam == 1.0 else (1.0 - lam) * system.config.potential.radial_law()[0] * np.sqrt(s[..., 0])
    if lam != 0.0:
        v_lam += lam * system.config.potential.value(q)
    return lorentz_factor(y[..., 3:]) + v_lam - np.add.reduce(q * system.config.forcing.mean, axis=-1)


def energy_drift(system: HomotopySystem, traj: Trajectory) -> float:
    """Max node deviation of the conserved energy along an autonomous-forcing run.

    Only meaningful when the interpolated forcing is time-independent
    (lam = 0 or no harmonics); raises ValueError otherwise.
    """
    if traj.lam != 0.0 and not system.config.forcing.is_constant():
        raise ValueError("energy drift is undefined for time-dependent forcing")
    energy = conserved_energy(system, traj.states, traj.lam)
    return float(np.max(np.abs(energy - energy[0])))


def periodicity_residual(x0: State, problem: ShootingProblem) -> np.ndarray:
    """Flow(T, x0) - x0; zero exactly at a T-periodic orbit."""
    traj = problem.flow(x0)
    return traj.states[-1] - traj.states[0]


def fd_jacobian_momentum_first(field: AutonomousField, x: State, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of f0 at x in momentum-first coordinates (p, q), all 12 points in one call.

    The oracle of `f0_determinant_closed_form`: its determinant agrees
    with the closed form to about 1e-5 relative.
    """
    z0 = np.concatenate([x.p, x.q])
    z = np.concatenate([z0 + step * np.eye(6), z0 - step * np.eye(6)])
    f = field.value(z[:, 3:], phi_inv(z[:, :3]))
    return (f[:6] - f[6:]).T / (2.0 * step)
