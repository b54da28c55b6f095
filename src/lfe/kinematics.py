"""Relativistic kinematics: the velocity/momentum maps and the phase state.

Units are normalized: speed of light, particle mass and charge-to-mass
ratio are all 1.  Velocities live strictly inside the unit ball; momenta
are unconstrained 3-vectors.  The two are exchanged by

    phi(v)     = v / sqrt(1 - |v|^2)      (velocity -> momentum)
    phi_inv(p) = p / sqrt(1 + |p|^2)      (momentum -> velocity)

`phi_inv`, its Jacobian and `lorentz_factor` take p of shape (3,) or (N, 3) through
one code path: row i of a stack result equals, bit for bit, the result for row i alone.
Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Velocities at least this close to the light cone are rejected rather than
# clamped: the solver itself works in momentum coordinates where superluminal
# states are unreachable, so only user input can trip this.
SPEED_LIMIT_MARGIN = 1e-12


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


def phi(v) -> np.ndarray:
    """Map a velocity to its relativistic momentum, v / sqrt(1 - |v|^2).

    Raises ValueError for |v| >= 1 - 1e-12 (domain of the map is the open
    unit ball; near-light input is rejected, not clamped).
    """
    v = _as_vec3(v, "velocity")
    speed = math.hypot(*v)
    if speed >= 1.0 - SPEED_LIMIT_MARGIN:
        raise ValueError(f"velocity magnitude {speed!r} is not strictly below 1")
    return v / math.sqrt(1.0 - speed * speed)


def lorentz_factor(p):
    """Energy factor sqrt(1 + |p|^2) >= 1 of p of shape (3,) or (N, 3); shape () or (N,)."""
    p = np.asarray(p, dtype=float)
    # nested hypot: sqrt(1 + |p|^2) overflows past |p| ~ 1e154
    return np.hypot(1.0, np.hypot(np.hypot(p[..., 0], p[..., 1]), p[..., 2]))


def phi_inv(p) -> np.ndarray:
    """Velocity p / sqrt(1 + |p|^2) of p of shape (3,) or (N, 3); inside the unit ball for finite p.

    Unchecked, so a non-finite momentum reaches the integrator's step control.
    """
    p = np.asarray(p, dtype=float)
    return p / lorentz_factor(p)[..., None]


def velocity_jacobian(p) -> np.ndarray:
    """d phi_inv / dp = I (1+|p|^2)^(-1/2) - p p^T (1+|p|^2)^(-3/2).

    p of shape (3,) or (N, 3) gives shape (3, 3) or (N, 3, 3).
    """
    p = np.asarray(p, dtype=float)
    s = 1.0 + np.add.reduce(p * p, axis=-1)[..., None, None]
    return np.eye(3) * s**-0.5 - p[..., :, None] * p[..., None, :] * s**-1.5


@dataclass(frozen=True)
class State:
    """Phase point (q, p): position and relativistic momentum.

    The position must avoid the origin, where the fields are singular.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vec3(self.q, "position"))
        object.__setattr__(self, "p", _as_vec3(self.p, "momentum"))
        if float(np.linalg.norm(self.q)) == 0.0:
            raise ValueError("position must be nonzero (origin is the field singularity)")

    def as_array(self) -> np.ndarray:
        """Flat layout [q1, q2, q3, p1, p2, p3]."""
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_array(y) -> "State":
        y = np.asarray(y, dtype=float)
        if y.shape != (6,):
            raise ValueError(f"state vector must have 6 components, got shape {y.shape}")
        return State(q=y[:3].copy(), p=y[3:].copy())
