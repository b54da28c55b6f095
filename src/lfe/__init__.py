"""Periodic orbits of the relativistic Lorentz force equation.

Solver library and CLI for computing T-periodic orbits of a relativistic
charged particle in singular electric/magnetic fields by homotopy
continuation, with explicit a priori bound certificates and a Brouwer
degree computation anchoring the continuation at the autonomous limit.
"""

__version__ = "0.1.0"

from lfe.certificate import BoundsCertificate, compute_certificate, verify_orbit
from lfe.degree import DegreeReport, brouwer_degree, find_zero_f0
from lfe.fields import (
    ABCField,
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    UniformField,
    ZeroField,
    validate_hypotheses,
)
from lfe.homotopy import HomotopySystem
from lfe.integrator import IntegratorConfig, Trajectory, integrate
from lfe.kinematics import State, lorentz_factor, phi, phi_inv
from lfe.shooting import (
    ContinuationPath,
    OrbitSolution,
    ShootingProblem,
    SolverOptions,
    continue_lambda,
    equilibrium_orbit,
    newton_shooting,
)

__all__ = [
    "__version__",
    "State",
    "phi",
    "phi_inv",
    "lorentz_factor",
    "GeneralizedCoulomb",
    "ZeroField",
    "UniformField",
    "DipoleField",
    "ABCField",
    "Forcing",
    "Harmonic",
    "FieldConfig",
    "validate_hypotheses",
    "HomotopySystem",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "ShootingProblem",
    "SolverOptions",
    "OrbitSolution",
    "ContinuationPath",
    "newton_shooting",
    "continue_lambda",
    "equilibrium_orbit",
    "BoundsCertificate",
    "compute_certificate",
    "verify_orbit",
    "DegreeReport",
    "find_zero_f0",
    "brouwer_degree",
]
