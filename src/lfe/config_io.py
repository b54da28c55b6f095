"""Run configuration files: strict INI parsing, defaults, canonical serialization.

One config file fully describes one scenario.  Unknown sections or keys
are errors (no silently ignored typos), defaults are applied at parse
time and echoed back by the serializer, and the serialized form is
canonical so that parse -> serialize round-trips to the identical file.

Schema (INI sections and keys; vectors are space-separated triples):

  [potential]   kind = generalized-coulomb ; c0 ; gamma ; eps0
  [magnetic]    kind = zero | uniform | dipole | abc ; b | moment | abc ;
                c_B (number or 'auto') ; c1 ; beta ; eps1
  [forcing]     period ; mean ; harmonic_<k>_cos / harmonic_<k>_sin
  [integrator]  rtol ; atol ; max_steps ; method ; r_min (number or 'auto')
  [solver]      newton_tol ; max_iterations ; dlam_init ; dlam_floor ;
                growth ; target_lambda ; seed
  [initial-state]  lambda ; q (triple or 'equilibrium') ; p ; t_end
  [output]      sample_points

Potentials given as callables cannot be written to a file; the file
format covers the generalized-coulomb family only.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from lfe.degree import DegenerateForcing, find_zero_f0
from lfe.fields import (
    ABCField,
    DipoleField,
    FieldConfig,
    Forcing,
    GeneralizedCoulomb,
    Harmonic,
    UniformField,
    ZeroField,
    magnetic_ceiling,
)
from lfe.integrator import IntegratorConfig
from lfe.shooting import SolverOptions


class ConfigError(ValueError):
    """Malformed, incomplete or unknown content in a run configuration."""


@dataclass(frozen=True)
class InitialState:
    lam: float = 0.0
    q: np.ndarray | None = None  # None means: start at the autonomous equilibrium
    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t_end: float | None = None  # None means: one forcing period


@dataclass(frozen=True)
class OutputOptions:
    sample_points: int = 1000


@dataclass(frozen=True)
class RunConfig:
    fields: FieldConfig
    integrator: IntegratorConfig
    r_min_auto: bool
    solver: SolverOptions
    initial: InitialState
    output: OutputOptions
    c_B_auto: bool = False


_HARMONIC_KEY = re.compile(r"^harmonic_(\d+)_(cos|sin)$")

# sections whose keys are the fields of a dataclass, parsed and written field by field
_OPTIONS = {"integrator": IntegratorConfig, "solver": SolverOptions, "output": OutputOptions}

_SECTION_KEYS = {
    "potential": {"kind", "c0", "gamma", "eps0"},
    "magnetic": {"kind", "b", "moment", "abc", "c_b", "c1", "beta", "eps1"},
    "forcing": {"period", "mean"},  # harmonic_* matched by pattern
    "initial-state": {"lambda", "q", "p", "t_end"},
    **{name: {f.name for f in fields(cls)} for name, cls in _OPTIONS.items()},
}


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key} must be finite")
    return val


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None


def _parse_vec(section: str, key: str, raw: str) -> np.ndarray:
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"[{section}] {key} must be three numbers, got {raw!r}")
    return np.array([_parse_float(section, key, p) for p in parts])


_PARSERS = {"float": _parse_float, "int": _parse_int, "str": lambda section, key, raw: raw}


@contextmanager
def _in_section(*sections: str):
    """Re-raise a constructor's ValueError as a ConfigError naming the section.

    With several sections, the one holding the key the message starts with.
    """
    try:
        yield
    except ValueError as err:
        key = str(err).split()[0].lower()
        section = next((s for s in sections if key in _SECTION_KEYS[s]), sections[0])
        raise ConfigError(f"[{section}] {err}") from err


def _parse_options(section: str, sec: dict):
    """The section's dataclass from its keys; a key left out keeps the field default."""
    cls = _OPTIONS[section]
    values = {
        f.name: _PARSERS[f.type](section, f.name, sec[f.name]) for f in fields(cls) if f.name in sec
    }
    with _in_section(section):
        return cls(**values)


def _items(parser, section: str, extra_pattern=None) -> dict:
    """The keys of one section (empty when it is absent); an unknown key is an error."""
    sec = dict(parser.items(section)) if parser.has_section(section) else {}
    for key in sec:
        if key not in _SECTION_KEYS[section] and not (extra_pattern and extra_pattern.match(key)):
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return sec


def parse_config(path) -> RunConfig:
    """Read and fully validate a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config file {path}: {err}") from err

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
    for required in ("potential", "forcing"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    # potential
    sec = _items(parser, "potential")
    kind = sec.get("kind", "generalized-coulomb")
    if kind not in ("generalized-coulomb", "coulomb"):
        raise ConfigError(f"[potential] kind must be generalized-coulomb, got {kind!r}")
    if "c0" not in sec:
        raise ConfigError("[potential] c0 is required")
    c0 = _parse_float("potential", "c0", sec["c0"])
    gamma = _parse_float("potential", "gamma", sec.get("gamma", "1.0"))
    eps0 = _parse_float("potential", "eps0", sec.get("eps0", "1.0"))
    with _in_section("potential"):
        potential = GeneralizedCoulomb(c0=c0, gamma=gamma)

    # forcing
    sec = _items(parser, "forcing", _HARMONIC_KEY)
    if "period" not in sec or "mean" not in sec:
        raise ConfigError("[forcing] period and mean are required")
    period = _parse_float("forcing", "period", sec["period"])
    mean = _parse_vec("forcing", "mean", sec["mean"])
    harmonics_raw: dict[int, dict[str, np.ndarray]] = {}
    for key, raw in sec.items():
        match = _HARMONIC_KEY.match(key)
        if not match:
            continue
        k = int(match.group(1))
        if k < 1:
            raise ConfigError(f"[forcing] harmonic index must be >= 1 in {key!r}")
        harmonics_raw.setdefault(k, {})[match.group(2)] = _parse_vec("forcing", key, raw)
    harmonics = tuple(
        Harmonic(
            k,
            cos_coeff=parts.get("cos", np.zeros(3)),
            sin_coeff=parts.get("sin", np.zeros(3)),
        )
        for k, parts in sorted(harmonics_raw.items())
    )
    with _in_section("forcing"):
        forcing = Forcing(period=period, mean=mean, harmonics=harmonics)

    # magnetic
    sec = _items(parser, "magnetic")
    kind = sec.get("kind", "zero")
    variant_keys = {"zero": set(), "uniform": {"b"}, "dipole": {"moment"}, "abc": {"abc"}}
    for key in sec.keys() & ({"b", "moment", "abc"} - variant_keys.get(kind, set())):
        raise ConfigError(f"[magnetic] key {key!r} does not belong to kind {kind!r}")
    if kind == "zero":
        magnetic = ZeroField()
    elif kind == "uniform":
        if "b" not in sec:
            raise ConfigError("[magnetic] uniform field needs b = bx by bz")
        magnetic = UniformField(_parse_vec("magnetic", "b", sec["b"]))
    elif kind == "dipole":
        if "moment" not in sec:
            raise ConfigError("[magnetic] dipole field needs moment = mx my mz")
        magnetic = DipoleField(_parse_vec("magnetic", "moment", sec["moment"]))
    elif kind == "abc":
        if "abc" not in sec:
            raise ConfigError("[magnetic] abc field needs abc = A B C")
        a, b, c = _parse_vec("magnetic", "abc", sec["abc"])
        magnetic = ABCField(a, b, c)
    else:
        raise ConfigError(f"[magnetic] kind must be zero|uniform|dipole|abc, got {kind!r}")

    # near-origin magnetic constants: sharp defaults where the variant has them
    if "c1" in sec:
        c1 = _parse_float("magnetic", "c1", sec["c1"])
    elif isinstance(magnetic, DipoleField):
        c1 = magnetic.bound_constants()[0]
    elif isinstance(magnetic, ZeroField):
        c1 = 0.0
    else:
        raise ConfigError("[magnetic] c1 is required for this field kind")
    if "beta" in sec:
        beta = _parse_float("magnetic", "beta", sec["beta"])
    elif isinstance(magnetic, DipoleField):
        beta = magnetic.bound_constants()[1]
    elif isinstance(magnetic, ZeroField):
        beta = 0.5 * gamma
    else:
        raise ConfigError("[magnetic] beta is required for this field kind")
    eps1 = _parse_float("magnetic", "eps1", sec.get("eps1", "1.0"))

    # solver (needed before c_B = auto, which uses the seed)
    solver = _parse_options("solver", _items(parser, "solver"))

    c_b_raw = sec.get("c_b", "auto")
    c_B_auto = c_b_raw.strip().lower() == "auto"
    if c_B_auto:
        c_B = magnetic_ceiling(magnetic, period=period, seed=solver.seed)
        if c_B <= 0.0:
            c_B = 1.0  # vanishing field: any positive ceiling is valid
    else:
        c_B = _parse_float("magnetic", "c_b", c_b_raw)

    with _in_section("potential", "magnetic"):
        field_config = FieldConfig(
            potential=potential,
            magnetic=magnetic,
            forcing=forcing,
            c0=c0,
            gamma=gamma,
            eps0=eps0,
            c_B=c_B,
            c1=c1,
            beta=beta,
            eps1=eps1,
        )

    # integrator
    sec = _items(parser, "integrator")
    r_min_auto = sec.get("r_min", "auto").strip().lower() == "auto"
    if r_min_auto:  # the field default until a certificate gives m/2
        sec.pop("r_min", None)
    integrator = _parse_options("integrator", sec)

    # initial state
    sec = _items(parser, "initial-state")
    q_raw = sec.get("q", "equilibrium").strip()
    initial = InitialState(
        lam=_parse_float("initial-state", "lambda", sec.get("lambda", "0.0")),
        q=None if q_raw.lower() == "equilibrium" else _parse_vec("initial-state", "q", q_raw),
        p=_parse_vec("initial-state", "p", sec.get("p", "0 0 0")),
        t_end=(
            _parse_float("initial-state", "t_end", sec["t_end"]) if "t_end" in sec else None
        ),
    )
    if not 0.0 <= initial.lam <= 1.0:
        raise ConfigError("[initial-state] lambda must lie in [0, 1]")
    q = initial.q
    if q is None and not r_min_auto:  # an explicit guard radius must clear the equilibrium too
        try:
            q = find_zero_f0(field_config.c0, field_config.forcing.mean).q
        except DegenerateForcing:  # no equilibrium: the commands that need one say so
            pass
    if q is not None and np.linalg.norm(q) <= integrator.r_min:
        what = "q" if initial.q is not None else f"q = equilibrium (|q| = {np.linalg.norm(q):g})"
        raise ConfigError(
            f"[initial-state] {what} must lie outside the guard radius r_min = {integrator.r_min:g}"
        )
    if initial.t_end is not None and not initial.t_end > 0.0:
        raise ConfigError("[initial-state] t_end must be positive")

    # output
    output = _parse_options("output", _items(parser, "output"))
    if output.sample_points < 2:
        raise ConfigError("[output] sample_points must be at least 2")

    return RunConfig(
        fields=field_config,
        integrator=integrator,
        r_min_auto=r_min_auto,
        solver=solver,
        initial=initial,
        output=output,
        c_B_auto=c_B_auto,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def _option_lines(options, skip=()) -> list[str]:
    """`key = value` for each field of an options dataclass, in field order."""
    out = []
    for f in fields(options):
        if f.name not in skip:
            value = getattr(options, f.name)
            out.append(f"{f.name} = {_fmt(value) if f.type == 'float' else value}")
    return out


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of a run configuration; parses back to an equal config."""
    fc = cfg.fields
    lines = []
    lines.append("[potential]")
    lines.append("kind = generalized-coulomb")
    lines.append(f"c0 = {_fmt(fc.c0)}")
    lines.append(f"gamma = {_fmt(fc.gamma)}")
    lines.append(f"eps0 = {_fmt(fc.eps0)}")
    lines.append("")

    lines.append("[magnetic]")
    mag = fc.magnetic
    if isinstance(mag, ZeroField):
        lines.append("kind = zero")
    elif isinstance(mag, UniformField):
        lines.append("kind = uniform")
        lines.append(f"b = {_fmt_vec(mag.b)}")
    elif isinstance(mag, DipoleField):
        lines.append("kind = dipole")
        lines.append(f"moment = {_fmt_vec(mag.moment)}")
    elif isinstance(mag, ABCField):
        lines.append("kind = abc")
        lines.append(f"abc = {_fmt(mag.A)} {_fmt(mag.B)} {_fmt(mag.C)}")
    else:
        raise ConfigError(f"magnetic field {type(mag).__name__} has no file representation")
    lines.append("c_B = auto" if cfg.c_B_auto else f"c_B = {_fmt(fc.c_B)}")
    lines.append(f"c1 = {_fmt(fc.c1)}")
    lines.append(f"beta = {_fmt(fc.beta)}")
    lines.append(f"eps1 = {_fmt(fc.eps1)}")
    lines.append("")

    lines.append("[forcing]")
    lines.append(f"period = {_fmt(fc.forcing.period)}")
    lines.append(f"mean = {_fmt_vec(fc.forcing.mean)}")
    for harm in sorted(fc.forcing.harmonics, key=lambda h: h.k):
        lines.append(f"harmonic_{harm.k}_cos = {_fmt_vec(harm.cos_coeff)}")
        lines.append(f"harmonic_{harm.k}_sin = {_fmt_vec(harm.sin_coeff)}")
    lines.append("")

    lines.append("[integrator]")
    lines.extend(_option_lines(cfg.integrator, skip={"r_min"}))
    lines.append("r_min = auto" if cfg.r_min_auto else f"r_min = {_fmt(cfg.integrator.r_min)}")
    lines.append("")

    lines.append("[solver]")
    lines.extend(_option_lines(cfg.solver))
    lines.append("")

    lines.append("[initial-state]")
    ini = cfg.initial
    lines.append(f"lambda = {_fmt(ini.lam)}")
    lines.append("q = equilibrium" if ini.q is None else f"q = {_fmt_vec(ini.q)}")
    lines.append(f"p = {_fmt_vec(ini.p)}")
    if ini.t_end is not None:
        lines.append(f"t_end = {_fmt(ini.t_end)}")
    lines.append("")

    lines.append("[output]")
    lines.extend(_option_lines(cfg.output))
    lines.append("")
    return "\n".join(lines)


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
