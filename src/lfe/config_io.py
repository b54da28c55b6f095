"""Run configuration files: strict INI parsing, defaults, canonical text.

One config file fully describes one scenario.  Unknown sections or keys
are errors (no silently ignored typos) and defaults are applied at parse
time.  The parser is the one description of the format: every value it
reads, given or defaulted, is echoed as `key = value` in canonical form
(floats as repr, vectors as three reprs, the words auto and equilibrium
as written), and the echo of all sections is `RunConfig.text`.  Parsing
that text gives the same text again.

A start is not compared with the guard radius r_min here, only where it is
flowed (`integrate`, `ShootingProblem.violation`), so commands that flow
nothing run with any start.

Schema (INI sections and keys; vectors are space-separated triples):

  [potential]   kind = generalized-coulomb ; c0 ; gamma ; eps0
  [magnetic]    kind = zero | uniform | dipole | abc ; b | moment | abc ;
                c_B (number or 'auto') ; c1 ; beta ; eps1
  [forcing]     period ; mean ; harmonic_<k>_cos / harmonic_<k>_sin
                (k >= 1 in ASCII digits without a leading zero)
  [integrator]  rtol ; atol ; max_steps ; r_min (number or 'auto')
  [solver]      newton_tol ; max_iterations ; dlam_init (the first
                continuation step; default 1.0, the whole interval) ;
                dlam_floor ; target_lambda ; seed
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
    near_origin_constants,
)
from lfe.integrator import IntegratorConfig
from lfe.kinematics import State
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
    text: str  # the canonical file text, every default applied


_HARMONIC_KEY = re.compile(r"^harmonic_(\d+)_(cos|sin)$")

# kind -> (constructor from the vector, vector key, what the vector holds)
_MAGNETIC = {
    "zero": (ZeroField, None, None),
    "uniform": (UniformField, "b", "bx by bz"),
    "dipole": (DipoleField, "moment", "mx my mz"),
    "abc": (lambda abc: ABCField(*abc), "abc", "A B C"),
}
_MAGNETIC_VECTORS = {key for _, key, _ in _MAGNETIC.values() if key}

# sections whose keys are the fields of a dataclass, read field by field
_OPTIONS = {"integrator": IntegratorConfig, "solver": SolverOptions, "output": OutputOptions}

_SECTION_KEYS = {
    "potential": {"kind", "c0", "gamma", "eps0"},
    "magnetic": {"kind", "c_b", "c1", "beta", "eps1"} | _MAGNETIC_VECTORS,
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


# value kind -> (parse the raw text, canonical text of a value)
_KINDS = {
    "float": (_parse_float, lambda x: repr(float(x))),
    "int": (_parse_int, str),
    "str": (lambda section, key, raw: raw, str),
    "vec": (_parse_vec, lambda v: " ".join(repr(float(x)) for x in v)),
}


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


class _Section:
    """One section of the file: its raw keys, and the canonical echo of what is read.

    Keys are matched case-insensitively (configparser lowercases them) and
    error messages name the lowercased key; the echo spells the key as given
    to `read`.  An absent section reads as empty.
    """

    def __init__(self, parser, name: str, extra_pattern=None):
        self.name = name
        self.raw = dict(parser.items(name)) if parser.has_section(name) else {}
        for key in self.raw:
            if key not in _SECTION_KEYS[name] and not (extra_pattern and extra_pattern.match(key)):
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
        self.lines = [f"[{name}]"]

    def echo(self, key: str, value, kind: str = "str") -> None:
        self.lines.append(f"{key} = {_KINDS[kind][1](value)}")

    def parse(self, key: str, kind: str):
        return _KINDS[kind][0](self.name, key, self.raw[key])

    def says(self, key: str, word: str) -> bool:
        """Whether key is absent or says word (auto, equilibrium)."""
        return self.raw.get(key.lower(), word).strip().lower() == word

    def read(self, key: str, kind: str, default=None, word: str | None = None):
        """The value of key, or default when it is absent; echoed unless both are None.

        With a word, a key that `says` it returns None and echoes the word.
        """
        if word is not None and self.says(key, word):
            self.echo(key, word)
            return None
        raw = self.raw.get(key.lower())
        value = default if raw is None else self.parse(key.lower(), kind)
        if value is not None:
            self.echo(key, value, kind)
        return value

    def options(self, auto: str | None = None):
        """The section's dataclass, each field read in field order.

        A key left out keeps the field default; the field named auto may
        also say auto, which keeps the default too.
        """
        cls = _OPTIONS[self.name]
        values = {
            f.name: self.read(f.name, f.type, f.default, "auto" if f.name == auto else None)
            for f in fields(cls)
        }
        with _in_section(self.name):
            return cls(**{name: value for name, value in values.items() if value is not None})

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


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
    sec_pot = _Section(parser, "potential")
    kind = sec_pot.raw.get("kind", "generalized-coulomb")
    if kind not in ("generalized-coulomb", "coulomb"):
        raise ConfigError(f"[potential] kind must be generalized-coulomb, got {kind!r}")
    sec_pot.echo("kind", "generalized-coulomb")
    if "c0" not in sec_pot.raw:
        raise ConfigError("[potential] c0 is required")
    c0 = sec_pot.read("c0", "float")
    gamma = sec_pot.read("gamma", "float", 1.0)
    eps0 = sec_pot.read("eps0", "float", 1.0)
    with _in_section("potential"):
        potential = GeneralizedCoulomb(c0=c0, gamma=gamma)

    # forcing
    sec_forcing = _Section(parser, "forcing", _HARMONIC_KEY)
    if "period" not in sec_forcing.raw or "mean" not in sec_forcing.raw:
        raise ConfigError("[forcing] period and mean are required")
    period = sec_forcing.read("period", "float")
    mean = sec_forcing.read("mean", "vec")
    harmonics_raw: dict[int, dict[str, np.ndarray]] = {}
    for key in sec_forcing.raw:
        match = _HARMONIC_KEY.match(key)
        if not match:
            continue
        k = int(match.group(1))
        if match.group(1) != str(k):  # 01 or a non-ASCII digit would alias harmonic_1_*
            raise ConfigError(f"[forcing] harmonic index must be ASCII digits without a leading zero in {key!r}")
        if k < 1:
            raise ConfigError(f"[forcing] harmonic index must be >= 1 in {key!r}")
        harmonics_raw.setdefault(k, {})[match.group(2)] = sec_forcing.parse(key, "vec")
    harmonics = []
    for k, parts in sorted(harmonics_raw.items()):
        harmonic = Harmonic(
            k, cos_coeff=parts.get("cos", np.zeros(3)), sin_coeff=parts.get("sin", np.zeros(3))
        )
        sec_forcing.echo(f"harmonic_{k}_cos", harmonic.cos_coeff, "vec")
        sec_forcing.echo(f"harmonic_{k}_sin", harmonic.sin_coeff, "vec")
        harmonics.append(harmonic)
    with _in_section("forcing"):
        forcing = Forcing(period=period, mean=mean, harmonics=tuple(harmonics))

    # solver
    sec_solver = _Section(parser, "solver")
    solver = sec_solver.options()

    # magnetic
    sec_mag = _Section(parser, "magnetic")
    kind = sec_mag.raw.get("kind", "zero")
    make, vector_key, hint = _MAGNETIC.get(kind, (None, None, None))
    for key in sec_mag.raw.keys() & (_MAGNETIC_VECTORS - {vector_key}):
        raise ConfigError(f"[magnetic] key {key!r} does not belong to kind {kind!r}")
    if kind not in _MAGNETIC:
        raise ConfigError(f"[magnetic] kind must be {'|'.join(_MAGNETIC)}, got {kind!r}")
    sec_mag.echo("kind", kind)
    if vector_key is not None and vector_key not in sec_mag.raw:
        raise ConfigError(f"[magnetic] {kind} field needs {vector_key} = {hint}")
    vector = [sec_mag.read(vector_key, "vec")] if vector_key else []
    c_B = sec_mag.read("c_B", "float", word="auto")
    with _in_section("magnetic"):
        magnetic = make(*vector)
        c_B = magnetic_ceiling(magnetic) if c_B is None else c_B

    sharp = near_origin_constants(magnetic, gamma)
    for key, default in zip(("c1", "beta"), sharp):
        if default is None and key not in sec_mag.raw:
            raise ConfigError(f"[magnetic] {key} is required for this field kind")
    c1 = sec_mag.read("c1", "float", sharp[0])
    beta = sec_mag.read("beta", "float", sharp[1])
    eps1 = sec_mag.read("eps1", "float", 1.0)

    with _in_section("potential", "magnetic"):
        field_config = FieldConfig(
            potential=potential,
            magnetic=magnetic,
            forcing=forcing,
            eps0=eps0,
            c_B=c_B,
            c1=c1,
            beta=beta,
            eps1=eps1,
        )

    # integrator: r_min = auto keeps the field default until a certificate gives m/2
    sec_int = _Section(parser, "integrator")
    integrator = sec_int.options(auto="r_min")
    r_min_auto = sec_int.says("r_min", "auto")

    # initial state
    sec_ini = _Section(parser, "initial-state")
    initial = InitialState(
        lam=sec_ini.read("lambda", "float", 0.0),
        q=sec_ini.read("q", "vec", word="equilibrium"),
        p=sec_ini.read("p", "vec", np.zeros(3)),
        t_end=sec_ini.read("t_end", "float"),
    )
    if not 0.0 <= initial.lam <= 1.0:
        raise ConfigError("[initial-state] lambda must lie in [0, 1]")
    if initial.q is not None:
        with _in_section("initial-state"):
            State(q=initial.q, p=initial.p)
    if initial.t_end is not None and not initial.t_end > 0.0:
        raise ConfigError("[initial-state] t_end must be positive")

    # output
    sec_out = _Section(parser, "output")
    output = sec_out.options()
    if output.sample_points < 2:
        raise ConfigError("[output] sample_points must be at least 2")

    sections = (sec_pot, sec_mag, sec_forcing, sec_int, sec_solver, sec_ini, sec_out)
    return RunConfig(
        fields=field_config,
        integrator=integrator,
        r_min_auto=r_min_auto,
        solver=solver,
        initial=initial,
        output=output,
        text="\n".join(sec.text() for sec in sections),
    )


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
