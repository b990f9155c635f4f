"""Run configuration: a small key/section plain-text format.

Every physical value carries an explicit unit suffix ("U0 = 12 meV",
"distance = 10 um"); silent-unit bugs are the dominant failure mode when
parameters mix meV, K, THz, angstrom and Bohr radii.  Keys before any
[section] header are top-level (preset, material, output, seed).  Unknown
sections or keys are rejected, naming the offender.

One field table declares every key: for each section, key -> (parser,
formatter) in field order.  Parsing, the unknown-key check and
serialization all iterate it.  A key that is left out takes the default of
its dataclass field (or of the preset, for [potential] and [material]);
the dataclasses hold the only copy of each default.  A quantity with units
is written back in the unit whose factor is 1.0 in its unit table, so the
document is in SI and parse(serialize(cfg)) reproduces cfg exactly.
Temperatures are kept as (value, unit) pairs with unit "K" or "nu10"
(multiples of hbar*nu10/kB, resolved against the exact level splitting
once the well is solved).
"""

import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial

from . import potential as pot
from .errors import ConfigurationError
from .units import (AMU, BOHR, E_CHARGE, ENERGY_TO_J, LENGTH_TO_M,
                    unit_factor)

_INVERSE_LENGTH = {"1/m": 1.0, "1/angstrom": 1e10, "1/a0": 1.0 / BOHR}
_VOLUME = {"m^3": 1.0, "angstrom^3": 1e-30, "a0^3": BOHR ** 3}
_MASS = {"kg": 1.0, "amu": AMU}
_FREQUENCY = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12}
_VELOCITY = {"m/s": 1.0}
_MASS_DENSITY = {"kg/m^3": 1.0, "g/cm^3": 1e3}
_AREA_DENSITY = {"1/m^2": 1.0, "1/cm^2": 1e4, "1/um^2": 1e12}
_CHARGE = {"C": 1.0, "e": E_CHARGE}


@dataclass(frozen=True)
class SolverSection:
    # max_states restricts the master equation to the most deeply bound
    # levels.  The exp-3 well also holds a band of shallow near-threshold
    # states dominated by the long-range tail; including them (raise
    # max_states) adds slow relaxation modes that shift the white-noise
    # knee well below gamma0*(n+1) and push the low-frequency noise peak
    # to higher temperature.
    n_points: int = 1000
    max_states: int = 5


@dataclass(frozen=True)
class SpectrumSection:
    temperatures: tuple = ((0.2, "nu10"), (0.3, "nu10"), (0.4, "nu10"),
                           (1.0, "nu10"), (2.0, "nu10"), (3.0, "nu10"))
    omega_min: float = 1e-3      # units of gamma0
    omega_max: float = 1e4       # units of gamma0
    points_per_decade: int = 60
    image_factor: float = 1.0

    def __post_init__(self):
        if self.omega_min >= self.omega_max:
            raise ConfigurationError(
                "spectrum.omega_min must be below omega_max")


@dataclass(frozen=True)
class TrapSection:
    distance: float = 10e-6        # m
    frequency: float = 1e6         # Hz, ordinary; angular internally
    ion_mass: float = 40.0 * AMU   # kg
    charge: float = E_CHARGE       # C
    axis: tuple = (0.0, 0.0, 1.0)
    coverage: float = 1e18         # 1/m^2


@dataclass(frozen=True)
class MonteCarloSection:
    n_dipoles: int = 100
    extent: float = 100.0          # units of the minimum spacing d0
    d_values: tuple = (3.0, 4.0, 5.0, 6.5, 8.0, 10.0)  # units of d0
    n_seeds: int = 1000
    seed: int | None = None        # falls back to the top-level seed


@dataclass(frozen=True)
class TempSweepSection:
    t_min: tuple = (0.2, "nu10")
    t_max: tuple = (6.0, "nu10")
    n_temps: int = 30
    arrhenius_omega: float = 20.0   # units of gamma0
    highfreq_omega: float = 100.0   # units of gamma0


@dataclass(frozen=True)
class RunConfig:
    potential: pot.SurfacePotentialParams
    material: pot.BulkMaterial
    preset: str | None = None
    solver: SolverSection = field(default_factory=SolverSection)
    spectrum: SpectrumSection = field(default_factory=SpectrumSection)
    trap: TrapSection = field(default_factory=TrapSection)
    montecarlo: MonteCarloSection = field(default_factory=MonteCarloSection)
    tempsweep: TempSweepSection = field(default_factory=TempSweepSection)
    output: str = "out"
    seed: int = 12345

    @property
    def mc_seed(self):
        return self.seed if self.montecarlo.seed is None else self.montecarlo.seed


# The section dataclasses, by RunConfig field name, in parsing order.
_SECTION_TYPES = {f.name: f.default_factory for f in fields(RunConfig)
                  if f.default_factory is not MISSING}


def _tokenize(text):
    """Yield (section, key, value) triples; section None before headers."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        yield section, key, value


def _finite(x, key, text):
    """x, unless it is an inf or nan float (from the text or unit scaling)."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ConfigurationError(f"{key}: {text!r} is not a finite number")
    return x


def _quantity(value, table, key):
    parts = value.split(None, 1)
    if len(parts) != 2:
        raise ConfigurationError(f"{key}: expected '<number> <unit>', got {value!r}")
    num, unit = parts
    try:
        x = float(num) * unit_factor(table, unit)
    except ValueError:
        raise ConfigurationError(f"{key}: {num!r} is not a number") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from None
    return _finite(x, key, value)


def _number(value, key, kind=float, positive=True):
    try:
        x = kind(value)
    except ValueError:
        raise ConfigurationError(f"{key}: {value!r} is not a valid {kind.__name__}") from None
    _finite(x, key, value)
    if positive and x <= 0:
        raise ConfigurationError(f"{key}: must be positive, got {x}")
    return x


def _boolean(value, key):
    v = value.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigurationError(f"{key}: expected true/false, got {value!r}")


def _temperature(value, key):
    parts = value.split(None, 1)
    if len(parts) != 2 or parts[1] not in ("K", "nu10"):
        raise ConfigurationError(
            f"{key}: expected '<number> K' or '<number> nu10', got {value!r}")
    try:
        t = _finite(float(parts[0]), key, value)
    except ValueError:
        raise ConfigurationError(f"{key}: {parts[0]!r} is not a number") from None
    if t < 0:
        raise ConfigurationError(f"{key}: temperature must be non-negative")
    return (t, parts[1])


def _temperature_list(value, key):
    items = [item.strip() for item in value.split(",") if item.strip()]
    if not items:
        raise ConfigurationError(f"{key}: temperature list is empty")
    return tuple(_temperature(item, key) for item in items)


def _axis(value, key):
    try:
        comps = tuple(_finite(float(v), key, value) for v in value.split())
    except ValueError:
        raise ConfigurationError(f"{key}: expected three numbers") from None
    if len(comps) != 3:
        raise ConfigurationError(f"{key}: expected three components")
    if not any(comps):
        raise ConfigurationError(f"{key}: axis must be non-zero")
    # A sum of squares that is not a normal float gives a norm that is
    # wrong or 0: the axis is then scaled by its largest |component| first.
    if not sys.float_info.min <= sum(c * c for c in comps) < math.inf:
        big = max(map(abs, comps))
        comps = tuple(c / big for c in comps)
    norm = sum(c * c for c in comps) ** 0.5
    # Dividing a unit vector by its rounded norm can move its last bits, so
    # an axis that is already unit is kept: serialize/parse is then exact.
    if abs(norm - 1.0) <= 1e-12:
        return comps
    return tuple(c / norm for c in comps)


def _float_list(value, key):
    try:
        vals = tuple(_finite(float(v), key, value)
                     for v in value.split(",") if v.strip())
    except ValueError:
        raise ConfigurationError(f"{key}: expected comma-separated numbers") from None
    if not vals or any(v <= 0 for v in vals):
        raise ConfigurationError(f"{key}: values must be positive")
    return vals


# Sign constraints of a quantity: (test, what the error says it must be).
_POSITIVE = (lambda x: x > 0, "positive")
_NONZERO = (lambda x: x != 0, "non-zero")


def _unit(table, sign=_POSITIVE):
    """Field of a '<number> <unit>' key, written in the unit of factor 1.

    A value that fails the sign constraint (positive unless another is
    given) is an error naming the key, raised before anything is solved.
    """
    si = next(unit for unit, factor in table.items() if factor == 1.0)

    def parse(value, key):
        x = _quantity(value, table, key)
        if not sign[0](x):
            raise ConfigurationError(
                f"{key}: must be {sign[1]}, got {value!r}")
        return x

    return parse, lambda x: f"{x!r} {si}"


def _fmt_temp(spec):
    return f"{spec[0]!r} {spec[1]}"


# A field is (parse(value, key), format(value)).
_TEXT = (lambda value, key: value, str)
_INT = (partial(_number, kind=int), str)
_SEED = (partial(_number, kind=int, positive=False), str)
_FLOAT = (_number, repr)
_TEMPERATURE = (_temperature, _fmt_temp)
_TEMPERATURES = (_temperature_list, lambda ts: ", ".join(map(_fmt_temp, ts)))
_AXIS = (_axis, lambda axis: " ".join(map(repr, axis)))
_FLOATS = (_float_list, lambda xs: ", ".join(map(repr, xs)))

# Every key of every section, in field order.
_FIELDS = {
    "potential": {"name": _TEXT, "U0": _unit(ENERGY_TO_J),
                  "z0": _unit(LENGTH_TO_M), "beta": _unit(_INVERSE_LENGTH),
                  "mass": _unit(_MASS), "polarizability": _unit(_VOLUME)},
    "material": {"speed_of_sound": _unit(_VELOCITY),
                 "density": _unit(_MASS_DENSITY),
                 "debye_frequency": _unit(_FREQUENCY)},
    "solver": {"n_points": _INT, "max_states": _INT},
    "spectrum": {"temperatures": _TEMPERATURES, "omega_min": _FLOAT,
                 "omega_max": _FLOAT, "points_per_decade": _INT,
                 "image_factor": _FLOAT},
    "trap": {"distance": _unit(LENGTH_TO_M), "frequency": _unit(_FREQUENCY),
             "ion_mass": _unit(_MASS),
             "charge": _unit(_CHARGE, sign=_NONZERO), "axis": _AXIS,
             "coverage": _unit(_AREA_DENSITY)},
    "montecarlo": {"n_dipoles": _INT, "extent": _FLOAT, "d_values": _FLOATS,
                   "n_seeds": _INT, "seed": _SEED},
    "tempsweep": {"t_min": _TEMPERATURE, "t_max": _TEMPERATURE,
                  "n_temps": _INT, "arrhenius_omega": _FLOAT,
                  "highfreq_omega": _FLOAT},
}
# RunConfig fields set by a top-level key.
_TOP_FIELDS = {"output": _TEXT, "seed": _SEED}
# Keys whose field has another name.
_FIELD_OF = {"mass": "adatom_mass"}
# Defaults with no dataclass to hold them.
_CUSTOM_NAME, _MATERIAL = "custom", "Au"

_TOP_KEYS = {"preset", "material", *_TOP_FIELDS}
_SECTION_KEYS = {name: set(table) for name, table in _FIELDS.items()}
# reduced_mass is applied to the parsed potential, never written back.
_SECTION_KEYS["potential"].add("reduced_mass")


def _parsed(table, given, prefix):
    """{field: value} of the keys in given, parsed in table order."""
    return {_FIELD_OF.get(key, key): parse(given[key], prefix + key)
            for key, (parse, _) in table.items() if key in given}


def _lines(table, obj):
    """'key = value' lines of obj in table order; None values are left out."""
    lines = []
    for key, (_, fmt) in table.items():
        value = getattr(obj, _FIELD_OF.get(key, key))
        if value is not None:
            lines.append(f"{key} = {fmt(value)}")
    return lines


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document; defaults applied."""
    top = {}
    sections = {name: {} for name in _SECTION_KEYS}
    for section, key, value in _tokenize(text):
        if section is None:
            if key not in _TOP_KEYS:
                raise ConfigurationError(f"unknown top-level key {key!r}")
            top[key] = value
        else:
            if section not in _SECTION_KEYS:
                raise ConfigurationError(f"unknown section [{section}]")
            if key not in _SECTION_KEYS[section]:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            sections[section][key] = value

    preset_name = top.get("preset")
    p = sections["potential"]
    if preset_name is not None:
        params, _ = pot.preset(preset_name)
        values = asdict(params)
    else:
        values = {f.name: None for f in fields(pot.SurfacePotentialParams)}
        values["name"] = _CUSTOM_NAME
    values.update(_parsed(_FIELDS["potential"], p, "potential."))
    for need in ("U0", "z0", "mass"):
        if values[_FIELD_OF.get(need, need)] is None:
            raise ConfigurationError(
                f"potential.{need} is required (no preset supplies it)")
    try:
        params = pot.SurfacePotentialParams(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"potential: {exc}") from None
    if "reduced_mass" in p and _boolean(p["reduced_mass"],
                                        "potential.reduced_mass"):
        params = pot.reduced_mass(params)

    material = replace(pot.material_preset(top.get("material", _MATERIAL)),
                       **_parsed(_FIELDS["material"], sections["material"],
                                 "material."))

    resolved = {name: make(**_parsed(_FIELDS[name], sections[name],
                                     f"{name}."))
                for name, make in _SECTION_TYPES.items()}
    return RunConfig(potential=params, material=material, preset=preset_name,
                     **resolved, **_parsed(_TOP_FIELDS, top, ""))


def serialize_config(cfg: RunConfig) -> str:
    """Resolved document in SI base units; parse() reproduces cfg exactly."""
    lines = [] if cfg.preset is None else [f"preset = {cfg.preset}"]
    lines += [f"material = {cfg.material.name}", *_lines(_TOP_FIELDS, cfg)]
    for name, table in _FIELDS.items():
        lines += ["", f"[{name}]", *_lines(table, getattr(cfg, name))]
    return "\n".join(lines) + "\n"


def override(cfg: RunConfig, *, output=None, seed=None, temperatures=None) -> RunConfig:
    """Apply command-line overrides onto a parsed configuration."""
    if output is not None:
        cfg = replace(cfg, output=output)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if temperatures is not None:
        cfg = replace(cfg, spectrum=replace(
            cfg.spectrum,
            temperatures=_temperature_list(temperatures, "--temperature")))
    return cfg
