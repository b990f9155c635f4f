"""Run configuration: a small key/section plain-text format.

Every physical value carries an explicit unit suffix ("U0 = 12 meV",
"distance = 10 um"); silent-unit bugs are the dominant failure mode when
parameters mix meV, K, THz, angstrom and Bohr radii.  Keys before any
[section] header are top-level (preset, material, output, seed).  Unknown
sections or keys are rejected, naming the offender.

Parsing resolves everything to SI and applies defaults; serialization
writes the fully resolved document back in SI base units, so
parse(serialize(cfg)) reproduces cfg exactly.  Temperatures are kept as
(value, unit) pairs with unit "K" or "nu10" (multiples of hbar*nu10/kB,
resolved against the exact level splitting once the well is solved).
"""

import math
from dataclasses import dataclass, field, replace

from . import potential as pot
from .errors import ConfigurationError
from .units import AMU, BOHR, E_CHARGE, LENGTH_TO_M, convert_energy

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
    n_points: int = 4000
    max_states: int = 5


@dataclass(frozen=True)
class SpectrumSection:
    temperatures: tuple = ((0.2, "nu10"), (0.3, "nu10"), (0.4, "nu10"),
                           (1.0, "nu10"), (2.0, "nu10"), (3.0, "nu10"))
    omega_min: float = 1e-3      # units of gamma0
    omega_max: float = 1e4       # units of gamma0
    points_per_decade: int = 60
    image_factor: float = 1.0


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


def _quantity(value, table, key, *, energy=False):
    parts = value.split(None, 1)
    if len(parts) != 2:
        raise ConfigurationError(f"{key}: expected '<number> <unit>', got {value!r}")
    num, unit = parts
    try:
        x = float(num)
    except ValueError:
        raise ConfigurationError(f"{key}: {num!r} is not a number") from None
    if energy:
        try:
            x = convert_energy(x, unit, "J")
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
    elif unit in table:
        x *= table[unit]
    else:
        raise ConfigurationError(
            f"{key}: unknown unit {unit!r}; known: {sorted(table)}")
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
    if t < 0 or (parts[1] == "nu10" and t == 0):
        raise ConfigurationError(f"{key}: temperature must be positive")
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
    norm = sum(c * c for c in comps) ** 0.5
    if norm == 0:
        raise ConfigurationError(f"{key}: axis must be non-zero")
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


_TOP_KEYS = {"preset", "material", "output", "seed"}
_SECTION_KEYS = {
    "potential": {"name", "U0", "z0", "beta", "mass", "polarizability",
                  "reduced_mass"},
    "material": {"speed_of_sound", "density", "debye_frequency"},
    "solver": {"n_points", "max_states"},
    "spectrum": {"temperatures", "omega_min", "omega_max",
                 "points_per_decade", "image_factor"},
    "trap": {"distance", "frequency", "ion_mass", "charge", "axis", "coverage"},
    "montecarlo": {"n_dipoles", "extent", "d_values", "n_seeds", "seed"},
    "tempsweep": {"t_min", "t_max", "n_temps", "arrhenius_omega",
                  "highfreq_omega"},
}


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
        params, material = pot.preset(preset_name)
        fields = dict(name=params.name, U0=params.U0, z0=params.z0,
                      beta=params.beta, adatom_mass=params.adatom_mass,
                      polarizability=params.polarizability)
    else:
        material = None
        fields = dict(name=p.get("name", "custom"), U0=None, z0=None,
                      beta=None, adatom_mass=None, polarizability=None)
    if "name" in p:
        fields["name"] = p["name"]
    if "U0" in p:
        fields["U0"] = _quantity(p["U0"], None, "potential.U0", energy=True)
    if "z0" in p:
        fields["z0"] = _quantity(p["z0"], LENGTH_TO_M, "potential.z0")
    if "beta" in p:
        fields["beta"] = _quantity(p["beta"], _INVERSE_LENGTH, "potential.beta")
    if "mass" in p:
        fields["adatom_mass"] = _quantity(p["mass"], _MASS, "potential.mass")
    if "polarizability" in p:
        fields["polarizability"] = _quantity(p["polarizability"], _VOLUME,
                                             "potential.polarizability")
    for need in ("U0", "z0", "adatom_mass"):
        if fields[need] is None:
            raise ConfigurationError(
                f"potential.{'mass' if need == 'adatom_mass' else need} is "
                "required (no preset supplies it)")
    try:
        params = pot.SurfacePotentialParams(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"potential: {exc}") from None
    if _boolean(p.get("reduced_mass", "false"), "potential.reduced_mass"):
        params = pot.reduced_mass(params)

    m = sections["material"]
    if material is None or m or "material" in top:
        base = pot.material_preset(top.get("material", "Au"))
        material = pot.BulkMaterial(
            name=base.name,
            speed_of_sound=_quantity(m["speed_of_sound"], _VELOCITY,
                                     "material.speed_of_sound")
            if "speed_of_sound" in m else base.speed_of_sound,
            density=_quantity(m["density"], _MASS_DENSITY, "material.density")
            if "density" in m else base.density,
            debye_frequency=_quantity(m["debye_frequency"], _FREQUENCY,
                                      "material.debye_frequency")
            if "debye_frequency" in m else base.debye_frequency)

    s = sections["solver"]
    solver = SolverSection(
        n_points=int(_number(s["n_points"], "solver.n_points", int))
        if "n_points" in s else SolverSection.n_points,
        max_states=int(_number(s["max_states"], "solver.max_states", int))
        if "max_states" in s else SolverSection.max_states)

    sp = sections["spectrum"]
    spectrum = SpectrumSection(
        temperatures=_temperature_list(sp["temperatures"], "spectrum.temperatures")
        if "temperatures" in sp else SpectrumSection.temperatures,
        omega_min=_number(sp.get("omega_min", "1e-3"), "spectrum.omega_min"),
        omega_max=_number(sp.get("omega_max", "1e4"), "spectrum.omega_max"),
        points_per_decade=int(_number(sp.get("points_per_decade", "60"),
                                      "spectrum.points_per_decade", int)),
        image_factor=_number(sp.get("image_factor", "1"), "spectrum.image_factor"))
    if spectrum.omega_min >= spectrum.omega_max:
        raise ConfigurationError("spectrum.omega_min must be below omega_max")

    t = sections["trap"]
    trap = TrapSection(
        distance=_quantity(t["distance"], LENGTH_TO_M, "trap.distance")
        if "distance" in t else TrapSection.distance,
        frequency=_quantity(t["frequency"], _FREQUENCY, "trap.frequency")
        if "frequency" in t else TrapSection.frequency,
        ion_mass=_quantity(t["ion_mass"], _MASS, "trap.ion_mass")
        if "ion_mass" in t else TrapSection.ion_mass,
        charge=_quantity(t["charge"], _CHARGE, "trap.charge")
        if "charge" in t else TrapSection.charge,
        axis=_axis(t["axis"], "trap.axis") if "axis" in t else TrapSection.axis,
        coverage=_quantity(t["coverage"], _AREA_DENSITY, "trap.coverage")
        if "coverage" in t else TrapSection.coverage)

    mc = sections["montecarlo"]
    montecarlo = MonteCarloSection(
        n_dipoles=int(_number(mc.get("n_dipoles", "100"), "montecarlo.n_dipoles", int)),
        extent=_number(mc.get("extent", "100"), "montecarlo.extent"),
        d_values=_float_list(mc["d_values"], "montecarlo.d_values")
        if "d_values" in mc else MonteCarloSection.d_values,
        n_seeds=int(_number(mc.get("n_seeds", "1000"), "montecarlo.n_seeds", int)),
        seed=int(_number(mc["seed"], "montecarlo.seed", int, positive=False))
        if "seed" in mc else None)

    ts = sections["tempsweep"]
    tempsweep = TempSweepSection(
        t_min=_temperature(ts["t_min"], "tempsweep.t_min")
        if "t_min" in ts else TempSweepSection.t_min,
        t_max=_temperature(ts["t_max"], "tempsweep.t_max")
        if "t_max" in ts else TempSweepSection.t_max,
        n_temps=int(_number(ts.get("n_temps", "30"), "tempsweep.n_temps", int)),
        arrhenius_omega=_number(ts.get("arrhenius_omega", "20"),
                                "tempsweep.arrhenius_omega"),
        highfreq_omega=_number(ts.get("highfreq_omega", "100"),
                               "tempsweep.highfreq_omega"))

    return RunConfig(
        potential=params, material=material, preset=preset_name,
        solver=solver, spectrum=spectrum, trap=trap, montecarlo=montecarlo,
        tempsweep=tempsweep, output=top.get("output", "out"),
        seed=int(_number(top["seed"], "seed", int, positive=False))
        if "seed" in top else 12345)


def _fmt_temp(spec):
    return f"{spec[0]!r} {spec[1]}"


def serialize_config(cfg: RunConfig) -> str:
    """Resolved document in SI base units; parse() reproduces cfg exactly."""
    p, m = cfg.potential, cfg.material
    lines = []
    if cfg.preset is not None:
        lines.append(f"preset = {cfg.preset}")
    lines += [f"material = {m.name}", f"output = {cfg.output}",
              f"seed = {cfg.seed}", "", "[potential]", f"name = {p.name}",
              f"U0 = {p.U0!r} J", f"z0 = {p.z0!r} m"]
    if p.beta is not None:
        lines.append(f"beta = {p.beta!r} 1/m")
    lines.append(f"mass = {p.adatom_mass!r} kg")
    if p.polarizability is not None:
        lines.append(f"polarizability = {p.polarizability!r} m^3")
    lines += ["", "[material]",
              f"speed_of_sound = {m.speed_of_sound!r} m/s",
              f"density = {m.density!r} kg/m^3",
              f"debye_frequency = {m.debye_frequency!r} Hz",
              "", "[solver]",
              f"n_points = {cfg.solver.n_points}",
              f"max_states = {cfg.solver.max_states}",
              "", "[spectrum]",
              "temperatures = " + ", ".join(_fmt_temp(t)
                                            for t in cfg.spectrum.temperatures),
              f"omega_min = {cfg.spectrum.omega_min!r}",
              f"omega_max = {cfg.spectrum.omega_max!r}",
              f"points_per_decade = {cfg.spectrum.points_per_decade}",
              f"image_factor = {cfg.spectrum.image_factor!r}",
              "", "[trap]",
              f"distance = {cfg.trap.distance!r} m",
              f"frequency = {cfg.trap.frequency!r} Hz",
              f"ion_mass = {cfg.trap.ion_mass!r} kg",
              f"charge = {cfg.trap.charge!r} C",
              "axis = " + " ".join(repr(a) for a in cfg.trap.axis),
              f"coverage = {cfg.trap.coverage!r} 1/m^2",
              "", "[montecarlo]",
              f"n_dipoles = {cfg.montecarlo.n_dipoles}",
              f"extent = {cfg.montecarlo.extent!r}",
              "d_values = " + ", ".join(repr(d) for d in cfg.montecarlo.d_values),
              f"n_seeds = {cfg.montecarlo.n_seeds}"]
    if cfg.montecarlo.seed is not None:
        lines.append(f"seed = {cfg.montecarlo.seed}")
    lines += ["", "[tempsweep]",
              f"t_min = {_fmt_temp(cfg.tempsweep.t_min)}",
              f"t_max = {_fmt_temp(cfg.tempsweep.t_max)}",
              f"n_temps = {cfg.tempsweep.n_temps}",
              f"arrhenius_omega = {cfg.tempsweep.arrhenius_omega!r}",
              f"highfreq_omega = {cfg.tempsweep.highfreq_omega!r}"]
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
