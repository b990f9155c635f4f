"""Command line front end: adnoise <subcommand> [options].

Subcommands map one-to-one onto the quantities of interest:

  states      level structure and wavefunctions of the surface well
  dipoles     vibrationally averaged induced dipole ladder
  rates       phonon transition rates and Debye mask at one temperature
  spectrum    dipole fluctuation spectrum per temperature
  tempsweep   temperature dependence in three frequency regimes + fit
  mc-scaling  Monte Carlo distance scaling of the field noise
  heat        electric-field noise and heating rate at the trap frequency
  validate    run the internal invariant checks

Exit codes: 0 ok, 2 configuration error, 3 model error, 4 numerical error.

Each subcommand loads only the chain modules it runs: this module imports
config, errors, tables and units at the top, and boundstates, dipoles,
phonons, spectrum and trapnoise inside the Pipeline properties and cmd_*
functions that call them.  So mc-scaling runs on numpy alone and never
loads LAPACK; the least-squares line it shares with spectrum lives in
units.
"""

import argparse
import functools
import math
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, override, parse_config, serialize_config
from .errors import (AdnoiseError, ConfigurationError, DomainError,
                     ModelError, NumericalError)
from .tables import emit_table
from .units import E_CHARGE, HBAR, KB, _in_debye

TWO_PI = 2.0 * math.pi


class Pipeline:
    """Lazy orchestration of potential -> states -> dipoles -> rates."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.params = cfg.potential
        self.material = cfg.material

    @cached_property
    def grid(self):
        from . import boundstates
        return boundstates.auto_grid(self.params, self.cfg.solver.n_points)

    @cached_property
    def states(self):
        from . import boundstates
        return boundstates.solve(self.params, self.grid,
                                 self.cfg.solver.max_states)

    @cached_property
    def nu10(self):
        """Exact fundamental splitting (E1 - E0)/hbar, rad/s."""
        return self.states.splitting(1, 0)

    @cached_property
    def gamma0(self):
        """Exact zero-temperature 1 -> 0 decay rate, 1/s."""
        from . import phonons
        rate, masked = phonons.transition_rate(
            self.states, self.material, 1, 0, 0.0, self.coupling)
        if masked:
            raise ModelError(
                f"{self.params.name}: the fundamental transition exceeds the "
                "Debye cutoff; no single-phonon decay scale exists")
        return rate

    @cached_property
    def ladder(self):
        from . import dipoles
        if self.params.polarizability is None:
            raise ConfigurationError(
                f"{self.params.name}: polarizability is required for dipole "
                "calculations; set potential.polarizability")
        return dipoles.dipole_ladder(self.states, self.params.polarizability,
                                     self.cfg.spectrum.image_factor)

    @cached_property
    def coupling(self):
        from . import boundstates
        return boundstates.coupling_matrix(self.states)

    def kelvin(self, tspec):
        value, unit = tspec
        if unit == "K":
            return value
        # Python floats overflow to inf silently; numpy scalars warn.
        T = value * HBAR * float(self.nu10) / KB
        if not math.isfinite(T):
            raise ConfigurationError(
                f"temperature {value:g} nu10 is not a finite number of "
                f"kelvin (nu10 = {self.nu10 / TWO_PI / 1e12:.6g} THz)")
        return T

    def temp_tag(self, tspec):
        value, unit = tspec
        return f"kT_{value:g}nu10" if unit == "nu10" else f"T_{value:g}K"

    def rate_matrix(self, T):
        from . import phonons
        return phonons.build_rate_matrix(self.states, self.material, T,
                                         self.coupling)

    def spectrum_at(self, T):
        from . import phonons, spectrum
        r = self.rate_matrix(T)
        p0 = phonons.stationary_distribution(self.states.energies, T)
        return spectrum.correlation_modes(r, p0, self.ladder)

    def omega_grid(self):
        from . import spectrum
        sp = self.cfg.spectrum
        return spectrum.omega_grid(self.gamma0, sp.omega_min, sp.omega_max,
                                   sp.points_per_decade)

    def header(self, command, extra=()):
        lines = [f"adnoise {__version__}", f"command: {command}",
                 f"seed: {self.cfg.seed}"]
        lines += list(extra)
        lines.append("resolved configuration:")
        lines += ["  " + ln for ln in serialize_config(self.cfg).splitlines()]
        return lines

    def derived_header(self):
        try:
            gamma0_line = (f"gamma0_exact: {self.gamma0 / TWO_PI / 1e6:.6g} "
                           "MHz (over 2 pi)")
        except ModelError:
            gamma0_line = ("gamma0_exact: undefined (fundamental transition "
                           "above the Debye cutoff)")
        s = self.states
        coordinate = ("ln z" if s.shift == 0.0
                      else f"ln(z - {s.shift / self.params.z0:.6g} z0)")
        return [
            f"n_states: {s.n_states} "
            f"(near-zero discarded: {s.near_zero_discarded})",
            f"basis: {len(s.nodes)} sinc nodes in {coordinate}, convergence "
            f"gap {s.gap:.2g} U0 against {s.check_nodes} nodes",
            f"nu10_exact: {self.nu10 / TWO_PI / 1e12:.6g} THz",
            gamma0_line,
        ]


def cmd_states(pipe: Pipeline, outdir: Path):
    from . import potential
    s = pipe.states
    # The n_points rows sample the sinc interpolant of each state.
    z = s.grid.z
    header = pipe.header("states", pipe.derived_header() + [
        "energies_meV: " + ", ".join(f"{e / (1e-3 * E_CHARGE):.6g}"
                                     for e in s.energies)])
    columns = [("z", "m"), ("U", "J")]
    columns += [(f"psi_{i}", "1/sqrt(m)") for i in range(s.n_states)]
    rows = np.column_stack([z, potential.evaluate(s.params, z),
                            s.interpolate(z).T])
    return [emit_table(outdir / "states.csv", columns, rows, header)]


def cmd_dipoles(pipe: Pipeline, outdir: Path):
    s = pipe.states
    mu = pipe.ladder
    header = pipe.header("dipoles", pipe.derived_header() + [
        f"image_factor: {pipe.cfg.spectrum.image_factor!r}",
        f"ladder_monotonic_decreasing: {bool(np.all(np.diff(mu) < 0))}"])
    columns = [("i", "1"), ("E", "meV"), ("mu", "D")]
    rows = np.column_stack([np.arange(s.n_states),
                            s.energies / (1e-3 * E_CHARGE),
                            _in_debye(mu, "the dipole ladder")])
    return [emit_table(outdir / "dipoles.csv", columns, rows, header)]


def cmd_rates(pipe: Pipeline, outdir: Path):
    T = pipe.kelvin(pipe.cfg.spectrum.temperatures[0])
    r = pipe.rate_matrix(T)
    header = pipe.header("rates", pipe.derived_header() + [
        f"temperature: {T:.6g} K",
        f"debye_frequency: {pipe.material.debye_frequency / 1e12:.6g} THz"])
    columns = [("i", "1"), ("f", "1"), ("delta_nu", "THz"),
               ("gamma", "1/s"), ("masked", "bool")]
    e = pipe.states.energies
    i, f = np.nonzero(~np.eye(pipe.states.n_states, dtype=bool))
    rows = np.column_stack([i, f, np.abs(e[i] - e[f]) / HBAR / TWO_PI / 1e12,
                            r.gamma[i, f], r.cutoff_mask[i, f]])
    return [emit_table(outdir / "rates.csv", columns, rows, header)]


def cmd_spectrum(pipe: Pipeline, outdir: Path):
    from . import spectrum
    temperatures = pipe.cfg.spectrum.temperatures
    tags = [pipe.temp_tag(tspec) for tspec in temperatures]
    for k, tag in enumerate(tags):
        if tag in tags[:k]:
            (a, ua), (b, ub) = temperatures[tags.index(tag)], temperatures[k]
            raise ConfigurationError(
                f"temperatures {a!r} {ua} and {b!r} {ub} would both write "
                f"spectrum_{tag}.csv")
    omegas = pipe.omega_grid()
    temps = [pipe.kelvin(tspec) for tspec in temperatures]
    spec = pipe.spectrum_at(np.array(temps))
    variances = _in_debye(spec.variance, "a dipole variance", 2)
    spectra = _in_debye(spectrum.evaluate_spectrum(spec, omegas),
                        "S_mu", 2)
    paths = []
    for tspec, tag, T, variance, values in zip(temperatures, tags, temps,
                                               variances, spectra):
        wc = spectrum.crossover_frequency(pipe.gamma0, pipe.nu10, T)
        header = pipe.header("spectrum", pipe.derived_header() + [
            f"temperature: {T:.6g} K ({tspec[0]:g} {tspec[1]})",
            f"crossover_omega_c: {wc / pipe.gamma0:.6g} gamma0",
            f"variance: {variance:.6g} D^2"])
        columns = [("omega_over_gamma0", "1"), ("S_mu", "D^2/Hz")]
        rows = np.column_stack([omegas / pipe.gamma0, values])
        paths.append(emit_table(outdir / f"spectrum_{tag}.csv", columns,
                                rows, header))
    return paths


def cmd_tempsweep(pipe: Pipeline, outdir: Path):
    from . import spectrum
    ts = pipe.cfg.tempsweep
    t_lo, t_hi = pipe.kelvin(ts.t_min), pipe.kelvin(ts.t_max)
    temps = np.linspace(t_lo, t_hi, ts.n_temps)
    omegas = [0.0, ts.arrhenius_omega * pipe.gamma0,
              ts.highfreq_omega * pipe.gamma0]
    values = spectrum.evaluate_spectrum(pipe.spectrum_at(temps), omegas)
    rows = np.column_stack([KB * temps / (HBAR * pipe.nu10), temps,
                            _in_debye(values, "S_mu", 2)])
    try:
        s_t, t0, resid = spectrum.arrhenius_fit(temps, rows[:, 3])
        fit_lines = [
            f"arrhenius_fit at omega = {ts.arrhenius_omega:g} gamma0: "
            f"S_T = {s_t:.6g} D^2/Hz, T0 = {t0:.6g} K "
            f"({t0 * KB / pipe.params.U0:.4g} U0/kB), residual_rms = {resid:.3g}"]
    except AdnoiseError as exc:
        fit_lines = [f"arrhenius_fit: not available ({exc})"]
    header = pipe.header("tempsweep", pipe.derived_header() + fit_lines)
    columns = [("kT_over_hnu10", "1"), ("T", "K"), ("S_white", "D^2/Hz"),
               (f"S_{ts.arrhenius_omega:g}gamma0", "D^2/Hz"),
               (f"S_{ts.highfreq_omega:g}gamma0", "D^2/Hz")]
    return [emit_table(outdir / "tempsweep.csv", columns, rows, header)]


def cmd_mc_scaling(pipe: Pipeline, outdir: Path):
    from . import trapnoise
    cfg = pipe.cfg
    mc = cfg.montecarlo
    result = trapnoise.distance_scaling_fit(
        mc.n_dipoles, mc.extent, cfg.mc_seed, cfg.trap.axis, mc.d_values,
        mc.n_seeds)
    k_kernel = trapnoise.kernel_integral_constant()
    sigma = mc.n_dipoles / mc.extent ** 2
    d = result.distances
    ratios = result.means / (sigma * k_kernel
                             / (trapnoise.FOUR_PI_EPS0 ** 2 * d ** 4))
    header = pipe.header("mc-scaling", [
        f"n_dipoles: {mc.n_dipoles}, extent: {mc.extent:g} d0, "
        f"n_seeds: {mc.n_seeds}, seed: {cfg.mc_seed}",
        f"fitted_exponent: {result.exponent:.6g} +/- {result.stderr:.3g}",
        f"surface_average_constant: {trapnoise.SURFACE_AVERAGE_CONSTANT!r}",
        f"kernel_integral_constant: {k_kernel:.9g} (= 3 pi / 4 = 2 pi x 3/8; "
        "heat's 3/8 gives S_E per d omega, 2 pi below the sum rule)",
        "S_E columns are per unit S_mu, distances in units of d0"])
    columns = [("d_over_d0", "1"), ("S_E_mean", "(V/m)^2 per (C m)^2"),
               ("S_E_stderr", "(V/m)^2 per (C m)^2"), ("mc_over_plane", "1"),
               ("n_seeds", "1")]
    rows = np.column_stack([d, result.means, result.stderrs, ratios,
                            np.full(len(d), result.n_seeds)])
    return [emit_table(outdir / "mc_scaling.csv", columns, rows, header)]


def cmd_heat(pipe: Pipeline, outdir: Path):
    from . import spectrum, trapnoise
    trap = pipe.cfg.trap
    omega_t = TWO_PI * trap.frequency
    # ndot = q^2 S_E / (2 m hbar omega_t), S_E ~ 1 / ((4 pi eps0)^2 d^4):
    # a value the parser accepts can still overflow q^2, omega_t or a
    # denominator, or underflow a denominator to 0.  Each factor is
    # checked under the key that brings it in, before evaluate_spectrum
    # can refuse an overflowed omega_t without naming the key, and the
    # product last.
    with np.errstate(all="ignore"):
        den = 2.0 * trap.ion_mass * HBAR
        for key, ok in (
                ("trap.distance", 0 < trapnoise.FOUR_PI_EPS0 ** 2
                 * np.float64(trap.distance) ** 4 < math.inf),
                ("trap.charge", np.float64(trap.charge) ** 2 < math.inf),
                ("trap.ion_mass", den > 0),
                ("trap.frequency", omega_t < math.inf and den * omega_t > 0)):
            if not ok:
                raise NumericalError(
                    f"{key}: a factor of S_E or ndot leaves the float range")
    temps = np.array([pipe.kelvin(tspec)
                      for tspec in pipe.cfg.spectrum.temperatures])
    s_mu = spectrum.evaluate_spectrum(pipe.spectrum_at(temps), omega_t)
    with np.errstate(all="ignore"):
        s_e = trapnoise.analytic_field_noise(trap.coverage, s_mu,
                                             trap.distance)
        ndot = trapnoise.heating_rate(s_e, trap.charge, trap.ion_mass,
                                      omega_t)
    if not np.all(np.isfinite(ndot)):
        raise NumericalError("the [trap] values together take S_E or ndot "
                             "past the float range")
    header = pipe.header("heat", pipe.derived_header() + [
        f"coverage: {trap.coverage:.6g} 1/m^2, "
        f"distance: {trap.distance:.6g} m",
        "field noise uses the surface-averaged 3/8 transfer"])
    columns = [("T", "K"), ("omega_t", "rad/s"), ("S_mu", "D^2/Hz"),
               ("S_E", "(V/m)^2/Hz"), ("ndot", "1/s")]
    rows = np.column_stack([temps, np.full(len(temps), omega_t),
                            _in_debye(s_mu, "S_mu", 2), s_e, ndot])
    return [emit_table(outdir / "heating.csv", columns, rows, header)]


def cmd_validate(pipe: Pipeline, outdir: Path):
    from .validate import run_checks
    results = run_checks(pipe)
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    failed = sum(not ok for _, ok, _ in results)
    if failed:
        raise NumericalError(f"{failed} invariant check(s) failed")
    print(f"all {len(results)} invariant checks passed")
    return []


_COMMANDS = {
    "states": cmd_states,
    "dipoles": cmd_dipoles,
    "rates": cmd_rates,
    "spectrum": cmd_spectrum,
    "tempsweep": cmd_tempsweep,
    "mc-scaling": cmd_mc_scaling,
    "heat": cmd_heat,
    "validate": cmd_validate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adnoise",
        description="Adatom dipole-fluctuation noise and ion heating rates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="configuration document (see README)")
        p.add_argument("--preset", default=None,
                       help="adsorption system preset, e.g. Ne-Au")
        p.add_argument("--output", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--temperature", default=None,
                       help="comma-separated list, e.g. '0.2 nu10, 5 K'")
    return parser


# Built on the first main call and reused: building costs about 40 times
# as much as parsing, and parse_args leaves the parser unchanged.
_parser = functools.cache(build_parser)


def load_config(args) -> RunConfig:
    if args.config is None and args.preset is None:
        raise ConfigurationError("either --config or --preset is required")
    text = "" if args.preset is None else f"preset = {args.preset}\n"
    if args.config is not None:
        try:
            text += args.config.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read {args.config}: {exc}") from None
    cfg = parse_config(text)
    return override(cfg, output=args.output, seed=args.seed,
                    temperatures=args.temperature)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args)
        pipe = Pipeline(cfg)
        paths = _COMMANDS[args.command](pipe, Path(cfg.output))
        for path in paths:
            print(f"wrote {path}")
        return 0
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
