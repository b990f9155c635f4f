import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adnoise import (boundstates, cli, config, phonons, potential, spectrum,
                     tables, trapnoise, validate)
from adnoise.errors import AdnoiseError, ConfigurationError
from adnoise.tables import emit_table
from adnoise.units import AMU, BOHR, DEBYE, E_CHARGE, HBAR, KB
from conftest import per_cell_table


def test_minimal_preset_document():
    cfg = config.parse_config('preset = "Ne-Au"\n')
    assert cfg.preset == "Ne-Au"
    assert cfg.potential.U0 == pytest.approx(
        12e-3 * E_CHARGE, rel=1e-6, abs=0.0)
    assert cfg.solver.n_points == 1000
    assert cfg.solver.max_states == 5
    assert cfg.montecarlo.n_seeds == 1000
    assert cfg.output == "out"
    assert cfg.seed == 12345
    # every omitted key takes its dataclass default
    assert cfg.solver == config.SolverSection()
    assert cfg.spectrum == config.SpectrumSection()
    assert cfg.trap == config.TrapSection()
    assert cfg.montecarlo == config.MonteCarloSection()
    assert cfg.tempsweep == config.TempSweepSection()
    assert (cfg.output, cfg.seed) == (config.RunConfig.output,
                                      config.RunConfig.seed)


def test_explicit_parameters_override_preset():
    text = """
preset = Ne-Au
[potential]
U0 = 15 meV
mass = 22 amu
"""
    cfg = config.parse_config(text)
    assert cfg.potential.U0 == pytest.approx(
        15e-3 * E_CHARGE, rel=1e-6, abs=0.0)
    assert cfg.potential.adatom_mass == pytest.approx(
        22 * AMU, rel=1e-6, abs=0.0)
    assert cfg.potential.z0 == pytest.approx(  # still preset
        6.05 * BOHR, rel=1e-6, abs=0.0)


def test_full_custom_potential():
    text = """
[potential]
name = mysystem
U0 = 0.5 eV
z0 = 2.5 angstrom
beta = 2.6 1/angstrom
mass = 30 amu
polarizability = 1.2 angstrom^3
"""
    cfg = config.parse_config(text)
    assert cfg.preset is None
    assert cfg.potential.name == "mysystem"
    assert cfg.potential.beta == pytest.approx(2.6e10, rel=1e-6, abs=0.0)
    assert cfg.potential.polarizability == pytest.approx(
        1.2e-30, rel=1e-6, abs=0.0)


def test_missing_required_key_named():
    with pytest.raises(ConfigurationError, match="potential.z0"):
        config.parse_config("[potential]\nU0 = 1 eV\nmass = 10 amu\n")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="wibble"):
        config.parse_config("preset = Ne-Au\nwibble = 3\n")
    with pytest.raises(ConfigurationError, match="frob"):
        config.parse_config("preset = Ne-Au\n[solver]\nfrob = 1\n")
    with pytest.raises(ConfigurationError, match=r"\[frobnicator\]"):
        config.parse_config("preset = Ne-Au\n[frobnicator]\nx = 1\n")


def test_malformed_unit_names_field():
    with pytest.raises(ConfigurationError, match="potential.U0"):
        config.parse_config("preset = Ne-Au\n[potential]\nU0 = 12 lightyears\n")
    with pytest.raises(ConfigurationError, match="trap.distance"):
        config.parse_config("preset = Ne-Au\n[trap]\ndistance = 30\n")


def test_non_positive_value_rejected():
    with pytest.raises(ConfigurationError, match="n_points"):
        config.parse_config("preset = Ne-Au\n[solver]\nn_points = -100\n")


def test_temperature_specs():
    cfg = config.parse_config(
        "preset = Ne-Au\n[spectrum]\ntemperatures = 0.5 nu10, 12 K\n")
    assert cfg.spectrum.temperatures == ((0.5, "nu10"), (12.0, "K"))
    for bad in ("5 parsec", "abc K"):
        with pytest.raises(ConfigurationError, match="temperature"):
            config.parse_config(
                f"preset = Ne-Au\n[spectrum]\ntemperatures = {bad}\n")


def test_round_trip_identity():
    text = """
preset = Ne-Au
seed = 777
output = results
[potential]
U0 = 13 meV
[solver]
n_points = 2000
max_states = 6
[spectrum]
temperatures = 0.3 nu10, 8 K
omega_min = 1e-2
[trap]
distance = 25 um
frequency = 2.5 MHz
[montecarlo]
n_seeds = 120
[tempsweep]
n_temps = 12
"""
    cfg = config.parse_config(text)
    again = config.parse_config(config.serialize_config(cfg))
    assert again == cfg
    # serialization is also a fixed point
    assert config.serialize_config(again) == config.serialize_config(cfg)


# The resolved configuration every CSV header carries for --preset Ne-Au.
NE_AU_DOCUMENT = """\
preset = Ne-Au
material = Au
output = out
seed = 12345

[potential]
name = Ne-Au
U0 = 1.9226119608e-21 J
z0 = 3.2015221259631495e-10 m
beta = 17952398183.944817 1/m
mass = 3.3210781332e-26 kg
polarizability = 3.6e-31 m^3

[material]
speed_of_sound = 3962.0 m/s
density = 19300.0 kg/m^3
debye_frequency = 3600000000000.0 Hz

[solver]
n_points = 1000
max_states = 5

[spectrum]
temperatures = 0.2 nu10, 0.3 nu10, 0.4 nu10, 1.0 nu10, 2.0 nu10, 3.0 nu10
omega_min = 0.001
omega_max = 10000.0
points_per_decade = 60
image_factor = 1.0

[trap]
distance = 1e-05 m
frequency = 1000000.0 Hz
ion_mass = 6.6421562664e-26 kg
charge = 1.602176634e-19 C
axis = 0.0 0.0 1.0
coverage = 1e+18 1/m^2

[montecarlo]
n_dipoles = 100
extent = 100.0
d_values = 3.0, 4.0, 5.0, 6.5, 8.0, 10.0
n_seeds = 1000

[tempsweep]
t_min = 0.2 nu10
t_max = 6.0 nu10
n_temps = 30
arrhenius_omega = 20.0
highfreq_omega = 100.0
"""


def test_preset_document_serializes_to_pinned_text():
    cfg = config.parse_config("preset = Ne-Au\n")
    assert config.serialize_config(cfg) == NE_AU_DOCUMENT


def test_emit_table_header_only(tmp_path):
    path = tables.emit_table(tmp_path / "empty.csv",
                             [("a", "m"), ("b", "s")], np.empty((0, 2)),
                             ["note"])
    content = Path(path).read_text()
    assert content == "# note\na [m],b [s]\n"


def test_emit_table_formats_and_quotes(tmp_path):
    # '%.9g' per cell, integral floats as integers, and 0/1 in a 'bool'
    # column as false/true; any other value there keeps '%.9g'.
    rows = np.array([[1.23456789012345, 30.0, 1.0],
                     [-2.5e-300, 1e9, 0.0],
                     [float("nan"), 123456789.0, 0.5]])
    path = tables.emit_table(tmp_path / "t.csv",
                             [("x", "1"), ("n", "1"), ("masked", "bool")],
                             rows)
    assert Path(path).read_text() == (
        "x [1],n [1],masked [bool]\n1.23456789,30,true\n"
        "-2.5e-300,1e+09,false\nnan,123456789,0.5\n")


def test_emit_table_rejects_ragged_rows(tmp_path):
    for rows in ([[1.0, 2.0]], [[1.0]], np.zeros(3), np.zeros((3, 2)),
                 np.zeros((3, 1), dtype=int)):
        with pytest.raises(ConfigurationError, match="2-D float array"):
            tables.emit_table(tmp_path / "bad.csv", [("a", "1")], rows)
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_cli_output_path_through_a_file_is_config_error(tmp_path, capsys,
                                                        target):
    (tmp_path / "file").write_text("")
    out = tmp_path / target
    assert run_cli(["dipoles", "--preset", "Ne-Au", "--output", out]) == 2
    assert f"cannot write {out / 'dipoles.csv'}" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == ""


def test_cli_undecodable_config_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_bytes(b"preset = Ne-Au\n# \xff\n")
    out = tmp_path / "o"
    assert run_cli(["states", "--config", cfgfile, "--output", out]) == 2
    assert f"cannot read {cfgfile}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "seed = -5\n",
                                    "[montecarlo]\nseed = -5\n"])
def test_cli_negative_mc_seed_is_config_error(tmp_path, capsys, source):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + ("" if source == "flag"
                                               else source))
    out = tmp_path / "o"
    args = ["mc-scaling", "--config", cfgfile, "--output", out]
    if source == "flag":
        args += ["--seed", "-1"]
    assert run_cli(args) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_spectrum_temperature_tags_must_differ(tmp_path, capsys):
    # 2.0000001 nu10 and 5.0000004 K round to the tags of 2 nu10 and 5 K,
    # so two of the four files would silently overwrite the other two.
    out = tmp_path / "o"
    assert run_cli(["spectrum", "--preset", "Ne-Au", "--temperature",
                    "2 nu10, 2.0000001 nu10, 5 K, 5.0000004 K",
                    "--output", out]) == 2
    err = capsys.readouterr().err
    assert "2.0 nu10 and 2.0000001 nu10" in err
    assert "spectrum_kT_2nu10.csv" in err
    assert not out.exists()


def test_states_csv_matches_per_cell_rows(tmp_path):
    # Reference: the rows built cell by cell from the solved states, in the
    # order z, U, psi_0..psi_n, each written through csv.writer.
    text = "preset = Ne-Au\n[solver]\nn_points = 4000\nmax_states = 30\n"
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / "o"
    assert run_cli(["states", "--config", cfgfile, "--output", out]) == 0
    written = (out / "states.csv").read_text()

    s = cli.Pipeline(config.parse_config(text)).states
    z = s.grid.z
    u, psi = potential.evaluate(s.params, z), s.interpolate(z)
    header = [line[2:] for line in written.splitlines()
              if line.startswith("#")]
    columns = [("z", "m"), ("U", "J")] + [(f"psi_{i}", "1/sqrt(m)")
                                          for i in range(s.n_states)]
    rows = [[z[k], u[k], *(psi[i][k] for i in range(s.n_states))]
            for k in range(len(z))]
    assert s.n_states > 5
    # Compared as lists of lines: a diff of the 1.4 MB strings is slow.
    assert (written.splitlines(True)
            == per_cell_table(columns, rows, header).splitlines(True))


def test_emit_table_deterministic(tmp_path):
    cols = [("x", "1"), ("y", "1")]
    rows = np.array([[0.1, 0.2], [0.3, 0.4]])
    a = tables.emit_table(tmp_path / "a.csv", cols, rows, ["h"])
    b = tables.emit_table(tmp_path / "b.csv", cols, rows, ["h"])
    assert Path(a).read_bytes() == Path(b).read_bytes()


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_cli_main_reuses_one_parser_across_subcommands(tmp_path, capsys,
                                                      monkeypatch):
    # main parses with one parser per process; nothing one call parses may
    # reach the next.  Each file must match a run with a parser built for
    # it, apart from the output directory in the header.
    runs = [("a", ["rates", "--temperature", "5 K", "--seed", "7"]),
            ("b", ["dipoles"]), ("c", ["rates"])]
    for out, args in runs:
        assert run_cli(args + ["--preset", "Ne-Au",
                               "--output", tmp_path / out]) == 0
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    for out, args in runs:
        assert run_cli(args + ["--preset", "Ne-Au",
                               "--output", tmp_path / f"fresh-{out}"]) == 0

    def text(out):
        path, = (tmp_path / out).iterdir()
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#   output = ")]
    for out, _ in runs:
        assert text(out) == text(f"fresh-{out}")
    assert "# temperature: 5 K" in text("a") and "# seed: 7" in text("a")
    assert "# temperature: 5 K" not in text("c")
    assert "# seed: 12345" in text("c")
    monkeypatch.undo()
    capsys.readouterr()
    for args, code in ((["--version"], 0), (["nosuch"], 2),
                       (["states", "--bogus"], 2)):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == code
    assert capsys.readouterr().out == "0.1.0\n"


def test_cli_requires_config_or_preset(capsys):
    assert run_cli(["states"]) == 2
    assert "preset" in capsys.readouterr().err


def test_cli_unknown_preset_exit_code(capsys):
    assert run_cli(["states", "--preset", "Xe-W"]) == 2


def test_cli_states_and_dipoles(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["states", "--preset", "Ne-Au", "--output", out]) == 0
    assert run_cli(["dipoles", "--preset", "Ne-Au", "--output", out]) == 0
    states = (out / "states.csv").read_text()
    assert states.startswith("# adnoise")
    assert "resolved configuration:" in states
    header = states.splitlines()
    data = [ln for ln in header if not ln.startswith("#")]
    assert data[0].split(",")[0] == "z [m]"
    assert len(data) == 1000 + 1
    dip = (out / "dipoles.csv").read_text()
    assert "mu [D]" in dip


def test_cli_rates_columns(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["rates", "--preset", "Ne-Au", "--output", out]) == 0
    lines = [ln for ln in (out / "rates.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "i [1],f [1],delta_nu [THz],gamma [1/s],masked [bool]"
    assert len(lines) == 1 + 5 * 4  # all ordered pairs of 5 states


def test_cli_spectrum_writes_per_temperature(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["spectrum", "--preset", "Ne-Au", "--output", out,
                    "--temperature", "0.4 nu10, 2 nu10"]) == 0
    files = sorted(p.name for p in out.glob("spectrum_*.csv"))
    assert files == ["spectrum_kT_0.4nu10.csv", "spectrum_kT_2nu10.csv"]
    lines = (out / "spectrum_kT_2nu10.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "omega_over_gamma0 [1],S_mu [D^2/Hz]"
    assert len(data) == 1 + 7 * 60 + 1


def test_cli_spectrum_default_six_temperatures(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["spectrum", "--preset", "Ne-Au", "--output", out]) == 0
    files = sorted(p.name for p in out.glob("spectrum_*.csv"))
    assert files == [f"spectrum_kT_{x}nu10.csv"
                     for x in ("0.2", "0.3", "0.4", "1", "2", "3")]


def test_cli_h_au_spectrum_is_model_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["spectrum", "--preset", "H-Au", "--output", out]) == 3
    assert "Debye" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rates", "heat", "validate"])
def test_cli_h_au_disconnected_refusal_is_one_line(tmp_path, command):
    # A fresh interpreter, so a logged warning would reach stderr through
    # logging's last-resort handler: the refusal comes before the mask's
    # warning and names the count and the cutoff itself.  validate prints
    # no check before it.
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "adnoise.cli", command,
                          "--preset", "H-Au", "--output", str(out)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 3
    assert run.stdout == ""
    assert run.stderr == (
        "model error: H-Au: ergodicity broken by Debye cutoff (10 "
        "transition(s) above 3.6 THz); the transition graph is disconnected "
        "and the spectrum is ill-defined\n")
    assert not out.exists()


def test_cli_k_surface_needs_beta(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["states", "--preset", "K-surface", "--output", out]) == 2
    assert "beta" in capsys.readouterr().err


def test_cli_k_surface_with_user_beta(tmp_path, capsys):
    cfgfile = tmp_path / "k.ini"
    cfgfile.write_text("preset = K-surface\n"
                       "[potential]\nbeta = 4 1/angstrom\n"
                       "polarizability = 43 angstrom^3\n")
    out = tmp_path / "o"
    assert run_cli(["states", "--config", cfgfile, "--output", out]) == 0
    assert run_cli(["dipoles", "--config", cfgfile, "--output", out]) == 0
    # the steep alkali well vibrates above the Debye cutoff: no
    # single-phonon spectrum exists for it
    assert run_cli(["spectrum", "--config", cfgfile, "--output", out]) == 3
    assert "Debye" in capsys.readouterr().err


def test_cli_determinism_spectrum_and_mc(tmp_path):
    # identical config + seed -> byte-identical outputs on repeated runs
    for sub, name in (("spectrum", "spectrum_kT_2nu10.csv"),
                      ("mc-scaling", "mc_scaling.csv")):
        out = tmp_path / sub
        args = [sub, "--preset", "Ne-Au", "--seed", "424242",
                "--temperature", "2 nu10", "--output", out]
        assert run_cli(args) == 0
        first = (out / name).read_bytes()
        assert run_cli(args) == 0
        assert (out / name).read_bytes() == first, name


def test_cli_tempsweep_and_heat(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["tempsweep", "--preset", "Ne-Au", "--output", out]) == 0
    sweep = (out / "tempsweep.csv").read_text()
    assert "arrhenius_fit" in sweep
    assert "U0/kB" in sweep
    assert run_cli(["heat", "--preset", "Ne-Au", "--output", out,
                    "--temperature", "2 nu10"]) == 0
    heat = [ln for ln in (out / "heating.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert heat[0] == ("T [K],omega_t [rad/s],S_mu [D^2/Hz],"
                       "S_E [(V/m)^2/Hz],ndot [1/s]")
    assert len(heat) == 2
    t, om, smu, se, nd = (float(v) for v in heat[1].split(","))
    # S_E consistent with the 3/8 transfer at the configured coverage
    assert se == pytest.approx(
        0.375 * 1e18 * (smu * 3.33564e-30 ** 2)
        / ((4 * np.pi * 8.8541878128e-12) ** 2 * 1e-5 ** 4), rel=1e-6, abs=0.0)


def test_cli_tempsweep_full_ladder(tmp_path):
    # max_states = 30 keeps all 23 levels of the Ne well, near-threshold
    # ones included.
    cfgfile = tmp_path / "ladder.ini"
    cfgfile.write_text("preset = Ne-Au\n[solver]\nmax_states = 30\n")
    out = tmp_path / "o"
    assert run_cli(["tempsweep", "--config", cfgfile, "--output", out]) == 0
    lines = (out / "tempsweep.csv").read_text().splitlines()
    assert "# n_states: 23 (near-zero discarded: 4)" in lines
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in data])
    assert rows.shape == (30, 5)
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 2:] > 0)


def test_cli_tempsweep_builds_the_coupling_matrix_once(tmp_path, monkeypatch):
    # gamma0 and the rate matrices share Pipeline.coupling
    calls = []
    build = boundstates.coupling_matrix

    def counted(states):
        calls.append(states)
        return build(states)

    monkeypatch.setattr(boundstates, "coupling_matrix", counted)
    assert run_cli(["tempsweep", "--preset", "Ne-Au", "--output",
                    tmp_path]) == 0
    assert len(calls) == 1
    # and gamma0 has the bits of a transition_rate on a coupling matrix
    # built apart
    pipe = cli.Pipeline(config.parse_config("preset = Ne-Au\n"))
    rate, masked = phonons.transition_rate(
        pipe.states, pipe.material, 1, 0, 0.0,
        boundstates.coupling_matrix(pipe.states))
    assert not masked
    assert pipe.gamma0 == rate
    assert len(calls) == 3


def test_cli_tempsweep_builds_the_grid_nodes_once(tmp_path, monkeypatch):
    # The ladder and the couplings share the nodes of the solve: the
    # levels are solved once on the check basis and once on the kept one,
    # and the n_points sampling of Grid.z (np.geomspace) is never built.
    calls, sizes = [], []
    geomspace, levels = np.geomspace, boundstates._levels

    def counted(*args, **kwargs):
        calls.append(args)
        return geomspace(*args, **kwargs)

    def solved(p, grid, n, shift, vectors):
        sizes.append((n, vectors))
        return levels(p, grid, n, shift, vectors)

    monkeypatch.setattr(np, "geomspace", counted)
    monkeypatch.setattr(boundstates, "_levels", solved)
    assert run_cli(["tempsweep", "--preset", "Ne-Au", "--output",
                    tmp_path]) == 0
    assert calls == []
    assert sizes == [(82, False), (103, True)]


def per_temperature_spectrum(pipe, outdir):
    """cmd_spectrum as one chain call per temperature: the reference."""
    omegas = pipe.omega_grid()
    paths = []
    for tspec in pipe.cfg.spectrum.temperatures:
        T = pipe.kelvin(tspec)
        spec = pipe.spectrum_at(T)
        values = spectrum.evaluate_spectrum(spec, omegas)
        wc = spectrum.crossover_frequency(pipe.gamma0, pipe.nu10, T)
        header = pipe.header("spectrum", pipe.derived_header() + [
            f"temperature: {T:.6g} K ({tspec[0]:g} {tspec[1]})",
            f"crossover_omega_c: {wc / pipe.gamma0:.6g} gamma0",
            f"variance: {spec.variance / DEBYE ** 2:.6g} D^2"])
        columns = [("omega_over_gamma0", "1"), ("S_mu", "D^2/Hz")]
        rows = np.column_stack([omegas / pipe.gamma0, values / DEBYE ** 2])
        paths.append(emit_table(outdir / f"spectrum_{pipe.temp_tag(tspec)}.csv",
                                columns, rows, header))
    return paths


def per_temperature_tempsweep(pipe, outdir):
    """cmd_tempsweep as one chain call per temperature: the reference."""
    ts = pipe.cfg.tempsweep
    temps = np.linspace(pipe.kelvin(ts.t_min), pipe.kelvin(ts.t_max),
                        ts.n_temps)
    omegas = [0.0, ts.arrhenius_omega * pipe.gamma0,
              ts.highfreq_omega * pipe.gamma0]
    values = np.array([spectrum.evaluate_spectrum(pipe.spectrum_at(T), omegas)
                       for T in temps])
    rows = np.column_stack([KB * temps / (HBAR * pipe.nu10), temps,
                            values / DEBYE ** 2])
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


def per_temperature_heat(pipe, outdir):
    """cmd_heat as one chain call per temperature: the reference."""
    cfg, trap = pipe.cfg, pipe.cfg.trap
    omega_t = 2 * np.pi * trap.frequency
    rows = []
    for tspec in cfg.spectrum.temperatures:
        T = pipe.kelvin(tspec)
        s_mu = spectrum.evaluate_spectrum(pipe.spectrum_at(T), omega_t)
        s_e = trapnoise.analytic_field_noise(trap.coverage, s_mu,
                                             trap.distance)
        rows.append([T, omega_t, s_mu / DEBYE ** 2, s_e,
                     trapnoise.heating_rate(s_e, trap.charge, trap.ion_mass,
                                            omega_t)])
    header = pipe.header("heat", pipe.derived_header() + [
        f"coverage: {cfg.trap.coverage:.6g} 1/m^2, "
        f"distance: {cfg.trap.distance:.6g} m",
        "field noise uses the surface-averaged 3/8 transfer"])
    columns = [("T", "K"), ("omega_t", "rad/s"), ("S_mu", "D^2/Hz"),
               ("S_E", "(V/m)^2/Hz"), ("ndot", "1/s")]
    return [emit_table(outdir / "heating.csv", columns, np.array(rows),
                       header)]


@pytest.mark.parametrize("command,reference", [
    ("spectrum", per_temperature_spectrum),
    ("tempsweep", per_temperature_tempsweep),
    ("heat", per_temperature_heat),
])
def test_cli_stacked_sweep_matches_per_temperature_loop(tmp_path, command,
                                                        reference):
    # One stacked chain call per run writes the bytes that one call per
    # temperature writes, for the default temperatures and a 0 K row.
    for k, temperature in enumerate((None, "0 K, 0.3 nu10, 2 nu10")):
        out, ref = tmp_path / f"cli{k}", tmp_path / f"ref{k}"
        args = [command, "--preset", "Ne-Au", "--output", out]
        if temperature is not None:
            args += ["--temperature", temperature]
        assert run_cli(args) == 0
        cfg = cli.load_config(cli.build_parser().parse_args(
            [str(a) for a in args]))
        ref.mkdir()
        paths = reference(cli.Pipeline(cfg), ref)
        assert len(paths) == len(list(out.glob("*.csv")))
        for path in paths:
            assert (out / path.name).read_bytes() == path.read_bytes(), path


def test_cli_tempsweep_warns_once_about_the_debye_mask(tmp_path, caplog):
    # the mask does not depend on the temperature: one warning per sweep
    cfgfile = tmp_path / "soft.ini"
    cfgfile.write_text("preset = Ne-Au\n[material]\ndebye_frequency = 1.5 THz"
                       "\n[solver]\nmax_states = 30\n")
    with caplog.at_level(logging.WARNING, logger="adnoise.phonons"):
        assert run_cli(["tempsweep", "--config", cfgfile,
                        "--output", tmp_path / "o"]) == 0
    warnings = [rec.getMessage() for rec in caplog.records
                if "Debye cutoff" in rec.getMessage()]
    assert len(warnings) == 1
    assert "57 transition(s) above the Debye cutoff (1.5 THz)" in warnings[0]


@pytest.mark.parametrize("command,section,temperature,key", [
    ("spectrum", "", "inf K", "--temperature"),
    ("spectrum", "", "1e400 K", "--temperature"),
    ("spectrum", "", "inf nu10", "--temperature"),
    ("spectrum", "", "nan K", "--temperature"),
    ("states", "[potential]\nU0 = nan meV\n", None, "potential.U0"),
    ("heat", "[trap]\ndistance = inf um\n", None, "trap.distance"),
    ("heat", "[trap]\naxis = 0 inf 1\n", None, "trap.axis"),
    ("spectrum", "[spectrum]\nomega_max = inf\n", None, "spectrum.omega_max"),
    ("mc-scaling", "[montecarlo]\nd_values = 3, nan\n", None,
     "montecarlo.d_values"),
    ("tempsweep", "[tempsweep]\nt_max = nan nu10\n", None, "tempsweep.t_max"),
])
def test_cli_non_finite_number_is_config_error(tmp_path, capsys, command,
                                               section, temperature, key):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + section)
    out = tmp_path / "o"
    args = [command, "--config", cfgfile, "--output", out]
    if temperature is not None:
        args += ["--temperature", temperature]
    assert run_cli(args) == 2
    assert f"{key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,section,temperature", [
    ("spectrum", "", "1e308 nu10"),
    ("tempsweep", "[tempsweep]\nt_max = 1e308 nu10\n", None),
])
def test_cli_nu10_temperature_overflow_is_config_error(
        tmp_path, capsys, command, section, temperature):
    # finite in nu10, but inf once converted to kelvin
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + section)
    out = tmp_path / "o"
    args = [command, "--config", cfgfile, "--output", out]
    if temperature is not None:
        args += ["--temperature", temperature]
    assert run_cli(args) == 2
    assert "temperature 1e+308 nu10 is not a finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate_exits_zero(capsys):
    assert run_cli(["validate", "--preset", "Ne-Au"]) == 0
    out = capsys.readouterr().out
    assert "invariant checks passed" in out
    assert "[FAIL]" not in out


VALIDATE_CHECKS = (
    "unit round-trips and constant consistency",
    "exp-3 well: minimum, derivative, C3 tail",
    "bound states: orthonormal, negative",
    "induced dipoles: hydrogen coefficient, positive ladder",
    "rate matrix: detailed balance, M p0 = 0 for Boltzmann p0",
    "spectrum: Lorentzian sum rule equals the dipole variance",
    "two-state telegraph closed form",
    "field kernel plane integral = 3 pi / 4, d-independent",
    "single on-axis dipole: 4/(4 pi eps0 d^3)^2 and d^-6",
    "heating rate dimensional check",
)


def test_cli_validate_prints_each_check_and_solves_once(tmp_path, capsys,
                                                       monkeypatch):
    # The chain checks read the Pipeline the command line built from
    # --config: one eigensolve and one rate matrix per run.
    calls = []

    def counter(f):
        def counted(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return counted

    monkeypatch.setattr(boundstates, "solve", counter(boundstates.solve))
    monkeypatch.setattr(phonons, "build_rate_matrix",
                        counter(phonons.build_rate_matrix))
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[solver]\nmax_states = 30\n")
    assert run_cli(["validate", "--config", cfgfile]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(VALIDATE_CHECKS) + 1
    for line, name in zip(lines, VALIDATE_CHECKS):
        assert line.startswith(f"[PASS] {name}: ")
    assert lines[-1] == "all 10 invariant checks passed"
    assert " 23 states, " in lines[2] and lines[5].endswith(" over 22 modes")
    # the bound-state line reports the convergence gap and the head and
    # tail mass of the worst kept state
    assert re.search(r", gap \S+ U0, head mass \S+, tail mass \S+$", lines[2])
    assert sorted(calls) == ["build_rate_matrix", "solve"]


def test_validate_rates_check_fails_when_detailed_balance_breaks(
        ne, ne_states, ne_scales, ne_coupling):
    # The Boltzmann state is the rates' null vector only while every pair
    # keeps its ratio exp(-dE / kT).
    _, mat = ne
    nu10, _ = ne_scales
    T = 2 * HBAR * nu10 / KB
    r = phonons.build_rate_matrix(ne_states, mat, T, coupling=ne_coupling)
    p0 = phonons.stationary_distribution(ne_states.energies, T)
    assert validate._check_rates(r, p0)[:2] == (VALIDATE_CHECKS[4], True)
    cold = phonons.build_rate_matrix(ne_states, mat, 0.0, coupling=ne_coupling)
    assert validate._check_rates(
        cold, phonons.stationary_distribution(ne_states.energies, 0.0))[1]
    gamma = r.gamma.copy()
    gamma[1, 0] *= 1.5
    _, ok, detail = validate._check_rates(
        phonons.RateMatrix.from_gamma(gamma, T), p0)
    assert not ok, detail


@pytest.mark.parametrize("beta", ["4.69e12", "1e11"])
def test_cli_validate_checks_the_configured_well(tmp_path, capsys, beta):
    # beta*z0 = 1500 and 32: the potential check samples U only where the
    # grid is, so exp never overflows (the suite makes a RuntimeWarning an
    # error), and no check holds a window of the Ne-Au preset.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[potential]\nbeta = {beta} 1/m\n")
    assert run_cli(["validate", "--config", cfgfile]) == 0
    assert capsys.readouterr().out.endswith(
        "\nall 10 invariant checks passed\n")


@pytest.mark.parametrize("preset, error", [
    ("Nope", "unknown preset 'Nope'"),
    ("K-surface", "K-surface: beta is not set for this system")])
def test_cli_validate_refuses_a_chain_that_cannot_run(capsys, preset, error):
    assert run_cli(["validate", "--preset", preset]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"configuration error: {error}")
    assert err.count("\n") == 1


def test_config_error_in_file(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("preset = Ne-Au\n[potential]\nU0 = -3 meV\n")
    assert run_cli(["states", "--config", bad]) == 2
    assert "U0" in capsys.readouterr().err


def test_cli_config_file_with_preset_flag(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[solver]\nn_points = 1500\n")
    out = tmp_path / "o"
    assert run_cli(["states", "--config", cfgfile, "--preset", "Ne-Au",
                    "--output", out]) == 0
    text = (out / "states.csv").read_text()
    assert "n_points = 1500" in text


@pytest.mark.parametrize("command", ["heat", "mc-scaling"])
def test_cli_trap_distance_must_be_positive(tmp_path, capsys, command):
    # both commands read the same [trap] section, checked when it is parsed
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[trap]\ndistance = -10 um\n"
                       "[montecarlo]\nn_seeds = 3\n")
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == 2
    assert "trap.distance: must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,section,key", [
    ("heat", "[trap]\ndistance = 0 um\n", "trap.distance"),
    ("heat", "[trap]\nfrequency = -1 MHz\n", "trap.frequency"),
    ("heat", "[trap]\nion_mass = 0 amu\n", "trap.ion_mass"),
    ("heat", "[trap]\ncoverage = -1e18 1/m^2\n", "trap.coverage"),
    ("heat", "[trap]\ncharge = 0 e\n", "trap.charge"),
    ("mc-scaling", "[trap]\ncharge = -0 C\n", "trap.charge"),
    ("dipoles", "[potential]\npolarizability = -43 angstrom^3\n",
     "potential.polarizability"),
    ("states", "[potential]\npolarizability = 0 a0^3\n",
     "potential.polarizability"),
    ("states", "[potential]\nU0 = -12 meV\n", "potential.U0"),
    ("states", "[potential]\nz0 = 0 angstrom\n", "potential.z0"),
    ("states", "[potential]\nbeta = -4 1/angstrom\n", "potential.beta"),
    ("dipoles", "[potential]\nmass = -20 amu\n", "potential.mass"),
    ("states", "[material]\nspeed_of_sound = 0 m/s\n",
     "material.speed_of_sound"),
    ("states", "[material]\ndensity = -1 kg/m^3\n", "material.density"),
    ("rates", "[material]\ndebye_frequency = -4 THz\n",
     "material.debye_frequency"),
])
def test_cli_sign_checked_at_parse_time(tmp_path, capsys, monkeypatch,
                                        command, section, key):
    def no_solve(cfg):
        raise AssertionError("the run got past the parser")

    monkeypatch.setattr(cli, "Pipeline", no_solve)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + section)
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == 2
    assert f"{key}: must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", [
    "n_seeds = 1\n", "d_values = 3\n", "d_values = 3, 5\nn_seeds = 10\n"])
def test_cli_mc_scaling_needs_seeds_and_distances(tmp_path, capsys, section):
    # one seed has no standard error, and fewer than three distances
    # leave the fitted exponent without an error estimate
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[montecarlo]\n" + section)
    out = tmp_path / "o"
    assert run_cli(["mc-scaling", "--config", cfgfile, "--output", out]) == 4
    assert ("need at least 2 seeds and the fit at least 3 distinct "
            "distances") in capsys.readouterr().err
    assert not out.exists()


def data_rows(path):
    """The numeric rows of an emitted CSV, as a float array."""
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")][1:]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines])


@pytest.mark.parametrize("max_states", [5, 30])
@pytest.mark.parametrize("x", [0.001, 0.002, 0.01, 0.05])
def test_cli_low_temperature_spectrum_and_tempsweep(tmp_path, max_states, x):
    # the thermally activated two-level regime: the excited populations
    # span hundreds of decades, and the upper ones underflow to 0
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[solver]\nmax_states = {max_states}"
                       f"\n[tempsweep]\nt_min = {x} nu10\n"
                       f"t_max = {2 * x} nu10\nn_temps = 3\n")
    out = tmp_path / "o"
    assert run_cli(["spectrum", "--config", cfgfile, "--output", out,
                    "--temperature", f"{x} nu10"]) == 0
    assert run_cli(["tempsweep", "--config", cfgfile, "--output", out]) == 0
    for name in (f"spectrum_kT_{x:g}nu10.csv", "tempsweep.csv"):
        rows = data_rows(out / name)
        assert np.all(np.isfinite(rows)) and np.all(rows >= 0), name


def test_cli_zero_temperature_is_a_zero_spectrum(tmp_path):
    # at T = 0 only the ground state is populated: no dipole fluctuates
    out = tmp_path / "o"
    assert run_cli(["spectrum", "--preset", "Ne-Au", "--output", out,
                    "--temperature", "0 K"]) == 0
    path = out / "spectrum_T_0K.csv"
    assert "# variance: 0 D^2" in path.read_text().splitlines()
    assert np.all(data_rows(path)[:, 1] == 0.0)
    assert run_cli(["heat", "--preset", "Ne-Au", "--output", out,
                    "--temperature", "0 K"]) == 0
    assert np.all(data_rows(out / "heating.csv")[:, 2:] == 0.0)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[tempsweep]\nt_min = 0 K\n")
    assert run_cli(["tempsweep", "--config", cfgfile, "--output", out]) == 0
    assert "# arrhenius_fit: not available (values must be positive)" in (
        out / "tempsweep.csv").read_text().splitlines()


def test_cli_zero_temperature_is_zero_in_either_unit(tmp_path, capsys):
    # 0 nu10 is 0 K; a negative temperature is refused in either unit
    rows = []
    for temperature in ("0 K", "0 nu10"):
        out = tmp_path / temperature.split()[1]
        assert run_cli(["heat", "--preset", "Ne-Au", "--output", out,
                        "--temperature", temperature]) == 0
        rows.append([line for line in
                     (out / "heating.csv").read_text().splitlines()
                     if not line.startswith("#")])
    assert rows[0] == rows[1]
    capsys.readouterr()
    for temperature in ("-1 K", "-0.5 nu10"):
        assert run_cli(["heat", "--preset", "Ne-Au", "--output",
                        tmp_path / "neg", "--temperature", temperature]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --temperature: temperature must be "
            "non-negative\n")


@pytest.mark.parametrize("command, section, temperature", [
    ("spectrum", "", "1e+150"), ("heat", "", "1e+150"),
    ("tempsweep", "[tempsweep]\nt_max = 1e160 K\n", "3.44828e+158")])
def test_cli_mode_rate_past_float_square_exits_four(tmp_path, capsys,
                                                    command, section,
                                                    temperature):
    # past about 7e146 K the fastest Ne-Au mode rate squares to inf, and
    # every Lorentzian would read 0
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + section)
    out = tmp_path / "o"
    args = [command, "--config", cfgfile, "--output", out]
    if command != "tempsweep":
        args += ["--temperature", "1e150 K"]
    assert run_cli(args) == 4
    err = capsys.readouterr().err
    assert "past sqrt(DBL_MAX)" in err
    assert err.endswith(f"at T = {temperature} K\n"), err
    assert not out.exists()
    # below the onset the spectrum is still written, and is not zero
    assert run_cli(["spectrum", "--preset", "Ne-Au", "--output", out,
                    "--temperature", "1e140 K"]) == 0
    assert np.all(data_rows(out / "spectrum_T_1e+140K.csv")[:, 1] > 0)


FACTOR = ": a factor of S_E or ndot leaves the float range"


@pytest.mark.parametrize("section, error", [
    ("charge = 1e200 C", "trap.charge" + FACTOR),
    ("ion_mass = 1e-300 kg", "trap.ion_mass" + FACTOR),
    ("frequency = 1e-300 Hz", "trap.frequency" + FACTOR),
    ("frequency = 1e308 Hz", "trap.frequency" + FACTOR),
    ("distance = 1e-300 m", "trap.distance" + FACTOR),
    ("charge = 1e150 C",
     "the [trap] values together take S_E or ndot past the float range")],
    ids=["charge", "ion_mass", "frequency-low", "frequency-high", "distance",
         "gain"])
def test_cli_heat_trap_value_past_float_range_exits_four(tmp_path, capsys,
                                                         section, error):
    # The parser accepts these, but q^2 overflows, 2 m hbar omega_t
    # underflows to 0 (a ZeroDivisionError), omega_t overflows (an inf
    # column), d^4 underflows (S_E = inf), or q^2 = 1e300 is a float and
    # q^2 / (2 m hbar omega_t) is not.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[trap]\n{section}\n")
    out = tmp_path / "o"
    assert run_cli(["heat", "--config", cfgfile, "--output", out]) == 4
    assert capsys.readouterr().err == f"numerical error: {error}\n"
    assert not out.exists()


LADDER = ("the dipole ladder reaches 1.092e+155 C m, past sqrt(DBL_MAX) / 2, "
          "so its variance overflows")
OMEGA = "rad/s is past sqrt(DBL_MAX), so its Lorentzians overflow"


@pytest.mark.parametrize("command, text, args, error", [
    ("rates", "", ["--temperature", "1e307 K"],
     "a transition rate is past the float range at T = 1e+307 K"),
    ("spectrum", "[spectrum]\nimage_factor = 1e158\n", [],
     "a dipole variance in D^2 is past the float range"),
    ("spectrum", "[spectrum]\nimage_factor = 1e165\n", [],
     "a dipole variance in D^2 is past the float range"),
    ("tempsweep", "[spectrum]\nimage_factor = 1e162\n", [],
     "S_mu in D^2 is past the float range"),
    ("tempsweep", "[spectrum]\nimage_factor = 1e163\n", [],
     "S_mu in D^2 is past the float range"),
    ("heat", "[spectrum]\nimage_factor = 1e170\n"
     "[trap]\ndistance = 1 m\ncoverage = 1 1/m^2\n", [],
     "S_mu in D^2 is past the float range"),
    ("tempsweep", "[spectrum]\nimage_factor = 1e185\n", [],
     "the Lorentzian sum is past the float range at T = 3.49201 K"),
    ("spectrum", "[spectrum]\nimage_factor = 1e187\n", [], LADDER),
    ("tempsweep", "[spectrum]\nimage_factor = 1e187\n", [], LADDER),
    ("heat", "[spectrum]\nimage_factor = 1e187\n", [], LADDER),
    ("spectrum", "[spectrum]\nomega_max = 1e160\n", [],
     "the frequency 5.759e+167 " + OMEGA),
    ("tempsweep", "[tempsweep]\nhighfreq_omega = 1e160\n", [],
     "the frequency 5.759e+167 " + OMEGA),
    ("heat", "[trap]\nfrequency = 1e300 Hz\n", [],
     "the frequency 6.283e+300 " + OMEGA)],
    ids=["rates-1e307K", "spectrum-1e158", "spectrum-1e165",
         "tempsweep-1e162", "tempsweep-1e163", "heat-far-trap-1e170",
         "tempsweep-1e185", "spectrum-1e187", "tempsweep-1e187",
         "heat-1e187", "spectrum-omega_max", "tempsweep-highfreq_omega",
         "heat-frequency"])
def test_cli_value_past_float_range_exits_four(tmp_path, capsys, command,
                                               text, args, error):
    # Accepted configurations whose rates, spectra, dipole ladder or
    # frequencies, or whose spectra once in D^2, leave the float range:
    # exit 4 before any file is written, with no RuntimeWarning (the suite
    # makes one an error) and no traceback.  The far, sparse trap keeps
    # S_E and ndot finite, so heat reaches its own D^2 conversion of S_mu.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + text)
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]
                   + args) == 4
    assert capsys.readouterr().err == f"numerical error: {error}\n"
    assert not out.exists()


def test_cli_omega_range_past_float_range_is_config_error(tmp_path, capsys):
    # Both bounds are accepted, but their ratio is inf: the grid's point
    # count would be int(round(inf)).
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[spectrum]\n"
                       "omega_min = 1e-300\nomega_max = 1e300\n")
    out = tmp_path / "o"
    assert run_cli(["spectrum", "--config", cfgfile, "--output", out]) == 2
    assert capsys.readouterr().err == (
        "configuration error: spectrum.omega_max / omega_min = 1e+300 / "
        "1e-300 is past the float range\n")
    assert not out.exists()


@pytest.mark.parametrize("command, text, code, error", [
    (command, f"[potential]\npolarizability = {alpha} m^3\n", 4,
     "numerical error: potential.polarizability: the dipole integrand "
     "|psi|^2 P(z) leaves the float range")
    for alpha in ("1e200", "1e300") for command in ("dipoles", "spectrum")] + [
    (command, f"[material]\nspeed_of_sound = {c} m/s\n", 4,
     "numerical error: material.speed_of_sound: c^3 overflows")
    for c in ("1e150", "1e300") for command in ("rates", "spectrum")] + [
    ("mc-scaling", "[montecarlo]\nextent = 1e-300\nn_seeds = 20\n", 4,
     "numerical error: distances [ 3.   4.   5.   6.5  8.  10. ] outside the "
     "valid window [3, 1e-301] (below: dipole granularity dominates; above: "
     "the finite patch acts as a composite source)")],
    ids=["dipoles-alpha-1e200", "spectrum-alpha-1e200",
         "dipoles-alpha-1e300", "spectrum-alpha-1e300",
         "rates-c-1e150", "spectrum-c-1e150", "rates-c-1e300",
         "spectrum-c-1e300", "mc-scaling-extent-1e-300"])
def test_cli_value_past_float_range_names_its_key(tmp_path, capsys, command,
                                                  text, code, error):
    # Accepted values whose alpha^1.5 or dipole integrand, c^3 or
    # extent^-2 leaves the float range: one stderr line that names the key
    # (or, for the extent, the window refusal a smaller extent already
    # gives), no traceback and no output directory.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + text)
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == code
    assert capsys.readouterr().err == error + "\n"
    assert not out.exists()


CHAIN_COMMANDS = ("states", "dipoles", "rates", "spectrum", "tempsweep",
                  "heat", "validate")
DENOMINATOR = ("numerical error: material.speed_of_sound, material.density: "
               "the golden-rule denominator 2 pi hbar c^3 rho = {} "
               "kg^2 m^2/s^4 leaves the float range")
SLOWEST = ("numerical error: the slowest mode decays at {} 1/s, below "
           "sqrt(DBL_MIN), so its Lorentzian underflows at T = {} K")


@pytest.mark.parametrize("command, text, code, line", [
    pytest.param(command, f"[material]\n{key} = {value}\n", 4,
                 DENOMINATOR.format(den),
                 id=f"{command}-{key}-{value.split()[0]}")
    for key, value, den in (("speed_of_sound", "1e-100 m/s", "0"),
                            ("speed_of_sound", "1e-300 m/s", "0"),
                            ("density", "1e-300 kg/m^3", "3.95e-323"))
    for command in CHAIN_COMMANDS] + [
    pytest.param("dipoles", "[potential]\npolarizability = 1e185 m^3\n", 4,
                 "numerical error: the dipole ladder in D is past the float "
                 "range", id="dipoles-polarizability-1e185")] + [
    pytest.param(command, "[material]\nspeed_of_sound = 1e100 m/s\n", 4,
                 SLOWEST.format(*(("9.336e-282", "34.9201")
                                  if command == "validate"
                                  else ("3.603e-282", "3.49201"))),
                 id=f"{command}-speed_of_sound-1e100")
    for command in ("spectrum", "tempsweep", "heat", "validate")] + [
    pytest.param("validate", "[potential]\npolarizability = 1e-150 m^3\n", 0,
                 "[PASS] spectrum: Lorentzian sum rule equals the dipole "
                 "variance: absolute deviation 0.00e+00 C^2 m^2 at zero "
                 "variance over 4 modes", id="validate-polarizability-1e-150")
    ] + [
    pytest.param("validate", "[potential]\npolarizability = 1e185 m^3\n", 4,
                 "numerical error: the dipole ladder in D is past the float "
                 "range", id="validate-polarizability-1e185"),
    pytest.param("validate", "[spectrum]\nimage_factor = 1e-300\n", 0,
                 "[PASS] induced dipoles: hydrogen coefficient, positive "
                 "ladder: 0.47*4.5^1.5 = 4.4866, the ladder underflows to 0 "
                 "C m: positive ladder not applicable",
                 id="validate-image_factor-1e-300")] + [
    pytest.param(command, f"[potential]\nU0 = {u0} J\n", 4,
                 "numerical error: potential.U0: the frequency scale of the "
                 "levels U0/hbar = inf rad/s leaves the float range",
                 id=f"{command}-U0-{u0}")
    for u0 in ("1e300", "1e308", "1.7e308") for command in CHAIN_COMMANDS])
def test_cli_float_range_edges_of_the_chain(tmp_path, capsys, command, text,
                                            code, line):
    # The golden-rule denominator 2 pi hbar c^3 rho below DBL_MIN, a
    # ladder past DBL_MAX once in D, mode rates whose square underflows,
    # a dipole variance or ladder that underflows to 0 on a chain every
    # other subcommand runs, and a well so deep that U0/hbar overflows
    # (up to U0 near DBL_MAX, where U overflows on the barrier too): one
    # line and no output directory, with no RuntimeWarning (the suite
    # makes one an error).
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n" + text)
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == code
    stdout, stderr = capsys.readouterr()
    if code:
        assert stderr == line + "\n"
    else:
        assert stderr == "" and line in stdout.splitlines()
        assert stdout.endswith("\nall 10 invariant checks passed\n")
    assert not out.exists()



@pytest.mark.parametrize("command", ["states", "dipoles"])
def test_cli_barrier_top_past_the_float_range_on_a_moderate_wall(
        tmp_path, capsys, command):
    # U0 = 1e200 J on a wall of beta*z0 = 302.5: U overflows at the barrier
    # top while exp(bz*(1 - z/z0)) there is still finite, so the 10 U0
    # edge is bracketed on U/U0 from the top, not from a negative z.  A well
    # that deep holds about 1e111 levels: the solve refuses it before any
    # LAPACK call, with one line and no output.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[potential]\nU0 = 1e200 J\n"
                       "beta = 50 1/a0\n")
    p = config.parse_config(cfgfile.read_text()).potential
    z_pk, u_pk = potential.inner_barrier(p)
    assert u_pk == math.inf and p.beta_z0 * (1 - z_pk / p.z0) < 700
    grid = boundstates.auto_grid(p, 1000)
    assert potential.evaluate(p, grid.z_min) == pytest.approx(
        10 * p.U0, rel=1e-6, abs=0.0)
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == 3
    err = capsys.readouterr().err
    assert err == ("model error: Ne-Au: the well needs about 1.44e+112 sinc "
                   "nodes (largest local wavenumber 3.08e+111 in the node "
                   "coordinate, beta*z0 = 302.5), past the cap of 2048\n")
    assert not out.exists()

# The subcommands that read each swept key: "section.key" first, then the
# section, so that a new key of a known section joins the sweep unasked.
SWEEP_COMMANDS = {
    "potential": CHAIN_COMMANDS, "material": CHAIN_COMMANDS,
    "spectrum.temperatures": ("rates", "spectrum", "heat"),
    "spectrum.omega_min": ("spectrum",), "spectrum.omega_max": ("spectrum",),
    "spectrum.image_factor": ("dipoles", "spectrum", "tempsweep", "heat",
                              "validate"),
    "trap": ("heat",), "montecarlo": ("mc-scaling",),
    "tempsweep": ("tempsweep",)}
SWEEP_VALUES = (1e-300, 1e-100, 1e-30, 1e100, 1e300, 1e308)


def swept_keys():
    """(section, key, value text) for every float, unit and temperature key
    of config._FIELDS and every value of SWEEP_VALUES in the key's SI unit;
    trap.axis, the integers (their sizes have a budget of their own), the
    seed and the text keys are left out."""
    skip = (config._INT, config._SEED, config._TEXT, config._AXIS)
    for section, table in config._FIELDS.items():
        for key, field in table.items():
            if any(field is other for other in skip):
                continue
            for v in SWEEP_VALUES:
                if field in (config._TEMPERATURE, config._TEMPERATURES):
                    text = f"{v!r} K"
                elif field is config._FLOATS:
                    text = f"{v!r}, {2 * v!r}"
                elif field is config._FLOAT:
                    text = repr(v)
                else:
                    text = field[1](v)
                yield section, key, text


def test_every_accepted_value_gives_finite_cells_or_one_error_line(
        tmp_path, capsys):
    # Each swept value, in every subcommand that reads its key: exit 0 with
    # no non-finite cell, or exit 2, 3 or 4 with one stderr line and no
    # output directory.  A RuntimeWarning is an error in this suite.
    offenders, runs = [], 0
    cfgfile, out = tmp_path / "run.ini", tmp_path / "o"
    for section, key, text in swept_keys():
        commands = SWEEP_COMMANDS.get(f"{section}.{key}",
                                      SWEEP_COMMANDS.get(section))
        assert commands, f"{section}.{key} has no subcommand to sweep"
        seeds = "" if section == "montecarlo" else "\n[montecarlo]"
        cfgfile.write_text(f"preset = Ne-Au\n[{section}]\n{key} = {text}"
                           f"{seeds}\nn_seeds = 20\n")
        for command in commands:
            runs += 1
            try:
                code = run_cli([command, "--config", cfgfile,
                                "--output", out])
            except Exception as exc:
                code = repr(exc)
            err = capsys.readouterr().err
            if code == 0:
                cells = {cell for path in out.glob("*.csv")
                         for line in path.read_text().splitlines()
                         if not line.startswith("#")
                         for cell in line.split(",")}
                ok = not cells & {"nan", "inf", "-inf"}
            else:
                ok = (code in (2, 3, 4) and err.count("\n") == 1
                      and err.endswith("\n") and not out.exists())
            if not ok:
                offenders.append((command, f"{section}.{key} = {text}", code,
                                  err))
            shutil.rmtree(out, ignore_errors=True)
    # at least one subcommand per key and value: 23 keys today
    assert runs >= 23 * len(SWEEP_VALUES)
    assert offenders == []


def test_cli_mc_scaling_follows_trap_axis(tmp_path):
    # [trap] axis reaches the fit as the parser normalizes it
    rows = {}
    for name, axis in (("tilted", "0.3 0.4 1"), ("z", "0 0 1")):
        cfgfile = tmp_path / f"{name}.ini"
        cfgfile.write_text(f"preset = Ne-Au\n[trap]\naxis = {axis}\n"
                           "[montecarlo]\nn_seeds = 5\n")
        out = tmp_path / name
        assert run_cli(["mc-scaling", "--config", cfgfile,
                        "--output", out]) == 0
        rows[name] = data_rows(out / "mc_scaling.csv")
    cfg = config.parse_config((tmp_path / "tilted.ini").read_text())
    assert cfg.trap.axis == pytest.approx(np.array([0.3, 0.4, 1.0])
                                          / np.sqrt(1.25), rel=1e-15, abs=0.0)
    mc = cfg.montecarlo
    res = trapnoise.distance_scaling_fit(mc.n_dipoles, mc.extent,
                                         cfg.mc_seed, cfg.trap.axis,
                                         mc.d_values, n_seeds=mc.n_seeds)
    expect = np.column_stack([res.distances, res.means, res.stderrs])
    got = rows["tilted"][:, :3]
    assert got.tolist() == [[float(f"{x:.9g}") for x in row]
                            for row in expect.tolist()]
    assert not np.array_equal(got, rows["z"][:, :3])


@pytest.mark.parametrize("text, axis", [
    ("1e200 0 0", (1.0, 0.0, 0.0)),
    ("1e154 1e154 0", (0.5 ** 0.5, 0.5 ** 0.5, 0.0)),
    ("3e-160 4e-160 0", (0.6, 0.8, 0.0)),
    ("1e-200 0 0", (1.0, 0.0, 0.0)),
    ("1e-320 0 0", (1.0, 0.0, 0.0)),
], ids=["overflow", "overflow-sum", "subnormal-sum", "underflow",
        "subnormal"])
def test_axis_whose_squared_norm_leaves_the_float_range(text, axis):
    # The sum of squares of these is inf, subnormal or 0: the axis is
    # scaled by its largest |component| before it is normalised, and the
    # unit axis it gives parses back to its own bits.
    cfg = config.parse_config(f"preset = Ne-Au\n[trap]\naxis = {text}\n")
    assert cfg.trap.axis == pytest.approx(axis, rel=1e-15, abs=0.0)
    assert config.parse_config(config.serialize_config(cfg)) == cfg


def resolved_configuration(path):
    """The configuration document an emitted CSV's header resolves."""
    lines = path.read_text().splitlines()
    start = lines.index("# resolved configuration:") + 1
    return "".join(line[4:] + "\n" for line in lines[start:]
                   if line.startswith("#   "))


@pytest.mark.parametrize("command", ["states", "mc-scaling"])
def test_cli_axis_past_the_float_range_runs_and_round_trips(tmp_path,
                                                            command):
    # an axis of 1e200 0 0 is the z-free unit x axis, in the header too
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[trap]\naxis = 1e200 0 0\n"
                       "[montecarlo]\nn_seeds = 5\n")
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == 0
    (path,) = out.glob("*.csv")
    cfg = config.parse_config(resolved_configuration(path))
    assert cfg.trap.axis == (1.0, 0.0, 0.0)


def test_reduced_mass_through_the_parser(tmp_path):
    # reduced_mass = true replaces the adatom mass by the Ne-Au reduced
    # mass; the resolved document carries that mass and no reduced_mass
    # line, and parses back to the same configuration.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[potential]\nreduced_mass = true\n")
    args = ["states", "--config", cfgfile, "--preset", "Ne-Au",
            "--output", tmp_path / "o"]
    cfg = cli.load_config(cli.build_parser().parse_args(
        [str(a) for a in args]))
    assert cfg.potential.adatom_mass == 3.014940819188273e-26
    document = config.serialize_config(cfg)
    lines = document.splitlines()
    assert "mass = 3.014940819188273e-26 kg" in lines
    assert not [line for line in lines if line.startswith("reduced_mass")]
    assert config.parse_config(document) == cfg
    assert run_cli(args) == 0


CUSTOM_WITHOUT_POLARIZABILITY = ("[potential]\nU0 = 12 meV\nz0 = 3 angstrom\n"
                                 "beta = 3 1/angstrom\nmass = 20 amu\n")


@pytest.mark.parametrize("command, text, error", [
    ("states", "preset = Ne-Au\n[solver]\nn_points\n",
     "line 3: expected 'key = value', got 'n_points'"),
    ("states", "preset = Ne-Au\n[potential]\nU0 = x meV\n",
     "potential.U0: 'x' is not a number"),
    ("states", "preset = Ne-Au\n[solver]\nn_points = 1.5\n",
     "solver.n_points: '1.5' is not a valid int"),
    ("states", "preset = Ne-Au\n[potential]\nreduced_mass = maybe\n",
     "potential.reduced_mass: expected true/false, got 'maybe'"),
    ("spectrum", "preset = Ne-Au\n[spectrum]\ntemperatures = ,\n",
     "spectrum.temperatures: temperature list is empty"),
    ("heat", "preset = Ne-Au\n[trap]\naxis = 1 2\n",
     "trap.axis: expected three components"),
    ("heat", "preset = Ne-Au\n[trap]\naxis = a b c\n",
     "trap.axis: expected three numbers"),
    ("heat", "preset = Ne-Au\n[trap]\naxis = 0 0 0\n",
     "trap.axis: axis must be non-zero"),
    ("mc-scaling", "preset = Ne-Au\n[montecarlo]\nd_values = 3, x\n",
     "montecarlo.d_values: expected comma-separated numbers"),
    ("mc-scaling", "preset = Ne-Au\n[montecarlo]\nd_values = 3, -4\n",
     "montecarlo.d_values: values must be positive"),
    ("states", "preset = Ne-Au\nmaterial = Pt\n",
     "unknown material 'Pt'; known: ['Au']"),
    *((command, CUSTOM_WITHOUT_POLARIZABILITY,
       "custom: polarizability is required for dipole calculations; set "
       "potential.polarizability")
      for command in ("dipoles", "spectrum", "validate")),
], ids=["no-equals", "U0", "n_points", "reduced_mass", "temperatures",
        "axis-two", "axis-text", "axis-zero", "d_values-text",
        "d_values-negative", "material", "dipoles-polarizability",
        "spectrum-polarizability", "validate-polarizability"])
def test_cli_parser_refusals(tmp_path, capsys, command, text, error):
    # each refusal is exit 2 and one stderr line that names its key (or
    # line), with no output directory made
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == 2
    assert capsys.readouterr().err == f"configuration error: {error}\n"
    assert not out.exists()


def test_length_unit_aliases():
    # every quantity looks its unit up through the alias table in units
    def z0(text):
        return config.parse_config(
            f"preset = Ne-Au\n[potential]\nz0 = {text}\n").potential.z0
    assert z0("3.2 A") == z0("3.2 Å") == z0("3.2 angstrom")
    assert z0("6.05 bohr") == z0("6.05 a0")

    def distance(text):
        return config.parse_config(
            f"preset = Ne-Au\n[trap]\ndistance = {text}\n").trap.distance
    assert distance("30 micron") == distance("30 μm") == distance("30 um")
    with pytest.raises(ConfigurationError) as err:
        config.parse_config("preset = Ne-Au\n[potential]\nz0 = 3 furlong\n")
    assert str(err.value) == ("potential.z0: unknown unit 'furlong'; known: "
                              "['a0', 'angstrom', 'm', 'um']")


def test_negative_charge_is_accepted():
    cfg = config.parse_config("preset = Ne-Au\n[trap]\ncharge = -2 e\n")
    assert cfg.trap.charge == -2 * E_CHARGE


@pytest.mark.parametrize("beta, code", [(20, 0), (100, 0), (150, 0), (200, 0),
                                        (400, 0), (1000, 2)])
@pytest.mark.parametrize("command", ["states", "spectrum"])
def test_cli_steep_wall(tmp_path, capsys, command, beta, code):
    # beta*z0 = 121 to 6050: the barrier top lies below z/z0 = 1e-12; from
    # 907.5 on U overflows there, and at 6050 the top lies below the
    # smallest normal float
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[potential]\nbeta = {beta} 1/a0\n")
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == code
    err = capsys.readouterr().err
    for text in ("Traceback", "RuntimeWarning", "0 bound state(s)"):
        assert text not in err
    if code:
        assert "beta*z0 = 6050 is too steep" in err


CHAIN = ("boundstates", "dipoles", "phonons", "spectrum", "trapnoise")


def loaded_after_each(tmp_path, commands):
    """Run commands in turn in one fresh interpreter; after each, the
    scipy modules and the chain modules loaded so far, sorted."""
    script = (
        "import json, sys\n"
        "import adnoise.cli\n"
        f"for command in {commands!r}:\n"
        "    assert adnoise.cli.main([command, '--preset', 'Ne-Au',"
        f" '--output', {str(tmp_path)!r}]) == 0\n"
        "    print('@', json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    found = []
    for line in run.stdout.splitlines():
        if line.startswith("@ "):
            mods = json.loads(line[2:])
            found.append(([m for m in mods if m.split(".")[0] == "scipy"],
                          [m for m in CHAIN if "adnoise." + m in mods]))
    assert len(found) == len(commands)
    return found


def test_cli_subcommands_load_only_what_they_run(tmp_path):
    # Two fresh interpreters.  mc-scaling runs on numpy alone: no scipy
    # module, no LAPACK, none of the spectral chain.  states, tempsweep and
    # validate load no scipy module but scipy.linalg._flapack (neither the
    # scipy package, scipy.linalg nor scipy.integrate), states none of the
    # Monte Carlo path or the spectrum, tempsweep no trapnoise.
    [(scipy_mods, chain)] = loaded_after_each(tmp_path, ("mc-scaling",))
    assert (tmp_path / "mc_scaling.csv").exists()
    assert scipy_mods == []
    assert chain == ["trapnoise"]
    states, tempsweep, validate = loaded_after_each(
        tmp_path, ("states", "tempsweep", "validate"))
    assert (tmp_path / "states.csv").exists()
    assert (tmp_path / "tempsweep.csv").exists()
    for scipy_mods, _ in (states, tempsweep, validate):
        assert scipy_mods == ["scipy.linalg._flapack"]
    assert states[1] == ["boundstates", "phonons"]
    assert tempsweep[1] == ["boundstates", "dipoles", "phonons", "spectrum"]
    assert validate[1] == list(CHAIN)


@pytest.mark.parametrize("mass, message", [
    ("3.3210781332e-26", "numerical error: LAPACK dsyevr: did not converge "
                         "(info = 1)"),
    ("1e-320", "numerical error: Ne-Au: the kinetic term hbar^2/(2 m h^2) = "
               "inf J overflows the Hamiltonian; the adatom mass is too small"),
], ids=["bisection", "kinetic-term"])
def test_cli_lapack_failure_exits_four(tmp_path, capsys, monkeypatch, mass,
                                       message):
    # dsyevr by value bisects (dstebz) and iterates inverse (dstein); one
    # that does not converge (made to fail here: on the finite matrices
    # solve passes it, none was seen to) is a LinAlgError traceback through
    # scipy.linalg, exit 1.  At 1e-320 kg 2 m h^2 underflows to 0 (a
    # ZeroDivisionError).
    if message.endswith("(info = 1)"):
        flapack = boundstates._FLAPACK
        monkeypatch.setattr(boundstates, "_FLAPACK", SimpleNamespace(
            dsyevr_lwork=flapack.dsyevr_lwork,
            dsyevr=lambda *args, **kwargs: (None, None, 0, None, 1)))
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[potential]\nmass = {mass} kg\n")
    out = tmp_path / "o"
    assert run_cli(["states", "--config", cfgfile, "--output", out]) == 4
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("n_points, max_states, cells", [
    (7142858, 5, 50000006), (1562501, 30, 50000032),
    (10 ** 400, 5, 7 * 10 ** 400)], ids=["default", "full-ladder", "1e400"])
@pytest.mark.parametrize("command", ["states", "tempsweep"])
def test_n_points_past_the_cell_budget_exits_two(tmp_path, capsys, command,
                                                 n_points, max_states, cells):
    # One cell past the budget, refused by the parser before anything is
    # allocated: states.csv holds n_points x (2 + max_states) float cells.
    # 10**400 points used to be an OverflowError traceback in np.geomspace.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[solver]\nn_points = {n_points}\n"
                       f"max_states = {max_states}\n")
    out = tmp_path / "o"
    assert run_cli([command, "--config", cfgfile, "--output", out]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: solver.n_points = {n_points} with max_states "
        f"= {max_states} needs a states table of {cells} float cells "
        "(n_points x (2 + max_states)), past the budget of 50000000 cells "
        "per array\n")
    assert not out.exists()


def test_n_points_at_the_cell_budget_parses():
    cfg = config.parse_config(
        "preset = Ne-Au\n[solver]\nn_points = 7142857\n")
    assert cfg.solver.n_points * (2 + cfg.solver.max_states) <= 5 * 10 ** 7


@pytest.mark.parametrize("beta, basis", [
    ("0.95 1/a0", "103 sinc nodes in ln z"),
    ("10 1/a0", "114 sinc nodes in ln(z - 0.785474 z0)")])
def test_headers_report_the_basis_and_its_gap(tmp_path, beta, basis):
    # One deterministic line: the basis size and coordinate, the
    # convergence gap and the size it was checked against; the data rows
    # do not carry it.  A wall like the preset's is solved in ln z, a
    # steep one (beta*z0 = 60.5) in ln(z - shift).
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[potential]\nbeta = {beta}\n")
    out = tmp_path / "o"
    assert run_cli(["dipoles", "--config", cfgfile, "--output", out]) == 0
    lines = (out / "dipoles.csv").read_text().splitlines()
    [line] = [ln for ln in lines if ln.startswith("# basis:")]
    assert re.fullmatch(rf"# basis: {re.escape(basis)}, convergence gap "
                        r"\S+ U0 against \d+ nodes", line)
    gap = float(line.split("gap ")[1].split()[0])
    assert 0 <= gap <= boundstates.GAP_TOLERANCE
