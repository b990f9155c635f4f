from pathlib import Path

import numpy as np
import pytest

from adnoise import cli, config, tables
from adnoise.errors import ConfigurationError
from adnoise.units import AMU, BOHR, E_CHARGE


def test_minimal_preset_document():
    cfg = config.parse_config('preset = "Ne-Au"\n')
    assert cfg.preset == "Ne-Au"
    assert cfg.potential.U0 == pytest.approx(12e-3 * E_CHARGE)
    assert cfg.solver.n_points == 4000
    assert cfg.solver.max_states == 5
    assert cfg.montecarlo.n_seeds == 1000
    assert cfg.output == "out"
    assert cfg.seed == 12345


def test_explicit_parameters_override_preset():
    text = """
preset = Ne-Au
[potential]
U0 = 15 meV
mass = 22 amu
"""
    cfg = config.parse_config(text)
    assert cfg.potential.U0 == pytest.approx(15e-3 * E_CHARGE)
    assert cfg.potential.adatom_mass == pytest.approx(22 * AMU)
    assert cfg.potential.z0 == pytest.approx(6.05 * BOHR)  # still preset


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
    assert cfg.potential.beta == pytest.approx(2.6e10)
    assert cfg.potential.polarizability == pytest.approx(1.2e-30)


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


def test_emit_table_header_only(tmp_path):
    path = tables.emit_table(tmp_path / "empty.csv",
                             [("a", "m"), ("b", "s")], [], ["note"])
    content = Path(path).read_text()
    assert content == "# note\na [m],b [s]\n"


def test_emit_table_formats_and_quotes(tmp_path):
    path = tables.emit_table(tmp_path / "t.csv", [("x", "1"), ("tag", "text")],
                             [[1.23456789012345, 'say "hi"']])
    content = Path(path).read_text()
    assert "1.23456789" in content
    assert '"say ""hi"""' in content


def test_emit_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(ConfigurationError, match="row 0"):
        tables.emit_table(tmp_path / "bad.csv", [("a", "1")], [[1.0, 2.0]])


def test_emit_table_deterministic(tmp_path):
    cols = [("x", "1"), ("y", "1")]
    rows = [[0.1, 0.2], [0.3, 0.4]]
    a = tables.emit_table(tmp_path / "a.csv", cols, rows, ["h"])
    b = tables.emit_table(tmp_path / "b.csv", cols, rows, ["h"])
    assert Path(a).read_bytes() == Path(b).read_bytes()


def run_cli(args):
    return cli.main([str(a) for a in args])


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
    assert len(data) == 4000 + 1
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
        / ((4 * np.pi * 8.8541878128e-12) ** 2 * 1e-5 ** 4), rel=1e-6)


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


def test_cli_validate_exits_zero(capsys):
    assert run_cli(["validate", "--preset", "Ne-Au"]) == 0
    out = capsys.readouterr().out
    assert "invariant checks passed" in out
    assert "[FAIL]" not in out


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
