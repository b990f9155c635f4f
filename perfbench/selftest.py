"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  The file is named so that the program's own
test run (pytest from the root) does not collect it.
"""

import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import worker
import workloads
from tracer import LAYER_METRICS, Tracer, package_modules

ROOT = Path(__file__).resolve().parent.parent

# Functions the per-layer table says run on each workload.
SPANNED = {
    "fine-grid": {"boundstates.solve", "boundstates.auto_grid",
                  "potential.inner_barrier", "potential.evaluate",
                  "phonons.transition_rate", "tables.render_table",
                  "tables.emit_table", "config.parse_config",
                  "config.serialize_config", "cli.main"},
    "full-ladder": {"boundstates.solve", "boundstates.auto_grid",
                    "boundstates.coupling_matrix", "potential.inner_barrier",
                    "potential.evaluate", "dipoles.dipole_ladder",
                    "dipoles.induced_dipole", "phonons.build_rate_matrix",
                    "phonons.stationary_distribution",
                    "phonons.transition_rate", "spectrum.correlation_modes",
                    "spectrum.evaluate_spectrum", "spectrum.arrhenius_fit",
                    "tables.render_table", "tables.emit_table",
                    "config.parse_config", "config.serialize_config",
                    "cli.main"},
    "surface-mc": {"trapnoise.sample_surface", "trapnoise.mc_field_noise",
                   "trapnoise.distance_scaling_fit",
                   "trapnoise.kernel_integral_constant",
                   "tables.render_table", "tables.emit_table",
                   "config.parse_config", "config.serialize_config",
                   "cli.main"},
}


@pytest.fixture(scope="module")
def adnoise():
    return worker.import_adnoise(ROOT / "src")


@pytest.fixture
def workdir(request):
    """A fresh directory inside the checkout's benchmark work area."""
    path = ROOT / worker.WORK_DIR / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _namespace_functions(adnoise):
    return {(mod.__name__, name): obj
            for mod in package_modules(adnoise)
            for name, obj in vars(mod).items() if inspect.isfunction(obj)}


def _run_one(adnoise, workload, workdir):
    runner = worker.Runner(adnoise.cli, workdir)
    op = workloads.generate(workload, 1, 1)[0]
    runner.run(op)
    assert runner.failures == []
    return op, runner.outdir


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_configs_follow_the_seed(name):
    first = workloads.generate(name, 7, 30)
    assert first == workloads.generate(name, 7, 30)
    assert first != workloads.generate(name, 8, 30)


def test_untraced_path_leaves_functions_unwrapped(adnoise, workdir,
                                                  monkeypatch):
    before = _namespace_functions(adnoise)
    monkeypatch.setattr(worker, "MIN_OPS", 2)
    runner = worker.Runner(adnoise.cli, workdir)
    times = worker.timed_loop(runner, workloads.stream("full-ladder", 1), 0)
    assert len(times) == 2 and runner.failures == []
    after = _namespace_functions(adnoise)
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())
    assert not any(hasattr(fn, "__wrapped__") for fn in after.values()
                   if fn.__module__.startswith("adnoise"))


def test_tracer_rebinds_every_namespace_and_restores(adnoise):
    before = _namespace_functions(adnoise)
    tracer = Tracer(adnoise)
    tracer.install()
    try:
        assert adnoise.phonons.coupling_matrix.__wrapped__ is \
            before[("adnoise.boundstates", "coupling_matrix")]
        assert adnoise.phonons.coupling_matrix is \
            adnoise.boundstates.coupling_matrix
        for name in ("emit_table", "parse_config", "override",
                     "serialize_config"):
            assert hasattr(getattr(adnoise.cli, name), "__wrapped__")
        assert not hasattr(adnoise.phonons.bose_occupation, "__wrapped__")
        assert not hasattr(adnoise.cli.cmd_states, "__wrapped__")
    finally:
        tracer.uninstall()
    after = _namespace_functions(adnoise)
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_spans_each_layer(adnoise, name, workdir, monkeypatch):
    monkeypatch.setattr(worker, "MIN_TRACED_PAIRS", 1)
    runner = worker.Runner(adnoise.cli, workdir)
    tracer = Tracer(adnoise)
    plain, traced = worker.traced_loop(runner, workloads.stream(name, 1), 0,
                                       tracer)
    assert len(plain) == len(traced) == 1 and runner.failures == []
    labels = {span[0] for span in tracer.spans}
    assert SPANNED[name] <= labels
    metrics = worker.per_layer(tracer, plain, traced, workdir / "spans")
    assert list(metrics) == [m[0] for m in LAYER_METRICS]
    for label in SPANNED[name]:
        if f"{label}.self_s" in metrics:
            assert metrics[f"{label}.self_s"] > 0
    # cli.main is the root span, so self times add up to the traced op.
    assert math.isclose(metrics["trace.self_sum_s"], traced[0], rel_tol=0.05)


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _replace_cell(row, col, value):
    def edit(lines):
        data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
        cells = lines[data[row]].split(",")
        cells[col] = value
        lines[data[row]] = ",".join(cells)
        return lines
    return edit


BREAKAGES = {
    "fine-grid": [
        ("states.csv", lambda lines: lines[:-1]),
        ("states.csv", _replace_cell(5, 2, "nan")),
        ("states.csv", _replace_cell(100, 3, "1e9")),
        ("states.csv", lambda lines: [
            ln.replace("energies_meV: -", "energies_meV: ") for ln in lines]),
    ],
    "full-ladder": [
        ("tempsweep.csv", _replace_cell(0, 2, "-1e-40")),
        ("tempsweep.csv", _replace_cell(3, 4, "inf")),
        ("tempsweep.csv", lambda lines: lines + lines[-1:]),
    ],
    "surface-mc": [
        ("mc_scaling.csv", _replace_cell(0, 0, "2.5")),
        ("mc_scaling.csv", _replace_cell(2, 1, "0")),
        ("mc_scaling.csv", lambda lines: [ln for ln in lines
                                          if "fitted_exponent" not in ln]),
    ],
}


@pytest.mark.parametrize("name,index", [(n, i) for n in sorted(BREAKAGES)
                                        for i in range(len(BREAKAGES[n]))])
def test_broken_output_fails_the_check(adnoise, name, index, workdir):
    op, outdir = _run_one(adnoise, name, workdir)
    workloads.check_output(op, outdir, 0)
    with pytest.raises(workloads.OutputError):
        workloads.check_output(op, outdir, 3)
    filename, edit = BREAKAGES[name][index]
    _rewrite(outdir / filename, edit)
    with pytest.raises(workloads.OutputError):
        workloads.check_output(op, outdir, 0)
    (outdir / filename).unlink()
    with pytest.raises(workloads.OutputError):
        workloads.check_output(op, outdir, 0)


def test_run_check_pools_the_mc_exponent():
    d = np.array(workloads.MC_D_VALUES)
    good = [{"exponent": -3.2, "seeds": 30, "s_per_sigma": d ** -4.0}] * 3
    assert math.isclose(workloads.check_run(good)["pooled_exponent"], -4.0)
    bad = [{"exponent": -4.0, "seeds": 30, "s_per_sigma": d ** -3.0}] * 3
    with pytest.raises(workloads.OutputError):
        workloads.check_run(bad)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(LAYER_METRICS)


def test_rescale_scales_times_and_rates_only():
    metrics = {"op_p50_s": 0.2, "ops_per_s": 5.0, "peak_rss_mib": 90.0,
               "tables.cells": 30.0}
    units = {"op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mib": "MiB",
             "tables.cells": "count"}
    assert run.rescale(metrics, units, 0.5) == {
        "op_p50_s": 0.1, "ops_per_s": 10.0, "peak_rss_mib": 90.0,
        "tables.cells": 30.0}


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "full-ladder", "--seed", "3", "--seconds", "1",
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_OPS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
