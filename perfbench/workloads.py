"""Benchmark workloads: op configs generated from a seed, and output checks.

Each workload is a stream of ops.  An op is one `adnoise <command> --config
<file>` call on a config document generated here, so the program only ever
sees generated inputs.  The same (workload, seed) always yields the same
stream.  Drawn sizes are stratified: every block of STRATA consecutive ops
takes one value from each of STRATA equal slices of the range, in a
seed-shuffled order, so the size mix of a run barely depends on the seed
while the individual configs still do.
"""

import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STRATA = 10
NE_AU_U0_MEV = 12.0
U0_JITTER = 0.10
MC_D_VALUES = (3.0, 4.0, 5.0, 6.5, 8.0, 10.0)   # the parser's default
MC_SEEDS_PER_OP = 30
MC_EXTENT = 100.0
MC_EXPONENT_TOLERANCE = 0.5
NORM_TOLERANCE = 1e-6

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class Op:
    """One generated input: the subcommand, its config body and what the
    output must contain."""

    command: str
    body: str            # config sections; render() adds the top-level keys
    expect: dict         # rows and per-command limits for check_output

    def render(self, output_dir):
        return f"preset = Ne-Au\noutput = {output_dir}\n\n{self.body}"


def _stratified(rng, lo, hi):
    """Endless draws from U(lo, hi), one per stratum in each block."""
    while True:
        order = list(range(STRATA))
        rng.shuffle(order)
        for k in order:
            yield lo + (k + rng.random()) / STRATA * (hi - lo)


def _u0_line(u0_mev):
    return f"U0 = {u0_mev!r} meV"


def _fine_grid(n_points, u0_mev):
    body = (f"[potential]\n{_u0_line(u0_mev)}\n\n"
            f"[solver]\nn_points = {n_points}\nmax_states = 5\n")
    return Op("states", body, {"rows": n_points, "max_states": 5})


def _full_ladder(u0_mev):
    body = (f"[potential]\n{_u0_line(u0_mev)}\n\n"
            "[solver]\nmax_states = 30\n\n[tempsweep]\nn_temps = 30\n")
    return Op("tempsweep", body, {"rows": 30})


def _surface_mc(n_dipoles, mc_seed):
    d_values = ", ".join(repr(d) for d in MC_D_VALUES)
    body = (f"[montecarlo]\nn_dipoles = {n_dipoles}\n"
            f"extent = {MC_EXTENT!r}\nd_values = {d_values}\n"
            f"n_seeds = {MC_SEEDS_PER_OP}\nseed = {mc_seed}\n")
    return Op("mc-scaling", body, {"rows": len(MC_D_VALUES),
                                   "sigma": n_dipoles / MC_EXTENT ** 2})


def _u0_draws(rng):
    return _stratified(rng, NE_AU_U0_MEV * (1 - U0_JITTER),
                       NE_AU_U0_MEV * (1 + U0_JITTER))


def _fine_grid_stream(rng):
    n_points = _stratified(rng, 4000, 16001)
    for n, u0 in zip(n_points, _u0_draws(rng)):
        yield _fine_grid(int(n), u0)


def _full_ladder_stream(rng):
    for u0 in _u0_draws(rng):
        yield _full_ladder(u0)


def _surface_mc_stream(rng):
    for n in _stratified(rng, 100, 301):
        yield _surface_mc(int(n), rng.randrange(1, 2 ** 31))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: object          # rng -> endless iterator of Op
    warmup: Op           # fixed, seed-independent op run before timing


WORKLOADS = {w.name: w for w in (
    Workload("fine-grid",
             "states on 4000-16000 grid points: stresses the eigensolve, "
             "the Sturm counts and CSV formatting, which scale with the grid",
             _fine_grid_stream, _fine_grid(10000, NE_AU_U0_MEV)),
    Workload("full-ladder",
             "tempsweep with max_states = 30 over 30 temperatures: 30 rate "
             "matrices, stationary states and mode sets per op",
             _full_ladder_stream, _full_ladder(NE_AU_U0_MEV)),
    Workload("surface-mc",
             "mc-scaling with 100-300 dipoles: rejection sampling and field "
             "sums only, never the spectral chain",
             _surface_mc_stream, _surface_mc(200, 1)),
)}


def stream(name, seed):
    """Endless op stream of workload `name` for `seed`."""
    return WORKLOADS[name].ops(random.Random(f"{name}:{seed}"))


def generate(name, seed, n):
    """The first n ops of `stream(name, seed)`."""
    return list(itertools.islice(stream(name, seed), n))


# ---------------------------------------------------------------- checks

class OutputError(Exception):
    """An op's output is missing, malformed or violates an invariant."""


def read_table(path):
    """(header lines without '# ', column names, float data) of a CSV."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from None
    header = [ln[2:] for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise OutputError(f"{path}: no column header")
    columns = body[0].split(",")
    try:
        data = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",",
                          ndmin=2)
    except ValueError as exc:
        raise OutputError(f"{path}: unparseable cell ({exc})") from None
    if data.size == 0:
        data = np.empty((0, len(columns)))
    if data.shape[1] != len(columns):
        raise OutputError(f"{path}: {data.shape[1]} cells per row, "
                          f"{len(columns)} columns")
    if not np.all(np.isfinite(data)):
        raise OutputError(f"{path}: non-finite cell")
    return header, columns, data


def _header_value(header, key, path):
    for line in header:
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    raise OutputError(f"{path}: header has no '{key}' line")


def _check_rows(data, expected, path):
    if data.shape[0] != expected:
        raise OutputError(f"{path}: {data.shape[0]} rows, expected {expected}")


def _check_states(op, outdir):
    path = outdir / "states.csv"
    header, columns, data = read_table(path)
    _check_rows(data, op.expect["rows"], path)
    n_states = int(_header_value(header, "n_states", path).split()[0])
    if not 2 <= n_states <= op.expect["max_states"]:
        raise OutputError(f"{path}: {n_states} states kept")
    if len(columns) != 2 + n_states:
        raise OutputError(
            f"{path}: {len(columns)} columns for {n_states} states")
    energies = [float(e) for e in
                _header_value(header, "energies_meV", path).split(",")]
    if len(energies) != n_states:
        raise OutputError(f"{path}: {len(energies)} energies listed")
    if not all(e < 0 for e in energies):
        raise OutputError(f"{path}: non-negative bound-state energy")
    if not all(a < b for a, b in zip(energies, energies[1:])):
        raise OutputError(f"{path}: energies not ascending")
    z = data[:, 0]
    norms = _trapz(data[:, 2:] ** 2, z, axis=0)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > NORM_TOLERANCE:
        raise OutputError(f"{path}: wavefunction norm off by {worst:.2e}")


def _check_tempsweep(op, outdir):
    path = outdir / "tempsweep.csv"
    _, columns, data = read_table(path)
    _check_rows(data, op.expect["rows"], path)
    if len(columns) != 5:
        raise OutputError(f"{path}: {len(columns)} columns, expected 5")
    if np.any(data[:, 2:] <= 0):
        raise OutputError(f"{path}: non-positive S")


def _check_mc(op, outdir):
    path = outdir / "mc_scaling.csv"
    header, columns, data = read_table(path)
    _check_rows(data, op.expect["rows"], path)
    if len(columns) != 5:
        raise OutputError(f"{path}: {len(columns)} columns, expected 5")
    if not np.array_equal(data[:, 0], MC_D_VALUES):
        raise OutputError(f"{path}: distances {data[:, 0]}")
    if np.any(data[:, 1] <= 0) or np.any(data[:, 4] != MC_SEEDS_PER_OP):
        raise OutputError(f"{path}: non-positive S_E_mean or wrong n_seeds")
    exponent = float(_header_value(header, "fitted_exponent", path).split()[0])
    return {"exponent": exponent, "seeds": MC_SEEDS_PER_OP,
            "s_per_sigma": data[:, 1] / op.expect["sigma"]}


def _fit_exponent(distances, values):
    x = np.log(distances)
    xm = x - x.mean()
    return float(np.dot(xm, np.log(values)) / np.dot(xm, xm))


def check_run(observations):
    """Run-level invariant of surface-mc: the seed-weighted mean of S_E per
    unit dipole density, pooled over every op of the run, falls off as d^-4
    within MC_EXPONENT_TOLERANCE.  One op's own fit is too noisy for that
    tolerance (see README.md), so per op it is only recorded."""
    if not observations:
        return None
    seeds = sum(o["seeds"] for o in observations)
    pooled = sum(o["seeds"] * o["s_per_sigma"] for o in observations) / seeds
    exponent = _fit_exponent(np.array(MC_D_VALUES), pooled)
    per_op = [o["exponent"] for o in observations]
    summary = {"pooled_exponent": exponent, "ops": len(observations),
               "op_exponent_min": min(per_op), "op_exponent_max": max(per_op)}
    if not abs(exponent + 4.0) <= MC_EXPONENT_TOLERANCE:
        raise OutputError(f"pooled fitted exponent {exponent:.4g} over "
                          f"{len(observations)} ops")
    return summary


_CHECKS = {"states": _check_states, "tempsweep": _check_tempsweep,
           "mc-scaling": _check_mc}


def check_output(op, outdir, exit_code):
    """Raise OutputError unless the op exited 0 and wrote valid output.
    Returns what check_run pools across ops, or None."""
    if exit_code != 0:
        raise OutputError(f"{op.command} exited {exit_code}")
    return _CHECKS[op.command](op, Path(outdir))


def digest_files(digest, root, pattern="*"):
    """Feed the files under root that match pattern, in path order and
    with their relative paths, into a hashlib digest; returns it."""
    for path in sorted(Path(root).rglob(pattern)):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest
