"""Property tests over random level sets, rate chains, rate graphs,
dipole ladders, configuration documents, dipole positions, float tables,
unit conversions, root brackets and wells.

In the spectral test, energies are drawn in units of kT over forty
e-folds, so the excited populations reach down to ~1e-17: deep in the
regime where the dipole statistics must be centered to survive round-off.
Its deep-tail sibling puts the top level 700-800 kT up, where the mode
decomposition must work from the rates alone.
"""

import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from adnoise import (boundstates, config, phonons, potential,
                     spectrum, tables, units)
from adnoise.errors import ModelError
from adnoise.units import HBAR, KB
from conftest import assert_close_pairs, per_cell_table
from oracles import gth_stationary, spectrum_via_resolvent
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq


def chain_on_levels(draw, energies):
    """(rate matrix, energies / kT, dipole ladder) with Boltzmann ratios."""
    n = len(energies)
    coupling = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            coupling[i, j] = coupling[j, i] = draw(st.floats(1.0, 100.0))
    # gamma[i, f] = Gamma_{i->f}: downhill at the coupling, uphill damped
    # by exp(-(E_f - E_i) / kT).
    rise = energies[None, :] - energies[:, None]
    gamma = 1e6 * coupling * np.exp(-np.maximum(rise, 0.0))
    mu = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n,
                                max_size=n))) * 1e-32
    # A ladder flat to within round-off has no variance to resolve.
    assume(np.ptp(mu) > 1e-3 * mu.max())
    return phonons.RateMatrix.from_gamma(gamma, temperature=1.0), energies, mu


@st.composite
def detailed_balance_chains(draw):
    n = draw(st.integers(2, 8))
    energies = np.array(sorted(draw(st.lists(
        st.floats(0.0, 40.0), min_size=n, max_size=n, unique=True))))
    return chain_on_levels(draw, energies)


@st.composite
def deep_detailed_balance_chains(draw):
    """Chains whose top level lies 700-800 kT above the ground state.

    The populations span more than 300 decades and the uphill rates and
    populations of the highest levels underflow to 0.  The first excited
    level stays within 40 kT and its dipole differs from the ground
    state's, so the variance is a normal double to compare against.
    """
    n = draw(st.integers(3, 8))
    energies = [0.0, draw(st.floats(0.5, 40.0)),
                *draw(st.lists(st.floats(40.0, 800.0), min_size=n - 3,
                               max_size=n - 3)),
                draw(st.floats(700.0, 800.0))]
    assume(len(set(energies)) == n)
    r, energies, ladder = chain_on_levels(draw, np.array(sorted(energies)))
    assume(abs(ladder[1] - ladder[0]) > 1e-3 * ladder.max())
    return r, energies, ladder


@settings(max_examples=200, deadline=None, derandomize=True)
@given(detailed_balance_chains())
def test_spectral_invariants(chain):
    r, energies, ladder = chain
    p0 = phonons.stationary_distribution(KB * energies, r.temperature)
    spec = spectrum.correlation_modes(r, p0, ladder)
    mu, n = ladder, len(ladder)
    pairwise = 0.5 * math.fsum(p0[i] * p0[j] * (mu[i] - mu[j]) ** 2
                               for i in range(n) for j in range(n))
    assert spec.weights.min() >= -1e-12 * spec.variance
    assert abs(spec.weights.sum() - pairwise) <= 1e-8 * pairwise

    om = np.concatenate([[0.0], np.logspace(-3, 3, 13) * spec.lambdas.min(),
                         np.logspace(0, 3, 7) * spec.lambdas.max()])
    s_res = spectrum_via_resolvent(r, p0, ladder, om)
    s_mod = spectrum.evaluate_spectrum(spec, om)
    assert np.max(np.abs(s_res - s_mod) / s_mod) <= 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(deep_detailed_balance_chains())
def test_spectral_invariants_deep_tail(chain):
    r, energies, ladder = chain
    p0 = phonons.stationary_distribution(KB * energies, r.temperature)
    assert p0[-1] < 1e-300 * p0[0]
    spec = spectrum.correlation_modes(r, p0, ladder)
    mu, n = ladder, len(ladder)
    pairwise = 0.5 * math.fsum(p0[i] * p0[j] * (mu[i] - mu[j]) ** 2
                               for i in range(n) for j in range(n))
    assert spec.weights.min() >= -1e-12 * pairwise
    assert abs(spec.weights.sum() - pairwise) <= 1e-12 * pairwise


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(detailed_balance_chains(), deep_detailed_balance_chains()))
def test_boltzmann_is_the_null_vector_of_the_rates(chain):
    # The closed form from the energies against elimination on the rates
    # alone, wherever the populations are far from underflow.
    r, energies, _ = chain
    p0 = phonons.stationary_distribution(KB * energies, r.temperature)
    null = gth_stationary(r)
    big = null > 1e-250
    assert big[:2].all()
    assert np.all(np.abs(p0 - null)[big] <= 1e-12 * null[big])


def reference_rate(e_i, e_f, coupling, material, T):
    """Scalar golden rule for one ordered pair: (Gamma_{i->f}, masked)."""
    domega = abs(e_i - e_f) / HBAR
    if domega / (2.0 * math.pi) > material.debye_frequency:
        return 0.0, True
    x = math.inf if T == 0 else HBAR * domega / (KB * T)
    n = 0.0 if x > 700.0 else 1.0 / math.expm1(x)
    base = domega / (2.0 * math.pi * HBAR * material.speed_of_sound ** 3
                     * material.density) * coupling ** 2
    return base * (n + 1.0 if e_i > e_f else n), False


@st.composite
def level_sets(draw):
    """(energies, coupling, material, T) with the Debye cutoff strictly
    between two pair splittings and never below an adjacent one."""
    n = draw(st.integers(2, 8))
    unit = KB * 10.0
    gaps = np.array(draw(st.lists(st.floats(0.05, 4.0), min_size=n - 1,
                                  max_size=n - 1)))
    energies = -40.0 * unit + unit * np.concatenate([[0.0], np.cumsum(gaps)])
    coupling = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            coupling[i, j] = coupling[j, i] = draw(st.floats(1e-12, 1e-10))
    splittings = np.unique(np.abs(energies[:, None] - energies[None, :]))
    above = splittings[splittings >= np.diff(energies).max()]
    k = draw(st.integers(0, len(above) - 1))
    cut = (0.5 * (above[k] + above[k + 1]) if k + 1 < len(above)
           else 2.0 * above[k])
    material = potential.BulkMaterial(
        name="test-bulk", speed_of_sound=3962.0, density=19300.0,
        debye_frequency=cut / HBAR / (2.0 * math.pi))
    T = draw(st.one_of(st.just(0.0), st.floats(0.2, 50.0)))
    return energies, coupling, material, T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(level_sets())
def test_rate_matrix_matches_scalar_golden_rule(levels):
    energies, coupling, material, T = levels
    n = len(energies)
    grid = boundstates.Grid(z_min=1e-10, z_max=1e-9, n_points=200)
    states = boundstates.BoundStateSet(
        grid=grid, energies=energies, wavefunctions=np.zeros((n, 200)),
        params=potential.preset("Ne-Au")[0])
    r = phonons.build_rate_matrix(states, material, T, coupling=coupling)
    assert np.array_equal(r.cutoff_mask, r.cutoff_mask.T)
    for i in range(n):
        for f in range(n):
            if i == f:
                continue
            rate, masked = reference_rate(energies[i], energies[f],
                                          coupling[i, f], material, T)
            assert r.cutoff_mask[i, f] == masked
            assert abs(r.gamma[i, f] - rate) <= 1e-13 * rate
            x = (abs(energies[i] - energies[f]) / (KB * T) if T > 0
                 else math.inf)
            if i > f and not masked and x < 700.0:
                # detailed balance: down / up = exp(hbar domega / kB T)
                assert r.gamma[i, f] == pytest.approx(
                    r.gamma[f, i] * math.exp(x), rel=1e-12)
            elif i < f:
                assert (r.gamma[i, f] == 0.0) == (masked or x > 700.0)


@st.composite
def temperature_stacks(draw):
    """(states, coupling, material, temperatures, dipole ladder): a level
    set with at least one Debye-masked pair and a stack of temperatures
    that starts at 0 K."""
    energies, coupling, material, _ = draw(level_sets())
    n = len(energies)
    de = np.abs(energies[:, None] - energies[None, :])
    assume((de / HBAR / (2.0 * math.pi) > material.debye_frequency).any())
    temps = np.array([0.0, *draw(st.lists(st.floats(0.2, 50.0), min_size=1,
                                          max_size=4))])
    mu = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n,
                                max_size=n))) * 1e-32
    grid = boundstates.Grid(z_min=1e-10, z_max=1e-9, n_points=200)
    states = boundstates.BoundStateSet(
        grid=grid, energies=energies, wavefunctions=np.zeros((n, 200)),
        params=potential.preset("Ne-Au")[0])
    return states, coupling, material, temps, mu


def reference_chain(energies, coupling, material, T, mu, om):
    """The chain at one temperature as written before it took a
    temperature axis, with p0 in closed form: (gamma, generator, p0,
    lambdas, weights, mean, variance, S at om)."""
    de = energies[:, None] - energies[None, :]
    pair = ~np.eye(len(energies), dtype=bool)
    domega = np.abs(de) / HBAR
    live = pair & ~(domega / (2.0 * math.pi) > material.debye_frequency)
    base = (domega[live] / (2.0 * math.pi * HBAR * material.speed_of_sound
                            ** 3 * material.density) * coupling[live] ** 2)
    if T == 0:
        n = np.zeros_like(base)
    else:
        x = HBAR * domega[live] / (KB * T)
        n = np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))
    gamma = np.zeros_like(de)
    gamma[live] = base * (n + (de[live] > 0))
    gen = gamma.T.copy()
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=0))
    if T == 0:
        p = np.zeros(len(energies))
        p[0] = 1.0
    else:
        p = np.exp(-(energies - energies[0]) / (KB * T))
    p = p / p.sum()
    root = np.sqrt(gamma)
    A = root * root.T
    np.fill_diagonal(A, gen.diagonal())
    lam, V = np.linalg.eigh(A)
    keep = np.arange(len(lam)) != int(np.argmax(lam))
    mean = float(p @ mu)
    proj = V.T @ ((mu - mean) * np.sqrt(p))
    variance = 0.5 * float(p @ (mu[:, None] - mu[None, :]) ** 2 @ p)
    lambdas, weights = -lam[keep], proj[keep] ** 2
    s = np.zeros_like(om)
    for lk, wk in zip(lambdas, weights):
        s = s + wk * 2.0 * lk / (om ** 2 + lk * lk)
    return gamma, gen, p, lambdas, weights, mean, variance, s


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(temperature_stacks())
def test_stacked_chain_is_bit_identical_to_one_temperature(stack):
    # Each row of a stacked call against the call at its temperature alone
    # and against the chain as written before the temperature axis.
    states, coupling, material, temps, mu = stack
    om = np.concatenate([[0.0], np.logspace(6.0, 12.0, 7)])
    r = phonons.build_rate_matrix(states, material, temps, coupling=coupling)
    p0 = phonons.stationary_distribution(states.energies, temps)
    spec = spectrum.correlation_modes(r, p0, mu)
    stacked = (r.gamma, r.generator, p0, spec.lambdas, spec.weights,
               spec.mean_dipole, spec.variance,
               spectrum.evaluate_spectrum(spec, om))
    assert r.cutoff_mask.any()
    for k, T in enumerate(temps):
        r1 = phonons.build_rate_matrix(states, material, float(T),
                                       coupling=coupling)
        p1 = phonons.stationary_distribution(states.energies, float(T))
        spec1 = spectrum.correlation_modes(r1, p1, mu)
        single = (r1.gamma, r1.generator, p1, spec1.lambdas, spec1.weights,
                  spec1.mean_dipole, spec1.variance,
                  spectrum.evaluate_spectrum(spec1, om))
        reference = reference_chain(states.energies, coupling, material,
                                    float(T), mu, om)
        assert np.array_equal(r.cutoff_mask, r1.cutoff_mask)
        for name, a, b, c in zip(
                ("gamma", "generator", "p0", "lambdas", "weights",
                 "mean_dipole", "variance", "S"), stacked, single, reference):
            assert same_bits(a[k], b) and same_bits(b, c), (name, T)


def reachable_from_ground(adjacency):
    """Breadth-first search of an undirected graph from node 0: True when
    it reaches every node."""
    seen = np.zeros(len(adjacency), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


@st.composite
def rate_graphs(draw):
    """(energies, coupling, material, T) with some couplings exactly zero
    and the Debye cutoff anywhere among the splittings: some transition
    graphs fall apart."""
    n = draw(st.integers(2, 24))
    unit = KB * 10.0
    gaps = np.array(draw(st.lists(st.floats(0.05, 4.0), min_size=n - 1,
                                  max_size=n - 1)))
    energies = -40.0 * unit + unit * np.concatenate([[0.0], np.cumsum(gaps)])
    # One seed per graph keeps the draws cheap at 24 levels.
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    coupling = 10.0 ** rng.uniform(-12.0, -10.0, (n, n))
    coupling[rng.random((n, n)) < draw(st.floats(0.0, 0.9))] = 0.0
    coupling = np.triu(coupling, 1) + np.triu(coupling, 1).T
    splittings = np.unique(np.abs(energies[:, None] - energies[None, :]))[1:]
    cut = splittings[draw(st.integers(0, len(splittings) - 1))]
    cut *= draw(st.sampled_from([0.5, 1.0 + 1e-9, 2.0]))
    material = potential.BulkMaterial(
        name="test-bulk", speed_of_sound=3962.0, density=19300.0,
        debye_frequency=cut / HBAR / (2.0 * math.pi))
    T = draw(st.one_of(st.just(0.0), st.floats(0.2, 50.0)))
    return energies, coupling, material, T


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rate_graphs())
def test_ergodicity_check_matches_breadth_first_search(graph):
    energies, coupling, material, T = graph
    n = len(energies)
    adjacency = np.array([[i != f and reference_rate(
        energies[i], energies[f], coupling[i, f], material, T)[0] > 0
        for f in range(n)] for i in range(n)])
    adjacency |= adjacency.T
    grid = boundstates.Grid(z_min=1e-10, z_max=1e-9, n_points=200)
    states = boundstates.BoundStateSet(
        grid=grid, energies=energies, wavefunctions=np.zeros((n, 200)),
        params=potential.preset("Ne-Au")[0])
    try:
        phonons.build_rate_matrix(states, material, T, coupling=coupling)
    except ModelError as exc:
        assert "ergodicity" in str(exc)
        assert not reachable_from_ground(adjacency)
    else:
        assert reachable_from_ground(adjacency)


def _value(draw, lo, hi):
    return repr(draw(st.floats(lo, hi)))


@st.composite
def config_documents(draw):
    """Documents that set every section, in varied units."""
    def temp():
        if draw(st.booleans()):
            return f"{_value(draw, 0.05, 8.0)} nu10"
        return f"{_value(draw, 0.0, 300.0)} K"

    axis = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    assume(sum(a * a for a in axis) > 1e-6)
    # scaled by a power of ten, so that the squared norm may overflow,
    # underflow or be subnormal
    scale = float(f"1e{draw(st.integers(-320, 300))}")
    axis = [a * scale for a in axis]
    lines = [
        "preset = Ne-Au", f"seed = {draw(st.integers(-2 ** 40, 2 ** 40))}",
        f"output = {draw(st.from_regex(r'[A-Za-z0-9_./-]{1,12}', fullmatch=True))}",
        "[potential]",
        f"U0 = {_value(draw, 1.0, 100.0)} "
        f"{draw(st.sampled_from(['meV', 'K', 'eV']))}",
        f"z0 = {_value(draw, 2.0, 4.0)} angstrom",
        f"beta = {_value(draw, 2.5, 5.0)} 1/angstrom",
        f"mass = {_value(draw, 1.0, 200.0)} amu",
        f"polarizability = {_value(draw, 0.5, 50.0)} a0^3",
        "[material]",
        f"speed_of_sound = {_value(draw, 1e3, 1e4)} m/s",
        f"density = {_value(draw, 1.0, 25.0)} g/cm^3",
        f"debye_frequency = {_value(draw, 0.5, 20.0)} THz",
        "[solver]",
        f"n_points = {draw(st.integers(200, 50000))}",
        f"max_states = {draw(st.integers(2, 60))}",
        "[spectrum]",
        "temperatures = " + ", ".join(temp() for _ in range(
            draw(st.integers(1, 4)))),
        f"omega_min = {_value(draw, 1e-6, 1.0)}",
        f"omega_max = {_value(draw, 2.0, 1e6)}",
        f"points_per_decade = {draw(st.integers(1, 200))}",
        f"image_factor = {_value(draw, 0.5, 2.0)}",
        "[trap]",
        f"distance = {_value(draw, 1.0, 500.0)} um",
        f"frequency = {_value(draw, 0.1, 50.0)} MHz",
        f"ion_mass = {_value(draw, 1.0, 200.0)} amu",
        f"charge = {draw(st.integers(1, 3))} e",
        "axis = " + " ".join(repr(a) for a in axis),
        f"coverage = {_value(draw, 1e10, 1e16)} 1/cm^2",
        "[montecarlo]",
        f"n_dipoles = {draw(st.integers(1, 1000))}",
        f"extent = {_value(draw, 10.0, 1000.0)}",
        "d_values = " + ", ".join(_value(draw, 1.0, 50.0) for _ in range(
            draw(st.integers(1, 6)))),
        f"n_seeds = {draw(st.integers(2, 5000))}",
        *([f"seed = {draw(st.integers(-2 ** 40, 2 ** 40))}"]
          if draw(st.booleans()) else []),
        "[tempsweep]",
        f"t_min = {temp()}",
        f"t_max = {temp()}",
        f"n_temps = {draw(st.integers(1, 100))}",
        f"arrhenius_omega = {_value(draw, 0.1, 1e3)}",
        f"highfreq_omega = {_value(draw, 0.1, 1e4)}",
    ]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config_documents())
def test_config_round_trip(text):
    cfg = config.parse_config(text)
    document = config.serialize_config(cfg)
    again = config.parse_config(document)
    assert again == cfg
    # serialization is a fixed point
    assert config.serialize_config(again) == document


# Partner distances in units of min_spacing: duplicates and either side
# of min_spacing, down to an ulp.
_PARTNER_FACTORS = [0.0, 0.5, 1.0 - 1e-13, 1.0 - 2.0 ** -53, 1.0,
                    1.0 + 2.0 ** -52, 1.0 + 1e-13, 2.0]


@st.composite
def surface_positions(draw):
    """(positions, min_spacing), some pairs near min_spacing."""
    extent = draw(st.floats(1.0, 100.0))
    if draw(st.booleans()):
        # A lattice that keeps the spacing, so the partners decide.
        m = draw(st.integers(1, 5))
        pitch = extent / m
        pts = [((i + 0.5) * pitch, (j + 0.5) * pitch)
               for i in range(m) for j in range(m)]
        spacing = pitch * draw(st.floats(0.01, 0.45))
    else:
        coord = st.one_of(st.floats(0.0, extent),
                          st.sampled_from([0.0, extent]))
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1,
                            max_size=30))
        # About the closest-pair distance of len(pts) random points.
        spacing = extent * draw(st.floats(0.01, 2.0)) / len(pts)
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.sampled_from(pts))
        r = spacing * draw(st.sampled_from(_PARTNER_FACTORS))
        theta = draw(st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi]),
                               st.floats(0.0, 2.0 * math.pi)))
        pts.append((x + r * math.cos(theta), y + r * math.sin(theta)))
    pts = np.clip(np.array(draw(st.permutations(pts))), 0.0, extent)
    return pts, spacing


@settings(max_examples=300, deadline=None, derandomize=True)
@given(surface_positions())
def test_spacing_check_matches_pairwise_table(case):
    # A reach of min_spacing itself suffices for the limit min_spacing^2,
    # as sample_surface's comment argues.  The second surface, reversed
    # and padded with a row of nan in front, pairs with neither.
    pts, spacing = case
    stack = np.full((2, len(pts) + 1, 2), np.nan)
    stack[0, :-1] = pts
    stack[1, 1:] = pts[::-1]
    assert_close_pairs(stack, spacing, spacing ** 2)


# Cells that stress '%.9g': signed zeros, subnormals, the float range's
# ends, non-finite values and integers that need an exponent.
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, -1e-308, 1e308,
                -1.7976931348623157e308, 1e9, 123456789.0, -1234567891.0,
                2.0 ** 53]


@st.composite
def float_tables(draw):
    """(columns, rows as Python lists) of 0-50 rows: 1-8 float columns and,
    at a drawn position, one 'bool' column of Python bools."""
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(0, 50))
    cell = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                     st.integers(-2 ** 60, 2 ** 60).map(float))
    values = draw(st.lists(cell, min_size=ncols * nrows,
                           max_size=ncols * nrows))
    flags = draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows))
    at = draw(st.integers(0, ncols))
    columns = [(f"c{i}", "1") for i in range(ncols)]
    columns.insert(at, ("flag", "bool"))
    rows = [values[k * ncols:(k + 1) * ncols] for k in range(nrows)]
    for row, flag in zip(rows, flags):
        row.insert(at, flag)
    return columns, rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(float_tables())
def test_array_rows_render_like_list_rows(table):
    columns, rows = table
    array = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    assert (tables.render_table(columns, array, ["h"])
            == per_cell_table(columns, rows, ["h"]))


_CONVERSIONS = [(convert, a, b)
                for convert, table in ((units.convert_energy,
                                        units.ENERGY_TO_J),
                                       (units.convert_length,
                                        units.LENGTH_TO_M),
                                       (units.convert_dipole,
                                        units.DIPOLE_TO_CM))
                for a, b in itertools.product(table, repeat=2)]


# Unit factors span about 34 decades (J to Hz), so values within 1e±250
# stay clear of overflow and of subnormal precision loss both ways.
@pytest.mark.parametrize("convert,unit,other", _CONVERSIONS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(value=st.one_of(st.just(0.0), st.floats(1e-250, 1e250),
                       st.floats(-1e250, -1e-250)))
def test_unit_round_trip(convert, unit, other, value):
    back = convert(convert(value, unit, other), other, unit)
    assert abs(back - value) <= 4 * math.ulp(value)


# Held here because test_auto_grid_roots_match_scipy_brentq patches
# potential._root with the checker below.
_ROOT = potential._root


def root_like_scipy(f, a, b, xtol, rtol):
    """_root's root x, after checking it against scipy's brentq on the same
    bracket: the two lie within the tolerance xtol + rtol*|x| of each other,
    and f changes sign across x -+ that tolerance, clipped to the bracket."""
    x = _ROOT(f, a, b, xtol=xtol, rtol=rtol)
    ref = brentq(lambda u: float(f(u)), a, b, xtol=xtol, rtol=rtol)
    tol = xtol + rtol * abs(x)
    assert abs(x - ref) <= tol
    ends = np.clip([x - tol, x + tol], min(a, b), max(a, b))
    assert np.sign(f(ends[0])) != np.sign(f(ends[1]))
    return x


# beta*z0 up to 2830 takes the barrier root to the smallest normal floats
# in z/z0; past ~709.8 U overflows at the top and the 10 U0 root starts
# from exp(beta*z0 (1 - z/z0)) = e^700.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(["Ne-Au", "H-Au"]),
       u0_factor=st.floats(0.3, 3.0), z0_factor=st.floats(0.6, 1.6),
       beta_z0=st.floats(4.5, 2830.0))
def test_auto_grid_roots_match_scipy_brentq(name, u0_factor, z0_factor,
                                            beta_z0):
    base, _ = potential.preset(name)
    z0 = base.z0 * z0_factor
    p = replace(base, U0=base.U0 * u0_factor, z0=z0, beta=beta_z0 / z0)
    with mock.patch.object(potential, "_root",
                           wraps=root_like_scipy) as checked:
        try:
            boundstates.auto_grid(p, 4000)
        except ModelError:
            # a barrier top below the dissociation limit: only the
            # barrier root ran
            pass
    assert checked.call_count >= 1


_SMOOTH = [
    lambda u: np.tanh(3.0 * u),
    lambda u: u ** 3 + 0.1 * u,
    lambda u: np.expm1(u),
    lambda u: np.arctan(5.0 * u) + 0.3 * np.sin(u),
    # values so small that the product of two underflows to 0
    lambda u: 1e-120 * (u ** 3 + 0.1 * u),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(range(len(_SMOOTH))),
       root=st.floats(-5.0, 5.0), left=st.floats(1e-3, 10.0),
       right=st.floats(1e-3, 10.0), flip=st.booleans(),
       log_xtol=st.floats(-16.0, -2.0),
       log_rtol=st.floats(math.log10(4 * np.finfo(float).eps), -3.0))
def test_brentq_matches_scipy_on_smooth_functions(family, root, left, right,
                                                  flip, log_xtol, log_rtol):
    g = _SMOOTH[family]
    a, b = root - left, root + right
    if flip:
        a, b = b, a
    root_like_scipy(lambda x: g(x - root), a, b, xtol=10.0 ** log_xtol,
                    rtol=10.0 ** log_rtol)


@pytest.mark.parametrize("name, z_min, z_max", [
    ("Ne-Au", "0x1.4470c211de27fp-33", "0x1.2f19c048baf98p-27"),
    ("H-Au", "0x1.0a07450fcc97dp-34", "0x1.267d731f0a2bep-28"),
])
def test_auto_grid_bounds_pinned(name, z_min, z_max):
    grid = boundstates.auto_grid(potential.preset(name)[0], 4000)
    assert (grid.z_min.hex(), grid.z_max.hex()) == (z_min, z_max)


def sturm_count(diag, off, x):
    """Eigenvalues of a symmetric tridiagonal matrix below x, from the
    signs of the LDL^T pivots of (T - x)."""
    tiny = np.finfo(float).tiny
    q = diag[0] - x
    count = int(q < 0)
    for i in range(1, len(diag)):
        if q == 0.0:
            q = tiny
        q = (diag[i] - x) - off[i - 1] * off[i - 1] / q
        count += q < 0
    return count


# Wells from about 1 bound level to about 40, on coarse and fine grids.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(["Ne-Au", "H-Au"]),
       log_u0_factor=st.floats(-2.0, 0.5), z0_factor=st.floats(0.6, 1.6),
       beta_z0=st.floats(5.75, 30.0), n_points=st.integers(200, 3000))
def test_level_counts_match_sturm_recurrence(name, log_u0_factor, z0_factor,
                                             beta_z0, n_points):
    base, _ = potential.preset(name)
    z0 = base.z0 * z0_factor
    p = replace(base, U0=base.U0 * 10.0 ** log_u0_factor, z0=z0,
                beta=beta_z0 / z0)
    grid = boundstates.auto_grid(p, n_points)
    diag, off = boundstates._box_hamiltonian(potential.evaluate(p, grid.z),
                                             grid, p.adatom_mass)
    n_bound = sturm_count(diag, off, -boundstates.NEAR_ZERO_FRACTION * p.U0)
    n_negative = sturm_count(diag, off, 0.0)
    # every level below the cut is kept, whatever its tail
    with mock.patch.object(boundstates, "TAIL_BOUND", math.inf):
        if n_bound < 2:
            with pytest.raises(ModelError,
                               match=rf"\({n_bound} bound state\(s\) found"):
                boundstates.solve(p, grid, max_states=10 ** 6)
            return
        s = boundstates.solve(p, grid, max_states=10 ** 6)
    assert s.n_states == n_bound
    assert s.near_zero_discarded == n_negative - n_bound
    # the unit eigenvectors make psi orthonormal under the cell widths
    psi = s.wavefunctions
    gram = (psi * grid.width) @ psi.T
    assert np.abs(gram - np.eye(s.n_states)).max() < 1e-12


@st.composite
def tridiagonals(draw):
    """Symmetric tridiagonal (diag, off): generic, clustered (repeated
    diagonal entries with zero or tiny couplings, so LAPACK splits it into
    blocks) or Wilkinson's W_n^+ (near-degenerate pairs)."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["generic", "clustered", "wilkinson"]))
    if kind == "wilkinson":
        diag = np.abs(np.arange(n) - (n - 1) / 2.0)
        return diag, np.ones(n - 1)
    if kind == "generic":
        values = offs = st.floats(-10.0, 10.0)
    else:
        values = st.sampled_from([-1.0, 0.0, 1e-9, 1.0])
        offs = st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 1.0])
    diag = draw(st.lists(values, min_size=n, max_size=n))
    off = draw(st.lists(offs, min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(off)


# The direct _flapack calls against scipy.linalg, bit for bit: level lists
# by value at a tolerance, and eigenpairs by index.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix=tridiagonals(), x=st.floats(-12.0, 12.0),
       tol=st.sampled_from([0.0, 1e-8, 0.5, 12.0]), data=st.data())
def test_direct_lapack_matches_scipy_tridiagonal(matrix, x, tol, data):
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
    diag, off = matrix
    ours = boundstates._levels_below(diag, off, x, tol)
    theirs = eigvalsh_tridiagonal(diag, off, select="v",
                                  select_range=(-np.inf, x), tol=tol)
    assert ours.tobytes() == theirs.tobytes()
    k = data.draw(st.integers(1, len(diag)))
    ours = boundstates._lowest_pairs(diag, off, k)
    theirs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]


# The same on real wells, with the arrays solve passes.
@pytest.mark.parametrize("n_points", [4000, 16000])
@pytest.mark.parametrize("name", ["Ne-Au", "H-Au"])
def test_solve_lapack_calls_match_scipy_on_real_wells(name, n_points):
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
    p = potential.preset(name)[0]
    calls = []

    def spy(f):
        def record(*args):
            calls.append((f.__name__, args, f(*args)))
            return calls[-1][2]
        return record

    with mock.patch.object(boundstates, "_levels_below",
                           spy(boundstates._levels_below)), \
            mock.patch.object(boundstates, "_lowest_pairs",
                              spy(boundstates._lowest_pairs)):
        boundstates.solve(p, boundstates.auto_grid(p, n_points),
                          max_states=30)
    assert [c[0] for c in calls] == ["_levels_below"] * 2 + ["_lowest_pairs"]
    for _, (diag, off, x, tol), ours in calls[:2]:
        theirs = eigvalsh_tridiagonal(diag, off, select="v",
                                      select_range=(-np.inf, x), tol=tol)
        assert ours.tobytes() == theirs.tobytes()
    _, (diag, off, k), ours = calls[2]
    theirs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]
