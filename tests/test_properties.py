"""Property tests over random level sets, rate chains, dipole ladders and
configuration documents.

In the spectral test, energies are drawn in units of kT over forty
e-folds, so the excited populations reach down to ~1e-17: deep in the
regime where the dipole statistics must be centered to survive round-off.
"""

import math

import numpy as np
import pytest
from adnoise import boundstates, config, dipoles, phonons, potential, spectrum
from adnoise.units import HBAR, KB
from hypothesis import assume, given, settings
from hypothesis import strategies as st


@st.composite
def detailed_balance_chains(draw):
    """(rate matrix, energies / kT, dipole ladder) with Boltzmann ratios."""
    n = draw(st.integers(2, 8))
    energies = np.array(sorted(draw(st.lists(
        st.floats(0.0, 40.0), min_size=n, max_size=n, unique=True))))
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
    ladder = dipoles.DipoleLadder(mu=mu, image_factor=1.0,
                                  polarizability=1e-30)
    return phonons.RateMatrix.from_gamma(gamma, temperature=1.0), energies, \
        ladder


@settings(max_examples=200, deadline=None, derandomize=True)
@given(detailed_balance_chains())
def test_spectral_invariants(chain):
    r, energies, ladder = chain
    p0 = phonons.stationary_distribution(r)
    boltzmann = np.exp(-(energies - energies[0]))
    boltzmann /= boltzmann.sum()
    assert np.allclose(p0, boltzmann, rtol=1e-10, atol=0)

    spec = spectrum.correlation_modes(r, p0, ladder)
    mu, n = ladder.mu, len(ladder)
    pairwise = 0.5 * math.fsum(p0[i] * p0[j] * (mu[i] - mu[j]) ** 2
                               for i in range(n) for j in range(n))
    assert spec.weights.min() >= -1e-12 * spec.variance
    assert abs(spec.weights.sum() - pairwise) <= 1e-8 * pairwise

    om = np.concatenate([[0.0], np.logspace(-3, 3, 13) * spec.lambdas.min(),
                         np.logspace(0, 3, 7) * spec.lambdas.max()])
    s_res = spectrum.spectrum_via_resolvent(r, p0, ladder, om)
    s_mod = spectrum.evaluate_spectrum(spec, om)
    assert np.max(np.abs(s_res - s_mod) / s_mod) <= 1e-9


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
    assert config.parse_config(config.serialize_config(cfg)) == cfg
