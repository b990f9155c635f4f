"""Property tests over random detailed-balance chains and dipole ladders.

Energies are drawn in units of kT over forty e-folds, so the excited
populations reach down to ~1e-17: deep in the regime where the dipole
statistics must be centered to survive round-off.
"""

import math

import numpy as np
from adnoise import dipoles, phonons, spectrum
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
