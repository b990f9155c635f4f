import math

import numpy as np
import pytest

from adnoise import boundstates, phonons, potential
from adnoise.errors import DomainError, ModelError
from adnoise.units import AMU, HBAR, KB

from conftest import two_state_rate_matrix
from oracles import gamma0_harmonic, gth_stationary

TWO_PI = 2 * math.pi


def test_bose_closed_form_point():
    # hbar*domega = kB*T*ln 2  ->  n = 1
    T = 4.2
    domega = KB * T * math.log(2.0) / HBAR
    assert phonons.bose_occupation(domega, T) == pytest.approx(
        1.0, rel=1e-12, abs=0.0)


def test_bose_zero_temperature():
    assert phonons.bose_occupation(1e12, 0.0) == 0.0


def test_bose_classical_limit():
    T = 10.0
    domega = KB * T / (100.0 * HBAR)  # kB T = 100 hbar domega
    n = phonons.bose_occupation(domega, T)
    assert n == pytest.approx(100.0, rel=0.01, abs=0.0)


def test_bose_array_matches_scalar():
    domega = np.array([1e10, 1e12, 1e13, 1e15])  # the last one has x > 700
    for T in (0.0, 0.3, 40.0):
        n = phonons.bose_occupation(domega, T)
        assert n.shape == domega.shape
        assert list(n) == [phonons.bose_occupation(float(d), T) for d in domega]
    assert phonons.bose_occupation(domega, 0.3)[-1] == 0.0


def test_bose_domain():
    with pytest.raises(DomainError):
        phonons.bose_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        phonons.bose_occupation(1e12, -1.0)
    with pytest.raises(DomainError):
        phonons.bose_occupation(np.array([1e12, 0.0]), 1.0)


def test_gamma0_harmonic_values(ne):
    p, mat = ne
    # frozen from the closed form nu^4 m / (4 pi v^3 rho) with gold numbers
    g = gamma0_harmonic(p, mat, TWO_PI * 0.3e12)
    assert g / TWO_PI == pytest.approx(4.4238e6, rel=1e-3, abs=0.0)
    # the quoted 3.31 MHz reference for this system corresponds to a 0.279 THz
    # splitting; the formula at the quoted 0.3 THz stays within a factor
    # of two of it
    assert 0.5 < (g / TWO_PI) / 3.31e6 < 2.0


def test_gamma0_harmonic_quartic_scaling(ne):
    p, mat = ne
    g1 = gamma0_harmonic(p, mat, 1e12)
    g2 = gamma0_harmonic(p, mat, 2e12)
    assert g2 == pytest.approx(16 * g1, rel=1e-12, abs=0.0)


def test_gamma0_harmonic_k_au_magnitude():
    # K mass, gold bulk, 4 THz splitting: the quartic formula gives
    # ~2.7e11 Hz (over 2 pi).  Frozen as a regression value; see the
    # acceptance suite for the conflicting quoted reference.
    k = potential.SurfacePotentialParams(name="K", U0=1.79 * 1.602176634e-19,
                                         z0=2e-10, beta=2.5e10,
                                         adatom_mass=39 * AMU)
    mat = potential.material_preset("Au")
    g = gamma0_harmonic(k, mat, TWO_PI * 4e12)
    assert g / TWO_PI == pytest.approx(2.726e11, rel=1e-3, abs=0.0)


def test_exact_ne_rate_against_reference_scale(ne_states, ne, ne_scales):
    # Exact matrix elements with the exact splitting give 9.17 MHz over
    # 2 pi; the quoted 3.31 MHz reference is reproduced by the harmonic formula
    # only at a 0.279 THz splitting (factor 2.8 below the exact rate).
    _, gamma0 = ne_scales
    assert gamma0 / TWO_PI == pytest.approx(9.17e6, rel=0.02, abs=0.0)
    assert gamma0 / TWO_PI / 3.31e6 < 3.0


def test_upward_rate_vanishes_at_zero_temperature(ne_states, ne, ne_coupling):
    _, mat = ne
    rate, masked = phonons.transition_rate(ne_states, mat, 0, 1, 0.0,
                                           ne_coupling)
    assert rate == 0.0 and not masked


def test_down_up_ratio_is_boltzmann(ne_states, ne, ne_scales, ne_coupling):
    _, mat = ne
    nu10, _ = ne_scales
    T = 2 * HBAR * nu10 / KB
    down, _ = phonons.transition_rate(ne_states, mat, 1, 0, T, ne_coupling)
    up, _ = phonons.transition_rate(ne_states, mat, 0, 1, T, ne_coupling)
    domega = ne_states.splitting(1, 0)
    assert down / up == pytest.approx(math.exp(HBAR * domega / (KB * T)),
                                      rel=1e-10, abs=0.0)


def test_deep_well_rate_matches_harmonic_formula(deep_well, deep_states,
                                                 soft_material):
    # golden-rule rate with exact matrix elements against the closed-form
    # scaling, in the harmonic regime: the derivation chain is consistent
    rate, masked = phonons.transition_rate(
        deep_states, soft_material, 1, 0, 0.0,
        boundstates.coupling_matrix(deep_states))
    assert not masked
    nu_e = deep_states.splitting(1, 0)
    assert rate == pytest.approx(
        gamma0_harmonic(deep_well, soft_material, nu_e), rel=0.05, abs=0.0)


def test_debye_cutoff_masks_fast_transition(deep_states, ne):
    # the deep well's 7.5 THz fundamental exceeds gold's 3.6 THz cutoff
    _, gold = ne
    rate, masked = phonons.transition_rate(
        deep_states, gold, 1, 0, 0.0, boundstates.coupling_matrix(deep_states))
    assert masked and rate == 0.0


def test_transition_rate_rejects_same_state(ne_states, ne, ne_coupling):
    _, mat = ne
    with pytest.raises(DomainError):
        phonons.transition_rate(ne_states, mat, 2, 2, 1.0, ne_coupling)


def test_rate_matrix_structure(ne_states, ne, ne_scales, ne_coupling):
    _, mat = ne
    nu10, _ = ne_scales
    T = 2 * HBAR * nu10 / KB
    r = phonons.build_rate_matrix(ne_states, mat, T, coupling=ne_coupling)
    n = r.n_states
    assert r.gamma.shape == (n, n)
    assert np.all(np.diag(r.gamma) == 0)
    assert np.all(r.gamma >= 0)
    # columns of the generator sum to zero
    assert np.abs(r.generator.sum(axis=0)).max() < 1e-12 * np.abs(r.generator).max()
    # detailed balance pairwise
    E = ne_states.energies
    for i in range(n):
        for f in range(i):
            ratio = r.gamma[i, f] / r.gamma[f, i]
            assert ratio == pytest.approx(
                math.exp((E[i] - E[f]) / (KB * T)), rel=1e-10, abs=0.0)
    assert np.array_equal(r.cutoff_mask, r.cutoff_mask.T)
    assert not r.cutoff_mask.any()  # nothing above 3.6 THz in this ladder


def test_rate_matrix_zero_temperature(ne_states, ne, ne_coupling):
    _, mat = ne
    r = phonons.build_rate_matrix(ne_states, mat, 0.0, coupling=ne_coupling)
    n = r.n_states
    up = np.triu_indices(n, 1)
    assert np.all(r.gamma[up] == 0.0)  # no absorption at T = 0


def test_flux_concentrates_in_fundamental_at_low_temperature(
        ne_states, ne, ne_scales, ne_coupling):
    # At kB T = 0.2 hbar nu10 the stationary flux runs almost entirely
    # through the 0 <-> 1 pair.  (Transitions out of level 1 upward carry
    # about 1% of the total, set by the next Boltzmann factor, so the
    # fundamental holds > 95% rather than all but 1e-6 of the weight.)
    _, mat = ne
    nu10, _ = ne_scales
    T = 0.2 * HBAR * nu10 / KB
    r = phonons.build_rate_matrix(ne_states, mat, T, coupling=ne_coupling)
    p0 = phonons.stationary_distribution(ne_states.energies, T)
    flux = r.gamma * p0[:, None]
    total = flux.sum()
    pair = flux[0, 1] + flux[1, 0]
    assert pair / total > 0.95
    others = flux.copy()
    others[0, 1] = others[1, 0] = 0.0
    assert others.max() / total < 0.05


def test_stationary_is_boltzmann(ne_states, ne, ne_scales, ne_coupling):
    # One stacked call against the null vector the rates give by
    # elimination.
    _, mat = ne
    nu10, _ = ne_scales
    E = ne_states.energies
    temps = np.array([0.2, 0.5, 1.0, 3.0, 6.0]) * HBAR * nu10 / KB
    p0 = phonons.stationary_distribution(E, temps)
    assert p0.shape == (5, ne_states.n_states)
    null = gth_stationary(phonons.build_rate_matrix(ne_states, mat, temps,
                                                    coupling=ne_coupling))
    assert np.max(np.abs(p0 - null) / null) < 1e-10  # componentwise
    assert np.allclose(p0.sum(axis=-1), 1.0, rtol=0, atol=1e-14)
    assert np.all(p0 > 0)


def test_stationary_zero_temperature(ne_states, ne, ne_coupling):
    # every level but the ground state is empty, with no 0/0 warning
    _, mat = ne
    expected = np.zeros(ne_states.n_states)
    expected[0] = 1.0
    p0 = phonons.stationary_distribution(ne_states.energies, [0.0, 1.0])
    assert np.array_equal(p0[0], expected)
    assert np.array_equal(
        phonons.stationary_distribution(ne_states.energies, 0.0), expected)
    r = phonons.build_rate_matrix(ne_states, mat, 0.0, coupling=ne_coupling)
    assert np.allclose(gth_stationary(r), expected, atol=1e-14)


def test_two_state_balance():
    r = two_state_rate_matrix(2e6, 0.5e6)
    p0 = gth_stationary(r)
    assert p0[1] / p0[0] == pytest.approx(0.5e6 / 2e6, rel=1e-12, abs=0.0)


def test_stationary_rejects_degenerate_null_space():
    # two disconnected two-state blocks: the generator has a double zero,
    # and elimination finds no path from state 2 toward lower states
    gamma = np.zeros((4, 4))
    gamma[1, 0] = gamma[0, 1] = 1e6
    gamma[3, 2] = gamma[2, 3] = 2e6
    r = phonons.RateMatrix.from_gamma(gamma, temperature=1.0)
    with pytest.raises(ModelError, match="state 2 has no path toward lower"):
        gth_stationary(r)


def test_masking_preserves_boltzmann(ne_states, ne, ne_scales, ne_coupling):
    # zero both directions of one pair: the stationary state is unchanged
    _, mat = ne
    nu10, _ = ne_scales
    T = 2 * HBAR * nu10 / KB
    r = phonons.build_rate_matrix(ne_states, mat, T, coupling=ne_coupling)
    gamma = r.gamma.copy()
    gamma[0, 2] = gamma[2, 0] = 0.0
    masked = phonons.RateMatrix.from_gamma(gamma, temperature=T)
    p0 = gth_stationary(masked)
    E = ne_states.energies
    b = np.exp(-(E - E[0]) / (KB * T))
    b /= b.sum()
    assert np.max(np.abs(p0 - b) / b) < 1e-10


def test_partial_debye_mask_warns_but_stays_connected(ne_states, ne_coupling,
                                                      caplog):
    # a lowered cutoff masks the wider i <-> i+2 transitions while the
    # adjacent ladder stays intact: warning report, connected graph
    import logging

    soft = potential.BulkMaterial(name="soft-au", speed_of_sound=3962.0,
                                  density=19300.0, debye_frequency=0.5e12)
    with caplog.at_level(logging.WARNING, logger="adnoise.phonons"):
        r = phonons.build_rate_matrix(ne_states, soft, 10.0,
                                      coupling=ne_coupling)
    assert r.cutoff_mask.any()
    assert not r.cutoff_mask[0, 1] and r.cutoff_mask[0, 2]
    assert any("Debye cutoff" in rec.message for rec in caplog.records)


def test_h_au_debye_cutoff_breaks_ergodicity():
    # every vibrational transition of hydrogen on gold sits far above the
    # Debye frequency: the Debye mask disconnects the transition graph
    p, mat = potential.preset("H-Au")
    grid = boundstates.auto_grid(p, 3000)
    s = boundstates.solve(p, grid, max_states=5)
    with pytest.raises(ModelError, match="ergodicity"):
        phonons.build_rate_matrix(s, mat, 10.0, boundstates.coupling_matrix(s))


def test_generator_eigenvalues_nonpositive(ne_states, ne, ne_scales, ne_coupling):
    _, mat = ne
    nu10, _ = ne_scales
    T = 3 * HBAR * nu10 / KB
    r = phonons.build_rate_matrix(ne_states, mat, T, coupling=ne_coupling)
    ev = np.linalg.eigvals(r.generator)
    assert np.max(ev.real) < 1e-6 * np.abs(r.generator).max()
