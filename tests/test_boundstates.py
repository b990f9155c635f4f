import math

import numpy as np
import pytest

from adnoise import boundstates, potential
from adnoise.errors import ConfigurationError, GridError, ModelError, NumericalError
from adnoise.units import AMU, E_CHARGE, HBAR


def test_auto_grid_bounds(ne):
    p, _ = ne
    g = boundstates.auto_grid(p)
    assert 0 < g.z_min < p.z0 < g.z_max
    assert g.z_max >= 6 * p.z0
    assert abs(potential.evaluate(p, g.z_max)) <= 1.0001e-4 * p.U0
    # shallow well: the inner edge sits at the barrier top, not at 10 U0
    z_pk, u_pk = potential.inner_barrier(p)
    assert u_pk < 10 * p.U0
    assert g.z_min == pytest.approx(z_pk, rel=1e-9)


def test_auto_grid_wall_rule_for_steep_well(deep_well):
    g = boundstates.auto_grid(deep_well)
    assert potential.evaluate(deep_well, g.z_min) == pytest.approx(
        10 * deep_well.U0, rel=1e-9)


def test_auto_grid_independent_of_resolution(ne):
    p, _ = ne
    g1 = boundstates.auto_grid(p, 4000)
    g2 = boundstates.auto_grid(p, 8000)
    assert g1.z_min == g2.z_min and g1.z_max == g2.z_max
    assert g2.n_points == 8000


def test_auto_grid_h_au():
    p, _ = potential.preset("H-Au")
    g = boundstates.auto_grid(p)
    assert g.z_max >= 6 * 1.6e-10


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        boundstates.Grid(z_min=0.0, z_max=1e-9, n_points=500)
    with pytest.raises(ConfigurationError):
        boundstates.Grid(z_min=1e-10, z_max=1e-9, n_points=100)


def test_ne_splitting_in_expected_range(ne_states):
    nu = ne_states.splitting(1, 0) / (2 * math.pi)
    assert 0.2e12 <= nu <= 0.45e12


def test_energies_negative_ascending_above_well_bottom(ne_states_full):
    s = ne_states_full
    e = s.energies
    assert np.all(e < 0)
    assert np.all(np.diff(e) > 0)
    assert e[0] > -s.params.U0
    # continuum guard
    assert np.all(e < -1e-3 * s.params.U0)


def test_orthonormality(ne_states_full):
    s = ne_states_full
    h = s.grid.h
    psi = s.wavefunctions
    gram = (psi * h) @ psi.T
    gram[np.diag_indices_from(gram)] -= 0.5 * h * (psi[:, 0] ** 2 + psi[:, -1] ** 2)
    # off-diagonals need the same endpoint correction
    corr = 0.5 * h * (np.outer(psi[:, 0], psi[:, 0])
                      + np.outer(psi[:, -1], psi[:, -1]))
    np.fill_diagonal(corr, 0.0)
    gram -= corr
    assert np.abs(gram - np.eye(s.n_states)).max() < 1e-8


def test_tail_condition(ne_states_full):
    s = ne_states_full
    tails = s.wavefunctions[:, -1] ** 2 * s.grid.h
    assert tails.max() < 1e-10


def test_sign_convention(ne_states_full):
    # first antinode from the wall is positive for every state
    for psi in ne_states_full.wavefunctions:
        a = np.abs(psi)
        k = np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])
                           & (a[1:-1] > 0.05 * a.max()))[0] + 1
        assert psi[k] > 0


def test_state_count_vs_estimate(ne, ne_states_full):
    # The closed-form estimate counts the strongly bound, harmonically
    # spaced levels; the full exp-3 well additionally supports a band of
    # shallow tail states, so the uncapped count exceeds the estimate.
    p, _ = ne
    estimate = potential.bound_state_count_estimate(p)
    assert ne_states_full.n_states >= estimate
    # capped at the pipeline default the count matches the estimate band
    grid = boundstates.auto_grid(p, 3000)
    s5 = boundstates.solve(p, grid, max_states=5)
    assert estimate - 3 <= s5.n_states <= estimate + 3


def test_near_zero_diagnostics(ne_states_full):
    assert ne_states_full.near_zero_discarded >= 0


@pytest.mark.parametrize("system", ["Ne-Au", "H-Au", "K-user-beta"])
def test_eigenvalue_convergence_on_doubling(system):
    # O(h^2) discretization: at 16k points a further doubling moves every
    # kept level by less than 1e-4 relative.  K ships without a repulsion
    # range, so a representative user-supplied value is used here.
    if system == "K-user-beta":
        base, _ = potential.preset("K-surface")
        p = potential.SurfacePotentialParams(
            name="K-user", U0=base.U0, z0=base.z0, beta=4.0e10,
            adatom_mass=base.adatom_mass)
    else:
        p, _ = potential.preset(system)
    e1 = boundstates.solve(p, boundstates.auto_grid(p, 16000), max_states=5).energies
    e2 = boundstates.solve(p, boundstates.auto_grid(p, 32000), max_states=5).energies
    assert np.max(np.abs(e1 - e2) / np.abs(e2)) < 1e-4


def test_ground_state_error_shrinks_factor_four(ne):
    # O(h^2) scheme: each doubling cuts the ground-state error by ~4.
    p, _ = ne
    e = [boundstates.solve(p, boundstates.auto_grid(p, n), max_states=3).energies[0]
         for n in (2000, 4000, 8000, 16000)]
    d1, d2, d3 = abs(e[1] - e[0]), abs(e[2] - e[1]), abs(e[3] - e[2])
    assert d2 < d1 / 3.5
    assert d3 < d2 / 3.5


def test_deep_well_matches_harmonic_oracle(deep_well, deep_states):
    # beta*z0 = 60 and several hundred bound levels: the fundamental
    # splitting approaches the curvature result.
    nu_h = potential.harmonic_frequency(deep_well)
    nu_e = deep_states.splitting(1, 0)
    assert abs(nu_e - nu_h) / nu_h < 0.01


def test_deep_well_matrix_element_identity(deep_well, deep_states):
    # |<1|dU/dz|0>|^2 -> m nu^3 hbar / 2 in the harmonic limit
    nu_e = deep_states.splitting(1, 0)
    m01 = boundstates.coupling_matrix(deep_states)[0, 1]
    harmonic = deep_well.adatom_mass * nu_e ** 3 * HBAR / 2
    assert m01 ** 2 == pytest.approx(harmonic, rel=0.05)


def test_deep_well_position_expectation(deep_well, deep_states):
    z00 = boundstates.grid_matrix(deep_states, deep_states.grid.z())[0, 0]
    assert z00 == pytest.approx(deep_well.z0, rel=0.01)


def test_matrix_element_symmetry(ne_states):
    c = boundstates.coupling_matrix(ne_states)
    assert c[0, 2] == c[2, 0]
    assert np.array_equal(c, c.T)


def test_matrix_element_commutator_identity(ne_states):
    # <f|dU/dz|i> = m omega_fi^2 <f|z|i> holds for exact eigenstates and
    # pins down both the eigensolver and the quadrature.
    s = ne_states
    m = s.params.adatom_mass
    dudz = boundstates.coupling_matrix(s)
    z = boundstates.grid_matrix(s, s.grid.z())
    for i, f in [(0, 1), (1, 2), (0, 3)]:
        omega = s.splitting(i, f)
        assert abs(dudz[f, i]) == pytest.approx(abs(m * omega ** 2 * z[f, i]),
                                                rel=2e-3)


def test_matrix_element_grid_convergence(ne):
    p, _ = ne
    m1, m2 = (boundstates.coupling_matrix(boundstates.solve(
        p, boundstates.auto_grid(p, n), max_states=3))[0, 1]
        for n in (4000, 8000))
    assert abs(m1 - m2) / abs(m2) < 1e-3


def test_coupling_matrix_consistent(ne, ne_states):
    # Against the textbook composite trapezoid rule, pair by pair.
    c = boundstates.coupling_matrix(ne_states)
    du = potential.derivative(ne[0], ne_states.grid.z())
    for i, f in [(0, 1), (2, 4), (3, 3)]:
        y = ne_states.wavefunctions[f] * du * ne_states.wavefunctions[i]
        trapezoid = 0.5 * ne_states.grid.h * np.sum(y[1:] + y[:-1])
        assert c[i, f] == pytest.approx(trapezoid, rel=1e-12)


def test_grid_matrix_normalization_orthogonality(ne_states):
    gram = boundstates.grid_matrix(ne_states, np.ones(ne_states.grid.n_points))
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert gram[0, 1] == pytest.approx(0.0, abs=1e-8)
    assert np.abs(gram - np.eye(ne_states.n_states)).max() < 1e-8


def test_grid_matrix_rejects_non_finite(ne_states):
    z = ne_states.grid.z()
    with pytest.raises(NumericalError):
        boundstates.grid_matrix(ne_states, np.where(z > z[0], 1.0, np.inf))
    with pytest.raises(NumericalError):
        boundstates.grid_matrix(ne_states, np.where(z > z[0], 1.0, np.nan))


def test_too_shallow_potential_raises_model_error():
    p = potential.SurfacePotentialParams(
        name="shallow", U0=1e-6 * E_CHARGE, z0=4e-10, beta=1.5e10,
        adatom_mass=1 * AMU)
    grid = boundstates.auto_grid(p, 1200)
    with pytest.raises(ModelError, match="too shallow"):
        boundstates.solve(p, grid)


def test_undersized_grid_fails_tail_condition(ne):
    p, _ = ne
    auto = boundstates.auto_grid(p, 2000)
    small = boundstates.Grid(z_min=auto.z_min, z_max=3.2 * p.z0, n_points=2000)
    with pytest.raises((GridError, ModelError)):
        boundstates.solve(p, small, max_states=12)


def test_max_states_validation(ne, ne_states):
    p, _ = ne
    with pytest.raises(ConfigurationError):
        boundstates.solve(p, ne_states.grid, max_states=1)
