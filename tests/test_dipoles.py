import numpy as np
import pytest

from adnoise import dipoles
from adnoise.errors import DomainError
from adnoise.units import BOHR, DEBYE, E_CHARGE


def test_hydrogen_coefficient_consistency():
    # 0.47 * 4.5^(3/2) should land within 0.3% of the hydrogen value 4.5
    # (in units of e a0^5 / z^4).
    coeff = dipoles.INDUCED_DIPOLE_COEFFICIENT * 4.5 ** 1.5
    assert abs(coeff - 4.5) / 4.5 < 0.003
    p = dipoles.induced_dipole(4.5 * BOHR ** 3, 2 * BOHR)
    assert p == pytest.approx(coeff * E_CHARGE * BOHR ** 5 / (2 * BOHR) ** 4,
                              rel=1e-12, abs=0.0)


def test_inverse_fourth_power():
    alpha = 0.36e-30
    z = 3e-10
    assert dipoles.induced_dipole(alpha, 2 * z) == pytest.approx(
        dipoles.induced_dipole(alpha, z) / 16.0, rel=1e-12, abs=0.0)


def test_ne_point_value(ne):
    p, _ = ne
    val = dipoles.induced_dipole(p.polarizability, p.z0) / DEBYE
    assert val == pytest.approx(3.4e-3, rel=0.02, abs=0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        dipoles.induced_dipole(0.36e-30, 0.0)
    with pytest.raises(DomainError):
        dipoles.induced_dipole(-1e-30, 1e-10)


def test_ne_ground_state_average(ne_ladder):
    # vibrational averaging over the ground state; the quoted value for
    # this system is 0.005 D with generous tolerance
    mu0 = ne_ladder[0] / DEBYE
    assert 0.0025 <= mu0 <= 0.0075


def test_ladder_positive_and_sized(ne_states, ne_ladder):
    assert len(ne_ladder) == ne_states.n_states
    assert np.all(ne_ladder > 0)


def test_ladder_monotonic_decreasing(ne_ladder):
    # Higher states live at larger z where the z^-4 kernel is weaker;
    # observed (not assumed): the ladder decreases monotonically.
    assert ne_ladder[0] == ne_ladder.max()
    assert np.all(np.diff(ne_ladder) < 0)


def test_image_factor_linearity(ne_states, ne):
    p, _ = ne
    single = dipoles.dipole_ladder(ne_states, p.polarizability, image_factor=1.0)
    double = dipoles.dipole_ladder(ne_states, p.polarizability, image_factor=2.0)
    assert np.allclose(double, 2.0 * single, rtol=1e-12)


def test_polarizability_scaling_three_halves(ne_states, ne):
    p, _ = ne
    base = dipoles.dipole_ladder(ne_states, p.polarizability, 1.0)
    scaled = dipoles.dipole_ladder(ne_states, 4.0 * p.polarizability, 1.0)
    assert np.allclose(scaled, 8.0 * base, rtol=1e-12)


def test_alpha_to_zero_limit(ne_states, ne):
    p, _ = ne
    tiny = dipoles.dipole_ladder(ne_states, 1e-12 * p.polarizability, 1.0)
    assert np.all(tiny < 1e-15 * DEBYE)


def test_integrand_peaks_inside_grid(ne_states, ne):
    # the z^-4 kernel is integrable because the states die inside the wall
    p, _ = ne
    z = ne_states.nodes
    kernel = dipoles.induced_dipole(p.polarizability, z)
    for psi in ne_states.wavefunctions:
        assert np.argmax(psi ** 2 * kernel) > 0


def test_vibrational_average_near_point_value(ne, ne_ladder):
    # two competing corrections of a few percent: z^-4 convexity raises
    # the average, the anharmonic outward shift lowers it
    p, _ = ne
    point = dipoles.induced_dipole(p.polarizability, p.z0)
    assert 0.8 * point < ne_ladder[0] < 1.25 * point
