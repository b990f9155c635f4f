import itertools
import math

import pytest

from adnoise.errors import ConfigurationError
from adnoise.units import (CODATA, convert_dipole, convert_energy,
                           convert_length)

E = CODATA.elementary_charge


def test_one_ev_in_joule():
    assert convert_energy(1.0, "eV", "J") == pytest.approx(
        1.602176634e-19, rel=1e-9, abs=0.0)


def test_two_ev_kelvin_equivalent():
    # k_B T = 2 eV gives T = 2e/k_B = 23209 K.  (A frequently quoted
    # rounding of "about 1.6e4 K" for this well depth is not consistent
    # with E = k_B T; the defining-constant value is asserted here.)
    assert convert_energy(2.0, "eV", "K") == pytest.approx(
        23209.0, rel=1e-4, abs=0.0)


def test_identity_conversion():
    assert convert_energy(3.7, "J", "J") == 3.7
    assert convert_dipole(0.0, "D", "e*a0") == 0.0


def test_length_bohr_to_angstrom():
    assert convert_length(6.05, "a0", "angstrom") == pytest.approx(
        3.2015221, rel=1e-6, abs=0.0)
    assert convert_length(1.0, "angstrom", "m") == pytest.approx(
        1e-10, rel=1e-12, abs=0.0)
    assert convert_length(10.0, "um", "m") == pytest.approx(
        1e-5, rel=1e-12, abs=0.0)


def test_dipole_atomic_unit_in_debye():
    assert convert_dipole(1.0, "e*a0", "D") == pytest.approx(
        2.5417, rel=1e-4, abs=0.0)
    assert convert_dipole(1.0, "D", "C*m") == pytest.approx(
        3.33564e-30, rel=1e-9, abs=0.0)


def test_hertz_equivalent_uses_planck():
    # E = h * nu for ordinary frequency
    assert convert_energy(1e12, "Hz", "J") == pytest.approx(
        2 * math.pi * CODATA.hbar * 1e12, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("value", [1.0, 12e-3, 2.0, 7.3e5])
@pytest.mark.parametrize("a,b", [("eV", "K"), ("meV", "Hz"), ("J", "eV"), ("K", "meV")])
def test_energy_round_trip(value, a, b):
    assert convert_energy(convert_energy(value, a, b), b, a) == pytest.approx(
        value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a,b,c", list(itertools.product(
    ["J", "eV", "meV", "K", "Hz"], repeat=3)))
def test_energy_composition(a, b, c):
    x = 0.8127
    via = convert_energy(convert_energy(x, a, b), b, c)
    direct = convert_energy(x, a, c)
    assert via == pytest.approx(direct, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a,b,c", list(itertools.product(
    ["m", "angstrom", "a0", "um"], repeat=3)))
def test_length_composition(a, b, c):
    x = 5.43
    assert convert_length(convert_length(x, a, b), b, c) == pytest.approx(
        convert_length(x, a, c), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a,b,c", list(itertools.product(
    ["C*m", "D", "e*a0"], repeat=3)))
def test_dipole_composition(a, b, c):
    x = 2.71
    assert convert_dipole(convert_dipole(x, a, b), b, c) == pytest.approx(
        convert_dipole(x, a, c), rel=1e-12, abs=0.0)


def test_unknown_unit_rejected():
    with pytest.raises(ConfigurationError, match="furlong"):
        convert_length(1.0, "furlong", "m")
    with pytest.raises(ConfigurationError):
        convert_energy(1.0, "eV", "erg")
    with pytest.raises(ConfigurationError):
        convert_dipole(1.0, "statC*cm", "D")


def test_constants_positive_and_consistent():
    for value in vars(CODATA).values():
        assert value > 0
    assert CODATA.elementary_charge * CODATA.bohr_radius / CODATA.debye == \
        pytest.approx(2.5417, rel=1e-3, abs=0.0)


def test_aliases_accepted():
    assert convert_length(1.0, "A", "angstrom") == 1.0
    assert convert_dipole(1.0, "Debye", "D") == 1.0
