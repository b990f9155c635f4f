"""Physical constants (CODATA 2018) and unit conversions.

Every physics module computes in SI internally; units are converted only
at input/output boundaries.  Kelvin and hertz equivalents are treated as
first-class energy units (E = k_B*T and E = h*nu respectively) because
surface-physics parameter sets freely mix meV, K and THz.

The module also holds the numerical helpers that both the spectral
chain and the Monte Carlo path use, so that neither imports the other:
the least-squares line _line_fit and the two-rule check _rule_pair_sum.
The Gauss-Legendre builder _gauss_legendre serves only the plane
integral K of trapnoise.  The checked conversion to debye, _in_debye,
serves both the command line and validate.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float                 # J s
    boltzmann: float            # J/K
    elementary_charge: float    # C
    vacuum_permittivity: float  # F/m
    bohr_radius: float          # m
    atomic_mass_unit: float     # kg
    debye: float                # C m


CODATA = PhysicalConstants(
    hbar=1.054571817e-34,
    boltzmann=1.380649e-23,
    elementary_charge=1.602176634e-19,
    vacuum_permittivity=8.8541878128e-12,
    bohr_radius=5.29177210903e-11,
    atomic_mass_unit=1.66053906660e-27,
    debye=3.33564e-30,
)

HBAR = CODATA.hbar
KB = CODATA.boltzmann
E_CHARGE = CODATA.elementary_charge
EPS0 = CODATA.vacuum_permittivity
BOHR = CODATA.bohr_radius
AMU = CODATA.atomic_mass_unit
DEBYE = CODATA.debye
PLANCK = 2.0 * math.pi * HBAR


# Conversion factors to the SI base of each quantity.  Pure data; the
# alias table maps spelling variants onto canonical tags.
ENERGY_TO_J = {
    "J": 1.0,
    "eV": E_CHARGE,
    "meV": 1e-3 * E_CHARGE,
    "K": KB,
    "Hz": PLANCK,
}

LENGTH_TO_M = {
    "m": 1.0,
    "angstrom": 1e-10,
    "a0": BOHR,
    "um": 1e-6,
}

DIPOLE_TO_CM = {
    "C*m": 1.0,
    "D": DEBYE,
    "e*a0": E_CHARGE * BOHR,
}

_ALIASES = {
    "joule": "J",
    "ev": "eV",
    "mev": "meV",
    "kelvin": "K",
    "hz": "Hz",
    "A": "angstrom",
    "Å": "angstrom",
    "Angstrom": "angstrom",
    "bohr": "a0",
    "μm": "um",
    "micron": "um",
    "Cm": "C*m",
    "debye": "D",
    "Debye": "D",
    "ea0": "e*a0",
    "e a0": "e*a0",
}


def unit_factor(table, unit):
    """Factor of unit, or of the tag it is an alias of, in table."""
    try:
        return table[_ALIASES.get(unit, unit)]
    except KeyError:
        raise ConfigurationError(
            f"unknown unit {unit!r}; known: {sorted(table)}") from None


def convert_energy(value, from_unit, to_unit):
    """Convert between J, eV, meV, kelvin-equivalent and hertz-equivalent."""
    return value * unit_factor(ENERGY_TO_J, from_unit) \
        / unit_factor(ENERGY_TO_J, to_unit)


def convert_length(value, from_unit, to_unit):
    """Convert between m, angstrom, a0 (Bohr radii) and um."""
    return value * unit_factor(LENGTH_TO_M, from_unit) \
        / unit_factor(LENGTH_TO_M, to_unit)


def convert_dipole(value, from_unit, to_unit):
    """Convert between C*m, D (debye) and e*a0 (atomic units)."""
    return value * unit_factor(DIPOLE_TO_CM, from_unit) \
        / unit_factor(DIPOLE_TO_CM, to_unit)


def _in_debye(x, what, power=1):
    """x (C m, or C^2 m^2 and per Hz at power 2) in D^power;
    NumericalError past the float range."""
    with np.errstate(over="ignore"):
        x = np.asarray(x) / DEBYE ** power
    if not np.isfinite(x).all():
        unit = "D" if power == 1 else f"D^{power}"
        raise NumericalError(f"{what} in {unit} is past the float range")
    return x


def _line_fit(x, y):
    """Least-squares line y = intercept + slope * x.

    Returns (slope, intercept, residuals, standard error of the slope).
    """
    xm = x - x.mean()
    sxx = np.dot(xm, xm)
    slope = float(np.dot(xm, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    return slope, intercept, resid, float(np.sqrt(resid @ resid / dof / sxx))


@functools.cache
def _gauss_legendre(orders):
    """Nodes u and weights of the Gauss-Legendre rules of the given orders
    on [0, 1], concatenated in that order; built on first use."""
    from numpy.polynomial.legendre import leggauss
    x, w = zip(*(leggauss(n) for n in orders))
    return 0.5 * (np.concatenate(x) + 1.0), 0.5 * np.concatenate(w)


def _rule_pair_sum(terms, orders, rtol, what):
    """The finer of two quadrature sums.

    terms holds the weighted integrand on the orders[0] nodes of the
    coarse rule, then on the orders[1] of the fine one, along its last
    axis.  The two sums must agree to rtol, relative, or it is a
    NumericalError that names both, under the label what.
    """
    n = orders[0]
    coarse, fine = terms[..., :n].sum(), terms[..., n:].sum()
    if not abs(fine - coarse) <= rtol * abs(fine):
        raise NumericalError(
            f"{what}: the {orders[0]}- and {orders[1]}-point rules give "
            f"{coarse:.17g} and {fine:.17g}")
    return float(fine)
