"""Induced dipole moment of an adatom near a conductor.

An atom of polarizability alpha at height z above the image plane carries

    P(z) = 0.47 e a0^(1/2) alpha^(3/2) / z^4,

which for hydrogen (alpha = 4.5 a0^3) reduces to ~4.49 e a0^5 / z^4.  The
vibrational average over bound state |i> gives the dipole ladder
mu_i = <i| P(z) |i> that drives the fluctuation spectrum, a plain array
with one entry per bound state.  Image charges double the dipole seen by
the atom itself; that factor is the image_factor argument of
dipole_ladder, which [spectrum] image_factor sets.
"""

import numpy as np

from . import boundstates
from .errors import DomainError, NumericalError
from .units import BOHR, E_CHARGE

INDUCED_DIPOLE_COEFFICIENT = 0.47


def induced_dipole(alpha, z):
    """P(z) in C m for polarizability alpha (m^3) at height z (m)."""
    if alpha <= 0:
        raise DomainError("polarizability must be positive")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("z must be strictly positive")
    out = (INDUCED_DIPOLE_COEFFICIENT * E_CHARGE * np.sqrt(BOHR)
           * np.float64(alpha) ** 1.5 / z ** 4)
    return out if out.ndim else float(out)


def dipole_ladder(states: boundstates.BoundStateSet, alpha,
                  image_factor: float) -> np.ndarray:
    """The array mu_i = image_factor * <i| P(z) |i> (C m), one per state.

    The z^-4 kernel is integrable against |psi_i|^2 because the states
    vanish exponentially inside the repulsive wall; as a guard, the
    integrand maximum must sit strictly inside the grid.
    """
    psi = states.wavefunctions
    # alpha^1.5, P(z) or the integrand overflow from about 1e190 m^3.
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = psi * induced_dipole(alpha, states.grid.z) * psi
    if not np.isfinite(integrand).all():
        raise NumericalError("potential.polarizability: the dipole integrand "
                             "|psi|^2 P(z) leaves the float range")
    at_edge = np.flatnonzero(np.argmax(integrand, axis=1) == 0)
    if len(at_edge):
        raise NumericalError(
            f"state {at_edge[0]}: dipole integrand peaks at the grid edge; "
            "the wall region is not resolved")
    return image_factor * np.sum(integrand * states.grid.width, axis=1)
