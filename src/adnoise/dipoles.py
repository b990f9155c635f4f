"""Induced dipole moment of an adatom near a conductor.

An atom of polarizability alpha at height z above the image plane carries

    P(z) = 0.47 e a0^(1/2) alpha^(3/2) / z^4,

which for hydrogen (alpha = 4.5 a0^3) reduces to ~4.49 e a0^5 / z^4.  The
vibrational average over bound state |i> gives the dipole ladder
mu_i = <i| P(z) |i> that drives the fluctuation spectrum.  Image charges
double the dipole seen by the atom itself; that factor is NOT applied by
default and is exposed as image_factor.
"""

from dataclasses import dataclass

import numpy as np

from . import boundstates
from .boundstates import _trapz
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
           * alpha ** 1.5 / z ** 4)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DipoleLadder:
    """Vibrationally averaged dipole moments, one per bound state (C m)."""

    mu: np.ndarray
    image_factor: float
    polarizability: float

    def __len__(self):
        return len(self.mu)


def dipole_ladder(states: boundstates.BoundStateSet, alpha,
                  image_factor: float = 1.0) -> DipoleLadder:
    """mu_i = image_factor * <i| P(z) |i> for every bound state.

    The z^-4 kernel is integrable against |psi_i|^2 because the states
    vanish exponentially inside the repulsive wall; as a guard, the
    integrand maximum must sit strictly inside the grid.
    """
    if alpha <= 0:
        raise DomainError("polarizability must be positive")
    z = states.grid.z()
    kernel = induced_dipole(alpha, z)
    mu = np.empty(states.n_states)
    for i, psi in enumerate(states.wavefunctions):
        integrand = psi * kernel * psi
        if np.argmax(integrand) == 0:
            raise NumericalError(
                f"state {i}: dipole integrand peaks at the grid edge; the "
                "wall region is not resolved")
        mu[i] = image_factor * float(_trapz(integrand, dx=states.grid.h))
    return DipoleLadder(mu=mu, image_factor=image_factor, polarizability=alpha)
