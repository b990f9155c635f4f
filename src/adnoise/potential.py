"""Exp-3 model potential for an atom bound above a metal surface.

U(z) combines an exponential repulsive wall of reciprocal range beta with
a van der Waals attraction that goes to -C3/z^3 at large z::

    U(z) = bz/(bz - 3) * U0 * [ 3/bz * exp(bz*(1 - z/z0)) - (z0/z)^3 ]

with bz = beta*z0.  The well minimum sits at z0 with depth -U0, and
C3 = beta*z0^4*U0/(beta*z0 - 3).  The level structure comes from the
`boundstates` module.

Note the cubic attraction always wins over the (finite) exponential as
z -> 0, so U dives to -infinity at the origin.  The physically meaningful
region is outside the inner barrier top; `inner_barrier` locates it and
the bound-state grid is clipped there.  `_root`, a vectorised bracketing
search, finds the barrier top and both edges of that grid.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .units import AMU, BOHR, E_CHARGE

GOLD_MASS_AMU = 196.966569


@dataclass(frozen=True)
class SurfacePotentialParams:
    """One adsorption system: well parameters plus adatom properties.

    polarizability (m^3) is only needed for induced-dipole calculations
    and may be None.  beta may be None for systems where no repulsion
    range is available; every potential evaluation then refuses to run.
    """

    name: str
    U0: float             # J, well depth (> 0)
    z0: float             # m, equilibrium distance
    beta: float | None    # 1/m, reciprocal range of repulsion
    adatom_mass: float    # kg
    polarizability: float | None = None  # m^3

    def __post_init__(self):
        if self.U0 <= 0:
            raise ConfigurationError(f"{self.name}: U0 must be positive")
        if self.z0 <= 0:
            raise ConfigurationError(f"{self.name}: z0 must be positive")
        if self.adatom_mass <= 0:
            raise ConfigurationError(f"{self.name}: adatom_mass must be positive")
        if self.beta is not None:
            if self.beta <= 0:
                raise ConfigurationError(f"{self.name}: beta must be positive")
            if self.beta * self.z0 <= 4.0:
                raise ConfigurationError(
                    f"{self.name}: beta*z0 = {self.beta * self.z0:.3f} <= 4; "
                    "the well shape is unphysical and the harmonic frequency "
                    "undefined")

    @property
    def beta_z0(self):
        if self.beta is None:
            raise ConfigurationError(
                f"{self.name}: beta is not set for this system; supply the "
                "repulsion range explicitly")
        return self.beta * self.z0


@dataclass(frozen=True)
class BulkMaterial:
    """Acoustic properties of the electrode bulk."""

    name: str
    speed_of_sound: float    # m/s, polarization-averaged
    density: float           # kg/m^3
    debye_frequency: float   # Hz, ordinary frequency

    def __post_init__(self):
        for field in ("speed_of_sound", "density", "debye_frequency"):
            if getattr(self, field) <= 0:
                raise ConfigurationError(f"{self.name}: {field} must be positive")


def _check_z(z):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("z must be strictly positive")
    return z


def evaluate(p: SurfacePotentialParams, z):
    """Potential energy U(z) in J; z in m (scalar or array)."""
    z = _check_z(z)
    bz = p.beta_z0
    amp = bz / (bz - 3.0) * p.U0
    out = amp * ((3.0 / bz) * np.exp(bz * (1.0 - z / p.z0)) - (p.z0 / z) ** 3)
    return out if out.ndim else float(out)


def derivative(p: SurfacePotentialParams, z):
    """Analytic dU/dz in J/m; z in m (scalar or array)."""
    z = _check_z(z)
    bz = p.beta_z0
    amp = bz / (bz - 3.0) * p.U0
    out = 3.0 * amp * (p.z0 ** 3 / z ** 4
                       - np.exp(bz * (1.0 - z / p.z0)) / p.z0)
    return out if out.ndim else float(out)


def c3(p: SurfacePotentialParams):
    """Long-range van der Waals coefficient, J m^3."""
    return p.beta * p.z0 ** 4 * p.U0 / (p.beta_z0 - 3.0)


_ROOT_POINTS = 48


def _root(f, lo, hi, xtol, rtol):
    """Root of the vectorised f in the bracket [lo, hi].

    Each round evaluates f once, on _ROOT_POINTS points evenly across the
    bracket, and keeps the first cell whose ends differ in the sign of f
    (zero counts as a sign), until the cell is within xtol + rtol*|x| of
    its midpoint x, the root.  No sign change or a NaN value of f is a
    NumericalError.  The loop ends for xtol > 0 and rtol >= DBL_EPSILON: a
    cell with a float strictly inside gets a sample there, so each round
    shrinks it until its ends are adjacent floats, which pass the test.
    """
    bracket = f"root bracket [{lo!r}, {hi!r}]"
    while True:
        x = np.linspace(lo, hi, _ROOT_POINTS)
        y = f(x)
        if np.isnan(y).any():
            raise NumericalError(f"{bracket}: f is NaN")
        cells = np.flatnonzero(np.sign(y[:-1]) != np.sign(y[1:]))
        if not cells.size:
            raise NumericalError(f"{bracket} holds no sign change "
                                 f"(f = {y[0]:.6g}, {y[-1]:.6g})")
        lo, hi = x[cells[0]], x[cells[0] + 1]
        if abs(hi - lo) <= xtol + rtol * abs(lo + hi) / 2:
            return float(lo + hi) / 2


def inner_barrier(p: SurfacePotentialParams):
    """Locate the top of the repulsive wall.

    Returns (z_peak, U_peak).  U' has exactly one root below z0, where
    (z0/z)^4 = exp(bz*(1 - z/z0)): in t = ln(z/z0), the root of
    g(t) = -4t - bz*(1 - e^t) below its minimum at ln(4/bz).  One bracket,
    [ln DBL_MIN, ln(4/bz*(1 - 1e-12))], holds it for every wall up to
    bz = -4 ln DBL_MIN ~ 2833.6; a steeper top lies below the smallest
    normal float in z/z0, a DomainError.  Where U overflows at the top
    (past bz ~ 709.8, or for a huge U0) U_peak is inf: the barrier is
    above every float energy.
    """
    bz = p.beta_z0

    def g(t):
        return -4.0 * t - bz * (1.0 - np.exp(t))

    lo = math.log(sys.float_info.min)
    if not g(lo) > 0:
        raise DomainError(
            f"{p.name}: beta*z0 = {bz:.6g} is too steep; the inner "
            "barrier top lies below the smallest normal float in z/z0")
    z_pk = p.z0 * math.exp(_root(g, lo, math.log(4.0 / bz * (1.0 - 1e-12)),
                                 xtol=1e-15, rtol=1e-14))
    with np.errstate(over="ignore", invalid="ignore"):
        u_pk = evaluate(p, z_pk)
    return z_pk, u_pk if math.isfinite(u_pk) else math.inf


def reduced_mass(p: SurfacePotentialParams, host_mass_amu=GOLD_MASS_AMU):
    """Replace the adatom mass with the adatom-host reduced mass."""
    m_host = host_mass_amu * AMU
    mu = p.adatom_mass * m_host / (p.adatom_mass + m_host)
    return replace(p, adatom_mass=mu)


# Parameter sets for the adsorption systems used throughout.  The Ne well
# uses the values the level-structure figures are computed from; an older
# tabulation (z0 = 3.1 angstrom, beta = 1.86 1/angstrom) is listed in the
# README for reference.  K has a tabulated depth and position but no
# repulsion range, so beta (and polarizability) must be user-supplied.
_PRESETS = {
    "H-Au": dict(U0=2.0 * E_CHARGE, z0=1.6e-10, beta=3.91e10,
                 adatom_mass=1.0 * AMU, polarizability=4.5 * BOHR ** 3),
    "Ne-Au": dict(U0=12e-3 * E_CHARGE, z0=6.05 * BOHR, beta=0.95 / BOHR,
                  adatom_mass=20.0 * AMU, polarizability=0.36e-30),
    "K-surface": dict(U0=1.79 * E_CHARGE, z0=2.0e-10, beta=None,
                      adatom_mass=39.0 * AMU, polarizability=None),
}

_MATERIALS = {
    "Au": dict(speed_of_sound=3962.0, density=19300.0, debye_frequency=3.6e12),
}


def preset(name: str):
    """Named (SurfacePotentialParams, BulkMaterial) pair.

    Known systems: "H-Au", "Ne-Au", "K-surface"; the electrode material is
    gold in all cases.
    """
    try:
        kw = _PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; known: {sorted(_PRESETS)}") from None
    params = SurfacePotentialParams(name=name, **kw)
    return params, material_preset("Au")


def material_preset(name: str):
    try:
        kw = _MATERIALS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown material {name!r}; known: {sorted(_MATERIALS)}") from None
    return BulkMaterial(name=name, **kw)
