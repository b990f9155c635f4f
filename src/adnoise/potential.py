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
the bound-state grid is clipped there.
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


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f in the bracket [a, b] by Brent's method.

    A port of scipy.optimize.brentq (Brent 1973 as in scipy's brentq.c):
    the same secant, inverse quadratic and bisection steps, the same
    tolerance delta = (xtol + rtol*|x|)/2 and the same function calls, so
    it returns scipy's float bit for bit.  A bracket without a sign
    change, a NaN value of f or no convergence within maxiter iterations
    raises NumericalError.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(
                f"root bracket [{a!r}, {b!r}]: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericalError(
            f"root bracket [{a!r}, {b!r}] holds no sign change "
            f"(f = {fpre:.6g}, {fcur:.6g})")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C division gives inf or nan here; either way it bisects.
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NumericalError(
        f"root bracket [{a!r}, {b!r}]: no convergence after {maxiter} "
        f"iterations (last x = {xcur!r})")


def inner_barrier(p: SurfacePotentialParams):
    """Locate the top of the repulsive wall.

    Returns (z_peak, U_peak).  U' has exactly one root below z0, where
    (z0/z)^4 = exp(bz*(1 - z/z0)); solved by Brent's method on the reduced
    variable x = z/z0 in (0, 4/bz).  The bracket is [1e-12, 4/bz), or
    [0.5, 2]*exp(-bz/4) for walls so steep (bz > ~110.5) that the root
    lies below 1e-12; DomainError if 0.5*exp(-bz/4) is not a normal float
    (bz > ~2830).  Where exp(bz*(1 - z/z0)) overflows at the top (bz >
    ~709.8) U_peak is inf: the barrier is above every float energy.
    """
    bz = p.beta_z0

    def g(x):
        return -4.0 * math.log(x) - bz * (1.0 - x)

    lo, hi, xtol = 1e-12, 4.0 / bz * (1.0 - 1e-12), 1e-15
    if g(lo) <= 0:
        # Below x = 1e-12, bz*x is negligible and the root sits at
        # exp(-bz/4) to within a factor 1 + bz*x/4: g(lo) = 4 ln 2 + bz*lo
        # > 0 and g(4 lo) = -4 ln 2 + 4 bz*lo < 0.  The tolerance scales
        # with the root.
        lo = 0.5 * math.exp(-0.25 * bz)
        if lo < sys.float_info.min:
            raise DomainError(
                f"{p.name}: beta*z0 = {bz:.6g} is too steep; the inner "
                "barrier top lies below the smallest normal float in z/z0")
        hi, xtol = 4.0 * lo, 1e-14 * lo
    x_pk = _brentq(g, lo, hi, xtol=xtol, rtol=1e-14)
    z_pk = x_pk * p.z0
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
