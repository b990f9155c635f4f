"""Electric-field noise at the ion from fluctuating surface dipoles.

Uncorrelated vertical dipoles at area density sigma add in power, so the
field noise at height d above the plane is S_mu times a purely geometric
transfer.  Two transfers are provided on purpose:

* analytic_field_noise uses the conventional surface-averaged form
  S_E = (3/8) sigma S_mu / ((4 pi eps0)^2 d^4);
* kernel_integral_constant computes the same plane integral from the bare
  point-dipole kernel, which gives K = 3 pi / 4 = 2 pi * (3/8).

The factor-2pi discrepancy reflects a spectral-convention choice upstream
of the 3/8; both constants are reported side by side and the Monte Carlo
consistency checks use the kernel-derived K.

The Monte Carlo path samples dipole positions with a minimum spacing d0,
sums |E_z|^2 per dipole and reproduces the d^-4 distance scaling of the
seed-averaged noise inside the window 3 d0 <= d <= extent/10.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad

from .errors import (AnalysisError, ConfigurationError, DomainError,
                     NumericalError, PackingError)
from .units import EPS0, HBAR

FOUR_PI_EPS0 = 4.0 * math.pi * EPS0
SURFACE_AVERAGE_CONSTANT = 3.0 / 8.0
MAX_CONSECUTIVE_REJECTS = 1_000_000


@dataclass(frozen=True)
class TrapConfig:
    """Ion trap geometry and the mode the noise couples to."""

    distance: float        # m, ion height above the electrode
    trap_frequency: float  # rad/s
    ion_mass: float        # kg
    charge: float          # C
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.distance <= 0:
            raise ConfigurationError("trap distance must be positive")
        if self.trap_frequency <= 0:
            raise ConfigurationError("trap frequency must be positive")
        if self.ion_mass <= 0 or self.charge == 0:
            raise ConfigurationError("ion mass and charge must be set")
        norm = math.sqrt(sum(a * a for a in self.axis))
        if abs(norm - 1.0) > 1e-12:
            raise ConfigurationError("trap axis must be a unit vector")


@dataclass(frozen=True)
class SurfaceSample:
    """Random dipole positions on the electrode plane, minimum spacing d0."""

    positions: np.ndarray  # (n, 2), inside [0, extent]^2
    min_spacing: float
    extent: float
    seed: int
    rejects: int = field(default=0, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.positions, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigurationError("positions must be an (n, 2) array")
        if np.any(pts < 0) or np.any(pts > self.extent):
            raise ConfigurationError("positions must lie inside [0, extent]^2")
        if len(pts) > 1:
            d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
            np.fill_diagonal(d2, np.inf)
            if d2.min() < (self.min_spacing * (1.0 - 1e-12)) ** 2:
                raise ConfigurationError("positions violate the minimum spacing")

    @property
    def n(self):
        return len(self.positions)

    @property
    def density(self):
        return self.n / self.extent ** 2


def dipole_field_kernel(sources, ion):
    """Field (V/m per C m) of unit vertical point dipoles in the plane.

    sources is an (n, 2) array of (x, y) on the electrode; ion is (x, y, z)
    with z > 0.  Returns the (n, 3) bare dipole fields at the ion,
    E = (3 (z_hat . r_hat) r_hat - z_hat) / (4 pi eps0 r^3); any image
    doubling belongs to the dipole ladder, not here.
    """
    ion = np.asarray(ion, dtype=float)
    if ion[2] <= 0:
        raise DomainError("ion must sit strictly above the plane")
    sources = np.asarray(sources, dtype=float)
    rel = np.empty((len(sources), 3))
    rel[:, :2] = ion[:2] - sources
    rel[:, 2] = ion[2]
    dist = np.linalg.norm(rel, axis=1)
    rn = rel / dist[:, None]
    e = 3.0 * rn[:, 2:] * rn
    e[:, 2] -= 1.0
    return e / (FOUR_PI_EPS0 * dist ** 3)[:, None]


def analytic_field_noise(sigma, s_mu, d):
    """Surface-averaged transfer with the conventional 3/8 constant."""
    if sigma <= 0 or d <= 0:
        raise DomainError("sigma and d must be positive")
    if s_mu < 0:
        raise DomainError("s_mu must be non-negative")
    return SURFACE_AVERAGE_CONSTANT * sigma * s_mu / (FOUR_PI_EPS0 ** 2 * d ** 4)


def kernel_integral_constant(d=1.0):
    """Dimensionless plane integral of the squared vertical-field kernel.

    K = d^4 (4 pi eps0)^2 int d^2s |E_z(s; d)|^2, evaluated by adaptive
    radial quadrature; independent of d and equal to 3 pi / 4 for the bare
    dipole kernel.
    """
    def integrand(s):
        ez = dipole_field_kernel([(s, 0.0)], (0.0, 0.0, d))[0, 2]
        return 2.0 * math.pi * s * (ez * FOUR_PI_EPS0 * d ** 2) ** 2

    val, err = quad(integrand, 0.0, np.inf, limit=200)
    if err > 1e-8 * abs(val):
        raise NumericalError(
            f"kernel plane integral did not converge (err {err:.2e})")
    return val


def sample_surface(n, extent, min_spacing, seed) -> SurfaceSample:
    """Uniform positions in [0, extent]^2 with an exclusion radius.

    Rejection sampling, deterministic for a given seed.  Feasibility
    requires n pi min_spacing^2 / 4 < extent^2 / 2.
    """
    if n < 1:
        raise ConfigurationError("need at least one dipole")
    if n * math.pi * min_spacing ** 2 / 4.0 >= 0.5 * extent ** 2:
        raise ConfigurationError(
            "packing fraction too high for rejection sampling")
    rng = np.random.default_rng(seed)
    pts = np.empty((n, 2))
    count = 0
    consecutive = 0
    total_rejects = 0
    while count < n:
        cand = rng.uniform(0.0, extent, 2)
        if count:
            d2 = np.sum((pts[:count] - cand) ** 2, axis=1)
            if d2.min() < min_spacing ** 2:
                consecutive += 1
                total_rejects += 1
                if consecutive > MAX_CONSECUTIVE_REJECTS:
                    raise PackingError(
                        f"gave up after {consecutive} consecutive rejections "
                        f"({count}/{n} placed)")
                continue
        pts[count] = cand
        count += 1
        consecutive = 0
    return SurfaceSample(positions=pts, min_spacing=min_spacing,
                         extent=extent, seed=seed, rejects=total_rejects)


def mc_field_noise(sample: SurfaceSample, s_mu, trap: TrapConfig, ion_xy=None):
    """Field noise from one dipole configuration; sources add in power.

    The ion sits at height trap.distance above the sample center unless
    ion_xy overrides the lateral position.
    """
    if ion_xy is None:
        ion_xy = (0.5 * sample.extent, 0.5 * sample.extent)
    ion = (ion_xy[0], ion_xy[1], trap.distance)
    e = dipole_field_kernel(sample.positions, ion)
    proj = e @ np.asarray(trap.axis, dtype=float)
    return float(np.sum(proj ** 2) * s_mu)


@dataclass(frozen=True)
class DistanceScaling:
    """Seed-averaged noise vs distance and its fitted power law."""

    exponent: float
    stderr: float
    distances: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    n_seeds: int


def distance_scaling_fit(sample: SurfaceSample, s_mu, trap: TrapConfig,
                         d_list, n_seeds=50) -> DistanceScaling:
    """Power-law fit of seed-averaged S_E over the valid distance window.

    The window 3 d0 <= d <= extent/10 avoids granularity at small d and
    finite-patch edge effects at large d.  Child samples use seeds
    sample.seed + k, so parallel and serial evaluation agree.
    """
    d_list = np.asarray(d_list, dtype=float)
    lo = 3.0 * sample.min_spacing
    hi = sample.extent / 10.0
    bad = d_list[(d_list < lo) | (d_list > hi)]
    if len(bad):
        raise AnalysisError(
            f"distances {bad} outside the valid window [{lo:.3g}, {hi:.3g}] "
            "(below: dipole granularity dominates; above: the finite patch "
            "acts as a composite source)")
    traps = [replace(trap, distance=d) for d in d_list]
    se = np.empty((n_seeds, len(d_list)))
    for k in range(n_seeds):
        s = sample_surface(sample.n, sample.extent, sample.min_spacing,
                           seed=sample.seed + k)
        for j, trap_d in enumerate(traps):
            se[k, j] = mc_field_noise(s, s_mu, trap_d)
    means = se.mean(axis=0)
    stderrs = se.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    x = np.log(d_list)
    y = np.log(means)
    xm = x - x.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    resid = y - (y.mean() + slope * xm)
    dof = max(len(x) - 2, 1)
    stderr = float(np.sqrt(resid @ resid / dof / np.dot(xm, xm)))
    return DistanceScaling(exponent=slope, stderr=stderr, distances=d_list,
                           means=means, stderrs=stderrs, n_seeds=n_seeds)


def heating_rate(trap: TrapConfig, s_E):
    """Quanta per second gained by the ion: q^2 S_E / (2 m hbar omega_t)."""
    if s_E < 0:
        raise DomainError("S_E must be non-negative")
    return trap.charge ** 2 / (2.0 * trap.ion_mass * HBAR
                               * trap.trap_frequency) * s_E
