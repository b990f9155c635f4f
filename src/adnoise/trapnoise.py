"""Electric-field noise at the ion from fluctuating surface dipoles.

Uncorrelated vertical dipoles at area density sigma add in power, so the
field noise at height d above the plane is S_mu times a purely geometric
transfer.  Two transfers are provided on purpose:

* analytic_field_noise uses the surface-averaged form the heating-rate
  contract fixes, S_E = (3/8) sigma S_mu / ((4 pi eps0)^2 d^4);
* kernel_integral_constant computes the plane integral of the squared
  bare point-dipole kernel, K = 3 pi / 4 = 2 pi * (3/8).

The factor 2 pi is not a convention choice: uncorrelated dipoles give
Var(E_z) = sigma K Var(mu) / ((4 pi eps0)^2 d^4), so with S_mu per
d omega / 2 pi an S_E in the same convention carries K.  The 3/8 gives a
density per d omega instead, 2 pi below the one heating_rate expects.
The Monte Carlo consistency checks use K.

The Monte Carlo path places n dipoles uniformly and independently on an
(extent x extent) patch, sums |E_z|^2 per dipole and reproduces the d^-4
distance scaling of the seed-averaged noise inside the window
3 d0 <= d <= extent/10.  Lengths are in units of d0, a microscopic
length such as the adatom spacing; no minimum spacing is kept, as the
mean noise of uncorrelated dipoles depends on their density alone, never
on their pair correlations.  The seeds of a fit move together as one stack with a
leading seed axis: positions (S, n, 2), S_E (S, D).  Surface k of a
stack is the uniform draw of its own seed's stream.  mc_field_noise
evaluates the field kernel for all distances on blocks of surfaces and
gives S_E per unit S_mu, projected on a unit axis.  distance_scaling_fit
checks its arguments, the size of its largest array among them, then
draws and sums its seeds in chunks of bounded size.

The trap enters as the plain values of the [trap] section, and
analytic_field_noise and heating_rate(s_E, charge, ion_mass, omega_t)
work elementwise on arrays.

The fit's line comes from units (_line_fit), so this module imports
none of the spectral chain: the Monte Carlo path runs on numpy alone.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, ConfigurationError, DomainError
from .units import _ARRAY_CELLS, EPS0, HBAR, _line_fit

FOUR_PI_EPS0 = 4.0 * math.pi * EPS0
SURFACE_AVERAGE_CONSTANT = 3.0 / 8.0
# (seed, distance, dipole) cells of the seeds that distance_scaling_fit
# draws and sums per chunk.
_FIT_CELLS = 1 << 16
# (surface, distance, dipole) cells per kernel evaluation in mc_field_noise:
# its arrays of 64 KiB stay in cache, where those of a whole 30-surface
# stack are mapped afresh on every call.
_KERNEL_CELLS = 1 << 13


@dataclass(frozen=True)
class SurfaceSample:
    """Dipole positions on the electrode plane: one surface, (n, 2), or a
    stack of S surfaces, (S, n, 2).

    rejects is always 0, as sample_surface rejects no candidate.  It stays
    because the benchmark's tracer reads it from every sample it counts.
    """

    positions: np.ndarray  # (n, 2) or (S, n, 2), inside [0, extent]^2
    extent: float
    rejects: int = field(default=0, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.positions, dtype=float)
        if pts.ndim not in (2, 3) or pts.shape[-1] != 2:
            raise ConfigurationError(
                "positions must be an (n, 2) or (S, n, 2) array")
        if not np.all((pts >= 0) & (pts <= self.extent)):
            raise ConfigurationError("positions must lie inside [0, extent]^2")

    @property
    def n(self):
        """Dipoles in the sample, over every surface of a stack."""
        return np.size(self.positions) // 2


def dipole_field_kernel(sources, ion):
    """Field (V/m per C m) of unit vertical point dipoles in the plane.

    sources is an (n, 2) array of (x, y) on the electrode, or an (S, n, 2)
    stack of them; ion is (x, y, z) with z > 0, or a (D, 3) array of such
    positions.  Returns the bare dipole fields at the ion, shaped
    sources.shape[:-2] + ion.shape[:-1] + (n, 3):
    E = (3 (z_hat . r_hat) r_hat - z_hat) / (4 pi eps0 r^3); any image
    doubling belongs to the dipole ladder, not here.
    """
    ion = np.asarray(ion, dtype=float)
    if (ion[..., 2] <= 0).any():
        raise DomainError("ion must sit strictly above the plane")
    sources = np.asarray(sources, dtype=float)
    # One (..., n) array per component of r = ion - source, with an axis
    # for the ions between the stack and the sources.  The sum of squares
    # runs x, y, z from the left, as np.linalg.norm's does, and
    # E_c = ((3 r_z / r) (r_c / r) - delta_cz) / (4 pi eps0 r^3) rounds
    # in this order.
    src = sources.reshape(sources.shape[:-2] + (1,) * (ion.ndim - 1)
                          + sources.shape[-2:])
    rx = ion[..., :1] - src[..., 0]
    ry = ion[..., 1:2] - src[..., 1]
    rz = ion[..., 2:]
    dist = np.sqrt(rx * rx + ry * ry + rz * rz)
    scale = FOUR_PI_EPS0 * dist ** 3
    rnz = rz / dist
    cos3 = 3.0 * rnz
    e = np.empty(dist.shape + (3,))
    e[..., 0] = cos3 * (rx / dist) / scale
    e[..., 1] = cos3 * (ry / dist) / scale
    e[..., 2] = (cos3 * rnz - 1.0) / scale
    return e


def analytic_field_noise(sigma, s_mu, d):
    """Surface-averaged transfer with the conventional 3/8 constant.

    Elementwise over arrays: each entry has the bits of a scalar call.
    """
    if np.any(sigma <= 0) or np.any(d <= 0):
        raise DomainError("sigma and d must be positive")
    if np.any(s_mu < 0):
        raise DomainError("s_mu must be non-negative")
    return SURFACE_AVERAGE_CONSTANT * sigma * s_mu / (FOUR_PI_EPS0 ** 2 * d ** 4)


def kernel_integral_constant(d=1.0):
    """Dimensionless plane integral of the squared vertical-field kernel.

    K = d^4 (4 pi eps0)^2 int d^2s |E_z(s; d)|^2, independent of d and
    equal to 3 pi / 4 for the bare dipole kernel.  With the radius on the
    plane s = d tan(theta) and u = cos(theta), 2 pi s ds = 2 pi d^2 du / u^3
    on u in [0, 1], and the integrand 2 pi d^2 (E_z 4 pi eps0 d^2)^2 / u^3
    of the bare kernel is 2 pi (3 u^2 - 1)^2 u^3, a polynomial of degree 7.
    The 16-point Gauss-Legendre rule, exact to degree 31, gives it up to
    rounding from one kernel call; validate checks it against 3 pi / 4.
    """
    u, w = _gauss_legendre(16)
    s = d * np.sqrt(1.0 - u * u) / u
    ez = dipole_field_kernel(np.column_stack([s, np.zeros_like(s)]),
                             (0.0, 0.0, d))[:, 2]
    return float((w * (2.0 * math.pi * d ** 2
                       * (ez * FOUR_PI_EPS0 * d ** 2) ** 2 / u ** 3)).sum())


@functools.cache
def _gauss_legendre(order):
    """Nodes u and weights of the Gauss-Legendre rule of order on [0, 1]."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _check_sampling(n, extent, seeds):
    """The argument checks of sample_surface, which distance_scaling_fit
    also makes before its first draw."""
    if n < 1:
        raise ConfigurationError("need at least one dipole")
    for s in seeds:
        if s < 0:
            raise ConfigurationError(f"seed must be non-negative, got {s}")
    if not 0 < extent < math.inf:
        raise ConfigurationError("extent must be positive and finite")


def sample_surface(n, extent, seed) -> SurfaceSample:
    """Uniform, independent positions in [0, extent]^2, deterministic for
    a given seed.

    seed is one seed, which gives one (n, 2) surface, or a sequence of S
    seeds, which gives an (S, n, 2) stack.  Surface k is, bit for bit,
    np.random.default_rng(seed[k]).random((n, 2)) * extent: it depends on
    its own seed alone, whatever else the stack holds.  No minimum
    spacing is kept: the mean noise of uncorrelated dipoles depends on
    their density alone.
    """
    stacked = np.ndim(seed) > 0
    seeds = list(seed) if stacked else [seed]
    _check_sampling(n, extent, seeds)
    out = np.empty((len(seeds), n, 2))
    for surface, s in zip(out, seeds):
        np.random.default_rng(s).random(out=surface)
    out *= extent
    return SurfaceSample(positions=out if stacked else out[0], extent=extent)


def mc_field_noise(sample: SurfaceSample, axis, distances):
    """Field noise per unit S_mu from dipole configurations; sources add
    in power.

    The ion sits at each height in distances above the sample center, and
    the field is projected on the unit vector axis.  Returns one S_E per
    distance, shaped (D,) for one surface and (S, D) for a stack of S.
    The kernel is evaluated for all distances at once, on blocks of
    surfaces of at most _KERNEL_CELLS (surface, distance, dipole) cells.
    """
    d = np.asarray(distances, dtype=float)
    ions = np.empty((len(d), 3))
    ions[:, :2] = 0.5 * sample.extent
    ions[:, 2] = d
    axis = np.asarray(axis, dtype=float)
    pos = np.asarray(sample.positions, dtype=float)
    stack = pos if pos.ndim == 3 else pos[None]
    n_surf, n = stack.shape[:2]
    se = np.empty((n_surf, len(d)))
    step = max(_KERNEL_CELLS // max(len(d) * n, 1), 1)
    for lo in range(0, n_surf, step):
        # A source too far away for r^3 to be a float gives a zero field.
        with np.errstate(over="ignore"):
            e = dipole_field_kernel(stack[lo:lo + step], ions)
        # The stacked product is one (n, 3) @ axis per surface and
        # distance: a fused (D n, 3) @ axis differs from it in the last
        # bit in a few per cent of samples.
        se[lo:lo + step] = np.sum((e @ axis) ** 2, axis=-1)
    return se if pos.ndim == 3 else se[0]


@dataclass(frozen=True)
class DistanceScaling:
    """Seed-averaged noise vs distance and its fitted power law."""

    exponent: float
    stderr: float
    distances: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    n_seeds: int


def distance_scaling_fit(n, extent, seed, axis, d_list,
                         n_seeds) -> DistanceScaling:
    """Power-law fit of seed-averaged S_E, per unit S_mu and projected on
    the unit vector axis, over the valid distance window.

    Lengths are in units of d0.  Surface k is sample_surface(n, extent,
    seed + k), so parallel and serial evaluation agree.  The seeds are
    drawn and summed in chunks, each one sample_surface call on a stack of
    seeds and one mc_field_noise call; a chunk holds as many seeds as keep
    seeds x distances x dipoles within _FIT_CELLS, and at least one.
    Every argument is checked before the first draw, in this order: a
    field kernel of one surface, 3 x distances x dipoles float cells, or
    an S_E of seeds x distances cells past _ARRAY_CELLS is a
    ConfigurationError naming montecarlo.n_dipoles or montecarlo.n_seeds;
    a surface on which the seeds together expect fewer than one dipole
    within the largest distance is refused (S_E then hardly depends on d,
    and the exponent comes out near 0); then come sampling's argument
    checks, the axis, the window 3 d0 <= d <= extent/10, which avoids
    granularity at small d and finite-patch edge effects at large d, and
    the counts of seeds and distinct distances.  With the distances scaled
    up along with the extent, S_E can be tiny or underflow; a seed mean
    that is not finite and positive is an AnalysisError.
    """
    # A chunk's (S, n, 2) positions hold at most 2 n or 2 _FIT_CELLS / D
    # cells and a kernel block of several surfaces at most 3 _KERNEL_CELLS,
    # so one surface's kernel and the (n_seeds, D) S_E can outgrow the budget.
    # In Python integers, so that no count overflows the product.
    cells = 3 * len(d_list) * n
    if cells > _ARRAY_CELLS:
        raise ConfigurationError(
            f"montecarlo.n_dipoles = {n} at {len(d_list)} distances needs a "
            f"field kernel of {cells} float cells (3 x distances x "
            f"dipoles), past the budget of {_ARRAY_CELLS} cells per array")
    cells = n_seeds * len(d_list)
    if cells > _ARRAY_CELLS:
        raise ConfigurationError(
            f"montecarlo.n_seeds = {n_seeds} at {len(d_list)} distances "
            f"needs an S_E array of {cells} float cells (seeds x "
            f"distances), past the budget of {_ARRAY_CELLS} cells per array")
    # In float64, so that a square past the float range is inf, not an
    # OverflowError: the window or seed-mean check below then refuses it.
    with np.errstate(over="ignore"):
        count = (n_seeds * math.pi * np.float64(max(d_list)) ** 2 * n
                 / extent / extent)
    if count < 1:
        raise AnalysisError(
            f"{count:.3g} dipoles expected within the largest distance of "
            f"the ion over all seeds (n_seeds * pi * d_max^2 * n_dipoles / "
            f"extent^2 < 1), distances {np.asarray(d_list)}: the "
            "surface is too sparse for a distance scaling fit")
    seeds = range(seed, seed + n_seeds)
    _check_sampling(n, extent, seeds)
    if not abs(math.sqrt(sum(a * a for a in axis)) - 1.0) <= 1e-12:
        raise DomainError(f"axis {tuple(axis)} is not a unit vector")
    d_list = np.asarray(d_list, dtype=float)
    lo, hi = 3.0, extent / 10.0
    bad = d_list[(d_list < lo) | (d_list > hi)]
    if len(bad):
        raise AnalysisError(
            f"distances {bad} outside the valid window [{lo:.3g}, {hi:.3g}] "
            "(below: dipole granularity dominates; above: the finite patch "
            "acts as a composite source)")
    if n_seeds < 2 or len(np.unique(d_list)) < 3:
        raise AnalysisError(
            f"n_seeds = {n_seeds}, distances {d_list}: the standard errors "
            "need at least 2 seeds and the fit at least 3 distinct distances")
    se = np.empty((n_seeds, len(d_list)))
    step = max(_FIT_CELLS // (n * len(d_list)), 1)
    for k in range(0, n_seeds, step):
        surfaces = sample_surface(n, extent, seeds[k:k + step])
        se[k:k + step] = mc_field_noise(surfaces, axis, d_list)
    means = se.mean(axis=0)
    empty = ~(np.isfinite(means) & (means > 0))
    if np.any(empty):
        raise AnalysisError(
            f"seed-averaged S_E at distances {d_list[empty]} is "
            f"{means[empty]}, not finite and positive: the field sum "
            "underflows or overflows for this extent, so no power law "
            "can be fitted")
    # The squared deviations of a tiny S_E underflow: take the spread of
    # se scaled near 1 by an even power of two, which is exact, and undo
    # the scale.
    k = 2 * (int(np.frexp(se.max())[1]) // 2)
    stderrs = (np.ldexp(np.ldexp(se, -k).std(axis=0, ddof=1), k)
               / math.sqrt(n_seeds))
    slope, _, _, stderr = _line_fit(np.log(d_list), np.log(means))
    return DistanceScaling(exponent=slope, stderr=stderr, distances=d_list,
                           means=means, stderrs=stderrs, n_seeds=n_seeds)


def heating_rate(s_E, charge, ion_mass, omega_t):
    """Quanta per second gained by the ion: q^2 S_E / (2 m hbar omega_t).

    s_E may be an array; each entry has the bits of a scalar call.
    """
    if not (ion_mass > 0 and omega_t > 0 and charge != 0):
        raise DomainError(
            f"ion mass {ion_mass!r} kg and trap frequency {omega_t!r} rad/s "
            f"must be positive and the charge {charge!r} C non-zero")
    if np.any(s_E < 0):
        raise DomainError("S_E must be non-negative")
    return charge ** 2 / (2.0 * ion_mass * HBAR * omega_t) * s_E
