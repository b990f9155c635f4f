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

The Monte Carlo path samples dipole positions with a minimum spacing d0,
sums |E_z|^2 per dipole and reproduces the d^-4 distance scaling of the
seed-averaged noise inside the window 3 d0 <= d <= extent/10.  Sampling
draws candidates from the seeded stream in blocks.  Per block, one window
over the x-sorted placed points and candidates, each against its
successors less than d0 further along in x, finds every pair closer than
d0; Python only walks the pairs inside the block, in stream order.  The
stream, the positions and the rejection counts are those of testing
every candidate against every placed point.  SurfaceSample checks the
spacing on every sample with the same window.  mc_field_noise evaluates the
field kernel once per sample for all distances and gives S_E per unit
S_mu, projected on a unit axis.  distance_scaling_fit draws each seed's
surface itself and refuses a surface too sparse near the ion.

The trap enters as the plain values of the [trap] section, and
analytic_field_noise and heating_rate(s_E, charge, ion_mass, omega_t)
work elementwise on arrays.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AnalysisError, ConfigurationError, DomainError,
                     NumericalError, PackingError)
from .spectrum import _line_fit
from .units import EPS0, HBAR

FOUR_PI_EPS0 = 4.0 * math.pi * EPS0
SURFACE_AVERAGE_CONSTANT = 3.0 / 8.0
MAX_CONSECUTIVE_REJECTS = 1_000_000
# Entries of the close-pair window tested per numpy pass.
_WINDOW_CELLS = 1 << 16
# Gauss-Legendre rules of kernel_integral_constant, and how far apart
# their two values may lie, relative.
_KERNEL_RULES = (8, 16)
_KERNEL_RULE_RTOL = 1e-12


@dataclass(frozen=True)
class SurfaceSample:
    """Random dipole positions on the electrode plane, minimum spacing d0."""

    positions: np.ndarray  # (n, 2), inside [0, extent]^2
    min_spacing: float
    extent: float
    rejects: int = field(default=0, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.positions, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigurationError("positions must be an (n, 2) array")
        if not np.all((pts >= 0) & (pts <= self.extent)):
            raise ConfigurationError("positions must lie inside [0, extent]^2")
        if not self.min_spacing >= 0:
            raise ConfigurationError("min_spacing must be non-negative")
        limit = (self.min_spacing * (1.0 - 1e-12)) ** 2
        if len(_close_pairs(pts, self.min_spacing, limit)[0]):
            raise ConfigurationError("positions violate the minimum spacing")

    @property
    def n(self):
        return len(self.positions)


def dipole_field_kernel(sources, ion):
    """Field (V/m per C m) of unit vertical point dipoles in the plane.

    sources is an (n, 2) array of (x, y) on the electrode; ion is (x, y, z)
    with z > 0, or a (D, 3) array of such positions.  Returns the (n, 3),
    or (D, n, 3), bare dipole fields at the ion,
    E = (3 (z_hat . r_hat) r_hat - z_hat) / (4 pi eps0 r^3); any image
    doubling belongs to the dipole ladder, not here.
    """
    ion = np.asarray(ion, dtype=float)
    if (ion[..., 2] <= 0).any():
        raise DomainError("ion must sit strictly above the plane")
    sources = np.asarray(sources, dtype=float)
    # One (..., n) array per component of r = ion - source.  The sum of
    # squares runs x, y, z from the left, as np.linalg.norm's does, and
    # E_c = ((3 r_z / r) (r_c / r) - delta_cz) / (4 pi eps0 r^3) rounds
    # in this order.
    rx = ion[..., :1] - sources[:, 0]
    ry = ion[..., 1:2] - sources[:, 1]
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


@functools.cache
def _kernel_rules():
    """Nodes u and weights of the Gauss-Legendre rules of _KERNEL_RULES on
    [0, 1], concatenated in that order; built on first use."""
    from numpy.polynomial.legendre import leggauss
    x, w = zip(*(leggauss(n) for n in _KERNEL_RULES))
    return 0.5 * (np.concatenate(x) + 1.0), 0.5 * np.concatenate(w)


def kernel_integral_constant(d=1.0):
    """Dimensionless plane integral of the squared vertical-field kernel.

    K = d^4 (4 pi eps0)^2 int d^2s |E_z(s; d)|^2, independent of d and
    equal to 3 pi / 4 for the bare dipole kernel.  With the radius on the
    plane s = d tan(theta) and u = cos(theta), 2 pi s ds = 2 pi d^2 du / u^3
    on u in [0, 1], and the integrand 2 pi d^2 (E_z 4 pi eps0 d^2)^2 / u^3
    of the bare kernel is 2 pi (3 u^2 - 1)^2 u^3, a polynomial of degree 7.
    One kernel evaluation on the nodes of an 8- and a 16-point
    Gauss-Legendre rule gives two values, each exact up to rounding; the
    16-point one is returned.  A kernel that is not that polynomial makes
    them disagree, which is a NumericalError.
    """
    u, w = _kernel_rules()
    s = d * np.sqrt(1.0 - u * u) / u
    ez = dipole_field_kernel(np.column_stack([s, np.zeros_like(s)]),
                             (0.0, 0.0, d))[:, 2]
    terms = w * (2.0 * math.pi * d ** 2 * (ez * FOUR_PI_EPS0 * d ** 2) ** 2
                 / u ** 3)
    n = _KERNEL_RULES[0]
    coarse, fine = terms[:n].sum(), terms[n:].sum()
    if not abs(fine - coarse) <= _KERNEL_RULE_RTOL * abs(fine):
        raise NumericalError(
            f"kernel plane integral: the {_KERNEL_RULES[0]}- and "
            f"{_KERNEL_RULES[1]}-point rules give {coarse:.17g} and "
            f"{fine:.17g}")
    return float(fine)


def _close_pairs(points, reach, limit):
    """Index pairs (i, j), i < j, of the rows of points whose squared
    distance is below limit; d^2 is summed as np.sum(d ** 2) would sum it.

    One window over the x-sorted points: each point against every
    successor at most reach further along in x, the rows padded with inf.
    The window holds y only, tested _WINDOW_CELLS entries at a time:
    dy^2 < limit keeps every pair that dx^2 + dy^2 < limit keeps, as the
    rounded sum is never below the rounded dy^2, and passes a few per cent
    of the window.  Those pairs then take the full test.
    """
    order = np.argsort(points[:, 0], kind="stable")
    n = len(order)
    p = points.T[:, order]                 # rows x and y, in x order
    ends = np.searchsorted(p[0], p[0] + reach, side="right")
    width = int((ends - np.arange(n)).max(initial=1)) - 1
    if not width:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    pad = np.full(n + width, np.inf)
    pad[:n] = p[1]
    # win[k, o] = pad[k + 1 + o], the y of the o-th successor of point k
    s = pad.strides[0]
    win = np.lib.stride_tricks.as_strided(pad[1:], (n, width), (s, s),
                                          writeable=False)
    step = max(_WINDOW_CELLS // width, 1)
    hits = []
    # a |dx| or |dy| past 1e154 squares to inf, which is not below limit
    with np.errstate(over="ignore"):
        for lo in range(0, n, step):
            dy = win[lo:lo + step] - p[1, lo:lo + step, None]
            dy *= dy
            row, off = np.nonzero(dy < limit)
            hits.append((row + lo, row + lo + 1 + off))
        k, l = (np.concatenate(h) for h in zip(*hits))
        d = p[:, l] - p[:, k]
        d *= d
        close = d[0] + d[1] < limit
    i, j = order[k[close]], order[l[close]]
    return np.minimum(i, j), np.maximum(i, j)


def sample_surface(n, extent, min_spacing, seed) -> SurfaceSample:
    """Uniform positions in [0, extent]^2 with an exclusion radius.

    Rejection sampling, deterministic for a given seed.  Feasibility
    requires n pi min_spacing^2 / 4 < extent^2 / 2.  Candidates are drawn
    in blocks, which gives the same doubles in the same order as one draw
    per candidate, and a block holds at least as many candidates as are
    placed.  One window over the placed points and the block finds every
    pair closer than min_spacing, with the squared-distance arithmetic of
    a test against every placed point.  A candidate close to a placed
    point is rejected; Python walks the pairs inside the block in stream
    order and rejects a candidate close to an accepted earlier one.  The
    rest are accepted, up to the n-th.  Positions and rejects are those of
    that direct test, candidate by candidate.
    """
    if n < 1:
        raise ConfigurationError("need at least one dipole")
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    if not (min_spacing > 0 and 0 < extent < math.inf):
        raise ConfigurationError(
            "min_spacing and extent must be positive and finite")
    if n * math.pi * (min_spacing / extent) ** 2 / 4.0 >= 0.5:
        raise ConfigurationError(
            "packing fraction too high for rejection sampling")
    limit = min_spacing ** 2
    # A pair the direct test fails has fl(dx)^2 < fl(d0^2), so |fl(dx)| < d0
    # and, d0 being a double, the exact |dx| < d0 as well: the later of the
    # two in x lies at most at fl(x + d0), inside the window.  The hair
    # beyond d0 is a margin.
    reach = min_spacing * (1.0 + 1e-9)
    rng = np.random.default_rng(seed)
    placed = np.empty((0, 2))
    run = total_rejects = 0    # run: consecutive rejects carried over
    while len(placed) < n:
        m, need = len(placed), n - len(placed)
        # need and an eighth more, but at least m (and 256): re-scanning the
        # m placed rows then costs at most one row per candidate
        block = rng.uniform(0.0, extent, (max(need + need // 8, m, 256), 2))
        i, j = _close_pairs(np.concatenate([placed, block]), reach, limit)
        j -= m                 # no two placed points are close: j >= m
        inner = i >= m
        rejected = np.zeros(len(block), dtype=bool)
        rejected[j[~inner]] = True
        # Pairs inside the block, less those with a candidate already
        # rejected: such a pair can reject neither.  In order of the later
        # candidate, the earlier one of each pair is settled before it
        # comes up.
        a, b = i[inner] - m, j[inner]
        live = ~(rejected[a] | rejected[b])
        a, b = a[live], b[live]
        later = np.argsort(b, kind="stable")
        for early, late in zip(a[later].tolist(), b[later].tolist()):
            if not rejected[early]:
                rejected[late] = True
        taken = np.flatnonzero(~rejected)[:need]
        cut = int(taken[-1]) + 1 if len(taken) == need else len(block)
        rejects = cut - len(taken)
        # No run can pass the limit unless the rejects before the cut do,
        # with the run carried in.
        if run + rejects > MAX_CONSECUTIVE_REJECTS:
            # the consecutive rejects up to each candidate, 0 at an accept
            k = np.arange(cut)
            last = np.maximum.accumulate(np.where(rejected[:cut], -1, k))
            over = np.flatnonzero(
                np.where(last < 0, run + k + 1, k - last)
                > MAX_CONSECUTIVE_REJECTS)
            if len(over):
                raise PackingError(
                    f"gave up after {MAX_CONSECUTIVE_REJECTS + 1} "
                    f"consecutive rejections "
                    f"({m + np.count_nonzero(taken < over[0])}/{n} placed)")
        total_rejects += rejects
        run = cut - 1 - int(taken[-1]) if len(taken) else run + cut
        placed = np.concatenate([placed, block[taken]])
    return SurfaceSample(positions=placed, min_spacing=min_spacing,
                         extent=extent, rejects=total_rejects)


def mc_field_noise(sample: SurfaceSample, axis, distances):
    """Field noise per unit S_mu from one dipole configuration; sources
    add in power.

    The ion sits at each height in distances above the sample center, and
    the field is projected on the unit vector axis.  Returns one S_E per
    distance, from one kernel evaluation for all of them.
    """
    d = np.asarray(distances, dtype=float)
    ions = np.empty((len(d), 3))
    ions[:, :2] = 0.5 * sample.extent
    ions[:, 2] = d
    # A source too far away for r^3 to be a float gives a zero field.
    with np.errstate(over="ignore"):
        e = dipole_field_kernel(sample.positions, ions)
    axis = np.asarray(axis, dtype=float)
    # One (n, 3) @ axis per distance: a fused (D n, 3) @ axis differs from
    # it in the last bit in a few per cent of samples.
    proj = np.array([e_d @ axis for e_d in e])
    return np.sum(proj ** 2, axis=1)


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

    Lengths are in units of the minimum spacing d0.  Surface k is
    sample_surface(n, extent, 1.0, seed + k), so parallel and serial
    evaluation agree.  A surface on which the seeds together expect fewer
    than one dipole within the largest distance is refused before any is
    drawn: S_E then hardly depends on d, and the exponent comes out near
    0.  The window 3 d0 <= d <= extent/10 avoids granularity at small d
    and finite-patch edge effects at large d.  With the distances scaled
    up along with the extent, S_E can be tiny or underflow; a seed mean
    that is not finite and positive is an AnalysisError.
    """
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
    # Drawn first, so that sampling's errors come before the checks below.
    surface = sample_surface(n, extent, 1.0, seed)
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
    for k in range(n_seeds):
        if k:
            surface = sample_surface(n, extent, 1.0, seed + k)
        se[k] = mc_field_noise(surface, axis, d_list)
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
