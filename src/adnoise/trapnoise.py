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
seed-averaged noise inside the window 3 d0 <= d <= extent/10.  The seeds
of a fit move together as one stack with a leading seed axis: positions
(S, n, 2), S_E (S, D).  Sampling draws candidates from each seed's
stream in blocks, and all unfinished seeds draw a block of one size per
round.  Per round, one loop over successor rank in each surface's
x-sorted candidates and placed points finds every pair closer than d0;
Python only walks the pairs inside the blocks, in stream order.  Surface
k of a stack has the stream, the positions and the rejection count of
testing every candidate against every placed point, drawn from its seed
alone.  mc_field_noise evaluates the field kernel for all distances on
blocks of surfaces and gives S_E per unit S_mu, projected on a unit
axis.  distance_scaling_fit checks its arguments, then draws and sums
its seeds in chunks of bounded size.

The trap enters as the plain values of the [trap] section, and
analytic_field_noise and heating_rate(s_E, charge, ion_mass, omega_t)
work elementwise on arrays.

The fit's line and K's Gauss-Legendre nodes come from units (_line_fit,
_gauss_legendre), so this module imports none of the spectral chain:
the Monte Carlo path runs on numpy alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AnalysisError, ConfigurationError, DomainError,
                     PackingError)
from .units import EPS0, HBAR, _gauss_legendre, _line_fit, _rule_pair_sum

FOUR_PI_EPS0 = 4.0 * math.pi * EPS0
SURFACE_AVERAGE_CONSTANT = 3.0 / 8.0
MAX_CONSECUTIVE_REJECTS = 1_000_000
# (seed, distance, dipole) cells of the seeds that distance_scaling_fit
# draws and sums per chunk.
_FIT_CELLS = 1 << 16
# (surface, distance, dipole) cells per kernel evaluation in mc_field_noise:
# its arrays of 64 KiB stay in cache, where those of a whole 30-surface
# stack are mapped afresh on every call.
_KERNEL_CELLS = 1 << 13
# Gauss-Legendre rules of kernel_integral_constant, and how far apart
# their two values may lie, relative.
_KERNEL_RULES = (8, 16)
_KERNEL_RULE_RTOL = 1e-12


@dataclass(frozen=True)
class SurfaceSample:
    """Dipole positions on the electrode plane: one surface, (n, 2), or a
    stack of S surfaces, (S, n, 2).  The minimum spacing is not checked
    here: sample_surface keeps it while placing."""

    positions: np.ndarray  # (n, 2) or (S, n, 2), inside [0, extent]^2
    extent: float
    rejects: int = field(default=0, compare=False)  # over the whole stack

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
    One kernel evaluation on the nodes of an 8- and a 16-point
    Gauss-Legendre rule gives two values, each exact up to rounding; the
    16-point one is returned.  A kernel that is not that polynomial makes
    them disagree, which is a NumericalError.
    """
    u, w = _gauss_legendre(_KERNEL_RULES)
    s = d * np.sqrt(1.0 - u * u) / u
    ez = dipole_field_kernel(np.column_stack([s, np.zeros_like(s)]),
                             (0.0, 0.0, d))[:, 2]
    terms = w * (2.0 * math.pi * d ** 2 * (ez * FOUR_PI_EPS0 * d ** 2) ** 2
                 / u ** 3)
    return _rule_pair_sum(terms, _KERNEL_RULES, _KERNEL_RULE_RTOL,
                          "kernel plane integral")


def _close_pairs(points, reach, limit):
    """Index triples (s, i, j), i < j, of the rows i and j of surface s of
    an (S, m, 2) stack whose squared distance is below limit; d^2 is
    summed as np.sum(d ** 2) would sum it.  Rows of nan pad a surface and
    pair with nothing.

    Per surface, the rows are sorted by x, and one loop over successor
    rank o = 1, 2, ... takes each row against its o-th successor.  It
    stops at the first o at which no row has its o-th successor at most
    reach further along in x: the rows being sorted, none has a later one
    in reach either.  dy^2 < limit keeps every pair that dx^2 + dy^2 <
    limit keeps, as the rounded sum is never below the rounded dy^2, and
    passes a few per cent of the pairs; those then take the full test.
    """
    # Rows tied in x may come in either order: the pair is tested the same
    # way from either end.
    order = np.argsort(points[..., 0], axis=-1)
    n_surf, m = order.shape
    # x and y gathered by flat row index, several times faster than by 2-D
    rows = order + m * np.arange(n_surf)[:, None]
    x, y = (points.reshape(-1, 2)[:, c][rows] for c in (0, 1))
    x_reach = x + reach
    hits = [np.empty((3, 0), dtype=np.intp)]
    # a |dx| or |dy| past 1e154 squares to inf, which is not below limit
    with np.errstate(over="ignore"):
        for o in range(1, m):
            if not (x[:, o:] <= x_reach[:, :-o]).any():
                break
            dy = y[:, o:] - y[:, :-o]
            dy *= dy
            surf, k = np.divmod(np.flatnonzero(dy < limit), m - o)
            hits.append((surf, k, k + o))
        surf, k, l = np.concatenate(hits, axis=1)
        dx = x[surf, l] - x[surf, k]
        dy = y[surf, l] - y[surf, k]
        close = dx * dx + dy * dy < limit
    surf = surf[close]
    i, j = order[surf, k[close]], order[surf, l[close]]
    return surf, np.minimum(i, j), np.maximum(i, j)


def _check_sampling(n, extent, min_spacing, seeds):
    """The argument checks of sample_surface, which distance_scaling_fit
    also makes before its first draw."""
    if n < 1:
        raise ConfigurationError("need at least one dipole")
    for s in seeds:
        if s < 0:
            raise ConfigurationError(f"seed must be non-negative, got {s}")
    if not (min_spacing > 0 and 0 < extent < math.inf):
        raise ConfigurationError(
            "min_spacing and extent must be positive and finite")
    # ratio > 1 fails for any n >= 1; testing it first keeps ratio**2 finite
    ratio = min_spacing / extent
    if ratio > 1 or n * math.pi * ratio ** 2 / 4.0 >= 0.5:
        raise ConfigurationError(
            "packing fraction too high for rejection sampling")


def sample_surface(n, extent, min_spacing, seed) -> SurfaceSample:
    """Uniform positions in [0, extent]^2 with an exclusion radius.

    Rejection sampling, deterministic for a given seed.  seed is one seed,
    which gives one (n, 2) surface, or a sequence of S seeds, which gives
    an (S, n, 2) stack whose surface k is, bit for bit, the one drawn from
    seed[k] alone; rejects is the total over the stack.  Feasibility
    requires n pi min_spacing^2 / 4 < extent^2 / 2.

    Candidates are drawn in blocks, which gives the same doubles in the
    same order as one draw per candidate, and a block holds at least as
    many candidates as are placed.  The unfinished surfaces draw one block
    each per round, all of the largest size any of them needs; a larger
    block moves no bit, as each surface still reads its own stream in
    order.  One _close_pairs pass over each surface's block and placed
    points finds every pair closer than min_spacing, with the
    squared-distance arithmetic of a test against every placed point.  A
    candidate close to a placed point is rejected; one Python walk over the
    pairs inside the blocks, in stream order, rejects a candidate close to
    an accepted earlier one.  The rest are accepted, up to the n-th.
    Positions and rejects are those of that direct test, candidate by
    candidate.  Of the surfaces that give up, the PackingError of the
    lowest-indexed one is raised, as a loop over the seeds would; its
    text names the seed.
    """
    stacked = np.ndim(seed) > 0
    seeds = list(seed) if stacked else [seed]
    _check_sampling(n, extent, min_spacing, seeds)
    limit = min_spacing ** 2
    # A pair the direct test fails has fl(dx)^2 < fl(d0^2), so |fl(dx)| < d0
    # and, d0 being a double, the exact |dx| < d0 as well: the later of the
    # two in x lies at most at fl(x + d0), within reach.  The hair
    # beyond d0 is a margin.
    reach = min_spacing * (1.0 + 1e-9)
    rngs = [np.random.default_rng(s) for s in seeds]
    out = np.empty((len(seeds), n, 2))
    placed = np.zeros(len(seeds), dtype=np.intp)
    run = np.zeros(len(seeds), dtype=np.intp)    # consecutive rejects
    total_rejects = 0
    failed = {}                                  # surface: PackingError text
    active = np.arange(len(seeds))
    while len(active):
        m = placed[active]
        need = n - m
        # the largest need and an eighth more, but at least every m (and
        # 256): re-scanning the placed rows then costs at most one row per
        # candidate
        size = int(max((need + need // 8).max(), m.max(), 256))
        # row t holds surface active[t]: its block of candidates, its m
        # placed points from column size on, then nan
        pts = np.full((len(active), size + int(m.max()), 2), np.nan)
        for t, k in enumerate(active):
            pts[t, :size] = rngs[k].uniform(0.0, extent, (size, 2))
            pts[t, size:size + m[t]] = out[k, :m[t]]
        surf, i, j = _close_pairs(pts, reach, limit)
        rejected = np.zeros((len(active), size), dtype=bool)
        inner = j < size   # no two placed points are close: i < size
        rejected[surf[~inner], i[~inner]] = True
        # Pairs inside a block, less those with a candidate already
        # rejected: such a pair can reject neither.  In order of the later
        # candidate, the earlier one of each pair is settled before it
        # comes up; surfaces do not mix.
        flat = rejected.ravel()
        a = surf[inner] * size + i[inner]
        b = surf[inner] * size + j[inner]
        live = ~(flat[a] | flat[b])
        a, b = a[live], b[live]
        later = np.argsort(b, kind="stable")
        for early, late in zip(a[later].tolist(), b[later].tolist()):
            if not flat[early]:
                flat[late] = True
        count = np.cumsum(~rejected, axis=1)         # accepts so far
        taken = ~rejected & (count <= need[:, None])
        n_taken = np.minimum(count[:, -1], need)
        # the block is cut at the n-th acceptance
        cut = np.where(n_taken == need,
                       np.argmax(count >= need[:, None], axis=1) + 1, size)
        rejects = cut - n_taken
        # No run can pass the limit unless the rejects before the cut do,
        # with the run carried in.
        for t in np.flatnonzero(run[active] + rejects
                                > MAX_CONSECUTIVE_REJECTS):
            # the consecutive rejects up to each candidate, 0 at an accept
            c = np.arange(cut[t])
            last = np.maximum.accumulate(np.where(rejected[t, c], -1, c))
            over = np.flatnonzero(
                np.where(last < 0, run[active[t]] + c + 1, c - last)
                > MAX_CONSECUTIVE_REJECTS)
            if len(over):
                done = m[t] + np.count_nonzero(taken[t, :over[0]])
                failed[active[t]] = (
                    f"seed {seeds[active[t]]}: gave up after "
                    f"{MAX_CONSECUTIVE_REJECTS + 1} consecutive rejections "
                    f"({done}/{n} placed)")
        total_rejects += int(rejects.sum())
        # the trailing rejects of a block with no n-th acceptance
        last_taken = size - 1 - np.argmax(taken[:, ::-1], axis=1)
        run[active] = np.where(n_taken > 0, cut - 1 - last_taken,
                               run[active] + cut)
        for t, (k, lo, hi) in enumerate(zip(active.tolist(), m.tolist(),
                                            (m + n_taken).tolist())):
            out[k, lo:hi] = pts[t, :size][taken[t]]
        placed[active] += n_taken
        active = active[placed[active] < n]
        if failed:
            active = active[active < min(failed)]
    if failed:
        raise PackingError(failed[min(failed)])
    return SurfaceSample(positions=out if stacked else out[0], extent=extent,
                         rejects=total_rejects)


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

    Lengths are in units of the minimum spacing d0.  Surface k is
    sample_surface(n, extent, 1.0, seed + k), so parallel and serial
    evaluation agree.  The seeds are drawn and summed in chunks, each one
    sample_surface call on a stack of seeds and one mc_field_noise call;
    a chunk holds as many seeds as keep seeds x distances x dipoles within
    _FIT_CELLS, and at least one.  Every argument is checked before the
    first draw, in this order: a surface on which the seeds together
    expect fewer than one dipole within the largest distance is refused
    (S_E then hardly depends on d, and the exponent comes out near 0);
    then come sampling's argument checks, the axis, the window
    3 d0 <= d <= extent/10, which avoids granularity at small d and
    finite-patch edge effects at large d, and the counts of seeds and
    distinct distances.  Of the surfaces that give up, the PackingError of
    the lowest-indexed one is raised.  With the distances scaled up along
    with the extent, S_E can be tiny or underflow; a seed mean that is not
    finite and positive is an AnalysisError.
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
    seeds = range(seed, seed + n_seeds)
    _check_sampling(n, extent, 1.0, seeds)
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
        surfaces = sample_surface(n, extent, 1.0, seeds[k:k + step])
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
