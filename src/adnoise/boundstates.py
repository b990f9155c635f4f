"""Bound vibrational states of the adatom in the surface well.

The time-independent Schroedinger problem for the adatom of mass m in U(z)
is discretized on a logarithmic grid, nodes evenly spaced in ln z, with the
three-point ("box") finite difference for unequal spacing.  With the
spacings d_{i+1/2} = z_{i+1} - z_i, the cell widths
W_i = (d_{i-1/2} + d_{i+1/2}) / 2 (a ghost spacing equal to its neighbour
at each end) and k = hbar^2/(2m), the symmetrized Hamiltonian is the real
symmetric tridiagonal matrix

    H_ii     = U(z_i) + k (1/d_{i-1/2} + 1/d_{i+1/2}) / W_i,
    H_i,i+1  = -k / (d_{i+1/2} sqrt(W_i W_{i+1})),  Dirichlet boundaries,

whose eigenvectors phi give the wavefunctions psi = phi / sqrt(W).  The
grid puts its points where U changes fast, at the wall and in the well,
rather than in the slowly varying C3 tail.  H is solved exactly with
LAPACK: dstebz (bisection) for the levels and dstein (inverse iteration)
for the vectors, called as scipy.linalg's tridiagonal eigensolver calls
them with its stebz driver, so every bit is scipy's.
Both come from scipy's f2py extension scipy.linalg._flapack, loaded once
from its file at import (or reused from sys.modules) without running
scipy/linalg/__init__.py, which would double the start-up time of the
command line.  A non-zero LAPACK info is a NumericalError.

Only negative-energy states are physical (energies are measured from the
dissociation limit U(inf) = 0); states closer to the continuum than
1e-3*U0 are discarded and counted in the diagnostics, and every kept state
must leave negligible probability in the last grid cell (tail condition),
otherwise the grid is too small and a GridError is raised.  The levels
below -1e-3*U0 and below 0 are counted before any eigenpair is computed,
by LAPACK bisection at a tolerance of U0: the count is a difference of two
Sturm counts, which no tolerance changes.  U must be finite on the whole
grid and must not rise at its inner edge: a grid that starts inside the
inner barrier, where the exp-3 form dives towards -infinity, is refused.

The cell widths W are the one quadrature rule: the scheme is self-adjoint
in the inner product sum_i W_i f_i g_i, the unit eigenvectors phi make the
psi orthonormal in it, and every matrix element and expectation value
weights with Grid.width on the eigensolver grid, so no interpolation error
is introduced anywhere downstream; grid_matrix is the one matrix-element
quadrature, <f|g|i> for every pair at once.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import potential as pot
from .errors import ConfigurationError, GridError, ModelError, NumericalError
from .units import HBAR

# Kept states must satisfy |psi(z_max)|^2 times the last cell width below
# this bound.
TAIL_BOUND = 1e-10
# Bound/continuum guard: discard states with E > -NEAR_ZERO_FRACTION * U0.
NEAR_ZERO_FRACTION = 1e-3


def _scipy_linalg_dir():
    """scipy's linalg directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("adnoise needs scipy's LAPACK extension, "
                                  "and scipy is not installed", name="scipy")
    return os.path.join(spec.submodule_search_locations[0], "linalg")


def _load_flapack():
    """scipy.linalg._flapack, loaded from its file under its own name.

    A module already in sys.modules (scipy.linalg imported first) is
    reused, and the one loaded here is registered there, so scipy.linalg
    imported later reuses it: one module object either way.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    where = _scipy_linalg_dir()
    paths = [os.path.join(where, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((q for q in paths if os.path.isfile(q)), None)
    if path is None:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no LAPACK extension "
                          f"_flapack in {where}; adnoise calls its dstebz and "
                          "dstein")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()


def _lapack(routine, *args):
    """Call a _flapack routine and return its outputs without info.

    A non-zero info is a NumericalError, where scipy's _check_info raises
    ValueError or LinAlgError; a positive dstein info counts the vectors
    that did not converge.
    """
    *out, info = getattr(_FLAPACK, routine)(*args)
    if info < 0:
        raise NumericalError(f"LAPACK {routine}: illegal value in argument "
                             f"{-info} (info = {info})")
    if info > 0:
        what = (f"{info} eigenvector(s) did not converge" if routine == "dstein"
                else "did not converge")
        raise NumericalError(f"LAPACK {routine}: {what} (info = {info})")
    return out


def _levels_below(diag, off, x, tol):
    """Eigenvalues below x, ascending, by bisection to tol (dstebz by
    value), as scipy.linalg returns them for select="v" and a range
    (-inf, x]."""
    m, levels, _, _ = _lapack("dstebz", diag, off, 1, -np.inf, x, 1, 1, tol,
                              "E")
    return levels[:m]


def _lowest_pairs(diag, off, k):
    """The k lowest eigenpairs, ascending, vectors in columns.

    dstebz by index in block order, dstein for the vectors, then a sort by
    energy, as scipy.linalg does for select="i" and a range (0, k - 1).
    """
    m, levels, iblock, isplit = _lapack("dstebz", diag, off, 2, 0.0, 1.0, 1,
                                        k, 0.0, "B")
    levels = levels[:m]
    vecs, = _lapack("dstein", diag, off, levels, iblock, isplit)
    order = np.argsort(levels)
    return levels[order], vecs[:, order]


@dataclass(frozen=True)
class Grid:
    """Logarithmic spatial grid for the eigenproblem: n_points nodes z from
    z_min to z_max, evenly spaced in ln z, each built once.  spacing holds
    the n_points + 1 spacings d_{i+1/2} with a ghost equal to its neighbour
    at each end, width the cell widths W (module docstring)."""

    z_min: float
    z_max: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.z_min < self.z_max:
            raise ConfigurationError("grid requires 0 < z_min < z_max")
        if self.n_points < 200:
            raise ConfigurationError("grid requires n_points >= 200")

    @cached_property
    def z(self):
        return np.geomspace(self.z_min, self.z_max, self.n_points)

    @cached_property
    def spacing(self):
        dz = np.diff(self.z)
        return np.concatenate((dz[:1], dz, dz[-1:]))

    @cached_property
    def width(self):
        return 0.5 * (self.spacing[:-1] + self.spacing[1:])


def auto_grid(p: pot.SurfacePotentialParams, n_points: int) -> Grid:
    """Choose grid bounds from the potential alone.

    The inner edge sits where U climbs to 10*U0 on the repulsive wall; if
    the wall tops out below that (shallow wells), the edge is placed at the
    barrier top instead, which acts as a hard wall against the unphysical
    z -> 0 region of the exp-3 form.  The outer edge is where the tail has
    decayed to |U| <= 1e-4*U0, and never closer than 6*z0.  pot._root
    finds both edges.  A U0/hbar past the float range, a bound on every
    splitting of levels in [-U0, 0), is refused first with NumericalError.
    """
    if not float(p.U0) / HBAR < math.inf:
        raise NumericalError(
            f"potential.U0: the frequency scale of the levels U0/hbar = "
            f"{float(p.U0) / HBAR:.3g} rad/s leaves the float range")
    z_pk, u_pk = pot.inner_barrier(p)
    if u_pk <= 0:
        raise ModelError(
            f"{p.name}: inner barrier top ({u_pk / p.U0:.2f} U0) is below the "
            "dissociation limit; the outer well is not protected and the "
            "exp-3 parameters are outside the model's validity")
    target, z_min = 10.0 * p.U0, z_pk
    if u_pk >= target:
        # U decreases monotonically from the barrier top to -U0 at z0.  Past
        # a top that overflows, bracket from exp(bz*(1 - z/z0)) = e^700,
        # where U is finite and still far above 10 U0.
        z_lo = z_pk if u_pk < math.inf else p.z0 * (1.0 - 700.0 / p.beta_z0)
        z_min = pot._root(lambda z: pot.evaluate(p, z) - target,
                          z_lo, p.z0, xtol=1e-18, rtol=1e-14)

    # Tail crossing |U| = 1e-4*U0; bracket from the asymptote and refine.
    tail_level = 1e-4 * p.U0
    z_guess = (pot.c3(p) / tail_level) ** (1.0 / 3.0)
    z_hi = max(2.0 * z_guess, 8.0 * p.z0)
    z_max = pot._root(lambda z: abs(pot.evaluate(p, z)) - tail_level,
                      1.5 * p.z0, z_hi, xtol=1e-18, rtol=1e-14)
    return Grid(z_min=z_min, z_max=max(z_max, 6.0 * p.z0), n_points=n_points)


@dataclass(frozen=True)
class BoundStateSet:
    """Eigenpairs of the adatom in the well, orthonormal under grid.width.

    energies are ascending and all negative; wavefunctions[i] is state i
    sampled on grid.z, with sign fixed so the first antinode from the
    wall is positive.  near_zero_discarded counts negative-energy
    eigenvalues dropped by the continuum-contamination guard.
    """

    grid: Grid
    energies: np.ndarray
    wavefunctions: np.ndarray
    params: pot.SurfacePotentialParams
    near_zero_discarded: int = 0
    potential_values: np.ndarray = field(default=None, repr=False)

    @property
    def n_states(self):
        return len(self.energies)

    def splitting(self, i: int, f: int):
        """Transition angular frequency |E_i - E_f| / hbar."""
        return abs(self.energies[i] - self.energies[f]) / HBAR


def _fix_sign(psi):
    """Make the first antinode from the wall positive."""
    a = np.abs(psi)
    thresh = 0.05 * a.max()
    rising = np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])
                            & (a[1:-1] > thresh)) + 1
    k = rising[0] if len(rising) else int(np.argmax(a))
    return -psi if psi[k] < 0 else psi


def _box_hamiltonian(u, grid, mass):
    """Diagonal and off-diagonal of the symmetrized three-point Hamiltonian
    for U = u on the nodes of grid (module docstring); its eigenvectors phi
    give psi = phi / sqrt(grid.width)."""
    d, width = grid.spacing, grid.width
    k = HBAR ** 2 / (2.0 * mass)
    diag = u + k * (1.0 / d[:-1] + 1.0 / d[1:]) / width
    off = -k / (d[1:-1] * np.sqrt(width[:-1] * width[1:]))
    return diag, off


def solve(p: pot.SurfacePotentialParams, grid: Grid,
          max_states: int) -> BoundStateSet:
    """All bound states of mass m in U(z), up to max_states.

    Raises ModelError if fewer than two bound states exist and GridError if
    U is not finite on the grid, rises at its inner edge (the grid starts
    inside the inner barrier) or a kept state fails the tail condition
    (grid too small).  Raises NumericalError if the Hamiltonian is not
    finite (a mass too small for the grid) or if a LAPACK call fails.
    """
    if max_states < 2:
        raise ConfigurationError("max_states must be at least 2")
    with np.errstate(over="ignore", invalid="ignore"):
        u = pot.evaluate(p, grid.z)
    if not np.all(np.isfinite(u)):
        raise GridError(
            f"{p.name}: U(z) is not finite on the grid (z_min = "
            f"{grid.z_min / p.z0:.3g} z0); move the inner edge outward")
    if u[1] > u[0]:
        raise GridError(
            f"{p.name}: U(z) rises at the inner edge, so the grid starts "
            f"inside the inner barrier (z_min = {grid.z_min / p.z0:.3g} z0); "
            "start it at the barrier top or on the wall beyond")
    # The kinetic term on the smallest spacing h, a float64 quotient: a
    # denominator that underflows to 0 gives inf.
    h = grid.spacing.min()
    with np.errstate(divide="ignore", over="ignore"):
        kin = HBAR ** 2 / np.float64(2.0 * p.adatom_mass * h * h)
        diag, off = _box_hamiltonian(u, grid, p.adatom_mass)
    # LAPACK needs finite input (scipy.linalg's check_finite); u is.
    if not (np.isfinite(kin) and np.all(np.isfinite(diag))
            and np.all(np.isfinite(off))):
        raise NumericalError(
            f"{p.name}: the kinetic term hbar^2/(2 m h^2) = {kin:.3g} J "
            "overflows the Hamiltonian; the adatom mass is too small")

    # Levels below cut and below 0, from LAPACK bisection (dstebz by
    # value): the count is the difference of its Sturm counts at the ends
    # of the interval, so a tolerance of U0 stops the refinement at once
    # and leaves it exact.
    cut = -NEAR_ZERO_FRACTION * p.U0
    n_bound, n_negative = (len(_levels_below(diag, off, x, p.U0))
                           for x in (cut, 0.0))
    near_zero = n_negative - n_bound
    if n_bound < 2:
        raise ModelError(
            f"{p.name}: potential too shallow for spectrum analysis "
            f"({n_bound} bound state(s) found)")
    n_keep = min(n_bound, max_states)

    energies, vecs = _lowest_pairs(diag, off, n_keep)
    # dstein's vectors are unit vectors, so the psi are orthonormal under W.
    psis = vecs.T / np.sqrt(grid.width)
    for i in range(n_keep):
        psis[i] = _fix_sign(psis[i])
        tail = psis[i, -1] ** 2 * grid.width[-1]
        if tail >= TAIL_BOUND:
            raise GridError(
                f"{p.name}: state {i} (E = {energies[i] / p.U0:.4f} U0) "
                f"violates the tail condition ({tail:.2e} >= {TAIL_BOUND}); "
                "enlarge the grid")
    return BoundStateSet(grid=grid, energies=energies, wavefunctions=psis,
                         params=p, near_zero_discarded=near_zero,
                         potential_values=u)


def grid_matrix(s: BoundStateSet, g_values):
    """All <f| g |i> as a symmetric n_states x n_states array.

    Psi diag(W g) Psi^T with the cell widths W = s.grid.width; g_values
    is g sampled on s.grid.z and must be finite there.
    """
    g = np.asarray(g_values, dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericalError("g(z) is not finite everywhere on the grid")
    psi = s.wavefunctions
    m = (psi * (s.grid.width * g)) @ psi.T
    # The product is symmetric only to round-off; mirror the lower triangle
    # so that <f|g|i> == <i|g|f> holds exactly.
    return np.tril(m) + np.tril(m, -1).T


def coupling_matrix(s: BoundStateSet):
    """All pairwise <f|dU/dz|i> in J/m, symmetric n_states x n_states."""
    return grid_matrix(s, pot.derivative(s.params, s.grid.z))
