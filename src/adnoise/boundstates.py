"""Bound vibrational states of the adatom in the surface well.

The time-independent Schroedinger problem for the adatom of mass m in U(z)
is discretized with a three-point central finite difference on a uniform
grid, giving a real symmetric tridiagonal Hamiltonian

    H = -hbar^2/(2m) D2 + diag(U(z_i)),  Dirichlet boundaries,

solved exactly with a LAPACK tridiagonal eigensolver.  Only negative-energy
states are physical (energies are measured from the dissociation limit
U(inf) = 0); states closer to the continuum than 1e-3*U0 are discarded and
counted in the diagnostics, and every kept state must leave negligible
probability in the last grid cell (tail condition), otherwise the grid is
too small and a GridError is raised.

All quadratures (normalization, matrix elements, expectation values) use
the trapezoid weights of Grid.weights() on the eigensolver grid, so no
interpolation error is introduced anywhere downstream; grid_matrix is the
one matrix-element quadrature, <f|g|i> for every pair at once.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import potential as pot
from .errors import ConfigurationError, GridError, ModelError, NumericalError
from .units import HBAR

# Kept states must satisfy |psi(z_max)|^2 * h below this bound.
TAIL_BOUND = 1e-10
# Bound/continuum guard: discard states with E > -NEAR_ZERO_FRACTION * U0.
NEAR_ZERO_FRACTION = 1e-3
DEFAULT_N_POINTS = 4000


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid for the eigenproblem."""

    z_min: float
    z_max: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.z_min < self.z_max:
            raise ConfigurationError("grid requires 0 < z_min < z_max")
        if self.n_points < 200:
            raise ConfigurationError("grid requires n_points >= 200")

    @property
    def h(self):
        return (self.z_max - self.z_min) / (self.n_points - 1)

    def z(self):
        return np.linspace(self.z_min, self.z_max, self.n_points)

    def weights(self):
        """Trapezoid quadrature weights on z(): h inside, h/2 at both ends."""
        w = np.full(self.n_points, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


def auto_grid(p: pot.SurfacePotentialParams, n_points: int = DEFAULT_N_POINTS) -> Grid:
    """Choose grid bounds from the potential alone.

    The inner edge sits where U climbs to 10*U0 on the repulsive wall; if
    the wall tops out below that (shallow wells), the edge is placed at the
    barrier top instead, which acts as a hard wall against the unphysical
    z -> 0 region of the exp-3 form.  The outer edge is where the tail has
    decayed to |U| <= 1e-4*U0, and never closer than 6*z0.
    """
    z_pk, u_pk = pot.inner_barrier(p)
    if u_pk <= 0:
        raise ModelError(
            f"{p.name}: inner barrier top ({u_pk / p.U0:.2f} U0) is below the "
            "dissociation limit; the outer well is not protected and the "
            "exp-3 parameters are outside the model's validity")
    target = 10.0 * p.U0
    if u_pk >= target:
        # U decreases monotonically from the barrier top to -U0 at z0.
        z_min = brentq(lambda z: pot.evaluate(p, z) - target,
                       z_pk, p.z0, xtol=1e-18, rtol=1e-14)
    else:
        z_min = z_pk

    # Tail crossing |U| = 1e-4*U0; bracket from the asymptote and refine.
    tail_level = 1e-4 * p.U0
    z_guess = (pot.c3(p) / tail_level) ** (1.0 / 3.0)
    z_hi = max(2.0 * z_guess, 8.0 * p.z0)
    z_max = brentq(lambda z: abs(pot.evaluate(p, z)) - tail_level,
                   1.5 * p.z0, z_hi, xtol=1e-18, rtol=1e-14)
    z_max = max(z_max, 6.0 * p.z0)
    return Grid(z_min=z_min, z_max=z_max, n_points=n_points)


@dataclass(frozen=True)
class BoundStateSet:
    """Eigenpairs of the adatom in the well, trapezoid-normalized.

    energies are ascending and all negative; wavefunctions[i] is state i
    sampled on grid.z(), with sign fixed so the first antinode from the
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


def _sturm_count(diag, off, x):
    """Number of eigenvalues of the symmetric tridiagonal matrix below x.

    Sturm sequence on the LDL^T recurrence; O(n) and far cheaper than
    computing the eigenvalues themselves.
    """
    tiny = np.finfo(float).tiny
    q = diag[0] - x
    count = int(q < 0)
    for i in range(1, len(diag)):
        if q == 0.0:
            q = tiny
        q = (diag[i] - x) - off[i - 1] * off[i - 1] / q
        count += q < 0
    return count


def solve(p: pot.SurfacePotentialParams, grid: Grid, max_states: int = 30) -> BoundStateSet:
    """All bound states of mass m in U(z), up to max_states.

    Raises ModelError if fewer than two bound states exist and GridError if
    a kept state fails the tail condition (grid too small).
    """
    if max_states < 2:
        raise ConfigurationError("max_states must be at least 2")
    z = grid.z()
    h = grid.h
    w = grid.weights()
    u = pot.evaluate(p, z)
    kin = HBAR ** 2 / (2.0 * p.adatom_mass * h * h)
    diag = u + 2.0 * kin
    off = np.full(grid.n_points - 1, -kin)

    cut = -NEAR_ZERO_FRACTION * p.U0
    n_bound = _sturm_count(diag, off, cut)
    near_zero = _sturm_count(diag, off, 0.0) - n_bound
    if n_bound < 2:
        raise ModelError(
            f"{p.name}: potential too shallow for spectrum analysis "
            f"({n_bound} bound state(s) found)")
    n_keep = min(n_bound, max_states)

    energies, vecs = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, n_keep - 1))
    psis = np.empty((n_keep, grid.n_points))
    for i in range(n_keep):
        psi = vecs[:, i]
        # np.sum, not "@": a BLAS reduction here spins worker threads
        # against the Python Sturm loop and slows solve on fine grids.
        norm = np.sum(psi * psi * w)
        psi = psi / np.sqrt(norm)
        psis[i] = _fix_sign(psi)
        tail = psis[i, -1] ** 2 * h
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

    Psi diag(w g) Psi^T with the trapezoid weights w; g_values is g
    sampled on s.grid.z() and must be finite there.
    """
    g = np.asarray(g_values, dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericalError("g(z) is not finite everywhere on the grid")
    psi = s.wavefunctions
    m = (psi * (s.grid.weights() * g)) @ psi.T
    # The product is symmetric only to round-off; mirror the lower triangle
    # so that <f|g|i> == <i|g|f> holds exactly.
    return np.tril(m) + np.tril(m, -1).T


def coupling_matrix(s: BoundStateSet):
    """All pairwise <f|dU/dz|i> in J/m, symmetric n_states x n_states."""
    return grid_matrix(s, pot.derivative(s.params, s.grid.z()))
