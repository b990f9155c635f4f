"""Bound vibrational states of the adatom in the surface well.

The time-independent Schroedinger problem -k psi'' + U psi = E psi for the
adatom of mass m in U(z), k = hbar^2/(2m), is solved in a sinc discrete
variable representation (DVR) in x = ln z (Colbert & Miller, J. Chem.
Phys. 96, 1982 (1992); Light & Carrington, Adv. Chem. Phys. 114, 263
(2000)).  With z = e^x and psi = e^(x/2) chi it reads

    -chi'' + chi/4 + (z^2/k) U chi = (E/k) z^2 chi,

a symmetric-definite problem with a constant-coefficient kinetic term and
the diagonal right side B = z^2/k.  On N nodes x_i evenly spaced over
[ln z_min, ln z_max] with step h, -d^2/dx^2 is the sinc matrix
T_ii = pi^2/(3 h^2), T_ij = 2 (-1)^(i-j) / (h^2 (i-j)^2), and

    C = B^(-1/2) (T + 1/4 + diag(z^2 U / k)) B^(-1/2)

is dense and symmetric, with the energies in J as its eigenvalues.  One
LAPACK dsyevr call by value (range (-inf, 0]) gives every negative level,
hence both level counts, and their unit vectors v; psi(z_i) =
v_i / sqrt(z_i h) is orthonormal under the weights z_i h.  dsyevr comes
from scipy's f2py extension scipy.linalg._flapack, loaded once from its
file at import (or reused from sys.modules) without running
scipy/linalg/__init__.py, which would double the start-up time of the
command line.  A non-zero LAPACK info is a NumericalError.

The same holds with z - c in place of z for any shift c < z_min: nodes
evenly spaced in x = ln(z - c), B = (z - c)^2/k and weights (z_i - c) h.
A steep wall, about 1/beta wide, is a sliver of ln z but is stretched to
a width of order 1 in ln(z - c) for c = z_min - WALL_SHIFT/beta.

The DVR converges exponentially in N, so the basis is sized from the
potential, not from the sampling of states.csv: the larger of
NYQUIST_FACTOR nodes per Nyquist interval of the largest local wavenumber
in x, max (z - c) sqrt(2m max(0, -U))/hbar, and WALL_NODES nodes per wall
width 1/(beta (z0 - c)), for c = 0 and, where it is positive, for the
shift above; the smaller basis is taken.  The levels are then solved once
more, eigenvalues only, on CHECK_FRACTION of the nodes; the gap, max
|dE|/U0 over the levels kept at both sizes, must be at most
GAP_TOLERANCE, or the basis grows by GROWTH up to MAX_NODES and then
raises GridError.  A well whose estimate is past
MAX_NODES is refused before any solve.  The gap is the discretisation
error the headers report.

Only negative-energy states are physical (energies are measured from the
dissociation limit U(inf) = 0); states closer to the continuum than
1e-3*U0 are discarded and counted in the diagnostics, and every kept state
must leave negligible probability at the first and the last node (head
and tail conditions), otherwise the interval is too small and a GridError
is raised.  U must be finite on the whole interval and must not rise at
its inner edge: an interval that starts inside the inner barrier, where
the exp-3 form dives towards -infinity, is refused.

The weights (z_i - c) h are the one quadrature rule: every matrix element
is sum_i (z_i - c) h psi_f(z_i) g(z_i) psi_i(z_i) on the nodes, and
grid_matrix is the one matrix-element quadrature, <f|g|i> for every pair
at once.  Only
states.csv leaves the nodes: BoundStateSet.interpolate evaluates the sinc
interpolant of psi on Grid.z, the n_points output sampling.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import potential as pot
from .errors import ConfigurationError, GridError, ModelError, NumericalError
from .units import HBAR

# Kept states must satisfy psi^2 z h below this bound at the first and at
# the last node.
TAIL_BOUND = 1e-10
# Bound/continuum guard: discard states with E > -NEAR_ZERO_FRACTION * U0.
NEAR_ZERO_FRACTION = 1e-3
# On a wall that tops out above 10 U0 the inner edge sits where the WKB
# decay from the E = 0 turning point reaches WALL_EFOLDS e-folds of psi,
# so that psi^2 has fallen by about TAIL_BOUND^2 there (auto_grid).
WALL_EFOLDS = -math.log(TAIL_BOUND)
# Basis size (module docstring): nodes per Nyquist interval of the largest
# local wavenumber in ln(z - shift), nodes per wall width
# 1/(beta (z0 - shift)) in ln(z - shift), and the smallest basis.  A
# steep wall is better resolved in ln(z - shift) with the shift
# z_min - WALL_SHIFT/beta, which stretches it to a width of order 1.
NYQUIST_FACTOR = 2.0
WALL_NODES = 1.5
WALL_SHIFT = 4.0
MIN_NODES = 32
# The convergence check: a second, eigenvalues-only basis of CHECK_FRACTION
# of the nodes; the gap, max |dE|/U0 over the levels kept at both, must not
# exceed GAP_TOLERANCE, else the basis grows by GROWTH up to MAX_NODES.
CHECK_FRACTION = 0.8
GAP_TOLERANCE = 1e-8
GROWTH = 1.25
# The dense N x N matrix and dsyevr's vectors take N^2 float cells each;
# the cap keeps them within the budget of units._ARRAY_CELLS per array.
MAX_NODES = 2048
# Points on which the potential is probed to size the basis.
_PROBE_POINTS = 256
# Output rows per block of the sinc interpolant.
_SAMPLE_BLOCK = 2048


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
                          f"_flapack in {where}; adnoise calls its dsyevr")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()


def _lapack(routine, *args, **kwargs):
    """Call a _flapack routine and return its outputs without info.

    A non-zero info is a NumericalError, where scipy's _check_info raises
    ValueError or LinAlgError.
    """
    *out, info = getattr(_FLAPACK, routine)(*args, **kwargs)
    if info < 0:
        raise NumericalError(f"LAPACK {routine}: illegal value in argument "
                             f"{-info} (info = {info})")
    if info > 0:
        raise NumericalError(f"LAPACK {routine}: did not converge "
                             f"(info = {info})")
    return out


@dataclass(frozen=True)
class Grid:
    """The interval [z_min, z_max] of the bound-state problem and the
    sampling of states.csv: z holds n_points points from z_min to z_max,
    evenly spaced in ln z, built once.  The basis of the solve is sized
    apart from n_points (module docstring)."""

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


def _wall_level(p):
    """U/U0 at which the WKB decay from the E = 0 turning point reaches
    WALL_EFOLDS e-folds of psi on an exponential wall.

    There kappa = sqrt(2 m U)/hbar grows as exp(-beta z / 2) inward, so
    the decay integral up to the edge is at most 2 kappa/beta there:
    U = (hbar beta WALL_EFOLDS)^2 / (8 m).  inf past the float range.
    """
    a = HBAR * p.beta * WALL_EFOLDS
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.float64(a * a) / (8.0 * np.float64(p.adatom_mass))
                     / np.float64(p.U0))


def auto_grid(p: pot.SurfacePotentialParams, n_points: int) -> Grid:
    """Choose grid bounds from the potential alone.

    The inner edge sits at the barrier top if the repulsive wall tops out
    below 10*U0 (shallow wells); the top acts as a hard wall against the
    unphysical z -> 0 region of the exp-3 form.  A higher wall is cut
    where U climbs to the larger of 10*U0 and the WKB level of _wall_level,
    or at its top if that lies lower.  The outer edge is where the tail has
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
    z_min = z_pk
    if u_pk >= 10.0 * p.U0:
        level = max(10.0, _wall_level(p))
        # U decreases monotonically from the barrier top to -U0 at z0.  Past
        # a top that overflows, bracket the finite U0-free U/U0 - level from
        # the top or from exp(bz*(1 - z/z0)) = e^700, whichever is higher,
        # and start there if the level lies higher still.
        well, z_lo = p, z_pk
        if u_pk == math.inf:
            well = replace(p, U0=1.0)
            z_lo = max(z_pk, p.z0 * (1.0 - 700.0 / p.beta_z0))
            level = min(level, pot.evaluate(well, z_lo))
        else:
            level *= p.U0
        if level <= u_pk:
            z_min = pot._root(lambda z: pot.evaluate(well, z) - level,
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
    """Eigenpairs of the adatom in the well, orthonormal under weights.

    energies are ascending and all negative; wavefunctions[i] is state i
    on the DVR nodes, with sign fixed so the first antinode from the wall
    is positive; interpolate samples it anywhere in the grid.
    near_zero_discarded counts negative-energy eigenvalues dropped by the
    continuum-contamination guard.  The nodes are evenly spaced in
    ln(z - shift); gap is the convergence gap in U0 against a basis of
    check_nodes nodes.
    """

    grid: Grid
    energies: np.ndarray
    wavefunctions: np.ndarray
    params: pot.SurfacePotentialParams
    near_zero_discarded: int = 0
    nodes: np.ndarray = field(default=None, repr=False)
    shift: float = 0.0
    gap: float = 0.0
    check_nodes: int = 0

    @property
    def n_states(self):
        return len(self.energies)

    @property
    def step(self):
        """The node step h in ln(z - shift)."""
        return _step(self.grid, len(self.nodes), self.shift)

    @cached_property
    def weights(self):
        """The quadrature weights (z_i - shift) h of the nodes."""
        return (self.nodes - self.shift) * self.step

    def splitting(self, i: int, f: int):
        """Transition angular frequency |E_i - E_f| / hbar."""
        return abs(self.energies[i] - self.energies[f]) / HBAR

    def interpolate(self, z):
        """psi of every state at the points z of the grid, (n_states,
        len(z)): psi(z) = sqrt(r) sum_j chi_j sinc((ln r - x_j)/h) with
        r = z - shift and chi_j = psi(z_j)/sqrt(r_j), exact on the nodes.

        With t = (ln r - x_0)/h, sinc((ln r - x_j)/h) = (-1)^j sin(pi t) /
        (pi (t - j)); sin(pi t) is taken from the distance d = t - k to the
        nearest node k, as (-1)^k sin(pi d), which keeps its precision near
        a node.  Built in blocks of _SAMPLE_BLOCK rows.
        """
        r = np.asarray(z, dtype=float) - self.shift
        n = len(self.nodes)
        j = np.arange(n)
        chi = self.wavefunctions / np.sqrt(self.nodes - self.shift)
        signed = (chi * np.where(j % 2, -1.0, 1.0)).T
        x0, h = math.log(self.grid.z_min - self.shift), self.step
        out = np.empty((self.n_states, len(r)))
        for a in range(0, len(r), _SAMPLE_BLOCK):
            rb = r[a:a + _SAMPLE_BLOCK]
            t = (np.log(rb) - x0) / h
            k = np.rint(t)
            d = t - k
            on = d == 0.0
            sine = np.where(k % 2, -1.0, 1.0) * np.sin(np.pi * d) / np.pi
            # a point on a node takes its value; shifted off it, its row
            # of the quotient stays finite
            row = (1.0 / (np.where(on, t + 0.5, t)[:, None] - j)) @ signed
            row *= sine[:, None]
            row[on] = chi[:, k[on].astype(int)].T
            out[:, a:a + _SAMPLE_BLOCK] = (row * np.sqrt(rb)[:, None]).T
        return out


def _fix_sign(psi):
    """Make the first antinode from the wall positive."""
    a = np.abs(psi)
    thresh = 0.05 * a.max()
    rising = np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])
                            & (a[1:-1] > thresh)) + 1
    k = rising[0] if len(rising) else int(np.argmax(a))
    return -psi if psi[k] < 0 else psi


def _step(grid, n, shift):
    """The step h of n nodes evenly spaced in ln(z - shift) from z_min to
    z_max."""
    return (math.log(grid.z_max - shift)
            - math.log(grid.z_min - shift)) / (n - 1)


def _nodes(grid, n, shift):
    """n nodes z evenly spaced in ln(z - shift) from z_min to z_max."""
    return shift + np.exp(np.linspace(math.log(grid.z_min - shift),
                                      math.log(grid.z_max - shift), n))


def _potential(p, grid, z):
    """U on the points z of grid; GridError unless it is finite there and
    falls at the inner edge."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = pot.evaluate(p, z)
    if not np.all(np.isfinite(u)):
        raise GridError(
            f"{p.name}: U(z) is not finite on the grid (z_min = "
            f"{grid.z_min / p.z0:.3g} z0); move the inner edge outward")
    if u[1] > u[0]:
        raise GridError(
            f"{p.name}: U(z) rises at the inner edge, so the grid starts "
            f"inside the inner barrier (z_min = {grid.z_min / p.z0:.3g} z0); "
            "start it at the barrier top or on the wall beyond")
    return u


def _basis_size(p, grid, shift):
    """(nodes, largest local wavenumber in ln(z - shift)) of a first
    basis in ln(z - shift) (module docstring)."""
    z = _nodes(grid, _PROBE_POINTS, shift)
    u = _potential(p, grid, z)
    width = math.log(grid.z_max - shift) - math.log(grid.z_min - shift)
    with np.errstate(over="ignore", invalid="ignore"):
        kx = np.max((z - shift)
                    * np.sqrt(2.0 * p.adatom_mass * np.maximum(0.0, -u))
                    / HBAR)
        n = float(max(NYQUIST_FACTOR * kx / math.pi,
                      WALL_NODES * p.beta_z0 * (1.0 - shift / p.z0))
                  * width) + 1.0
    return n, kx


def _basis(p, grid):
    """(nodes, shift) of the first basis: the smaller of the bases in ln z
    and, where z_min - WALL_SHIFT/beta > 0, in ln(z - shift) with that
    shift; GridError past MAX_NODES, before any solve."""
    shifts = [0.0, grid.z_min - WALL_SHIFT * p.z0 / p.beta_z0]
    n, kx, shift = min((*_basis_size(p, grid, c), c) for c in shifts
                       if c >= 0.0)
    if not n <= MAX_NODES:
        raise GridError(
            f"{p.name}: the well needs about {n:.3g} sinc nodes (largest "
            f"local wavenumber {kx:.3g} in the node coordinate, beta*z0 = "
            f"{p.beta_z0:.4g}), past the cap of {MAX_NODES}")
    return max(MIN_NODES, math.ceil(n)), shift


def _levels(p, grid, n, shift, vectors):
    """The negative eigenvalues of C on n nodes in ln(z - shift),
    ascending, and with vectors also (nodes, their unit vectors in
    columns)."""
    z, h = _nodes(grid, n, shift), _step(grid, n, shift)
    u = _potential(p, grid, z)
    r = z - shift
    # The kinetic term on the smallest node spacing r_0 h, a float64
    # quotient: a denominator that underflows to 0 gives inf.
    with np.errstate(divide="ignore", over="ignore"):
        kin = HBAR ** 2 / np.float64(2.0 * p.adatom_mass * (r[0] * h) ** 2)
        k = HBAR ** 2 / np.float64(2.0 * p.adatom_mass)
    if not (np.isfinite(kin) and np.isfinite(k)):
        raise NumericalError(
            f"{p.name}: the kinetic term hbar^2/(2 m h^2) = {kin:.3g} J "
            "overflows the Hamiltonian; the adatom mass is too small")
    d = np.arange(1, n)
    t = np.concatenate(([np.pi ** 2 / 3.0],
                        2.0 * np.where(d % 2, -1.0, 1.0) / d ** 2))
    j = np.arange(n)
    s = np.sqrt(k) / (h * r)
    c = t[np.abs(j[:, None] - j)] * s * s[:, None]
    c[j, j] += 0.25 * h * h * s * s + u
    # C is symmetric, so its transpose is the Fortran-ordered matrix that
    # dsyevr may overwrite in place; the workspace is the optimal one, as
    # scipy.linalg.eigh passes it.
    work, iwork = _lapack("dsyevr_lwork", n, lower=1)
    w, v, m, _ = _lapack("dsyevr", c.T, compute_v=int(vectors), range="V",
                         lower=1, vl=-np.inf, vu=0.0, lwork=int(work),
                         liwork=iwork, overwrite_a=1)
    if not vectors:
        return w[:m]
    return w[:m], z, v[:, :m]


def _gap(coarse, fine, cut, max_states, u0):
    """max |dE|/U0 over the levels kept at both sizes: the lowest
    min(levels below cut, max_states) of each, as many as both keep."""
    m = min(max_states, np.count_nonzero(coarse < cut),
            np.count_nonzero(fine < cut))
    return float(np.max(np.abs(fine[:m] - coarse[:m]), initial=0.0)) / u0


def _states(p, grid, n, shift, max_states):
    """The states below the cut on n nodes in ln(z - shift), up to
    max_states, unchecked."""
    levels, z, vecs = _levels(p, grid, n, shift, vectors=True)
    n_bound = int(np.count_nonzero(levels < -NEAR_ZERO_FRACTION * p.U0))
    n_keep = min(n_bound, max_states)
    # dsyevr's vectors are unit vectors, so the psi are orthonormal under
    # the weights (z - shift) h.
    psis = vecs[:, :n_keep].T / np.sqrt((z - shift) * _step(grid, n, shift))
    for i in range(n_keep):
        psis[i] = _fix_sign(psis[i])
    return BoundStateSet(grid=grid, energies=levels[:n_keep],
                         wavefunctions=psis, params=p,
                         near_zero_discarded=len(levels) - n_bound, nodes=z,
                         shift=shift)


def _check_edges(s):
    """GridError unless every kept state leaves less than TAIL_BOUND of
    psi^2 times the weight at the first node (head) and at the last
    (tail)."""
    p = s.params
    for node, name, remedy in (
            (0, "head", "move the inner edge up the wall; a barrier top "
                        "that low does not hold the state"),
            (-1, "tail", "enlarge the grid")):
        mass = s.wavefunctions[:, node] ** 2 * s.weights[node]
        bad = np.flatnonzero(mass >= TAIL_BOUND)
        if bad.size:
            i = bad[0]
            raise GridError(
                f"{p.name}: state {i} (E = {s.energies[i] / p.U0:.4f} U0) "
                f"violates the {name} condition ({mass[i]:.2e} >= "
                f"{TAIL_BOUND} at z = {s.nodes[node] / p.z0:.4g} z0); "
                f"{remedy}")


def solve(p: pot.SurfacePotentialParams, grid: Grid,
          max_states: int) -> BoundStateSet:
    """All bound states of mass m in U(z), up to max_states.

    Raises ModelError if fewer than two bound states exist and GridError if
    U is not finite on the grid, rises at its inner edge (the grid starts
    inside the inner barrier), the basis would outgrow MAX_NODES before its
    gap falls to GAP_TOLERANCE, or a kept state fails the head or the tail
    condition.  Raises NumericalError if the kinetic term is not finite (a
    mass too small for the nodes) or if a LAPACK call fails.
    """
    if max_states < 2:
        raise ConfigurationError("max_states must be at least 2")
    n, shift = _basis(p, grid)
    check = max(MIN_NODES, round(CHECK_FRACTION * n))
    cut = -NEAR_ZERO_FRACTION * p.U0
    coarse = _levels(p, grid, check, shift, vectors=False)
    while True:
        s = _states(p, grid, n, shift, max_states)
        if s.n_states < 2:
            raise ModelError(
                f"{p.name}: potential too shallow for spectrum analysis "
                f"({s.n_states} bound state(s) found)")
        # An interval that cuts a state keeps the basis from converging, so
        # the edges are checked first.
        _check_edges(s)
        gap = _gap(coarse, s.energies, cut, max_states, p.U0)
        if gap <= GAP_TOLERANCE:
            return replace(s, gap=gap, check_nodes=check)
        grown = math.ceil(GROWTH * n)
        if grown > MAX_NODES:
            raise GridError(
                f"{p.name}: the levels move by {gap:.2e} U0 between {check} "
                f"and {n} sinc nodes, past the tolerance {GAP_TOLERANCE}, "
                f"and the next basis passes the cap of {MAX_NODES}")
        check, coarse, n = n, s.energies, grown


def grid_matrix(s: BoundStateSet, g_values):
    """All <f| g |i> as a symmetric n_states x n_states array.

    Psi diag(w g) Psi^T with the weights w = s.weights; g_values is g
    sampled on s.nodes and must be finite there.
    """
    g = np.asarray(g_values, dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericalError("g(z) is not finite everywhere on the grid")
    psi = s.wavefunctions
    m = (psi * (s.weights * g)) @ psi.T
    # The product is symmetric only to round-off; mirror the lower triangle
    # so that <f|g|i> == <i|g|f> holds exactly.
    return np.tril(m) + np.tril(m, -1).T


def coupling_matrix(s: BoundStateSet):
    """All pairwise <f|dU/dz|i> in J/m, symmetric n_states x n_states."""
    return grid_matrix(s, pot.derivative(s.params, s.nodes))
