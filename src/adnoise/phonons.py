"""Phonon-induced transitions between bound vibrational states.

Single-phonon emission and absorption in an isotropic acoustic bulk of
averaged sound speed v and density rho give golden-rule rates between
states i and f separated by delta_omega = |E_i - E_f| / hbar:

    down:  Gamma = delta_omega / (2 pi hbar v^3 rho) * |<f|dU/dz|i>|^2 * (n+1)
    up:    same with n,       n = 1 / (exp(hbar delta_omega / kB T) - 1).

The single-phonon picture only holds below the Debye frequency of the
bulk; transitions above it are hard-zeroed on both directions and flagged
in the cutoff mask.  The rates assemble into the master-equation generator
M (columns sum to zero) whose null space is the stationary distribution;
detailed balance holds pair by pair, so the stationary state is Boltzmann.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import svd

from .boundstates import BoundStateSet, coupling_matrix
from .errors import DomainError, ModelError, NumericalError
from .potential import BulkMaterial, SurfacePotentialParams
from .units import HBAR, KB

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
DEGENERACY_RTOL = 1e-12


def bose_occupation(delta_omega, T):
    """Thermal phonon number at angular frequency delta_omega (rad/s).

    delta_omega may be an array; the result then has its shape.
    """
    domega = np.asarray(delta_omega, dtype=float)
    if np.any(domega <= 0):
        raise DomainError("delta_omega must be positive")
    if T < 0:
        raise DomainError("temperature must be non-negative")
    if T == 0:
        n = np.zeros_like(domega)
    else:
        x = HBAR * domega / (KB * T)
        # Above x = 700 the occupation is below 1e-304: call it zero rather
        # than let expm1 overflow.
        n = np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))
    return n if n.ndim else float(n)


def gamma0_harmonic(p: SurfacePotentialParams, material: BulkMaterial, nu10):
    """Zero-temperature 1->0 decay rate in the harmonic approximation, 1/s.

    Closed-form scaling Gamma0 ~ nu10^4 m / (4 pi v^3 rho) with nu10 the
    fundamental angular frequency; no Debye cutoff is applied here.
    """
    if nu10 <= 0:
        raise DomainError("nu10 must be positive")
    return (nu10 ** 4 * p.adatom_mass
            / (4.0 * math.pi * material.speed_of_sound ** 3 * material.density))


def _golden_rule_rates(energies, coupling, material: BulkMaterial, T):
    """Golden-rule rates between every pair of levels; returns (gamma, mask).

    gamma[i, f] = Gamma_{i->f} (zero diagonal) from the coupling matrix
    <f|dU/dz|i>; mask marks the pairs above the Debye cutoff, whose rates
    are zero in both directions.  Raises ModelError on degenerate levels.
    """
    E = np.asarray(energies, dtype=float)
    de = E[:, None] - E[None, :]
    pair = ~np.eye(len(E), dtype=bool)
    degenerate = pair & (np.abs(de) <= DEGENERACY_RTOL * np.maximum(
        np.abs(E)[:, None], np.abs(E)[None, :]))
    if degenerate.any():
        i, f = np.argwhere(degenerate)[0]
        raise ModelError(f"states {i} and {f} are degenerate")
    domega = np.abs(de) / HBAR
    mask = pair & (domega / TWO_PI > material.debye_frequency)
    live = pair & ~mask
    base = (domega[live] / (TWO_PI * HBAR * material.speed_of_sound ** 3
                            * material.density) * coupling[live] ** 2)
    # Emission (E_i > E_f) goes with n + 1, absorption with n.
    n = bose_occupation(domega[live], T)
    gamma = np.zeros_like(de)
    gamma[live] = base * (n + (de[live] > 0))
    return gamma, mask


def transition_rate(states: BoundStateSet, material: BulkMaterial,
                    i: int, f: int, T):
    """Rate Gamma_{i->f} at temperature T; returns (rate, masked).

    masked is True when the transition frequency exceeds the Debye cutoff
    of the material, in which case the rate is zero.
    """
    if i == f:
        raise DomainError("transition requires i != f")
    gamma, mask = _golden_rule_rates(states.energies, coupling_matrix(states),
                                     material, T)
    return float(gamma[i, f]), bool(mask[i, f])


@dataclass(frozen=True)
class RateMatrix:
    """Pairwise rates and the master-equation generator at temperature T.

    gamma[i, f] = Gamma_{i->f} (zero diagonal); the generator has
    M[i, j] = Gamma_{j->i} off the diagonal and column sums exactly zero.
    cutoff_mask marks transition pairs zeroed by the Debye cutoff
    (symmetric by construction).
    """

    gamma: np.ndarray
    generator: np.ndarray
    temperature: float
    cutoff_mask: np.ndarray

    def __post_init__(self):
        scale = np.abs(self.generator).max()
        colsums = np.abs(self.generator.sum(axis=0))
        if scale > 0 and colsums.max() > 1e-12 * scale:
            raise NumericalError("generator columns do not sum to zero")
        if not np.array_equal(self.cutoff_mask, self.cutoff_mask.T):
            raise NumericalError("cutoff mask must be symmetric")

    @property
    def n_states(self):
        return self.gamma.shape[0]

    @classmethod
    def from_gamma(cls, gamma, temperature, cutoff_mask=None):
        gamma = np.asarray(gamma, dtype=float)
        n = gamma.shape[0]
        if cutoff_mask is None:
            cutoff_mask = np.zeros((n, n), dtype=bool)
        gen = gamma.T.copy()
        np.fill_diagonal(gen, 0.0)
        np.fill_diagonal(gen, -gen.sum(axis=0))
        return cls(gamma=gamma, generator=gen, temperature=temperature,
                   cutoff_mask=cutoff_mask)


def _connected(adjacency):
    """BFS connectivity of the undirected transition graph."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        j = stack.pop()
        for k in np.flatnonzero(adjacency[j]):
            if not seen[k]:
                seen[k] = True
                stack.append(k)
    return bool(seen.all())


def build_rate_matrix(states: BoundStateSet, material: BulkMaterial, T,
                      coupling=None) -> RateMatrix:
    """Populate all pairwise rates and assemble the generator.

    coupling may carry a precomputed <f|dU/dz|i> matrix (temperature
    independent) to amortize the quadratures across a temperature sweep.
    Raises ModelError when the Debye cutoff disconnects the transition
    graph, because no unique stationary state exists then.
    """
    n = states.n_states
    if n < 2:
        raise ModelError("need at least two bound states")
    if coupling is None:
        coupling = coupling_matrix(states)
    gamma, mask = _golden_rule_rates(states.energies, coupling, material, T)
    masked_pairs = np.argwhere(np.tril(mask))
    if len(masked_pairs):
        logger.warning(
            "%s: %d transition(s) above the Debye cutoff (%.3g THz): %s",
            states.params.name, len(masked_pairs),
            material.debye_frequency / 1e12,
            ", ".join(f"{i}<->{f} ({states.splitting(i, f) / TWO_PI / 1e12:.3g}"
                      " THz)" for i, f in masked_pairs))
    adjacency = (gamma + gamma.T) > 0
    if not _connected(adjacency):
        raise ModelError(
            f"{states.params.name}: ergodicity broken by Debye cutoff; the "
            "transition graph is disconnected and the spectrum is ill-defined")
    logger.info("%s: transition graph connected (%d states, T = %.4g K)",
                states.params.name, n, T)
    return RateMatrix.from_gamma(gamma, temperature=T, cutoff_mask=mask)


def _gth_null_vector(gamma):
    """Stationary vector of a rate matrix by GTH elimination.

    Gaussian elimination reorganized so every intermediate is a sum of
    products of non-negative rates: no cancellation, hence componentwise
    relative accuracy even when populations span hundreds of orders of
    magnitude (deep Boltzmann tails at low temperature).
    """
    a = np.array(gamma, dtype=float)  # a[i, j] = rate i -> j, i != j
    n = a.shape[0]
    np.fill_diagonal(a, 0.0)
    for k in range(n - 1, 0, -1):
        s = a[k, :k].sum()
        if s <= 0.0:
            raise ModelError(
                f"state {k} has no path toward lower states; stationary "
                "state not reachable by elimination")
        a[:k, k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    p = np.zeros(n)
    p[0] = 1.0
    for k in range(1, n):
        p[k] = p[:k] @ a[:k, k]
    return p / p.sum()


def stationary_distribution(r: RateMatrix):
    """Probability vector p with M p = 0, from the null space of M.

    The null space dimension is verified by SVD; the vector itself is
    computed by GTH elimination, which resolves exponentially small
    populations to full relative precision where a raw SVD vector would
    bottom out at the 1e-16 noise floor.
    """
    M = r.generator
    scale = np.abs(M).max()
    s = svd(M, compute_uv=False)
    tol = 1e-10 * scale
    null_dim = int(np.sum(s < tol))
    if null_dim != 1:
        raise ModelError(
            f"generator has {null_dim} zero singular values (tol {tol:.3g}); "
            "stationary state not unique")
    return _gth_null_vector(r.gamma)
