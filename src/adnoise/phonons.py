"""Phonon-induced transitions between bound vibrational states.

Single-phonon emission and absorption in an isotropic acoustic bulk of
averaged sound speed v and density rho give golden-rule rates between
states i and f separated by delta_omega = |E_i - E_f| / hbar:

    down:  Gamma = delta_omega / (2 pi hbar v^3 rho) * |<f|dU/dz|i>|^2 * (n+1)
    up:    same with n,       n = 1 / (exp(hbar delta_omega / kB T) - 1).

The single-phonon picture only holds below the Debye frequency of the
bulk; transitions above it are hard-zeroed on both directions and flagged
in the cutoff mask.  The rates alone define the master-equation generator
M (columns sum to zero).  Detailed balance holds pair by pair and a graph
the mask disconnects is refused, so the null space of M is the Boltzmann
distribution of the levels, which stationary_distribution writes.

The temperature may be an array: the rates, the generator and the
stationary state then carry its shape as leading axes, and row k is bit
for bit the result at the k-th temperature alone.  What does not depend
on the temperature (the degeneracy check, the Debye mask and its
warning, the base rates and the connectivity of the transition graph) is
done once per call; the coupling matrix is the caller's, built once per
level set.  A check that fails on one row names that row's temperature.
"""

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .boundstates import BoundStateSet, coupling_matrix
from .errors import DomainError, ModelError, NumericalError
from .potential import BulkMaterial
from .units import HBAR, KB

# Re-exported, never called here: it builds the coupling every rate
# function takes, and the benchmark self-test traces this binding.
__all__ = ["RateMatrix", "bose_occupation", "build_rate_matrix",
           "coupling_matrix", "stationary_distribution", "transition_rate"]

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
DEGENERACY_RTOL = 1e-12


def bose_occupation(delta_omega, T):
    """Thermal phonon number at angular frequency delta_omega (rad/s).

    delta_omega and T may be arrays; the result then has the shape
    T.shape + delta_omega.shape.
    """
    domega = np.asarray(delta_omega, dtype=float)
    T = np.asarray(T, dtype=float)
    if np.any(domega <= 0):
        raise DomainError("delta_omega must be positive")
    if np.any(T < 0):
        raise DomainError("temperature must be non-negative")
    # T = 0 gives x = inf, hence n = 0 below.
    with np.errstate(divide="ignore"):
        x = HBAR * domega / (KB * T[(...,) + (None,) * domega.ndim])
    # Above x = 700 the occupation is below 1e-304: call it zero rather
    # than let expm1 overflow.
    n = np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))
    return n if n.ndim else float(n)


def _require(ok, T, exc, message, *values):
    """Raise exc(message) unless ok holds on every row of a stack.

    ok has the leading shape of the temperatures T; the message names the
    first failing row's temperature in kelvin, and its %-fields take that
    row's entries of values.
    """
    bad = np.flatnonzero(~np.asarray(ok))
    if len(bad):
        k = np.unravel_index(bad[0], np.shape(ok))
        message %= tuple(np.asarray(v)[k] for v in values)
        t = np.broadcast_to(T, np.shape(ok))[k]
        raise exc(f"{message} at T = {t:.6g} K")


def _golden_rule_rates(energies, coupling, material: BulkMaterial, T):
    """Golden-rule rates between every pair of levels.

    Returns (gamma, mask, base): gamma[..., i, f] = Gamma_{i->f} at each
    temperature of T (zero diagonal) from the coupling matrix
    <f|dU/dz|i>; mask marks the pairs above the Debye cutoff, whose rates
    are zero in both directions; base is the temperature-independent
    prefactor of each pair (zero where masked), which the emission rate
    multiplies by n + 1 >= 1.  Raises ModelError on degenerate levels and
    NumericalError on a rate past the float range.
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
    try:
        cube = material.speed_of_sound ** 3
    except OverflowError:
        raise NumericalError("material.speed_of_sound: c^3 overflows") from None
    # Below DBL_MIN the rates divide by zero or overflow; past DBL_MAX
    # they all read 0 and the graph looks disconnected.
    den = TWO_PI * HBAR * cube * material.density
    if not sys.float_info.min <= den < math.inf:
        raise NumericalError(
            "material.speed_of_sound, material.density: the golden-rule "
            f"denominator 2 pi hbar c^3 rho = {den:.3g} kg^2 m^2/s^4 leaves "
            "the float range")
    base = np.zeros_like(de)
    base[live] = domega[live] / den * coupling[live] ** 2
    # Emission (E_i > E_f) goes with n + 1, absorption with n.
    with np.errstate(over="ignore", invalid="ignore"):
        n = bose_occupation(domega[live], T)
        gamma = np.zeros(np.shape(T) + de.shape)
        gamma[..., live] = base[live] * (n + (de[live] > 0))
    _require(np.isfinite(gamma).all(axis=(-2, -1)), T, NumericalError,
             "a transition rate is past the float range")
    return gamma, mask, base


def transition_rate(states: BoundStateSet, material: BulkMaterial,
                    i: int, f: int, T, coupling):
    """Rate Gamma_{i->f} at temperature T; returns (rate, masked).

    masked is True when the transition frequency exceeds the Debye cutoff
    of the material, in which case the rate is zero.  coupling is the
    <f|dU/dz|i> matrix of the states, as for build_rate_matrix.
    """
    if i == f:
        raise DomainError("transition requires i != f")
    gamma, mask, _ = _golden_rule_rates(states.energies, coupling, material,
                                        T)
    return float(gamma[i, f]), bool(mask[i, f])


@dataclass(frozen=True)
class RateMatrix:
    """Pairwise rates at temperature T and the generator they make.

    gamma[..., i, f] = Gamma_{i->f} (zero diagonal).  temperature is a
    float, or an array whose shape is the leading shape of gamma (one rate
    matrix per temperature).  cutoff_mask marks the transition pairs
    zeroed by the Debye cutoff; it is the same at every temperature and
    symmetric by construction.
    """

    gamma: np.ndarray
    temperature: float
    cutoff_mask: np.ndarray

    @property
    def n_states(self):
        return self.gamma.shape[-1]

    @property
    def generator(self):
        """M[..., i, j] = Gamma_{j->i}, i != j; every column sums to zero."""
        gen = np.swapaxes(self.gamma, -1, -2).copy()
        diag = np.arange(self.n_states)
        gen[..., diag, diag] = 0.0
        gen[..., diag, diag] = -gen.sum(axis=-2)
        return gen

    @classmethod
    def from_gamma(cls, gamma, temperature):
        """Rates with no pair masked."""
        gamma = np.asarray(gamma, dtype=float)
        return cls(gamma, temperature, np.zeros(gamma.shape[-2:], dtype=bool))


def build_rate_matrix(states: BoundStateSet, material: BulkMaterial, T,
                      coupling) -> RateMatrix:
    """Populate all pairwise rates.

    T may be an array of temperatures (see the module docstring).
    coupling is the <f|dU/dz|i> matrix of the states, which the caller
    builds once (boundstates.coupling_matrix) for every call.  Raises
    ModelError when the Debye cutoff disconnects the transition graph,
    because no unique stationary state exists then.
    """
    n = states.n_states
    if n < 2:
        raise ModelError("need at least two bound states")
    gamma, mask, base = _golden_rule_rates(states.energies, coupling,
                                           material, T)
    masked_pairs = np.argwhere(np.tril(mask))
    # A pair is linked at every temperature exactly when its base rate is
    # positive, since its emission rate is at least that.  Boolean
    # closure: after k squarings reach[i, j] holds when a path of at most
    # 2**k transitions joins i and j, and 2**n.bit_length() > n.  A
    # refusal is one line, so the check comes before the mask's warning.
    linked = base > 0
    reach = linked | linked.T | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    if not reach[0].all():
        raise ModelError(
            f"{states.params.name}: ergodicity broken by Debye cutoff "
            f"({len(masked_pairs)} transition(s) above "
            f"{material.debye_frequency / 1e12:.3g} THz); the transition "
            "graph is disconnected and the spectrum is ill-defined")
    if len(masked_pairs):
        logger.warning(
            "%s: %d transition(s) above the Debye cutoff (%.3g THz): %s",
            states.params.name, len(masked_pairs),
            material.debye_frequency / 1e12,
            ", ".join(f"{i}<->{f} ({states.splitting(i, f) / TWO_PI / 1e12:.3g}"
                      " THz)" for i, f in masked_pairs))
    logger.info("%s: transition graph connected (%d states)",
                states.params.name, n)
    return RateMatrix(gamma, T, mask)


def stationary_distribution(energies, T):
    """Boltzmann populations exp(-(E - E0) / kB T), normalised, with E0 =
    energies[0]: one row per temperature of T, and (1, 0, ...) at T = 0."""
    E = np.asarray(energies, dtype=float)
    kT = KB * np.asarray(T, dtype=float)[..., None]
    # At T = 0 the ground state reads 0/0 until set; the rest exp(-inf) = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.exp(-(E - E[0]) / kT)
    p[..., 0] = 1.0
    return p / p.sum(axis=-1, keepdims=True)
