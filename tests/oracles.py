"""Reference routes and closed forms the tests hold the library against.

The library computes each quantity by one route; these are the second
routes and the estimates that only the tests use:

* spectrum_via_resolvent: solves the Laplace-transformed regression
  equations for the population correlations <rho_i(tau) rho_k(0)>, one
  linear system (a resolvent of the generator) per frequency.  Exact up
  to round-off and independent of the eigendecomposition behind
  spectrum.correlation_modes; it cross-checks the Lorentzian sum, with
  the same two-sided convention and sum rule
  int S(omega) domega / 2 pi = Var(mu).
* gth_stationary: the null vector of a generator built from any rates,
  by GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1107
  (1985)).  It knows nothing of energies, so it checks that the
  Boltzmann state phonons.stationary_distribution writes is the
  stationary state of the rates.
* two_level_limit: the low-temperature closed form of the spectrum.
* fit_loglog_slope and empirical_knee: the slope and the knee read off a
  sampled spectrum.
* harmonic_frequency, bound_state_count_estimate and gamma0_harmonic: the
  harmonic expansion of the well around z0 and the decay rate it gives.
"""

import math

import numpy as np

from adnoise.errors import AnalysisError, DomainError, ModelError
from adnoise.phonons import RateMatrix
from adnoise.potential import BulkMaterial, SurfacePotentialParams
from adnoise.units import HBAR, KB, _line_fit


def spectrum_via_resolvent(r: RateMatrix, p0, mu, omegas):
    """Regression-equation route to S_mu, sampled at the given omegas.

    The Laplace transform of the regression equations for the population
    correlations gives, with mu the dipole ladder (C m) and dmu = mu - <mu>,

        S(omega) = 2 Re dmu^T (i omega - M + c p0 1^T)^{-1} diag(p0) dmu,

    one linear solve per omega.  Since 1^T diag(p0) dmu = 0, the rank-one
    term leaves the solution unchanged; it makes the system regular at
    omega = 0.  Its scale c, the generator's largest rate, keeps the
    round-off left in 1^T diag(p0) dmu from being amplified there.
    Independent of the mode decomposition.
    """
    p0 = np.asarray(p0, dtype=float)
    mu = np.asarray(mu, dtype=float)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    M = r.generator
    dmu = mu - p0 @ mu
    a = np.abs(M).max() * p0[:, None] - M
    rhs = p0 * dmu
    eye = np.eye(len(p0))
    return np.array([2.0 * (dmu @ np.linalg.solve(1j * w * eye + a, rhs)).real
                     for w in omegas])


def gth_stationary(r: RateMatrix):
    """Probability vector p with M p = 0, by GTH elimination.

    Gaussian elimination reorganized so every intermediate is a sum of
    products of non-negative rates: no cancellation, hence componentwise
    relative accuracy even when populations span hundreds of orders of
    magnitude (deep Boltzmann tails at low temperature).  It raises
    ModelError exactly when some state has no path toward lower states.
    Otherwise every state reaches state 0, which makes the closed class and
    hence the stationary state unique.  A stack of rate matrices gives one
    probability vector per temperature, p[..., i].
    """
    a = np.array(r.gamma, dtype=float)  # a[..., i, j] = rate i -> j, i != j
    n = a.shape[-1]
    diag = np.arange(n)
    a[..., diag, diag] = 0.0
    for k in range(n - 1, 0, -1):
        s = a[..., k, :k].sum(axis=-1)
        if np.any(s <= 0.0):
            raise ModelError(f"state {k} has no path toward lower states")
        a[..., :k, k] /= s[..., None]
        a[..., :k, :k] += a[..., :k, k, None] * a[..., k, None, :k]
    p = np.zeros(a.shape[:-1])
    p[..., 0] = 1.0
    for k in range(1, n):
        p[..., k] = (p[..., None, :k] @ a[..., :k, k, None])[..., 0, 0]
    return p / p.sum(axis=-1, keepdims=True)


def two_level_limit(mu0, mu1, gamma0, nu10, T, omega):
    """Low-temperature closed form: a single thermally activated Lorentzian
    of width gamma0 and weight (mu0 - mu1)^2 exp(-hbar nu10 / kB T)."""
    if T <= 0:
        raise DomainError("two-level limit requires T > 0")
    omega = np.asarray(omega, dtype=float)
    out = ((mu0 - mu1) ** 2 * 2.0 * gamma0 / (omega ** 2 + gamma0 ** 2)
           * math.exp(-HBAR * nu10 / (KB * T)))
    return out if out.ndim else float(out)


def fit_loglog_slope(omegas, values, window):
    """Least-squares slope of log S vs log omega inside window = (lo, hi).

    Returns (slope, standard_error).  Needs at least 8 positive samples in
    the window.
    """
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    m = (omegas >= lo) & (omegas <= hi)
    if m.sum() < 8:
        raise AnalysisError(
            f"only {int(m.sum())} points inside window [{lo:.3g}, {hi:.3g}]; "
            "need at least 8")
    if np.any(values[m] <= 0):
        raise AnalysisError("spectrum values must be positive for a log-log fit")
    slope, _, _, stderr = _line_fit(np.log(omegas[m]), np.log(values[m]))
    return slope, stderr


def empirical_knee(omegas, values):
    """Locate the crossover out of the white-noise plateau.

    The plateau level is read off the low-frequency end; a log-log line is
    fitted over the first decade after the spectrum has dropped to half
    the plateau, and the knee is where that line meets the plateau.
    """
    omegas = np.asarray(omegas, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(omegas)
    omegas, values = omegas[order], values[order]
    plateau = float(np.median(values[:5]))
    below = np.flatnonzero(values <= 0.5 * plateau)
    if len(below) == 0:
        raise AnalysisError("spectrum never drops below half the plateau")
    w_half = omegas[below[0]]
    slope, _ = fit_loglog_slope(omegas, values, (w_half, 10.0 * w_half))
    # Intercept of the fitted line through the half point.
    i0 = below[0]
    log_knee = np.log(omegas[i0]) + (np.log(plateau) - np.log(values[i0])) / slope
    return float(np.exp(log_knee))


def harmonic_frequency(p: SurfacePotentialParams):
    """Fundamental vibration frequency from the curvature at z0, rad/s."""
    bz = p.beta_z0
    if bz <= 4.0:
        raise DomainError(f"beta*z0 = {bz:.3f} <= 4: curvature at z0 not positive")
    return math.sqrt(p.U0 / (p.adatom_mass * p.z0 ** 2)
                     * 3.0 * (bz * bz - 4.0 * bz) / (bz - 3.0))


def bound_state_count_estimate(p: SurfacePotentialParams):
    """Rough count of strongly bound levels, U0/(hbar*nu10), at least 1."""
    n = round(p.U0 / (HBAR * harmonic_frequency(p)))
    return max(int(n), 1)


def gamma0_harmonic(p: SurfacePotentialParams, material: BulkMaterial, nu10):
    """Zero-temperature 1->0 decay rate in the harmonic approximation, 1/s.

    Closed-form scaling Gamma0 ~ nu10^4 m / (4 pi v^3 rho) with nu10 the
    fundamental angular frequency; no Debye cutoff is applied here.
    """
    if nu10 <= 0:
        raise DomainError("nu10 must be positive")
    return (nu10 ** 4 * p.adatom_mass
            / (4.0 * math.pi * material.speed_of_sound ** 3 * material.density))
