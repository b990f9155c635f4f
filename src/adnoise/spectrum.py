"""Dipole fluctuation spectrum of a single adatom.

The dipole operator is diagonal in the vibrational basis,
mu = sum_i mu_i |i><i|, and the populations relax under the master
equation d<rho>/dt = M <rho>.  Two independent routes to the two-sided
spectrum S(omega) = int dtau (<mu(tau) mu(0)> - <mu>^2) e^{i omega tau}
are implemented:

* correlation_modes: detailed balance makes A = D^{-1/2} M D^{1/2}
  symmetric (D = diag of the stationary state), so the correlation
  function is an exact finite sum of decaying exponentials and the
  spectrum an exact sum of origin-centered Lorentzians
  S(omega) = sum_k w_k 2 lambda_k / (omega^2 + lambda_k^2).
  This is the primary method: no frequency grid error, manifestly
  non-negative weights.

* spectrum_via_resolvent: solves the Laplace-transformed regression
  equations for the population correlations <rho_i(tau) rho_k(0)>, one
  linear system (a resolvent of the generator) per frequency.  Exact up
  to round-off and independent of the eigendecomposition; serves as the
  cross-check.

Both use the convention S(omega) two-sided in angular frequency, with
sum rule int S(omega) domega / 2 pi = Var(mu).
"""

import math
from dataclasses import dataclass

import numpy as np

from .dipoles import DipoleLadder
from .errors import AnalysisError, DomainError, ModelError, NumericalError
from .phonons import RateMatrix, bose_occupation
from .units import HBAR, KB


@dataclass(frozen=True)
class DipoleSpectrum:
    """Lorentzian-mode decomposition of S_mu plus dipole statistics.

    modes: decay rates lambdas (1/s, all > 0) with spectral weights
    (C^2 m^2, all >= 0 up to round-off); their sum equals the variance.
    """

    lambdas: np.ndarray
    weights: np.ndarray
    mean_dipole: float
    variance: float
    temperature: float

    def __post_init__(self):
        if np.any(self.lambdas <= 0):
            raise NumericalError("all mode decay rates must be positive")
        if self.variance > 0:
            if self.weights.min() < -1e-12 * self.variance:
                raise NumericalError("negative spectral weight beyond round-off")
            if abs(self.weights.sum() - self.variance) > 1e-8 * self.variance:
                raise NumericalError(
                    "mode weights do not add up to the dipole variance")

    @property
    def n_modes(self):
        return len(self.lambdas)


def correlation_modes(r: RateMatrix, p0, ladder: DipoleLadder) -> DipoleSpectrum:
    """Spectral decomposition of the symmetrized generator.

    With D = diag(p0), A = D^{-1/2} M D^{1/2} must be symmetric (detailed
    balance); its eigenpairs (lambda_k <= 0, v_k) give the correlation
    C(tau) = sum_k w_k exp(lambda_k |tau|) with w_k = (v_k . w)^2 and
    w_i = (mu_i - <mu>) sqrt(p0_i).  The single zero mode is excluded.
    Centering before the projection, and the pairwise variance
    1/2 sum_ij p0_i p0_j (mu_i - mu_j)^2, keep the statistics free of
    cancellation against <mu>^2 when the excited levels are nearly empty.
    """
    p0 = np.asarray(p0, dtype=float)
    mu = np.asarray(ladder.mu, dtype=float)
    if np.any(p0 <= 0):
        raise ModelError(
            "stationary populations must be strictly positive for the mode "
            "decomposition (T > 0)")
    M = r.generator
    d = np.sqrt(p0)
    A = M * (d[None, :] / d[:, None])
    asym = np.abs(A - A.T).max()
    if asym > 1e-8 * np.abs(A).max():
        raise NumericalError(
            f"detailed balance violation: symmetrized generator asymmetry "
            f"{asym:.3e} exceeds tolerance")
    lam, V = np.linalg.eigh(0.5 * (A + A.T))
    izero = int(np.argmax(lam))
    scale = np.abs(M).max()
    if abs(lam[izero]) > 1e-10 * scale:
        raise NumericalError("no zero mode found in the symmetrized generator")
    mean = float(p0 @ mu)
    proj = V.T @ ((mu - mean) * d)
    keep = np.arange(len(lam)) != izero
    if np.any(lam[keep] >= 0):
        raise NumericalError("non-decaying mode besides the stationary one")
    variance = 0.5 * float(p0 @ (mu[:, None] - mu[None, :]) ** 2 @ p0)
    return DipoleSpectrum(lambdas=-lam[keep], weights=proj[keep] ** 2,
                          mean_dipole=mean, variance=variance,
                          temperature=r.temperature)


def evaluate_spectrum(spec: DipoleSpectrum, omega):
    """S_mu(omega) as the exact Lorentzian sum; even in omega."""
    omega = np.asarray(omega, dtype=float)
    out = np.zeros_like(omega, dtype=float)
    for lam, wk in zip(spec.lambdas, spec.weights):
        out = out + wk * 2.0 * lam / (omega ** 2 + lam * lam)
    return out if out.ndim else float(out)


def spectrum_via_resolvent(r: RateMatrix, p0, ladder: DipoleLadder, omegas):
    """Regression-equation route to S_mu, sampled at the given omegas.

    The Laplace transform of the regression equations for the population
    correlations gives, with dmu = mu - <mu>,

        S(omega) = 2 Re dmu^T (i omega - M + c p0 1^T)^{-1} diag(p0) dmu,

    one linear solve per omega.  Since 1^T diag(p0) dmu = 0, the rank-one
    term leaves the solution unchanged; it makes the system regular at
    omega = 0.  Its scale c, the generator's largest rate, keeps the
    round-off left in 1^T diag(p0) dmu from being amplified there.
    Independent of the mode decomposition.
    """
    p0 = np.asarray(p0, dtype=float)
    mu = np.asarray(ladder.mu, dtype=float)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    M = r.generator
    dmu = mu - p0 @ mu
    a = np.abs(M).max() * p0[:, None] - M
    rhs = p0 * dmu
    eye = np.eye(len(p0))
    return np.array([2.0 * (dmu @ np.linalg.solve(1j * w * eye + a, rhs)).real
                     for w in omegas])


def integrate_spectrum(spec: DipoleSpectrum):
    """One-sided integral of S_mu over omega by adaptive quadrature.

    Integrated as omega = c tan(theta) with c the geometric mean of the
    mode rates: each Lorentzian becomes a smooth bounded integrand on
    [0, pi/2] no matter how many decades the rates span.  Together with
    the sum rule int S domega / pi = Var this cross-checks the weights.
    """
    from scipy.integrate import quad

    c = float(np.exp(np.mean(np.log(spec.lambdas))))

    def mapped(theta):
        t = math.tan(theta)
        return evaluate_spectrum(spec, c * t) * c * (1.0 + t * t)

    knees = sorted(set(float(np.arctan(l / c)) for l in spec.lambdas))
    val, err = quad(mapped, 0.0, 0.5 * math.pi, points=knees, limit=400)
    if err > 1e-4 * abs(val):
        raise NumericalError("spectrum quadrature did not converge")
    return val


def two_level_limit(mu0, mu1, gamma0, nu10, T, omega):
    """Low-temperature closed form: a single thermally activated Lorentzian
    of width gamma0 and weight (mu0 - mu1)^2 exp(-hbar nu10 / kB T)."""
    if T <= 0:
        raise DomainError("two-level limit requires T > 0")
    omega = np.asarray(omega, dtype=float)
    out = ((mu0 - mu1) ** 2 * 2.0 * gamma0 / (omega ** 2 + gamma0 ** 2)
           * math.exp(-HBAR * nu10 / (KB * T)))
    return out if out.ndim else float(out)


def crossover_frequency(gamma0, nu10, T):
    """Knee between the flat and the falling part: gamma0 (n(nu10) + 1)."""
    return gamma0 * (bose_occupation(nu10, T) + 1.0)


def omega_grid(gamma0, omega_min=1e-3, omega_max=1e4, points_per_decade=60):
    """Logarithmic angular-frequency grid in units of gamma0."""
    decades = math.log10(omega_max / omega_min)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return gamma0 * np.logspace(math.log10(omega_min), math.log10(omega_max), n)


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
    x = np.log(omegas[m])
    y = np.log(values[m])
    n = len(x)
    xm = x - x.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(n - 2, 1)
    stderr = float(np.sqrt(resid @ resid / dof / np.dot(xm, xm)))
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


def arrhenius_fit(temps, values):
    """Fit F(T) = S_T exp(-T0 / T) on the rising flank below the peak.

    Returns (S_T, T0, residual_rms).  The flank (all samples at
    temperatures strictly below the peak) must be monotonically rising.
    """
    temps = np.asarray(temps, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(temps) < 4:
        raise AnalysisError("need at least 4 temperatures")
    if np.any(values <= 0):
        raise AnalysisError("values must be positive")
    order = np.argsort(temps)
    temps, values = temps[order], values[order]
    ipeak = int(np.argmax(values))
    flank = slice(0, ipeak)
    t_f, v_f = temps[flank], values[flank]
    if len(t_f) < 2:
        raise AnalysisError("no rising flank below the peak")
    if np.any(np.diff(values[: ipeak + 1]) <= 0):
        raise AnalysisError("rising flank is not monotonic")
    x = 1.0 / t_f
    y = np.log(v_f)
    xm = x - x.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return math.exp(intercept), -slope, rms
