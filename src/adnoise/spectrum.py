"""Dipole fluctuation spectrum of a single adatom.

The dipole operator is diagonal in the vibrational basis,
mu = sum_i mu_i |i><i|; the ladder is the plain array mu_i (C m).  The
populations relax under the master equation d<rho>/dt = M <rho>.  The
two-sided spectrum S(omega) = int dtau (<mu(tau) mu(0)> - <mu>^2)
e^{i omega tau}, in angular frequency with sum rule
int S(omega) domega / 2 pi = Var(mu), comes from the relaxation modes:
detailed balance makes A = D^{-1/2} M D^{1/2} symmetric (D = diag of the
stationary state), with off-diagonal entries sqrt(Gamma_ij Gamma_ji) from
the rates alone, so the correlation function is an exact finite sum of
decaying exponentials (correlation_modes) and the spectrum an exact sum
of origin-centered Lorentzians (evaluate_spectrum)
S(omega) = sum_k w_k 2 lambda_k / (omega^2 + lambda_k^2): no frequency
grid error, manifestly non-negative weights, valid down to T = 0.

correlation_modes and evaluate_spectrum also take a stack of rate
matrices with a leading temperature axis (see phonons): the mode set and
the spectrum then carry that axis too, and row k is bit for bit the
result at the k-th temperature alone.  The modes are found by one eigh
call on the whole stack and the Lorentzians are summed one mode at a
time across it, in the order a single mode set sums them.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigurationError, NumericalError
from .phonons import RateMatrix, _require, bose_occupation
from .units import _gauss_legendre, _line_fit, _rule_pair_sum

# Gauss-Legendre rules per panel of integrate_spectrum, and how far apart
# their two values may lie, relative.
_PANEL_RULES = (16, 32)
_PANEL_RULE_RTOL = 1e-10
# Widest ratio of adjacent panel knees, as mode rates, in integrate_spectrum.
_PANEL_RATIO = 4.0


@dataclass(frozen=True)
class DipoleSpectrum:
    """Lorentzian-mode decomposition of S_mu plus dipole statistics.

    modes: decay rates lambdas (1/s, all > 0) with spectral weights
    (C^2 m^2, all >= 0); their sum equals the variance.
    A stack carries the leading temperature axis on every field:
    lambdas[..., k], mean_dipole[...].
    """

    lambdas: np.ndarray
    weights: np.ndarray
    mean_dipole: float
    variance: float

    @property
    def n_modes(self):
        return self.lambdas.shape[-1]


def correlation_modes(r: RateMatrix, p0, mu) -> DipoleSpectrum:
    """Spectral decomposition of the symmetrized generator.

    With D = diag(p0), detailed balance makes A = D^{-1/2} M D^{1/2}
    symmetric with off-diagonal entries sqrt(Gamma_ij Gamma_ji), taken
    from the rates (roots first, so no underflow) and not from population
    ratios, which lose all precision over hundreds of decades; sqrt(p0)
    must be the null vector of A.  Its eigenpairs (lambda_k <= 0, v_k)
    give C(tau) = sum_k w_k exp(lambda_k |tau|) with w_k = (v_k . w)^2 and
    w_i = (mu_i - <mu>) sqrt(p0_i), mu being the dipole ladder (C m).  The
    single zero mode is excluded and every other one must decay; a
    population that underflows to 0, as all but p0_0 do at T = 0, has no
    weight.
    Centering before the projection, and the pairwise variance
    1/2 sum_ij p0_i p0_j (mu_i - mu_j)^2, keep the statistics free of
    cancellation against <mu>^2 when the excited levels are nearly empty.
    r and p0 may be stacks with a leading temperature axis; mu is one
    ladder for all of them.
    """
    p0 = np.asarray(p0, dtype=float)
    mu = np.asarray(mu, dtype=float)
    T = r.temperature
    M = r.generator
    n = M.shape[-1]
    diag = np.arange(n)
    root = np.sqrt(r.gamma)
    A = root * np.swapaxes(root, -1, -2)
    A[..., diag, diag] = M[..., diag, diag]
    d = np.sqrt(p0)
    scale = np.abs(M).max(axis=(-2, -1))
    resid = np.abs((A @ d[..., None])[..., 0]).max(axis=-1)
    # A nan residual fails too.
    _require(resid <= 1e-10 * scale * d.max(axis=-1), T, NumericalError,
             "detailed balance violation: sqrt(p0) leaves a residual %.3e "
             "in the symmetrized generator", resid)
    lam, V = np.linalg.eigh(A)
    izero = np.argmax(lam, axis=-1)
    top = np.take_along_axis(lam, izero[..., None], axis=-1)[..., 0]
    _require(~(np.abs(top) > 1e-10 * scale), T, NumericalError,
             "no zero mode found in the symmetrized generator")
    # |mu_i - mu_j| and |proj| are at most 2 max|mu|; their squares must fit.
    big = np.abs(mu).max(initial=0.0)
    if not big < math.sqrt(sys.float_info.max) / 2:
        raise NumericalError(f"the dipole ladder reaches {big:.3e} C m, past "
                             "sqrt(DBL_MAX) / 2, so its variance overflows")
    mean = (p0[..., None, :] @ mu[:, None])[..., 0, 0]
    proj = (np.swapaxes(V, -1, -2)
            @ ((mu - mean[..., None]) * d)[..., None])[..., 0]
    keep = np.arange(n) != izero[..., None]
    shape = keep.shape[:-1] + (n - 1,)
    lambdas = -lam[keep].reshape(shape)
    weights = proj[keep].reshape(shape) ** 2
    variance = 0.5 * ((p0[..., None, :] @ (mu[:, None] - mu[None, :]) ** 2)
                      @ p0[..., :, None])[..., 0, 0]
    _require(~np.any(lambdas <= 0, axis=-1), T, NumericalError,
             "all mode decay rates must be positive")
    # Past sqrt(DBL_MAX) lambda^2 overflows, and the Lorentzian reads 0.
    fastest = lambdas.max(axis=-1, initial=0.0)
    _require(fastest <= math.sqrt(sys.float_info.max), T, NumericalError,
             "the fastest mode decays at %.3e 1/s, past sqrt(DBL_MAX), so "
             "its Lorentzian overflows", fastest)
    # Below sqrt(DBL_MIN) lambda^2 is no normal double, and at omega = 0
    # the Lorentzian reads 0/0.
    slowest = lambdas.min(axis=-1, initial=math.inf)
    _require(slowest >= math.sqrt(sys.float_info.min), T, NumericalError,
             "the slowest mode decays at %.3e 1/s, below sqrt(DBL_MIN), so "
             "its Lorentzian underflows", slowest)
    # evaluate_spectrum forms 2 w lambda; S peaks at sum 2 w / lambda.
    with np.errstate(over="ignore"):
        peak = np.maximum((2.0 * weights * lambdas).max(axis=-1, initial=0.0),
                          (2.0 * weights / lambdas).sum(axis=-1))
    _require(peak < math.inf, T, NumericalError,
             "the Lorentzian sum is past the float range")
    _require(~((variance > 0) & (np.abs(weights.sum(axis=-1) - variance)
                                 > 1e-8 * variance)), T, NumericalError,
             "mode weights do not add up to the dipole variance")
    return DipoleSpectrum(lambdas=lambdas, weights=weights,
                          mean_dipole=mean, variance=variance)


def evaluate_spectrum(spec: DipoleSpectrum, omega):
    """S_mu(omega) as the exact Lorentzian sum; even in omega.

    A stack of mode sets gives the shape spec.lambdas.shape[:-1] +
    omega.shape.
    """
    omega = np.asarray(omega, dtype=float)
    # Past sqrt(DBL_MAX) omega^2 overflows, and every Lorentzian reads 0.
    fastest = np.abs(omega).max(initial=0.0)
    if not fastest <= math.sqrt(sys.float_info.max):
        raise NumericalError(f"the frequency {fastest:.3e} rad/s is past "
                             "sqrt(DBL_MAX), so its Lorentzians overflow")
    tail = (...,) + (None,) * omega.ndim
    out = np.zeros(spec.lambdas.shape[:-1] + omega.shape)
    for lam, wk in zip(np.moveaxis(spec.lambdas, -1, 0),
                       np.moveaxis(spec.weights, -1, 0)):
        lam, wk = lam[tail], wk[tail]
        out = out + wk * 2.0 * lam / (omega ** 2 + lam * lam)
    return out if out.ndim else float(out)


def integrate_spectrum(spec: DipoleSpectrum):
    """One-sided integral of S_mu over omega by a composite Gauss-Legendre
    rule.

    Integrated as omega = c tan(theta) with c the geometric mean of the
    mode rates: each Lorentzian becomes a smooth bounded integrand on
    [0, pi/2] no matter how many decades the rates span.  The knees
    theta_k = arctan(lambda_k / c) split [0, pi/2] into panels on which the
    mapped integrand is smooth.  A gap between adjacent rates wider than a
    factor _PANEL_RATIO is split further at geometric points: one wide
    panel cannot follow the tail of the mode at its left knee.
    evaluate_spectrum is summed on the nodes of a 16- and a 32-point rule
    per panel.  The two values must agree to _PANEL_RULE_RTOL, relative,
    or it is a NumericalError; the 32-point one is returned.  Together
    with the sum rule int S domega / pi = Var this cross-checks the
    weights.
    """
    c = float(np.exp(np.mean(np.log(spec.lambdas))))
    lam = np.unique(spec.lambdas)
    parts = np.ceil(np.log(lam[1:] / lam[:-1]) / math.log(_PANEL_RATIO))
    steps = [lo * (hi / lo) ** (np.arange(1, k) / k)
             for lo, hi, k in zip(lam[:-1], lam[1:], parts) if k > 1]
    knees = np.unique(np.arctan(np.concatenate([lam] + steps) / c))
    edges = np.concatenate([[0.0], knees, [0.5 * math.pi]])
    width = np.diff(edges)[:, None]
    u, w = _gauss_legendre(_PANEL_RULES)
    t = np.tan(edges[:-1, None] + width * u)
    terms = width * w * evaluate_spectrum(spec, c * t) * c * (1.0 + t * t)
    return _rule_pair_sum(terms, _PANEL_RULES, _PANEL_RULE_RTOL,
                          "spectrum quadrature", "panel rules")


def crossover_frequency(gamma0, nu10, T):
    """Knee between the flat and the falling part: gamma0 (n(nu10) + 1)."""
    return gamma0 * (bose_occupation(nu10, T) + 1.0)


def omega_grid(gamma0, omega_min, omega_max, points_per_decade):
    """Logarithmic angular-frequency grid in units of gamma0."""
    ratio = omega_max / omega_min
    if not ratio < math.inf:
        raise ConfigurationError(
            f"spectrum.omega_max / omega_min = {omega_max:g} / "
            f"{omega_min:g} is past the float range")
    decades = math.log10(ratio)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return gamma0 * np.logspace(math.log10(omega_min), math.log10(omega_max), n)


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
    slope, intercept, resid, _ = _line_fit(1.0 / t_f, np.log(v_f))
    if not intercept < math.log(sys.float_info.max):
        raise AnalysisError(f"S_T = exp({intercept:.6g}) overflows")
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return math.exp(intercept), -slope, rms
