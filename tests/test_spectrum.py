import math

import numpy as np
import pytest
from adnoise import boundstates, cli, dipoles, phonons, spectrum
from adnoise.errors import AnalysisError, NumericalError
from adnoise.units import HBAR, KB
from scipy.linalg import expm

from conftest import two_state_rate_matrix
from oracles import (empirical_knee, fit_loglog_slope, gth_stationary,
                     spectrum_via_resolvent, two_level_limit)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def ne_spectrum_at(ne, ne_states, ne_ladder, ne_coupling):
    _, mat = ne
    nu10 = ne_states.splitting(1, 0)
    cache = {}

    def build(x):
        if x not in cache:
            T = x * HBAR * nu10 / KB
            r = phonons.build_rate_matrix(ne_states, mat, T, coupling=ne_coupling)
            p0 = phonons.stationary_distribution(ne_states.energies, T)
            cache[x] = (r, p0, spectrum.correlation_modes(r, p0, ne_ladder))
        return cache[x]

    return build


def test_two_state_telegraph_mode():
    g10, g01 = 3.0e6, 1.2e6
    r = two_state_rate_matrix(g10, g01)
    p0 = gth_stationary(r)
    ladder = np.array([5e-33, 2e-33])
    spec = spectrum.correlation_modes(r, p0, ladder)
    assert spec.n_modes == 1
    assert spec.lambdas[0] == pytest.approx(g10 + g01, rel=1e-12)
    expected_w = (5e-33 - 2e-33) ** 2 * p0[0] * p0[1]
    assert spec.weights[0] == pytest.approx(expected_w, rel=1e-12)


def test_variance_identity(ne_spectrum_at, ne_states, ne_ladder):
    _, p0, spec = ne_spectrum_at(2.0)
    mu = ne_ladder
    var = float(p0 @ mu ** 2 - (p0 @ mu) ** 2)
    assert spec.weights.sum() == pytest.approx(var, rel=1e-10)
    assert spec.variance == pytest.approx(var, rel=1e-12)
    assert spec.mean_dipole == pytest.approx(float(p0 @ mu), rel=1e-12)


def test_uniform_ladder_has_no_fluctuations(ne_spectrum_at, ne_states):
    r, p0, _ = ne_spectrum_at(2.0)
    flat = np.full(ne_states.n_states, 3e-33)
    spec = spectrum.correlation_modes(r, p0, flat)
    assert spec.variance == pytest.approx(0.0, abs=1e-80)
    assert np.all(np.abs(spec.weights) < 1e-77)


def test_weights_nonnegative_lambdas_positive(ne_spectrum_at):
    for x in (0.2, 1.0, 3.0):
        _, _, spec = ne_spectrum_at(x)
        assert np.all(spec.lambdas > 0)
        assert spec.weights.min() >= -1e-12 * spec.variance


def test_evaluate_at_origin_and_tail(ne_spectrum_at):
    _, _, spec = ne_spectrum_at(1.0)
    s0 = spectrum.evaluate_spectrum(spec, 0.0)
    assert s0 == pytest.approx(np.sum(2 * spec.weights / spec.lambdas), rel=1e-12)
    w_hi = 1e4 * spec.lambdas.max()
    tail = spectrum.evaluate_spectrum(spec, w_hi)
    assert tail == pytest.approx(
        2 * np.sum(spec.weights * spec.lambdas) / w_hi ** 2, rel=1e-6)


def test_spectrum_even_and_monotone(ne_spectrum_at):
    _, _, spec = ne_spectrum_at(2.0)
    om = np.logspace(-3, 4, 300) * spec.lambdas.min()
    vals = spectrum.evaluate_spectrum(spec, om)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)
    assert spectrum.evaluate_spectrum(spec, -om[10]) == pytest.approx(
        vals[10], rel=1e-12)


def test_sum_rule_adaptive_quadrature(ne_spectrum_at):
    # The trapezoid rule in ln omega gives the weight sum to round-off on
    # the Ne-Au chain.
    for x in (0.05, 0.2, 1.0, 3.0, 6.0):
        _, _, spec = ne_spectrum_at(x)
        val = spectrum.integrate_spectrum(spec)
        assert val / math.pi == pytest.approx(spec.variance, rel=1e-13)
        assert val / math.pi == pytest.approx(spec.weights.sum(), rel=1e-14)


def test_sum_rule_on_the_full_ne_ladder(ne, ne_states_full):
    # The same on the full Ne-Au ladder that max_states = 30 keeps, whose
    # rates span more decades.
    params, mat = ne
    coupling = boundstates.coupling_matrix(ne_states_full)
    ladder = dipoles.dipole_ladder(ne_states_full, params.polarizability, 1.0)
    nu10 = ne_states_full.splitting(1, 0)
    for x in (0.05, 0.2, 1.0, 3.0, 6.0):
        T = x * HBAR * nu10 / KB
        r = phonons.build_rate_matrix(ne_states_full, mat, T,
                                      coupling=coupling)
        p0 = phonons.stationary_distribution(ne_states_full.energies, T)
        spec = spectrum.correlation_modes(r, p0, ladder)
        assert spectrum.integrate_spectrum(spec) == pytest.approx(
            math.pi * spec.weights.sum(), rel=1e-14, abs=0.0)


def test_integrate_spectrum_sums_the_evaluated_spectrum(ne_spectrum_at,
                                                        monkeypatch):
    # An independent check of evaluate_spectrum: it integrates the values
    # of one call on the nodes omega = e^(k/8), k = lo, ..., hi, reaching
    # 40 e-folds past the slowest and the fastest mode, and does not
    # return pi sum(w) from the weights.
    _, _, spec = ne_spectrum_at(1.0)
    exact = spectrum.evaluate_spectrum
    calls = []

    def doubled(s, omega):
        calls.append(omega)
        return 2.0 * exact(s, omega)

    monkeypatch.setattr(spectrum, "evaluate_spectrum", doubled)
    val = spectrum.integrate_spectrum(spec)
    assert val == pytest.approx(2.0 * math.pi * spec.weights.sum(),
                                rel=1e-14, abs=0.0)
    assert len(calls) == 1
    lo = math.floor(8.0 * (math.log(spec.lambdas.min()) - 40.0))
    hi = math.ceil(8.0 * (math.log(spec.lambdas.max()) + 40.0))
    np.testing.assert_array_equal(calls[0], np.exp(np.arange(lo, hi + 1) / 8))


def test_integrate_spectrum_rules_that_disagree_raise(monkeypatch):
    # Two modes 50 or 1000 apart give 2 pi to round-off.  A step in the
    # integrand makes the rules of step 1/8 and 1/4 in ln omega disagree,
    # which is an error, not a value.
    spec = spectrum.DipoleSpectrum(lambdas=np.array([1.0, 2.0]),
                                   weights=np.array([1.0, 1.0]),
                                   mean_dipole=0.0, variance=2.0)
    for ratio in (50.0, 1e3):
        wide = spectrum.DipoleSpectrum(lambdas=np.array([1.0, ratio]),
                                       weights=np.array([1.0, 1.0]),
                                       mean_dipole=0.0, variance=2.0)
        assert spectrum.integrate_spectrum(wide) == pytest.approx(
            2.0 * math.pi, rel=1e-14, abs=0.0)
    exact = spectrum.evaluate_spectrum
    monkeypatch.setattr(spectrum, "evaluate_spectrum",
                        lambda s, omega: np.where(omega < 1.5, 1.0, 0.0)
                        * exact(s, omega))
    with pytest.raises(NumericalError, match=r"spectrum quadrature: the "
                       r"\d+- and \d+-point rules give"):
        spectrum.integrate_spectrum(spec)


def test_integrate_spectrum_refuses_nodes_past_the_float_range():
    # Nodes 40 e-folds above a fastest mode at 1e137 1/s pass
    # sqrt(DBL_MAX): an error, where a mode set spanning 1e-153 to 1e153
    # once gave half its weight sum.
    for lam in ([1e137], [1e-153, 1e153]):
        lam = np.array(lam)
        spec = spectrum.DipoleSpectrum(lambdas=lam, weights=np.ones_like(lam),
                                       mean_dipole=0.0, variance=lam.size)
        with pytest.raises(NumericalError, match="past sqrt"):
            spectrum.integrate_spectrum(spec)


def test_integrate_spectrum_over_wide_random_mode_sets():
    # 3000 seeded sets of 1-22 modes with rates spanning up to 1e10, and
    # 3000 spanning up to 1e30, with weights up to 1: no set raises, and
    # each value is pi sum(w) to 1e-14 wherever the rates lie.
    for decades in (10.0, 30.0):
        rng = np.random.default_rng(20261019)
        for _ in range(3000):
            k = rng.integers(1, 23)
            lam = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(rng.uniform(
                0.0, math.log(10.0 ** rng.uniform(0.0, decades)), k))
            w = rng.uniform(0.0, 1.0, k)
            spec = spectrum.DipoleSpectrum(lambdas=lam, weights=w,
                                           mean_dipole=0.0, variance=w.sum())
            assert spectrum.integrate_spectrum(spec) == pytest.approx(
                math.pi * w.sum(), rel=1e-14, abs=0.0), lam


def test_detailed_balance_violation_detected(ne_spectrum_at, ne_ladder):
    r, p0, _ = ne_spectrum_at(1.0)
    gamma = r.gamma.copy()
    gamma[1, 0] *= 1.5  # break the pairwise ratio
    broken = phonons.RateMatrix.from_gamma(gamma, temperature=r.temperature)
    with pytest.raises(NumericalError, match="detailed balance"):
        spectrum.correlation_modes(broken, p0, ne_ladder)


def test_modes_require_positive_populations(ne_spectrum_at, ne_ladder):
    r, p0, _ = ne_spectrum_at(1.0)
    p_bad = p0.copy()
    p_bad[-1] = 0.0
    with pytest.raises(NumericalError, match="detailed balance violation"):
        spectrum.correlation_modes(r, p_bad, ne_ladder)


STACK_TEMPS = np.array([1.0, 2.0, 3.0])
STACK_E = np.array([0.0, 1.0, 2.5])  # kelvin
STACK_MU = np.array([3e-33, 2e-33, 0.5e-33])


def balanced_stack():
    """Rates of the three levels STACK_E with Boltzmann ratios, one row per
    temperature of STACK_TEMPS."""
    c = 1e6 * np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
    rise = np.maximum(STACK_E[None, :] - STACK_E[:, None], 0.0)
    return c * np.exp(-rise / STACK_TEMPS[:, None, None])


def stack_modes(r, middle_p0=None):
    """Modes of r with the balanced stack's populations, whose middle row
    may be replaced."""
    p0 = phonons.stationary_distribution(KB * STACK_E, STACK_TEMPS)
    if middle_p0 is not None:
        p0[1] = middle_p0
    return spectrum.correlation_modes(r, p0, STACK_MU)


def fail_detailed_balance(g):
    g[1, 1, 0] *= 1.5
    stack_modes(phonons.RateMatrix.from_gamma(g, STACK_TEMPS))


def fail_zero_mode(g):
    # A generator built from rates is negative semidefinite once
    # symmetrized, so only a faulty eigensolver can lift its top
    # eigenvalue: this one does so in the middle row.
    eigh = np.linalg.eigh

    def lifted(a):
        lam, v = eigh(a)
        lam[1, -1] = 1e-6 * np.abs(a[1]).max()
        return lam, v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lifted)
        stack_modes(phonons.RateMatrix.from_gamma(g, STACK_TEMPS))


def fail_decay_rates(g):
    # a second zero mode: the isolated top level never decays
    g[1, 2, :] = g[1, :, 2] = 0.0
    stack_modes(phonons.RateMatrix.from_gamma(g, STACK_TEMPS),
                middle_p0=[*phonons.stationary_distribution(
                    KB * STACK_E[:2], 2.0), 0.0])


def fail_sum_rule(g):
    # populations that add up to 2 break the sum rule, not detailed balance
    stack_modes(phonons.RateMatrix.from_gamma(g, STACK_TEMPS),
                middle_p0=2.0 * phonons.stationary_distribution(
                    KB * STACK_E, STACK_TEMPS[1]))


@pytest.mark.parametrize("fail,exc,match", [
    (fail_detailed_balance, NumericalError,
     r"detailed balance violation: sqrt\(p0\) leaves a residual \d"),
    (fail_zero_mode, NumericalError, "no zero mode found"),
    (fail_decay_rates, NumericalError, "mode decay rates must be positive"),
    (fail_sum_rule, NumericalError, "weights do not add up to the dipole"),
])
def test_failing_row_of_a_stack_names_its_temperature(fail, exc, match):
    g = balanced_stack()
    # every row passes as it stands
    stack_modes(phonons.RateMatrix.from_gamma(g, STACK_TEMPS))
    with pytest.raises(exc, match=match + ".* at T = 2 K$"):
        fail(g)


def correlation_by_expm(r, p0, ladder, tau):
    """C(tau) on a uniform grid: steps expm(M dtau) on diag(p0) (mu - <mu>)."""
    dmu = ladder - p0 @ ladder
    step = expm(r.generator * (tau[1] - tau[0]))
    x = p0 * dmu
    c = np.empty(len(tau))
    for k in range(len(tau)):
        c[k] = dmu @ x
        x = step @ x
    return c


def test_resolvent_telegraph_closed_form():
    g10, g01 = 2.5e6, 1.0e6
    r = two_state_rate_matrix(g10, g01)
    p0 = gth_stationary(r)
    ladder = np.array([4e-33, 1e-33])
    lam = g10 + g01
    om = np.array([0.0, 0.3 * lam, lam, 5 * lam, 40 * lam])
    s_res = spectrum_via_resolvent(r, p0, ladder, om)
    w = (4e-33 - 1e-33) ** 2 * p0[0] * p0[1]
    expected = w * 2 * lam / (om ** 2 + lam ** 2)
    assert np.allclose(s_res, expected, rtol=1e-12, atol=0)


def test_resolvent_matches_mode_decomposition(ne_spectrum_at, ne_ladder,
                                              ne_scales):
    _, gamma0 = ne_scales
    om = np.concatenate([[0.0], spectrum.omega_grid(gamma0, 1e-2, 1e3, 20)])
    for x in (1.0, 2.0, 3.0):
        r, p0, spec = ne_spectrum_at(x)
        s_res = spectrum_via_resolvent(r, p0, ne_ladder, om)
        s_mod = spectrum.evaluate_spectrum(spec, om)
        assert np.max(np.abs(s_res - s_mod) / s_mod) < 1e-9


def test_correlation_initial_value_is_variance(ne_spectrum_at, ne_ladder):
    r, p0, spec = ne_spectrum_at(2.0)
    tau = np.linspace(0, 10 / spec.lambdas.min(), 5000)
    c = correlation_by_expm(r, p0, ne_ladder, tau)
    assert c[0] == pytest.approx(spec.variance, rel=1e-8)
    # and the correlation is a pure decay toward zero
    assert c[-1] < 1e-4 * c[0]


def test_correlation_matches_mode_sum(ne_spectrum_at, ne_ladder):
    r, p0, spec = ne_spectrum_at(1.0)
    tau = np.linspace(0, 5 / spec.lambdas.min(), 400)
    c_expm = correlation_by_expm(r, p0, ne_ladder, tau)
    c_modes = np.sum(spec.weights[:, None]
                     * np.exp(-np.outer(spec.lambdas, tau)), axis=0)
    assert np.allclose(c_expm, c_modes, atol=1e-8 * spec.variance, rtol=1e-6)


@pytest.mark.parametrize("x", [0.005, 0.01, 0.03, 0.05, 0.1, 0.2])
def test_low_temperature_statistics_are_centered(
        x, ne_spectrum_at, ne_ladder, ne_scales, tmp_path):
    # p0 . mu^2 - <mu>^2 cancels to nothing here; the CLI must still run
    # and report the true, tiny variance, and the resolvent must still
    # agree with the modes at omega = 0.
    assert cli.main(["spectrum", "--preset", "Ne-Au", "--output",
                     str(tmp_path), "--temperature", f"{x} nu10"]) == 0
    (csv,) = tmp_path.glob("spectrum_*.csv")
    (line,) = [ln for ln in csv.read_text().splitlines()
               if ln.startswith("# variance:")]
    assert float(line.split()[2]) > 0
    r, p0, spec = ne_spectrum_at(x)
    mu = ne_ladder
    pairwise = 0.5 * math.fsum(p0[i] * p0[j] * (mu[i] - mu[j]) ** 2
                               for i in range(len(mu)) for j in range(len(mu)))
    assert spec.variance == pytest.approx(pairwise, rel=1e-12)
    assert spec.weights.sum() == pytest.approx(pairwise, rel=1e-8)
    om = np.array([0.0, ne_scales[1]])
    assert np.allclose(spectrum_via_resolvent(r, p0, ne_ladder, om),
                       spectrum.evaluate_spectrum(spec, om), rtol=1e-12, atol=0)


def test_two_level_limit_closed_form():
    mu0, mu1 = 4e-33, 2.5e-33
    g0, nu10, T = 2e7, TWO_PI * 0.36e12, 3.5
    s_0 = two_level_limit(mu0, mu1, g0, nu10, T, 0.0)
    boltz = math.exp(-HBAR * nu10 / (KB * T))
    assert s_0 == pytest.approx((mu0 - mu1) ** 2 * 2 / g0 * boltz, rel=1e-12)
    s_g = two_level_limit(mu0, mu1, g0, nu10, T, g0)
    assert s_g == pytest.approx(0.5 * s_0, rel=1e-12)


def test_two_level_limit_matches_full_spectrum_at_low_T(
        ne_spectrum_at, ne_ladder, ne_scales):
    nu10, gamma0 = ne_scales
    x = 0.2
    T = x * HBAR * nu10 / KB
    _, _, spec = ne_spectrum_at(x)
    om = np.linspace(0.0, 10 * gamma0, 41)
    full = spectrum.evaluate_spectrum(spec, om)
    limit = two_level_limit(ne_ladder[0], ne_ladder[1],
                            gamma0, nu10, T, om)
    assert np.max(np.abs(full - limit) / limit) < 0.05


def test_crossover_frequency():
    g0, nu = 1e7, TWO_PI * 0.3e12
    assert spectrum.crossover_frequency(g0, nu, 0.0) == g0
    T1 = HBAR * nu / KB
    assert spectrum.crossover_frequency(g0, nu, T1) == pytest.approx(
        g0 * (1 / (math.e - 1) + 1), rel=1e-12)
    T100 = 100 * HBAR * nu / KB
    assert spectrum.crossover_frequency(g0, nu, T100) == pytest.approx(
        g0 * 100, rel=0.01)


def test_omega_grid():
    g0 = 2e7
    om = spectrum.omega_grid(g0, 1e-3, 1e4, 60)
    assert om[0] == pytest.approx(1e-3 * g0)
    assert om[-1] == pytest.approx(1e4 * g0)
    assert len(om) == 7 * 60 + 1


def test_loglog_slope_pure_power_laws():
    om = np.logspace(6, 9, 200)
    lam = 1e3
    lorentz_tail = 2 * lam / (om ** 2 + lam ** 2)
    slope, err = fit_loglog_slope(om, lorentz_tail, (om[0], om[-1]))
    assert slope == pytest.approx(-2.0, abs=0.01)
    assert err < 0.01
    flat = np.full_like(om, 7.5)
    slope, err = fit_loglog_slope(om, flat, (om[0], om[-1]))
    assert slope == pytest.approx(0.0, abs=0.02)


def test_loglog_slope_requires_points():
    om = np.logspace(0, 3, 50)
    vals = 1.0 / om
    with pytest.raises(AnalysisError):
        fit_loglog_slope(om, vals, (1e5, 1e6))


def test_empirical_knee_single_lorentzian():
    lam = 3.7e6
    om = np.logspace(-3, 3, 400) * lam
    vals = 2 * lam / (om ** 2 + lam ** 2)
    knee = empirical_knee(om, vals)
    assert knee == pytest.approx(lam, rel=0.5)


def test_arrhenius_exact_recovery():
    t0_true, s_true = 50.0, 2.4e-13
    temps = np.linspace(10, 80, 10)
    vals = s_true * np.exp(-t0_true / temps)
    s_t, t0, resid = spectrum.arrhenius_fit(temps, vals)
    assert t0 == pytest.approx(t0_true, rel=1e-6)
    assert s_t == pytest.approx(s_true, rel=1e-6)
    assert resid < 1e-10


def test_arrhenius_two_level_regime(ne_spectrum_at, ne_ladder, ne_scales):
    # at omega -> 0 and low T the activation energy approaches the
    # fundamental splitting
    nu10, _ = ne_scales
    xs = np.linspace(0.1, 0.35, 6)
    temps = xs * HBAR * nu10 / KB
    vals = []
    for x in xs:
        _, _, spec = ne_spectrum_at(round(float(x), 6))
        vals.append(spectrum.evaluate_spectrum(spec, 0.0))
    s_t, t0, _ = spectrum.arrhenius_fit(temps, np.array(vals))
    assert t0 == pytest.approx(HBAR * nu10 / KB, rel=0.10)


def test_arrhenius_rejects_non_monotonic():
    temps = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    vals = np.array([1.0, 3.0, 2.0, 4.0, 5.0])
    with pytest.raises(AnalysisError, match="monotonic"):
        spectrum.arrhenius_fit(temps, vals)


def test_arrhenius_needs_four_points():
    with pytest.raises(AnalysisError):
        spectrum.arrhenius_fit(np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3.0]))


def test_arrhenius_prefactor_past_float_range_is_an_analysis_error():
    # finite values up to 1.7e308 whose flank's line meets 1/T = 0 at
    # log S_T = 710, past log(DBL_MAX) = 709.78
    temps = np.array([1.0, 2.0, 3.0, 4.0])
    vals = np.exp(710.0 - 1.0 / temps)
    assert np.all(np.isfinite(vals)) and vals.max() > 1e308
    with pytest.raises(AnalysisError, match=r"S_T = exp\(710\) overflows"):
        spectrum.arrhenius_fit(temps, vals)
