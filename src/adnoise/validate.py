"""Self-contained invariant checks behind `adnoise validate`.

Each check returns (name, passed, detail).  These are fast consistency
checks of the numerical machinery against closed forms and independent
quadratures; the full acceptance suite with frozen reference values lives
in the test tree.
"""

import math

import numpy as np

from . import boundstates, dipoles, phonons, potential, spectrum, trapnoise
from .units import BOHR, DEBYE, E_CHARGE, HBAR, KB, convert_energy


def _check_units():
    x = convert_energy(convert_energy(1.234, "meV", "K"), "K", "meV")
    ok = abs(x - 1.234) < 1e-12
    ea0 = E_CHARGE * BOHR / DEBYE
    ok &= abs(ea0 - 2.5417) < 1e-3 * 2.5417
    return "unit round-trips and constant consistency", ok, f"e*a0 = {ea0:.5f} D"


def _check_potential():
    p, _ = potential.preset("Ne-Au")
    ok = abs(potential.evaluate(p, p.z0) + p.U0) < 1e-12 * p.U0
    z = np.linspace(0.5 * p.z0, 5 * p.z0, 2001)
    du_fd = np.gradient(potential.evaluate(p, z), z)
    du = potential.derivative(p, z)
    mid = slice(100, -100)
    ok &= np.max(np.abs(du[mid] - du_fd[mid])
                 / np.max(np.abs(du))) < 1e-3
    far = 60 * p.z0
    ok &= abs(potential.evaluate(p, far) * far ** 3 + potential.c3(p)) \
        < 1e-3 * potential.c3(p)
    return "exp-3 well: minimum, derivative, C3 tail", ok, \
        f"C3 = {potential.c3(p):.4g} J m^3"


def _check_boundstates(s):
    overlaps = boundstates.grid_matrix(s, np.ones(s.grid.n_points))
    dev = np.abs(overlaps - np.eye(s.n_states)).max()
    nu = s.splitting(1, 0) / (2 * math.pi) / 1e12
    ok = dev < 1e-8 and 0.2 <= nu <= 0.45 and np.all(s.energies < 0)
    return "bound states: orthonormal, negative, splitting in range", ok, \
        f"{s.n_states} states, nu10 = {nu:.3f} THz, max overlap dev {dev:.1e}"


def _check_dipoles(lad):
    coeff = 0.47 * 4.5 ** 1.5
    ok = abs(coeff - 4.5) / 4.5 < 0.003
    mu0 = lad.mu[0] / DEBYE
    ok &= 0.0025 <= mu0 <= 0.01 and np.all(lad.mu > 0)
    return "induced dipoles: hydrogen coefficient, ladder magnitude", ok, \
        f"0.47*4.5^1.5 = {coeff:.4f}, mu_0 = {mu0:.4f} D"


def _check_rates(s, r, p0):
    boltz = np.exp(-(s.energies - s.energies[0]) / (KB * r.temperature))
    boltz /= boltz.sum()
    dev = np.abs(p0 - boltz).max() / boltz.max()
    ok = dev < 1e-10
    colsum = np.abs(r.generator.sum(axis=0)).max()
    ok &= colsum < 1e-12 * np.abs(r.generator).max()
    return "rate matrix: Boltzmann stationary state, zero column sums", ok, \
        f"max Boltzmann deviation {dev:.1e}"


def _check_spectrum(r, p0, lad):
    spec = spectrum.correlation_modes(r, p0, lad)
    sum_rule = spectrum.integrate_spectrum(spec) / math.pi
    dev = abs(sum_rule - spec.variance) / spec.variance
    ok = dev < 0.01 and np.all(spec.weights >= -1e-12 * spec.variance)
    return "spectrum: Lorentzian sum rule equals the dipole variance", ok, \
        f"relative deviation {dev:.2e} over {spec.n_modes} modes"


def _check_two_state():
    g10, g01 = 2.0e6, 0.5e6
    gamma = np.array([[0.0, g01], [g10, 0.0]])
    r = phonons.RateMatrix.from_gamma(gamma, temperature=1.0)
    p0 = phonons.stationary_distribution(r)
    mu = dipoles.DipoleLadder(mu=np.array([3e-33, 1e-33]), image_factor=1.0,
                              polarizability=1e-30)
    spec = spectrum.correlation_modes(r, p0, mu)
    lam_expected = g10 + g01
    w_expected = (mu.mu[0] - mu.mu[1]) ** 2 * p0[0] * p0[1]
    ok = (spec.n_modes == 1
          and abs(spec.lambdas[0] - lam_expected) < 1e-9 * lam_expected
          and abs(spec.weights[0] - w_expected) < 1e-9 * w_expected)
    return "two-state telegraph closed form", ok, \
        f"lambda = {spec.lambdas[0]:.6g} vs {lam_expected:.6g}"


def _check_kernel():
    k1 = trapnoise.kernel_integral_constant(1.0)
    k2 = trapnoise.kernel_integral_constant(2.0)
    target = 3.0 * math.pi / 4.0
    ok = abs(k1 - target) < 1e-8 * target and abs(k1 - k2) < 1e-6 * target
    return "field kernel plane integral = 3 pi / 4, d-independent", ok, \
        f"K = {k1:.9f}"


def _check_single_dipole():
    trap = trapnoise.TrapConfig(distance=1.0, trap_frequency=1.0,
                                ion_mass=1e-26, charge=E_CHARGE)
    sample = trapnoise.SurfaceSample(positions=np.array([[50.0, 50.0]]),
                                     min_spacing=1.0, extent=100.0, seed=0)
    s_at = {d: trapnoise.mc_field_noise(
        sample, 1.0, trapnoise.TrapConfig(distance=d, trap_frequency=1.0,
                                          ion_mass=1e-26, charge=E_CHARGE))
        for d in (1.0, 2.0)}
    expected = 4.0 / (trapnoise.FOUR_PI_EPS0 ** 2)
    ok = abs(s_at[1.0] - expected) < 1e-9 * expected
    ok &= abs(s_at[1.0] / s_at[2.0] - 64.0) < 1e-6 * 64.0
    return "single on-axis dipole: 4/(4 pi eps0 d^3)^2 and d^-6", ok, \
        f"S_E(d=1) = {s_at[1.0]:.6g}"


def _check_heating():
    trap = trapnoise.TrapConfig(distance=1e-5, trap_frequency=2 * math.pi * 1e6,
                                ion_mass=40 * 1.6605390666e-27, charge=E_CHARGE)
    n = trapnoise.heating_rate(trap, 1e-12)
    ok = abs(n - 291.6) < 1.0
    return "heating rate dimensional check", ok, f"ndot = {n:.4g} 1/s"


def run_checks():
    # One Ne-Au chain, solved once, serves the four checks that need it.
    p, mat = potential.preset("Ne-Au")
    s = boundstates.solve(p, boundstates.auto_grid(p, 3000))
    lad = dipoles.dipole_ladder(s, p.polarizability)
    r = phonons.build_rate_matrix(s, mat, 2.0 * HBAR * s.splitting(1, 0) / KB)
    p0 = phonons.stationary_distribution(r)
    return [_check_units(), _check_potential(), _check_boundstates(s),
            _check_dipoles(lad), _check_rates(s, r, p0),
            _check_spectrum(r, p0, lad), _check_two_state(), _check_kernel(),
            _check_single_dipole(), _check_heating()]
