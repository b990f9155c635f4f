"""Self-contained invariant checks behind `adnoise validate`.

Each check returns (name, passed, detail).  These are fast consistency
checks of the numerical machinery against closed forms and independent
quadratures; the full acceptance suite with frozen reference values lives
in the test tree.  The checks of the chain read the `Pipeline` built from
--preset or --config and hold for any chain that runs; the two-state,
kernel, single-dipole, heating and unit checks build their values by hand.
"""

import math
import sys

import numpy as np

from . import boundstates, dipoles, phonons, potential, spectrum, trapnoise
from .units import BOHR, DEBYE, E_CHARGE, _in_debye, convert_energy


def _check_units():
    x = convert_energy(convert_energy(1.234, "meV", "K"), "K", "meV")
    ok = abs(x - 1.234) < 1e-12
    ea0 = E_CHARGE * BOHR / DEBYE
    ok &= abs(ea0 - 2.5417) < 1e-3 * 2.5417
    return "unit round-trips and constant consistency", ok, f"e*a0 = {ea0:.5f} D"


def _check_potential(p, grid):
    # U is finite from the grid's inner edge out; further in exp can overflow
    ok = abs(potential.evaluate(p, p.z0) + p.U0) < 1e-12 * p.U0
    z = np.linspace(grid.z_min, 5 * p.z0, 2001)
    du = potential.derivative(p, z)
    err = np.abs(du - np.gradient(potential.evaluate(p, z), z))[100:-100]
    ok &= err.max() / np.abs(du).max() < 1e-3
    far = 60 * p.z0
    ok &= abs(potential.evaluate(p, far) * far ** 3 + potential.c3(p)) \
        < 1e-3 * potential.c3(p)
    return "exp-3 well: minimum, derivative, C3 tail", ok, \
        f"C3 = {potential.c3(p):.4g} J m^3"


def _check_boundstates(s):
    overlaps = boundstates.grid_matrix(s, np.ones(s.grid.n_points))
    dev = np.abs(overlaps - np.eye(s.n_states)).max()
    nu = s.splitting(1, 0) / (2 * math.pi) / 1e12
    ok = dev < 1e-8 and np.all(s.energies < 0)
    return "bound states: orthonormal, negative", ok, \
        f"{s.n_states} states, nu10 = {nu:.3f} THz, max overlap dev {dev:.1e}"


def _check_dipoles(lad):
    c = dipoles.INDUCED_DIPOLE_COEFFICIENT
    coeff = c * 4.5 ** 1.5
    ok = abs(coeff - 4.5) / 4.5 < 0.003 and np.all(lad >= 0)
    detail = f"{c:g}*4.5^1.5 = {coeff:.4f}, "
    if lad.any():
        detail += f"mu_0 = {_in_debye(lad[0], 'the dipole ladder'):.4f} D"
    else:
        # A ladder that underflows to 0 has no sign to check.
        detail += ("the ladder underflows to 0 C m: positive ladder not "
                   "applicable")
    return "induced dipoles: hydrogen coefficient, positive ladder", ok, detail


def _check_rates(r, p0):
    # The rates' detailed balance: the Boltzmann state is their null vector.
    M = r.generator
    resid = np.abs(M @ p0).max() / (np.abs(M).max() * p0.max())
    return "rate matrix: detailed balance, M p0 = 0 for Boltzmann p0", \
        resid <= 1e-10, f"relative residual |M p0| {resid:.1e}"


def _check_spectrum(spec):
    gap = abs(spectrum.integrate_spectrum(spec) / math.pi - spec.variance)
    if spec.variance > 0:
        dev = gap / spec.variance
        ok, detail = dev < 0.01, f"relative deviation {dev:.2e}"
    else:
        # A variance that underflows to 0 leaves a gap of round-off below
        # the normal range.
        ok = gap < sys.float_info.min
        detail = f"absolute deviation {gap:.2e} C^2 m^2 at zero variance"
    return "spectrum: Lorentzian sum rule equals the dipole variance", ok, \
        f"{detail} over {spec.n_modes} modes"


def _check_two_state():
    g10, g01 = 2.0e6, 0.5e6
    gamma = np.array([[0.0, g01], [g10, 0.0]])
    r = phonons.RateMatrix.from_gamma(gamma, temperature=1.0)
    p0 = np.array([g10, g01]) / (g10 + g01)
    mu = np.array([3e-33, 1e-33])
    spec = spectrum.correlation_modes(r, p0, mu)
    lam_expected = g10 + g01
    w_expected = (mu[0] - mu[1]) ** 2 * p0[0] * p0[1]
    ok = (spec.n_modes == 1
          and abs(spec.lambdas[0] - lam_expected) < 1e-9 * lam_expected
          and abs(spec.weights[0] - w_expected) < 1e-9 * w_expected)
    return "two-state telegraph closed form", ok, \
        f"lambda = {spec.lambdas[0]:.6g} vs {lam_expected:.6g}"


def _check_kernel():
    k1 = trapnoise.kernel_integral_constant(1.0)
    k2 = trapnoise.kernel_integral_constant(2.0)
    target = 3.0 * math.pi / 4.0
    # the Gauss-Legendre rule gives K to about 2.5e-15 at every d
    ok = abs(k1 - target) < 1e-13 * target and abs(k1 - k2) < 1e-13 * target
    return "field kernel plane integral = 3 pi / 4, d-independent", ok, \
        f"K = {k1:.9f}"


def _check_single_dipole():
    sample = trapnoise.SurfaceSample(positions=np.array([[50.0, 50.0]]),
                                     extent=100.0)
    s1, s2 = trapnoise.mc_field_noise(sample, (0.0, 0.0, 1.0), (1.0, 2.0))
    expected = 4.0 / (trapnoise.FOUR_PI_EPS0 ** 2)
    ok = abs(s1 - expected) < 1e-9 * expected
    ok &= abs(s1 / s2 - 64.0) < 1e-6 * 64.0
    return "single on-axis dipole: 4/(4 pi eps0 d^3)^2 and d^-6", ok, \
        f"S_E(d=1) = {s1:.6g}"


def _check_heating():
    n = trapnoise.heating_rate(1e-12, E_CHARGE, 40 * 1.6605390666e-27,
                               2 * math.pi * 1e6)
    ok = abs(n - 291.6) < 1.0
    return "heating rate dimensional check", ok, f"ndot = {n:.4g} 1/s"


def run_checks(pipe):
    """The ten checks.  The five of the chain read pipe at T = 2 nu10 and
    share one rate matrix and its stationary state."""
    T = pipe.kelvin((2.0, "nu10"))
    r = pipe.rate_matrix(T)
    p0 = phonons.stationary_distribution(pipe.states.energies, T)
    return [_check_units(), _check_potential(pipe.params, pipe.grid),
            _check_boundstates(pipe.states), _check_dipoles(pipe.ladder),
            _check_rates(r, p0),
            _check_spectrum(spectrum.correlation_modes(r, p0, pipe.ladder)),
            _check_two_state(), _check_kernel(), _check_single_dipole(),
            _check_heating()]
