import math
from dataclasses import replace

import numpy as np
import pytest

from adnoise import potential
from adnoise.errors import ConfigurationError, DomainError, NumericalError
from adnoise.units import AMU, BOHR, E_CHARGE, HBAR
from oracles import bound_state_count_estimate, harmonic_frequency


def test_minimum_value_and_location(ne):
    p, _ = ne
    assert potential.evaluate(p, p.z0) == pytest.approx(-p.U0, rel=1e-12)
    assert potential.derivative(p, p.z0) == pytest.approx(0.0, abs=1e-9 * p.U0 / p.z0)


def test_single_interior_minimum_dense_scan(ne):
    p, _ = ne
    z = np.linspace(0.3 * p.z0, 10 * p.z0, 20001)
    u = potential.evaluate(p, z)
    interior = (u[1:-1] < u[:-2]) & (u[1:-1] < u[2:])
    minima = np.flatnonzero(interior) + 1
    assert len(minima) == 1
    assert z[minima[0]] == pytest.approx(p.z0, rel=1e-3)
    assert u[minima[0]] == pytest.approx(-p.U0, rel=1e-6)


def test_long_range_c3_tail(ne):
    p, _ = ne
    c3 = potential.c3(p)
    bt = p.beta * p.z0
    assert c3 == pytest.approx(bt * p.z0 ** 3 * p.U0 / (bt - 3.0), rel=1e-12)
    for z in (40 * p.z0, 80 * p.z0):
        assert potential.evaluate(p, z) * z ** 3 == pytest.approx(-c3, rel=1e-3)


def test_tail_dominates_at_twice_z0(ne):
    # At z = 2 z0 the exponential repulsion is a sub-3% correction.
    p, _ = ne
    u = potential.evaluate(p, 2 * p.z0)
    tail_only = -potential.c3(p) / (2 * p.z0) ** 3
    assert abs(u - tail_only) / abs(tail_only) < 0.03


def test_c3_limits_and_linearity():
    base = dict(z0=3e-10, adatom_mass=20 * AMU)
    steep = potential.SurfacePotentialParams(name="steep", U0=1 * E_CHARGE,
                                             beta=1e13, **base)
    assert potential.c3(steep) == pytest.approx(steep.z0 ** 3 * steep.U0, rel=1e-2)
    doubled = potential.SurfacePotentialParams(name="x2", U0=2 * E_CHARGE,
                                               beta=1e13, **base)
    assert potential.c3(doubled) == pytest.approx(2 * potential.c3(steep), rel=1e-12)


def test_derivative_matches_finite_difference(ne):
    p, _ = ne
    for z in np.linspace(0.5 * p.z0, 5 * p.z0, 23):
        h = 1e-7 * p.z0
        fd = (potential.evaluate(p, z + h) - potential.evaluate(p, z - h)) / (2 * h)
        assert potential.derivative(p, z) == pytest.approx(fd, rel=1e-7)


def test_second_difference_gives_harmonic_curvature(ne):
    # Independent route to the harmonic frequency: curvature at the minimum.
    p, _ = ne
    h = 1e-5 * p.z0
    d2 = (potential.derivative(p, p.z0 + h)
          - potential.derivative(p, p.z0 - h)) / (2 * h)
    nu = harmonic_frequency(p)
    assert d2 == pytest.approx(p.adatom_mass * nu ** 2, rel=1e-7)


def test_derivative_tail(ne):
    p, _ = ne
    z = 60 * p.z0
    assert potential.derivative(p, z) == pytest.approx(
        3 * potential.c3(p) / z ** 4, rel=1e-3)


def test_harmonic_frequency_closed_form(ne):
    p, _ = ne
    bt = p.beta * p.z0
    expected = math.sqrt(p.U0 / (p.adatom_mass * p.z0 ** 2)
                         * 3 * (bt * bt - 4 * bt) / (bt - 3))
    nu = harmonic_frequency(p)
    assert nu == pytest.approx(expected, rel=1e-12)
    assert nu / (2 * math.pi) == pytest.approx(0.3961e12, rel=1e-3)


def test_harmonic_frequency_mass_scaling(ne):
    p, _ = ne
    heavy = potential.SurfacePotentialParams(
        name="heavy", U0=p.U0, z0=p.z0, beta=p.beta,
        adatom_mass=4 * p.adatom_mass)
    assert harmonic_frequency(heavy) == pytest.approx(
        harmonic_frequency(p) / 2, rel=1e-12)


def test_h_au_frequency_scale():
    p, _ = potential.preset("H-Au")
    nu = harmonic_frequency(p) / (2 * math.pi)
    assert 20e12 < nu < 80e12  # tens of THz for the light, tightly bound atom


def test_bound_state_count_estimate(ne):
    p, _ = ne
    n = bound_state_count_estimate(p)
    assert n == 7
    assert n == round(p.U0 / (HBAR * harmonic_frequency(p)))
    doubled = potential.SurfacePotentialParams(
        name="x2", U0=2 * p.U0, z0=p.z0, beta=p.beta,
        adatom_mass=p.adatom_mass)
    # U0 also enters nu10, so compare against the closed form directly
    assert bound_state_count_estimate(doubled) == round(
        2 * p.U0 / (HBAR * harmonic_frequency(doubled)))


def test_single_state_limit():
    p = potential.SurfacePotentialParams(
        name="tiny", U0=1e-5 * E_CHARGE, z0=3e-10, beta=2e10,
        adatom_mass=1 * AMU)
    assert bound_state_count_estimate(p) >= 1


def test_domain_errors(ne):
    p, _ = ne
    with pytest.raises(DomainError):
        potential.evaluate(p, 0.0)
    with pytest.raises(DomainError):
        potential.derivative(p, -1e-10)


def test_presets():
    p, m = potential.preset("Ne-Au")
    assert p.U0 == pytest.approx(12e-3 * E_CHARGE)
    assert p.z0 == pytest.approx(6.05 * BOHR)
    assert p.beta == pytest.approx(0.95 / BOHR)
    assert p.adatom_mass == pytest.approx(20 * AMU)
    assert p.polarizability == pytest.approx(0.36e-30)
    h, _ = potential.preset("H-Au")
    assert h.U0 == pytest.approx(2.0 * E_CHARGE)
    assert h.z0 == pytest.approx(1.6e-10)
    assert h.beta == pytest.approx(3.91e10)
    assert m.density == pytest.approx(19300.0)
    assert m.speed_of_sound == pytest.approx(3962.0)
    assert m.debye_frequency == pytest.approx(3.6e12)


def test_k_preset_requires_user_beta():
    k, _ = potential.preset("K-surface")
    assert k.U0 == pytest.approx(1.79 * E_CHARGE)
    assert k.beta is None
    with pytest.raises(ConfigurationError, match="beta"):
        potential.evaluate(k, 2e-10)
    with pytest.raises(ConfigurationError, match="beta"):
        harmonic_frequency(k)


def test_unknown_preset():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        potential.preset("Xe-W")


def test_beta_z0_validation():
    with pytest.raises(ConfigurationError, match="beta"):
        potential.SurfacePotentialParams(name="bad", U0=1e-20, z0=1e-10,
                                         beta=3.5e10, adatom_mass=AMU)


def test_reduced_mass(ne):
    p, _ = ne
    r = potential.reduced_mass(p)
    expected = 20 * 196.966569 / (20 + 196.966569) * AMU
    assert r.adatom_mass == pytest.approx(expected, rel=1e-9)


def test_inner_barrier_ne(ne):
    # The cubic tail overturns the finite exponential wall on the way in;
    # for this shallow well the barrier tops out below 10 U0.
    p, _ = ne
    z_pk, u_pk = potential.inner_barrier(p)
    assert 0 < z_pk < p.z0
    assert potential.derivative(p, z_pk) == pytest.approx(
        0.0, abs=1e-8 * p.U0 / p.z0)
    assert 2.0 * p.U0 < u_pk < 10.0 * p.U0


def test_root_no_sign_change_names_bracket():
    with pytest.raises(NumericalError, match=r"\[1\.0, 2\.0\] holds no sign change"):
        potential._root(lambda x: x * x + 1.0, 1.0, 2.0, xtol=1e-12, rtol=1e-14)


def test_root_nan_value_names_bracket():
    def f(x):
        return np.where(x > 0.5, math.nan, x - 0.75)

    with pytest.raises(NumericalError, match=r"\[0\.0, 1\.0\]: f is NaN"):
        potential._root(f, 0.0, 1.0, xtol=1e-12, rtol=1e-14)


@pytest.mark.parametrize("beta_a0", [20.0, 100.0, 400.0])
def test_inner_barrier_steep_wall(ne, beta_a0):
    # beta*z0 = 121, 605 and 2420: the barrier top lies below x = 1e-12,
    # inside the one bracket in ln x that every wall shares.  U itself
    # overflows at the top of the last wall.
    p = replace(ne[0], beta=beta_a0 / BOHR)
    with np.errstate(over="ignore", invalid="ignore"):
        z_pk, _ = potential.inner_barrier(p)
    x_pk = z_pk / p.z0
    bz = p.beta_z0
    assert x_pk == pytest.approx(math.exp(-bz / 4), rel=1e-11, abs=0.0)
    assert -4.0 * math.log(x_pk) == pytest.approx(bz * (1.0 - x_pk), rel=1e-14)


@pytest.mark.parametrize("bz, normal", [(2833.5, True), (2833.7, False)])
def test_inner_barrier_steepest_wall_is_minus_four_ln_dbl_min(ne, bz, normal):
    # the top sits at x ~ exp(-bz/4), a normal float up to
    # bz = -4 ln DBL_MIN ~ 2833.57; z_pk = x z0 is subnormal in metres,
    # good to about 20 bits
    p = replace(ne[0], beta=bz / ne[0].z0)
    if normal:
        z_pk, u_pk = potential.inner_barrier(p)
        assert z_pk / p.z0 == pytest.approx(math.exp(-bz / 4), rel=1e-6,
                                            abs=0.0)
        assert u_pk == math.inf
    else:
        with pytest.raises(DomainError, match=r"beta\*z0 = 2833\.7 is too steep"):
            potential.inner_barrier(p)


def test_inner_barrier_too_steep_is_domain_error(ne):
    p = replace(ne[0], beta=1000.0 / BOHR)
    with pytest.raises(DomainError, match=r"beta\*z0 = 6050"):
        potential.inner_barrier(p)
