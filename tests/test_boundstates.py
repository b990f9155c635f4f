import math
import os
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import version
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adnoise import boundstates, potential
from adnoise.errors import ConfigurationError, GridError, ModelError, NumericalError
from adnoise.units import AMU, BOHR, E_CHARGE, HBAR
from oracles import bound_state_count_estimate, harmonic_frequency


def test_auto_grid_bounds(ne):
    p, _ = ne
    g = boundstates.auto_grid(p, 4000)
    assert 0 < g.z_min < p.z0 < g.z_max
    assert g.z_max >= 6 * p.z0
    assert abs(potential.evaluate(p, g.z_max)) <= 1.0001e-4 * p.U0
    # shallow well: the inner edge sits at the barrier top, not at 10 U0
    z_pk, u_pk = potential.inner_barrier(p)
    assert u_pk < 10 * p.U0
    assert g.z_min == pytest.approx(z_pk, rel=1e-9)


def test_auto_grid_wall_rule_for_steep_well(deep_well):
    g = boundstates.auto_grid(deep_well, 4000)
    assert potential.evaluate(deep_well, g.z_min) == pytest.approx(
        10 * deep_well.U0, rel=1e-9)


@pytest.mark.parametrize("beta_a0", [117.0, 118.0, 150.0, 400.0])
def test_auto_grid_wall_rule_past_overflowing_barrier(ne, beta_a0):
    # beta*z0 = 708 to 2420: from about 709.8 on exp(beta*z0*(1 - z/z0))
    # overflows at the barrier top, which is then reported as inf, and the
    # 10 U0 root is bracketed below the overflow
    p = replace(ne[0], beta=beta_a0 / BOHR)
    _, u_pk = potential.inner_barrier(p)
    assert (u_pk == math.inf) == (p.beta_z0 > 709.8)
    g = boundstates.auto_grid(p, 4000)
    assert potential.evaluate(p, g.z_min) == pytest.approx(10 * p.U0,
                                                           rel=1e-9)


def test_auto_grid_independent_of_resolution(ne):
    p, _ = ne
    g1 = boundstates.auto_grid(p, 4000)
    g2 = boundstates.auto_grid(p, 8000)
    assert g1.z_min == g2.z_min and g1.z_max == g2.z_max
    assert g2.n_points == 8000


def test_auto_grid_h_au():
    p, _ = potential.preset("H-Au")
    g = boundstates.auto_grid(p, 4000)
    assert g.z_max >= 6 * 1.6e-10


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        boundstates.Grid(z_min=0.0, z_max=1e-9, n_points=500)
    with pytest.raises(ConfigurationError):
        boundstates.Grid(z_min=1e-10, z_max=1e-9, n_points=100)


def test_ne_splitting_in_expected_range(ne_states):
    nu = ne_states.splitting(1, 0) / (2 * math.pi)
    assert 0.2e12 <= nu <= 0.45e12


def test_energies_negative_ascending_above_well_bottom(ne_states_full):
    s = ne_states_full
    e = s.energies
    assert np.all(e < 0)
    assert np.all(np.diff(e) > 0)
    assert e[0] > -s.params.U0
    # continuum guard
    assert np.all(e < -1e-3 * s.params.U0)


def test_orthonormality(ne_states_full):
    s = ne_states_full
    psi = s.wavefunctions
    gram = (psi * s.grid.width) @ psi.T
    assert np.abs(gram - np.eye(s.n_states)).max() < 1e-8


def test_tail_condition(ne_states_full):
    s = ne_states_full
    tails = s.wavefunctions[:, -1] ** 2 * s.grid.width[-1]
    assert tails.max() < 1e-10


def test_sign_convention(ne_states_full):
    # first antinode from the wall is positive for every state
    for psi in ne_states_full.wavefunctions:
        a = np.abs(psi)
        k = np.flatnonzero((a[1:-1] >= a[:-2]) & (a[1:-1] >= a[2:])
                           & (a[1:-1] > 0.05 * a.max()))[0] + 1
        assert psi[k] > 0


def test_state_count_vs_estimate(ne, ne_states_full):
    # The closed-form estimate counts the strongly bound, harmonically
    # spaced levels; the full exp-3 well additionally supports a band of
    # shallow tail states, so the uncapped count exceeds the estimate.
    p, _ = ne
    estimate = bound_state_count_estimate(p)
    assert ne_states_full.n_states >= estimate
    # capped at the pipeline default the count matches the estimate band
    grid = boundstates.auto_grid(p, 3000)
    s5 = boundstates.solve(p, grid, max_states=5)
    assert estimate - 3 <= s5.n_states <= estimate + 3


def test_near_zero_diagnostics(ne_states_full):
    assert ne_states_full.near_zero_discarded >= 0


@pytest.mark.parametrize("system", ["Ne-Au", "H-Au", "K-user-beta"])
def test_eigenvalue_convergence_on_doubling(system):
    # O(h^2) discretization: at 16k points a further doubling moves every
    # kept level by less than 1e-4 relative.  K ships without a repulsion
    # range, so a representative user-supplied value is used here.
    if system == "K-user-beta":
        base, _ = potential.preset("K-surface")
        p = potential.SurfacePotentialParams(
            name="K-user", U0=base.U0, z0=base.z0, beta=4.0e10,
            adatom_mass=base.adatom_mass)
    else:
        p, _ = potential.preset(system)
    e1 = boundstates.solve(p, boundstates.auto_grid(p, 16000), max_states=5).energies
    e2 = boundstates.solve(p, boundstates.auto_grid(p, 32000), max_states=5).energies
    assert np.max(np.abs(e1 - e2) / np.abs(e2)) < 1e-4


def test_ground_state_error_shrinks_factor_four(ne):
    # O(h^2) scheme: each doubling cuts the ground-state error by ~4.
    p, _ = ne
    e = [boundstates.solve(p, boundstates.auto_grid(p, n), max_states=3).energies[0]
         for n in (2000, 4000, 8000, 16000)]
    d1, d2, d3 = abs(e[1] - e[0]), abs(e[2] - e[1]), abs(e[3] - e[2])
    assert d2 < d1 / 3.5
    assert d3 < d2 / 3.5


def test_deep_well_matches_harmonic_oracle(deep_well, deep_states):
    # beta*z0 = 60 and several hundred bound levels: the fundamental
    # splitting approaches the curvature result.
    nu_h = harmonic_frequency(deep_well)
    nu_e = deep_states.splitting(1, 0)
    assert abs(nu_e - nu_h) / nu_h < 0.01


def test_deep_well_matrix_element_identity(deep_well, deep_states):
    # |<1|dU/dz|0>|^2 -> m nu^3 hbar / 2 in the harmonic limit
    nu_e = deep_states.splitting(1, 0)
    m01 = boundstates.coupling_matrix(deep_states)[0, 1]
    harmonic = deep_well.adatom_mass * nu_e ** 3 * HBAR / 2
    assert m01 ** 2 == pytest.approx(harmonic, rel=0.05)


def test_deep_well_position_expectation(deep_well, deep_states):
    z00 = boundstates.grid_matrix(deep_states, deep_states.grid.z)[0, 0]
    assert z00 == pytest.approx(deep_well.z0, rel=0.01)


def test_matrix_element_symmetry(ne_states):
    c = boundstates.coupling_matrix(ne_states)
    assert c[0, 2] == c[2, 0]
    assert np.array_equal(c, c.T)


def test_matrix_element_commutator_identity(ne_states):
    # <f|dU/dz|i> = m omega_fi^2 <f|z|i> holds for exact eigenstates and
    # pins down both the eigensolver and the quadrature.
    s = ne_states
    m = s.params.adatom_mass
    dudz = boundstates.coupling_matrix(s)
    z = boundstates.grid_matrix(s, s.grid.z)
    for i, f in [(0, 1), (1, 2), (0, 3)]:
        omega = s.splitting(i, f)
        assert abs(dudz[f, i]) == pytest.approx(abs(m * omega ** 2 * z[f, i]),
                                                rel=2e-3)


def test_log_grid_convergence_table(ne):
    # Ne-Au with max_states = 30 against a 16000-point reference: the
    # errors of nu10, C10 = <1|dU/dz|0> and the worst of the 23 levels (in
    # U0) at 1000 and 2000 points, as tabulated in CHANGES.md, held within
    # a factor 2; the O(h^2) scheme cuts each by about 4 per doubling.
    p, _ = ne

    def headline(n):
        s = boundstates.solve(p, boundstates.auto_grid(p, n), max_states=30)
        assert s.n_states == 23
        return s.splitting(1, 0), boundstates.coupling_matrix(s)[1, 0], \
            s.energies

    nu_ref, c_ref, e_ref = headline(16000)
    errors = {}
    for n in (1000, 2000, 4000):
        nu, c10, e = headline(n)
        errors[n] = np.array([abs(nu / nu_ref - 1), abs(c10 / c_ref - 1),
                              np.abs(e - e_ref).max() / p.U0])
    for n, table in [(1000, [1.51e-4, 6.78e-5, 2.39e-4]),
                     (2000, [3.74e-5, 1.67e-5, 5.88e-5])]:
        assert np.all((errors[n] > 0.5 * np.array(table))
                      & (errors[n] < 2.0 * np.array(table))), (n, errors[n])
    assert np.all(errors[1000] > 3.5 * errors[2000])
    assert np.all(errors[2000] > 3.5 * errors[4000])


def test_matrix_element_grid_convergence(ne):
    p, _ = ne
    m1, m2 = (boundstates.coupling_matrix(boundstates.solve(
        p, boundstates.auto_grid(p, n), max_states=3))[0, 1]
        for n in (4000, 8000))
    assert abs(m1 - m2) / abs(m2) < 1e-3


def test_coupling_matrix_consistent(ne, ne_states):
    # Against the textbook composite trapezoid rule, pair by pair.
    c = boundstates.coupling_matrix(ne_states)
    z = ne_states.grid.z
    du = potential.derivative(ne[0], z)
    for i, f in [(0, 1), (2, 4), (3, 3)]:
        y = ne_states.wavefunctions[f] * du * ne_states.wavefunctions[i]
        assert c[i, f] == pytest.approx(np.trapezoid(y, z), rel=1e-12)


def test_grid_matrix_normalization_orthogonality(ne_states):
    gram = boundstates.grid_matrix(ne_states, np.ones(ne_states.grid.n_points))
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert gram[0, 1] == pytest.approx(0.0, abs=1e-8)
    assert np.abs(gram - np.eye(ne_states.n_states)).max() < 1e-8


def test_grid_matrix_rejects_non_finite(ne_states):
    z = ne_states.grid.z
    with pytest.raises(NumericalError):
        boundstates.grid_matrix(ne_states, np.where(z > z[0], 1.0, np.inf))
    with pytest.raises(NumericalError):
        boundstates.grid_matrix(ne_states, np.where(z > z[0], 1.0, np.nan))


def test_too_shallow_potential_raises_model_error():
    p = potential.SurfacePotentialParams(
        name="shallow", U0=1e-6 * E_CHARGE, z0=4e-10, beta=1.5e10,
        adatom_mass=1 * AMU)
    grid = boundstates.auto_grid(p, 1200)
    with pytest.raises(ModelError, match="too shallow"):
        boundstates.solve(p, grid, max_states=30)


@pytest.mark.parametrize("beta_a0, z_min", [(None, 1e-120), (400.0, None)])
def test_non_finite_potential_on_grid_is_grid_error(ne, beta_a0, z_min):
    # (z0/z)^3 overflows at z = 1e-120 m (U = -inf); at the barrier top of
    # a beta*z0 = 2420 wall exp overflows too (U = inf - inf = nan)
    p = ne[0] if beta_a0 is None else replace(ne[0], beta=beta_a0 / BOHR)
    if z_min is None:
        z_min, _ = potential.inner_barrier(p)
    grid = boundstates.Grid(z_min=z_min, z_max=30 * p.z0, n_points=400)
    with pytest.raises(GridError, match=r"U\(z\) is not finite on the grid"):
        boundstates.solve(p, grid, max_states=30)


def test_undersized_grid_fails_tail_condition(ne):
    p, _ = ne
    auto = boundstates.auto_grid(p, 2000)
    small = boundstates.Grid(z_min=auto.z_min, z_max=3.2 * p.z0, n_points=2000)
    with pytest.raises((GridError, ModelError)):
        boundstates.solve(p, small, max_states=12)


def test_max_states_validation(ne, ne_states):
    p, _ = ne
    with pytest.raises(ConfigurationError):
        boundstates.solve(p, ne_states.grid, max_states=1)


def test_grid_inside_inner_barrier_is_grid_error(ne):
    # Inside the barrier top the exp-3 form dives towards -infinity, so a
    # grid from there gives levels thousands of U0 deep unless refused.
    p, _ = ne
    z_pk, _ = potential.inner_barrier(p)
    assert 0.05 * p.z0 < z_pk
    grid = boundstates.Grid(z_min=0.05 * p.z0, z_max=30 * p.z0, n_points=4000)
    with pytest.raises(GridError, match="inside the inner barrier"):
        boundstates.solve(p, grid, max_states=30)


@pytest.mark.parametrize("routine, info, message", [
    ("dstebz", 1, "LAPACK dstebz: did not converge (info = 1)"),
    ("dstein", 3, "LAPACK dstein: 3 eigenvector(s) did not converge "
                  "(info = 3)"),
    ("dstein", -4, "LAPACK dstein: illegal value in argument 4 (info = -4)"),
])
def test_lapack_info_is_numerical_error(monkeypatch, routine, info, message):
    fake = SimpleNamespace(**{routine: lambda *args: (None, info)})
    monkeypatch.setattr(boundstates, "_FLAPACK", fake)
    with pytest.raises(NumericalError) as err:
        boundstates._lapack(routine, 1, 2)
    assert str(err.value) == message


def test_missing_flapack_names_scipy_version_and_directory(monkeypatch,
                                                           tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(boundstates, "_scipy_linalg_dir", lambda: str(tmp_path))
    with pytest.raises(ImportError) as err:
        boundstates._load_flapack()
    assert str(err.value) == (
        f"scipy {version('scipy')} has no LAPACK extension _flapack in "
        f"{tmp_path}; adnoise calls its dstebz and dstein")


def test_missing_scipy_is_module_not_found(monkeypatch):
    monkeypatch.setattr(boundstates.importlib.util, "find_spec",
                        lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="scipy is not installed"):
        boundstates._scipy_linalg_dir()


@pytest.mark.parametrize("scipy_first", [True, False])
def test_flapack_is_shared_with_scipy_linalg(scipy_first):
    # One module object whichever is imported first.  Loaded here first,
    # scipy.linalg.lapack still finds it through sys.modules, but the
    # attribute scipy.linalg._flapack stays unbound.
    first, second = "import scipy.linalg\n", "import adnoise.cli\n"
    if not scipy_first:
        first, second = second, first
    script = (
        "import sys\n" + first + second +
        "import numpy as np\n"
        "import scipy.linalg.lapack\n"
        "from adnoise import boundstates\n"
        "assert boundstates._FLAPACK is scipy.linalg.lapack._flapack\n"
        "assert boundstates._FLAPACK is sys.modules['scipy.linalg._flapack']\n"
        "w, v = scipy.linalg.eigh_tridiagonal(np.arange(4.0), np.ones(3),"
        " select='i', select_range=(0, 3))\n"
        "print(w.tobytes() == boundstates._lowest_pairs(np.arange(4.0),"
        " np.ones(3), 4)[0].tobytes())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True\n"
