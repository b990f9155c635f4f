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
    assert g.z_min == pytest.approx(z_pk, rel=1e-9, abs=0.0)


def test_auto_grid_wall_rule_for_steep_well(deep_well):
    g = boundstates.auto_grid(deep_well, 4000)
    assert potential.evaluate(deep_well, g.z_min) == pytest.approx(
        10 * deep_well.U0, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("beta_a0", [117.0, 118.0, 150.0, 400.0])
def test_auto_grid_wall_rule_past_overflowing_barrier(ne, beta_a0):
    # beta*z0 = 708 to 2420: from about 709.8 on exp(beta*z0*(1 - z/z0))
    # overflows at the barrier top, which is then reported as inf, and the
    # root at the WKB level, 5.6e4 to 6.5e5 U0 here, is bracketed below the
    # overflow
    p = replace(ne[0], beta=beta_a0 / BOHR)
    _, u_pk = potential.inner_barrier(p)
    assert (u_pk == math.inf) == (p.beta_z0 > 709.8)
    level = boundstates._wall_level(p)
    assert 5e4 < level < 7e5
    g = boundstates.auto_grid(p, 4000)
    # _root returns the midpoint of a cell of at most xtol + rtol z_min
    # (1e-18 m + 1e-14 z_min) that holds the root.  With
    # U = amp ((3 / bz) e^(bz (1 - z / z0)) - (z0 / z)^3), amp = bz U0 /
    # (bz - 3), the wall has |dU/dz| <= beta (U + amp (z0 / z)^3), so at
    # first order U misses the level by at most that slope over U times
    # half the cell, relative.
    bz = p.beta_z0
    slope = p.beta * (1.0 + bz / (bz - 3.0) * (p.z0 / g.z_min) ** 3 / level)
    half_cell = 0.5 * (1e-18 + 1e-14 * g.z_min)
    assert potential.evaluate(p, g.z_min) == pytest.approx(
        level * p.U0, rel=slope * half_cell, abs=0.0)


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
    gram = (psi * s.weights) @ psi.T
    assert np.abs(gram - np.eye(s.n_states)).max() < 1e-12


def test_tail_condition(ne_states_full):
    s = ne_states_full
    for node in (0, -1):
        assert np.max(s.wavefunctions[:, node] ** 2 * s.weights[node]) < 1e-10


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
    # Doubling the basis solve chose moves no kept level by more than the
    # gap tolerance, and n_points plays no part.  K ships without a
    # repulsion range, so a representative user-supplied value is used
    # here.
    if system == "K-user-beta":
        base, _ = potential.preset("K-surface")
        p = potential.SurfacePotentialParams(
            name="K-user", U0=base.U0, z0=base.z0, beta=4.0e10,
            adatom_mass=base.adatom_mass)
    else:
        p, _ = potential.preset(system)
    grid = boundstates.auto_grid(p, 16000)
    s = boundstates.solve(p, grid, max_states=5)
    assert s.gap <= boundstates.GAP_TOLERANCE
    e1 = s.energies
    e2 = boundstates._states(p, grid, 2 * len(s.nodes), s.shift, 5).energies
    assert np.max(np.abs(e1 - e2)) < boundstates.GAP_TOLERANCE * p.U0
    e3 = boundstates.solve(p, boundstates.auto_grid(p, 200), 5).energies
    assert e3.tobytes() == e1.tobytes()


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
    assert m01 ** 2 == pytest.approx(harmonic, rel=0.05, abs=0.0)


def test_deep_well_position_expectation(deep_well, deep_states):
    z00 = boundstates.grid_matrix(deep_states, deep_states.nodes)[0, 0]
    assert z00 == pytest.approx(deep_well.z0, rel=0.01, abs=0.0)


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
    z = boundstates.grid_matrix(s, s.nodes)
    for i, f in [(0, 1), (1, 2), (0, 3)]:
        omega = s.splitting(i, f)
        assert abs(dudz[f, i]) == pytest.approx(abs(m * omega ** 2 * z[f, i]),
                                                rel=1e-8, abs=0.0)


def test_matrix_element_grid_convergence(ne):
    p, _ = ne
    grid = boundstates.auto_grid(p, 4000)
    s = boundstates.solve(p, grid, max_states=3)
    m1, m2 = (boundstates.coupling_matrix(t)[0, 1] for t in (
        s, boundstates._states(p, grid, 2 * len(s.nodes), s.shift, 3)))
    assert abs(m1 - m2) / abs(m2) < 1e-8


def test_coupling_matrix_consistent(ne, ne_states):
    # Against the textbook composite trapezoid rule in x = ln z, pair by
    # pair, of y z over the nodes.  The weights z h of grid_matrix weigh
    # the two end nodes by a whole step, where the trapezoid takes half of
    # it; past that the two sums of n rounded products differ by rounding
    # alone, at most (n + 3) eps sum(z h |y|).  The diagonal is a force
    # expectation near 0 (Ehrenfest), so its relative bound is wide.
    c = boundstates.coupling_matrix(ne_states)
    z, h = ne_states.nodes, ne_states.step
    du = potential.derivative(ne[0], z)
    eps = np.finfo(float).eps
    for i, f in [(0, 1), (2, 4), (3, 3)]:
        y = ne_states.wavefunctions[f] * du * ne_states.wavefunctions[i]
        trap = np.trapezoid(y * z, np.log(z))
        bound = (0.5 * h * (z[0] * abs(y[0]) + z[-1] * abs(y[-1]))
                 + (len(z) + 3) * eps * np.sum(ne_states.weights * np.abs(y)))
        assert c[i, f] == pytest.approx(trap, rel=bound / abs(trap),
                                        abs=0.0)


def test_grid_matrix_normalization_orthogonality(ne_states):
    gram = boundstates.grid_matrix(ne_states, np.ones(len(ne_states.nodes)))
    assert gram[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert gram[0, 1] == pytest.approx(0.0, abs=1e-8)
    assert np.abs(gram - np.eye(ne_states.n_states)).max() < 1e-8


def test_grid_matrix_rejects_non_finite(ne_states):
    z = ne_states.nodes
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
    ("dsyevr", 1, "LAPACK dsyevr: did not converge (info = 1)"),
    ("dsyevr", -4, "LAPACK dsyevr: illegal value in argument 4 (info = -4)"),
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
        f"{tmp_path}; adnoise calls its dsyevr")


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
        "a = np.diag(np.arange(4.0)) - np.eye(4, k=1) - np.eye(4, k=-1)\n"
        "w = scipy.linalg.eigh(a, eigvals_only=True,"
        " subset_by_value=(-np.inf, 0.0))\n"
        "ours = boundstates._lapack('dsyevr', a, compute_v=0, range='V',"
        " lower=1, vl=-np.inf, vu=0.0)\n"
        "print(w.tobytes() == ours[0][:ours[2]].tobytes())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True\n"


def test_dvr_converged_at_100_nodes(ne):
    # Ne-Au with every one of its 23 levels: 100 nodes against 200.
    p, _ = ne
    grid = boundstates.auto_grid(p, 1000)
    s100, s200 = (boundstates._states(p, grid, n, 0.0, 30)
                  for n in (100, 200))
    assert s100.n_states == s200.n_states == 23
    assert np.abs(s100.energies - s200.energies).max() < 1e-10 * p.U0
    c100, c200 = (boundstates.coupling_matrix(s) for s in (s100, s200))
    assert np.abs(c100 - c200).max() < 1e-8 * np.abs(c200).max()


def test_solve_sizes_the_basis_from_the_well(ne):
    # The rule gives 103 nodes for Ne-Au (2 x Nyquist of its largest
    # wavenumber in ln z) and 151 for H-Au, each checked against 0.8 of it.
    for name, n, check in (("Ne-Au", 103, 82), ("H-Au", 151, 121)):
        p = potential.preset(name)[0]
        s = boundstates.solve(p, boundstates.auto_grid(p, 1000), 30)
        assert (len(s.nodes), s.check_nodes) == (n, check)
        assert 0 <= s.gap <= boundstates.GAP_TOLERANCE


def test_gap_compares_only_levels_kept_at_both_sizes():
    # The level-count pitfall: H-Au has 29 levels below the cut at 60
    # nodes and 32 from 80 on, so the gap compares the lowest 29.
    p = potential.preset("H-Au")[0]
    grid = boundstates.auto_grid(p, 1000)
    cut = -boundstates.NEAR_ZERO_FRACTION * p.U0
    levels = {n: boundstates._levels(p, grid, n, 0.0, vectors=False)
              for n in (60, 80, 100)}
    assert [np.count_nonzero(levels[n] < cut) for n in (60, 80, 100)] \
        == [29, 32, 32]
    gap = boundstates._gap(levels[60], levels[80], cut, 30, p.U0)
    assert gap == np.abs(levels[60][:29] - levels[80][:29]).max() / p.U0
    assert 1e-4 < gap < 1e-1
    assert boundstates._gap(levels[60], levels[80], cut, 5, p.U0) \
        == np.abs(levels[60][:5] - levels[80][:5]).max() / p.U0


def test_basis_grows_to_the_cap_then_raises(ne, monkeypatch):
    # A gap that never meets the tolerance grows the basis by GROWTH per
    # round, each round checked against the last, up to MAX_NODES.
    p, _ = ne
    sizes = []
    levels = boundstates._levels

    def spy(p, grid, n, shift, vectors):
        sizes.append(n)
        return levels(p, grid, n, shift, vectors)

    monkeypatch.setattr(boundstates, "_levels", spy)
    monkeypatch.setattr(boundstates, "GAP_TOLERANCE", -1.0)
    monkeypatch.setattr(boundstates, "MAX_NODES", 200)
    with pytest.raises(GridError, match="between 129 and 162 sinc nodes"):
        boundstates.solve(p, boundstates.auto_grid(p, 1000), 5)
    assert sizes == [82, 103, 129, 162]


def test_deep_well_on_its_whole_interval_is_refused_before_any_solve(
        deep_well, monkeypatch):
    # beta*z0 = 60 and several hundred levels: the largest wavenumber in
    # ln z, 6970, asks for 1.4e4 nodes, and 2970 in ln(z - shift) for
    # 1.09e4, past MAX_NODES either way.
    monkeypatch.setattr(boundstates, "_levels", None)
    with pytest.raises(GridError, match=r"needs about 1\.09e\+04 sinc nodes "
                       r"\(largest local wavenumber 2\.97e\+03 "):
        boundstates.solve(deep_well, boundstates.auto_grid(deep_well, 1000), 3)


def test_head_condition(ne):
    # An inner edge inside the well, at 0.9 z0, cuts the ground state.
    p, _ = ne
    auto = boundstates.auto_grid(p, 1000)
    grid = boundstates.Grid(z_min=0.9 * p.z0, z_max=auto.z_max, n_points=1000)
    with pytest.raises(GridError, match=r"state 0 .* violates the head "
                       r"condition .* at z = 0\.9 z0\); move the inner edge"):
        boundstates.solve(p, grid, max_states=5)


@pytest.mark.parametrize("beta_a0, n_nodes", [(10.0, 114), (20.0, 147),
                                              (50.0, 198)])
def test_steep_wall_g10_against_an_edge_at_1e5_u0(ne, beta_a0, n_nodes):
    # beta*z0 = 60.5, 121 and 302.5: the edge at the WKB level (412, 1649
    # and 10305 U0) keeps g10 = <1|dU/dz|0> within 1e-4 of an edge at
    # 1e5 U0; the old 10 U0 edge was off by 3 %, 31 % and a factor 15.
    # Each basis is in ln(z - shift), which stretches the wall.
    p = replace(ne[0], beta=beta_a0 / BOHR)
    grid = boundstates.auto_grid(p, 1000)
    z_ref = potential._root(lambda z: potential.evaluate(p, z) - 1e5 * p.U0,
                            potential.inner_barrier(p)[0], p.z0, xtol=1e-18,
                            rtol=1e-14)
    assert z_ref < grid.z_min
    ref = boundstates.Grid(z_min=z_ref, z_max=grid.z_max, n_points=1000)
    s, r = (boundstates.solve(p, g, 5) for g in (grid, ref))
    assert len(s.nodes) == n_nodes and s.shift > 0.0
    g10, g10_ref = (boundstates.coupling_matrix(t)[1, 0] for t in (s, r))
    assert abs(g10 / g10_ref - 1) < 1e-4
    assert np.max(s.wavefunctions[:, 0] ** 2 * s.weights[0]) < 1e-15


def sinc_reference(s, z):
    """psi at z from the np.sinc form of the interpolant."""
    t = (np.log(z)[:, None] - np.log(s.nodes[0])) / s.step
    j = np.arange(len(s.nodes))
    chi = s.wavefunctions / np.sqrt(s.nodes)
    return (np.sinc(t - j) @ chi.T).T * np.sqrt(z)


def test_interpolant_matches_the_sinc_form(ne_states_full):
    s = ne_states_full
    grid = s.grid
    z = np.concatenate((np.geomspace(grid.z_min, grid.z_max, 997),
                        s.nodes[[0, 1, 40, -1]]))
    ours = s.interpolate(z)
    assert np.abs(ours - sinc_reference(s, z)).max() \
        < 1e-12 * np.abs(s.wavefunctions).max()
    # z_min lands exactly on the first node: its value, but for the
    # rounding of psi / sqrt(z) * sqrt(z)
    on = s.wavefunctions[:, 0]
    assert np.all(np.abs(ours[:, -4] - on) <= 4 * np.finfo(float).eps
                  * np.abs(on))


def test_interpolant_keeps_the_norm_on_the_output_sampling(ne_states_full):
    s = ne_states_full
    z = np.geomspace(s.grid.z_min, s.grid.z_max, 4000)
    norms = np.trapezoid(s.interpolate(z) ** 2, z, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_basis_cap_fits_the_array_budget():
    # the dense matrix of MAX_NODES nodes, and dsyevr's vectors, take
    # MAX_NODES^2 float cells each
    from adnoise.units import _ARRAY_CELLS
    assert boundstates.MAX_NODES ** 2 <= _ARRAY_CELLS
