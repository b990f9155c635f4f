import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adnoise import cli, config, spectrum, trapnoise, validate
from adnoise.errors import (AnalysisError, ConfigurationError, DomainError,
                            NumericalError)
from adnoise.units import AMU, E_CHARGE, HBAR

FPE = trapnoise.FOUR_PI_EPS0
Z_AXIS = (0.0, 0.0, 1.0)


def test_kernel_on_axis():
    d = 2e-6
    e, = trapnoise.dipole_field_kernel([(0.0, 0.0)], (0.0, 0.0, d))
    assert e[0] == 0.0 and e[1] == 0.0
    assert e[2] == pytest.approx(2.0 / (FPE * d ** 3), rel=1e-12)


def test_kernel_lateral_offset_geometry():
    # offset s = d: cos^2 theta = 1/2, r = sqrt(2) d
    d = 3e-6
    e, = trapnoise.dipole_field_kernel([(d, 0.0)], (0.0, 0.0, d))
    expected_ez = 0.5 / (FPE * (math.sqrt(2) * d) ** 3)
    assert e[2] == pytest.approx(expected_ez, rel=1e-12)


def test_kernel_r_cubed_scaling():
    e1, = trapnoise.dipole_field_kernel([(0.0, 0.0)], (0.0, 0.0, 1.0))
    e2, = trapnoise.dipole_field_kernel([(0.0, 0.0)], (0.0, 0.0, 2.0))
    assert np.linalg.norm(e1) == pytest.approx(8 * np.linalg.norm(e2), rel=1e-12)


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        trapnoise.dipole_field_kernel([(0.0, 0.0)], (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        trapnoise.dipole_field_kernel([(1.0, 0.0)], (1.0, 0.0, -1.0))


def test_kernel_broadcasts_over_ion_positions():
    # a (D, 3) array of ions gives, bit for bit, the D one-ion results
    sources = trapnoise.sample_surface(50, 60.0, seed=4).positions
    ions = np.array([(30.0, 30.0, d) for d in (3.0, 4.5, 10.0)])
    batch = trapnoise.dipole_field_kernel(sources, ions)
    assert batch.shape == (3, 50, 3)
    for ion, e in zip(ions, batch):
        assert e.tobytes() == trapnoise.dipole_field_kernel(
            sources, ion).tobytes()
    with pytest.raises(DomainError):
        trapnoise.dipole_field_kernel(sources, [(1.0, 1.0, 2.0), (1.0, 1.0, 0.0)])
    # an (S, n, 2) stack of sources gives (S, D, n, 3), one surface a row
    stack = trapnoise.sample_surface(50, 60.0, range(4, 7)).positions
    batch = trapnoise.dipole_field_kernel(stack, ions)
    assert batch.shape == (3, 3, 50, 3)
    for surface, e in zip(stack, batch):
        assert e.tobytes() == trapnoise.dipole_field_kernel(
            surface, ions).tobytes()
    assert trapnoise.dipole_field_kernel(stack, ions[0]).tobytes() == (
        batch[:, 0].tobytes())


def test_analytic_field_noise_formula():
    sigma, d, s_mu = 1e18, 1e-5, 1e-70
    expected = 0.375 * sigma * s_mu / (FPE ** 2 * d ** 4)
    assert trapnoise.analytic_field_noise(sigma, s_mu, d) == pytest.approx(
        expected, rel=1e-12)
    assert trapnoise.analytic_field_noise(sigma, s_mu, 2 * d) == pytest.approx(
        expected / 16, rel=1e-12)
    assert trapnoise.analytic_field_noise(sigma, 0.0, d) == 0.0
    # the trap distance is checked here, where it is read
    with pytest.raises(DomainError, match="sigma and d must be positive"):
        trapnoise.analytic_field_noise(sigma, s_mu, -d)


def test_kernel_integral_constant_closed_form():
    # independently integrable: K = 3 pi / 4 over the infinite plane
    k = trapnoise.kernel_integral_constant()
    assert k == pytest.approx(3 * math.pi / 4, rel=1e-13)
    # The bits of the 16-point rule, whichever module builds its nodes.
    assert k == 2.3561944901923413


def test_kernel_integral_d_independent():
    k1 = trapnoise.kernel_integral_constant(1.0)
    for d in np.geomspace(1e-3, 1e3, 25):
        assert trapnoise.kernel_integral_constant(d) == pytest.approx(
            k1, rel=1e-13)


def test_kernel_integral_rejects_a_kernel_off_the_rule(monkeypatch):
    # A screened kernel, exp(-r / d) times the bare one, is not a
    # polynomial in u = d / r: the 8- and 16-point rules disagree.
    bare = trapnoise.dipole_field_kernel

    def screened(sources, ion):
        r = np.hypot(np.asarray(sources)[:, 0], ion[2])
        return bare(sources, ion) * np.exp(-r / ion[2])[:, None]

    monkeypatch.setattr(trapnoise, "dipole_field_kernel", screened)
    with pytest.raises(NumericalError, match="8- and 16-point rules"):
        trapnoise.kernel_integral_constant()


def test_validate_kernel_check_catches_k_off_in_the_tenth_digit(
        monkeypatch):
    assert validate._check_kernel()[1]
    exact = trapnoise.kernel_integral_constant
    for off in (lambda d: 1e-10, lambda d: 1e-10 * (d != 1.0)):
        monkeypatch.setattr(trapnoise, "kernel_integral_constant",
                            lambda d=1.0, off=off: exact(d) * (1.0 + off(d)))
        assert not validate._check_kernel()[1]


def test_kernel_constant_vs_surface_average():
    # the two exposed transfer constants differ by exactly 2 pi
    k = trapnoise.kernel_integral_constant()
    assert k / trapnoise.SURFACE_AVERAGE_CONSTANT == pytest.approx(
        2 * math.pi, rel=1e-8)


def test_sample_surface_contract():
    s = trapnoise.sample_surface(100, 100.0, seed=42)
    assert s.n == 100 and s.positions.shape == (100, 2)
    assert np.all(s.positions >= 0) and np.all(s.positions < 100.0)
    assert s.rejects == 0


def test_sample_surface_deterministic():
    a = trapnoise.sample_surface(50, 100.0, seed=7)
    b = trapnoise.sample_surface(50, 100.0, seed=7)
    c = trapnoise.sample_surface(50, 100.0, seed=8)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_sample_surface_single_point():
    s = trapnoise.sample_surface(1, 10.0, seed=0)
    assert s.n == 1


def test_sample_surface_infeasible_packing():
    # Ten dipoles per d0^2, past any packing of disks of diameter d0, are
    # drawn like any other surface: no minimum spacing is kept.
    s = trapnoise.sample_surface(1000, 10.0, seed=0)
    assert s.positions.tobytes() == uniform_draw(1000, 10.0, 0).tobytes()


def test_sample_surface_negative_seed():
    with pytest.raises(ConfigurationError, match="non-negative, got -1"):
        trapnoise.sample_surface(10, 100.0, seed=-1)



def field_variance_sides():
    """Both sides of the field-variance sum rule on the Ne-Au chain at
    2 nu10, sigma = 1e18 m^-2, d = 10 um: int S_E domega / 2 pi with S_E
    from analytic_field_noise, and sigma K Var(mu) / ((4 pi eps0)^2 d^4)
    with K the plane integral of the field kernel."""
    pipe = cli.Pipeline(config.parse_config("preset = Ne-Au\n"))
    spec = pipe.spectrum_at(pipe.kelvin((2.0, "nu10")))
    sigma, d = 1e18, 10e-6
    # S_mu is even in omega: its two-sided integral over domega / 2 pi is
    # the one-sided one over pi.  The transfer is linear in S_mu.
    var_from_spectrum = spectrum.integrate_spectrum(spec) / math.pi
    assert var_from_spectrum == pytest.approx(spec.variance, rel=1e-9)
    lhs = trapnoise.analytic_field_noise(sigma, var_from_spectrum, d)
    rhs = (sigma * trapnoise.kernel_integral_constant() * spec.variance
           / (FPE ** 2 * d ** 4))
    return lhs, rhs


@pytest.mark.xfail(strict=True,
                   reason="the 3/8 transfer gives S_E per domega: "
                          "sigma K Var(mu) / ((4 pi eps0)^2 d^4) over the "
                          "integral of S_E domega / 2 pi measured "
                          "6.2831853071795845 = 2 pi")
def test_field_variance_sum_rule():
    lhs, rhs = field_variance_sides()
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_field_variance_sum_rule_misses_by_two_pi():
    # Pins the xfail above to its stated cause, so that it cannot pass or
    # fail for another reason unnoticed.
    lhs, rhs = field_variance_sides()
    assert rhs / lhs == pytest.approx(2.0 * math.pi, rel=1e-9)


def uniform_draw(n, extent, seed):
    """The stream sample_surface pins: one uniform (n, 2) draw of the
    seed's own generator, scaled by the extent."""
    return np.random.default_rng(seed).random((n, 2)) * extent


def assert_matches_reference(n, extent, seeds):
    for seed in seeds:
        s = trapnoise.sample_surface(n, extent, seed)
        assert s.positions.tobytes() == uniform_draw(n, extent,
                                                     seed).tobytes(), seed
        assert s.rejects == 0


@pytest.mark.parametrize("n", [1, 2, 100, 300])
def test_sample_surface_bit_identical_to_reference(n):
    assert_matches_reference(n, 100.0, range(50))


def test_sample_surface_bit_identical_dense_packing():
    # 1500 in 60^2, 0.42 dipoles per d0^2
    assert_matches_reference(1500, 60.0, range(4))


def test_sample_surface_bit_identical_non_integer_cells():
    # an extent that is no whole number of d0 (the name is from a deleted
    # cell grid)
    assert_matches_reference(600, 37.3, range(10))


def test_sample_surface_bit_identical_beyond_int64_keys():
    # extents past ~1e16 d0 (the name is from a deleted cell grid)
    assert_matches_reference(100, 1e10, range(10))
    assert_matches_reference(100, 1e20, range(10))


def test_sample_surface_bit_identical_cell_edges_at_two_d0():
    # 1000 in 64^2 (the name is from a deleted cell grid, whose cells were
    # a hair wider than 2 d0)
    assert_matches_reference(1000, 64.0, range(6))


@st.composite
def sampler_configs(draw):
    """(n, extent, seed) over the float range of the extent: the product
    of a draw and a tiny extent can be subnormal."""
    n = draw(st.integers(1, 60))
    extent = draw(st.one_of(st.floats(1e-300, 1e300),
                            st.sampled_from([5e-324, 1e-310, 1.7e308])))
    return n, extent, draw(st.integers(0, 2 ** 64))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sampler_configs())
def test_sample_surface_matches_reference_property(case):
    n, extent, seed = case
    s = trapnoise.sample_surface(n, extent, seed)
    assert s.positions.tobytes() == uniform_draw(n, extent, seed).tobytes()
    assert np.all((s.positions >= 0) & (s.positions <= extent))


def single_draws(n, extent, seeds):
    """The stack a loop over the seeds gives, as bytes."""
    return np.array([trapnoise.sample_surface(n, extent, s).positions
                     for s in seeds]).tobytes()


def stacked_draw(n, extent, seeds):
    """single_draws' result from one stacked sample_surface call."""
    stack = trapnoise.sample_surface(n, extent, seeds)
    assert stack.positions.shape == (len(seeds), n, 2)
    assert stack.n == len(seeds) * n and stack.rejects == 0
    return stack.positions.tobytes()


# The ids are those the cases had under a deleted hard-core sampler: draws
# that took one to two or four to five blocks of candidates, the 30 seeds
# of a surface-mc op, a spacing of 0.7 in an extent of 37.3 (37.3 / 0.7 in
# d0), and one point in an extent of 10 with a spacing of 3.
STACKS = pytest.mark.parametrize("n, extent, seeds", [
    (150, 24.0, range(16)),
    (240, 22.0, range(8)),
    (300, 100.0, range(30)),
    (600, 37.3 / 0.7, range(4)),
    (100, 1e20, range(10)),
    (100, 1e35, range(10)),
    (1, 10.0 / 3.0, [0, 7, 7, 2 ** 40]),
], ids=["1-2-blocks", "4-5-blocks", "surface-mc", "d0-0.7", "extent-1e20",
        "extent-1e35", "one-point"])


@STACKS
def test_stacked_sample_matches_single_draws(n, extent, seeds):
    # Surface k of a stack is, bit for bit, the draw from seeds[k] alone,
    # repeated seeds included.  At extents of 1e20 and 1e35, seed * extent
    # + x would round away x: the surfaces must stay apart all the same.
    reference = np.array([uniform_draw(n, extent, s) for s in seeds])
    assert stacked_draw(n, extent, seeds) == reference.tobytes()
    assert single_draws(n, extent, seeds) == reference.tobytes()


@STACKS
def test_every_surface_of_a_round_draws_one_block_size(monkeypatch, n, extent,
                                                       seeds):
    # A stacked draw makes one generator per seed, in seed order, and reads
    # one block of n points from each: no surface draws a point it does
    # not keep.
    drawn, make = [], np.random.default_rng

    def spying_rng(seed):
        rng = make(seed)

        def random(size=None, out=None):
            drawn.append((seed, size if out is None else out.shape))
            return rng.random(size, out=out)
        return SimpleNamespace(random=random)

    monkeypatch.setattr(np.random, "default_rng", spying_rng)
    trapnoise.sample_surface(n, extent, seeds)
    assert drawn == [(s, (n, 2)) for s in seeds]


@st.composite
def seed_stacks(draw):
    """(n, extent, seeds) with 1-6 seeds, some repeated, at extents from
    1e-300 to 1e300."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(150, 300)))
    extent = 10.0 ** draw(st.floats(-300.0, 300.0))
    seed = draw(st.integers(0, 2 ** 32))
    return n, extent, [seed + draw(st.integers(0, 50))
                       for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed_stacks())
def test_stacked_sample_matches_single_draws_property(case):
    assert stacked_draw(*case) == single_draws(*case)



def test_single_point_sample_as_validate_builds_it():
    # validate and acceptance criterion 10 build a one-dipole (1, 2)
    # sample by hand: it counts one dipole, gives one S_E per distance and
    # the bits of the same point as a stack of one surface
    ds = (1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0)
    point = np.array([[50.0, 50.0]])
    single = trapnoise.SurfaceSample(positions=point, extent=100.0)
    stack = trapnoise.SurfaceSample(positions=point[None], extent=100.0)
    assert single.n == stack.n == 1
    se = trapnoise.mc_field_noise(single, Z_AXIS, ds)
    assert se.shape == (len(ds),)
    assert se.tobytes() == trapnoise.mc_field_noise(stack, Z_AXIS,
                                                    ds)[0].tobytes()
    assert se[0] == pytest.approx(4 / FPE ** 2, rel=1e-12)
    assert validate._check_single_dipole()[1]


def no_sampling(*args, **kwargs):
    raise AssertionError("a sample was drawn")


@pytest.mark.parametrize("n, section, cells", [
    (2777778, "", 50000004),
    (2777778, "extent = 1e9\n", 50000004),
    (1666667, "d_values = 3, 4, 5, 6, 7, 8, 9, 10, 10, 10\n", 50000010),
], ids=["default", "sparse", "ten-distances"])
def test_n_dipoles_past_the_cell_budget_exits_two(tmp_path, capsys,
                                                  monkeypatch, n, section,
                                                  cells):
    # One cell past the budget, refused before anything is allocated and
    # before the sparse-surface rule: the field kernel of one surface holds
    # 3 x distances x dipoles float cells.
    monkeypatch.setattr(trapnoise, "sample_surface", no_sampling)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"preset = Ne-Au\n[montecarlo]\nn_dipoles = {n}\n"
                       + section)
    out = tmp_path / "o"
    assert cli.main(["mc-scaling", "--config", str(cfgfile),
                     "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: montecarlo.n_dipoles = {n} at {cells // 3 // n} "
        f"distances needs a field kernel of {cells} float cells (3 x "
        "distances x dipoles), past the budget of 50000000 cells per array\n")
    assert not out.exists()


def test_fit_cell_budget_is_checked_before_any_draw(monkeypatch):
    # At the budget the fit reaches its first draw, one cell past it, and
    # at a dipole count past the float range, it is refused before; the
    # stub draws nothing either way.
    class Drawn(Exception):
        pass

    def stub(*args):
        raise Drawn

    monkeypatch.setattr(trapnoise, "sample_surface", stub)
    d_values = [3.0, 4.0, 5.0, 6.5, 8.0, 10.0]
    assert 3 * len(d_values) * 2777777 <= trapnoise._ARRAY_CELLS
    with pytest.raises(Drawn):
        trapnoise.distance_scaling_fit(2777777, 100.0, 0, Z_AXIS, d_values,
                                       n_seeds=2)
    for n in (2777778, 10 ** 400):
        with pytest.raises(ConfigurationError,
                           match=f"montecarlo.n_dipoles = {n} at 6 "):
            trapnoise.distance_scaling_fit(n, 100.0, 0, Z_AXIS, d_values,
                                           n_seeds=2)


def test_huge_extent_exits_four(tmp_path, capsys):
    # at the default distances both surfaces are far too sparse; extent ** 2
    # overflows at 1e155
    for extent, seeds in (("1e155", 30), ("1e60", 5)):
        cfgfile = tmp_path / "huge.ini"
        cfgfile.write_text("preset = Ne-Au\n[montecarlo]\nn_dipoles = 100\n"
                           f"extent = {extent}\nn_seeds = {seeds}\n")
        out = tmp_path / f"o{extent}"
        assert cli.main(["mc-scaling", "--config", str(cfgfile),
                         "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert "distances [ 3.   4.   5.   6.5  8.  10. ]" in err, err
        assert not (out / "mc_scaling.csv").exists()


def run_mc_scaling(tmp_path, extent):
    """mc-scaling with 100 dipoles and 30 seeds at the given extent."""
    cfgfile = tmp_path / f"e{extent}.ini"
    cfgfile.write_text("preset = Ne-Au\n[montecarlo]\nn_dipoles = 100\n"
                       f"extent = {extent}\nn_seeds = 30\n")
    out = tmp_path / f"o{extent}"
    return cli.main(["mc-scaling", "--config", str(cfgfile),
                     "--output", str(out)]), out / "mc_scaling.csv"


@pytest.mark.parametrize("extent, count", [("1e6", "9.42e-07"),
                                           ("1e4", "0.00942")])
def test_sparse_surface_exits_four_before_sampling(tmp_path, capsys,
                                                   monkeypatch, extent,
                                                   count):
    # 30 seeds expect far less than one dipole within d = 10 of the ion, so
    # S_E hardly depends on d: the fitted exponents were -4.65e-06 and
    # -0.140 at exit 0.
    monkeypatch.setattr(trapnoise, "sample_surface", no_sampling)
    code, csv = run_mc_scaling(tmp_path, extent)
    err = capsys.readouterr().err
    assert code == 4
    assert f"{count} dipoles expected" in err, err
    assert "distances [ 3.   4.   5.   6.5  8.  10. ]" in err, err
    assert not csv.exists()


def test_sparse_surface_threshold(tmp_path, capsys):
    # 30 pi 10^2 100 / extent^2 = 1 at extent 970.8
    code, csv = run_mc_scaling(tmp_path, 970)
    assert code == 0 and csv.exists()
    code, csv = run_mc_scaling(tmp_path, 972)
    assert code == 4 and not csv.exists()
    assert "0.998 dipoles expected" in capsys.readouterr().err


SPARSE = ("dipoles expected within the largest distance of the ion over "
          "all seeds (n_seeds * pi * d_max^2 * n_dipoles / extent^2 < 1), "
          "distances [ 3.   4.   5.   6.5  8.  10. ]: the surface is too "
          "sparse for a distance scaling fit")


@pytest.mark.parametrize("section, code, message", [
    ("extent = 10\n", 4,
     "numerical error: distances [ 3.   4.   5.   6.5  8.  10. ] outside "
     "the valid window [3, 1] (below: dipole granularity dominates; above: "
     "the finite patch acts as a composite source)"),
    ("seed = -3\nextent = 20\n", 2,
     "configuration error: seed must be non-negative, got -3"),
    ("n_seeds = 1\n", 4,
     "numerical error: n_seeds = 1, distances [ 3.   4.   5.   6.5  8.  10. ]"
     ": the standard errors need at least 2 seeds and the fit at least 3 "
     "distinct distances"),
    ("extent = 1e35\n", 4, "numerical error: 3.14e-63 " + SPARSE),
    ("n_seeds = 1\nextent = 1e9\n", 4, "numerical error: 3.14e-14 " + SPARSE),
    ("d_values = 1, 3, 5\n", 4,
     "numerical error: distances [1.] outside the valid window [3, 10] "
     "(below: dipole granularity dominates; above: the finite patch acts "
     "as a composite source)"),
], ids=["packing", "seed", "seeds", "sparse", "sparse-one-seed", "window"])
def test_mc_scaling_refusals_in_order(tmp_path, capsys, section, code,
                                      message):
    # the sparse-surface rule first, then sampling's argument checks, then
    # the window and the seed count; 100 dipoles in 10^2 (packing) are
    # refused by the window alone
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[montecarlo]\n" + section)
    out = tmp_path / "o"
    assert cli.main(["mc-scaling", "--config", str(cfgfile),
                     "--output", str(out)]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("section, message", [
    ("d_values = 3, 4, 1e200\n",
     "numerical error: distances [1.e+200] outside the valid window [3, 10]"),
    ("extent = 1e200\nd_values = 3e198, 4e198, 5e198\n",
     "numerical error: seed-averaged S_E at distances [3.e+198 4.e+198 "
     "5.e+198] is [0. 0. 0.], not finite and positive"),
], ids=["window", "seed-mean"])
def test_largest_distance_past_float_square_exits_four(tmp_path, capsys,
                                                       section, message):
    # d_max^2 overflows in the sparse-surface count (an OverflowError on a
    # Python float, exit 1); as inf the count passes, and the window or the
    # seed-mean check refuses the run
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[montecarlo]\n" + section)
    out = tmp_path / "o"
    assert cli.main(["mc-scaling", "--config", str(cfgfile),
                     "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_scaled_distances_reach_the_tiny_field_guards(tmp_path, capsys):
    # Distances scaled with the extent keep the surface dense enough near
    # the ion, 23.6 dipoles over 30 seeds: at 1e35 S_E is about 1e-182 and
    # its standard errors stay positive, and at 1e101 the field sums
    # underflow to 0, which is refused.
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("preset = Ne-Au\n[montecarlo]\nextent = 1e35\n"
                       "d_values = 3e33, 4e33, 5e33\nn_seeds = 30\n")
    out = tmp_path / "o"
    assert cli.main(["mc-scaling", "--config", str(cfgfile),
                     "--output", str(out)]) == 0
    lines = [ln for ln in (out / "mc_scaling.csv").read_text().splitlines()
             if not ln.startswith("#")][1:]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    assert np.all((rows[:, 1] < 1e-180) & (rows[:, 2] > 0))
    cfgfile.write_text("preset = Ne-Au\n[montecarlo]\nextent = 1e101\n"
                       "d_values = 3e99, 4e99, 5e99\nn_seeds = 30\n")
    capsys.readouterr()
    assert cli.main(["mc-scaling", "--config", str(cfgfile),
                     "--output", str(tmp_path / "z")]) == 4
    assert "is [0. 0. 0.], not finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def seed_field_noise(n, extent, seed, d_values, n_seeds):
    """The per-seed S_E the fit averages: one sample_surface per seed."""
    return np.array([trapnoise.mc_field_noise(
        trapnoise.sample_surface(n, extent, seed + k), Z_AXIS, d_values)
        for k in range(n_seeds)])


@pytest.mark.parametrize("extent", [100.0, 1e35])
def test_standard_errors_survive_tiny_field_noise(extent):
    # With the distances scaled along with the extent, 6 dipoles are
    # expected within d_max over the 8 seeds at either extent.  At 1e35 S_E
    # is about 1e-182, so its squared deviations underflow; the standard
    # errors must come out of the per-seed values all the same, and at
    # extent 100 bit for bit as se.std gives them.
    n_seeds, d_values = 8, [3.0 * extent / 100, 4.0 * extent / 100,
                            5.0 * extent / 100]
    res = trapnoise.distance_scaling_fit(100, extent, 0, Z_AXIS, d_values,
                                         n_seeds=n_seeds)
    se = seed_field_noise(100, extent, 0, d_values, n_seeds)
    assert np.array_equal(res.means, se.mean(axis=0))
    scale = 1.0 / se.max()
    expect = (se * scale).std(axis=0, ddof=1) / scale / math.sqrt(n_seeds)
    assert np.all(res.stderrs > 0)
    np.testing.assert_allclose(res.stderrs, expect, rtol=1e-13, atol=0)
    if extent == 100.0:
        plain = se.std(axis=0, ddof=1) / math.sqrt(n_seeds)
        assert res.stderrs.tobytes() == plain.tobytes()


@pytest.mark.parametrize("extent, count", [(1e35, "6.28e-66"),
                                           (1e155, "6.28e-306")])
def test_fit_refuses_sparse_surface_before_sampling(monkeypatch, extent,
                                                    count):
    # 8 seeds at the distances 3-5 expect next to no dipole near the ion;
    # the count divides by the extent twice, as extent ** 2 overflows at 1e155
    monkeypatch.setattr(trapnoise, "sample_surface", no_sampling)
    with pytest.raises(AnalysisError) as err:
        trapnoise.distance_scaling_fit(100, extent, 0, Z_AXIS,
                                       [3.0, 4.0, 5.0], n_seeds=8)
    assert str(err.value).startswith(f"{count} dipoles expected")
    assert "too sparse" in str(err.value)


def test_sample_surface_rejects_bad_geometry():
    for extent in (0.0, -10.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError,
                           match="extent must be positive and finite"):
            trapnoise.sample_surface(5, extent, seed=0)
    with pytest.raises(ConfigurationError, match="at least one dipole"):
        trapnoise.sample_surface(0, 10.0, seed=0)


def test_sample_positions_validated():
    # A stack counts the dipoles of every surface; coincident points are
    # a valid sample, points outside [0, extent]^2 and a third axis that
    # is not (x, y) are not.
    pair = np.array([[[0.0, 0.0], [0.0, 0.0]]])
    stack = np.concatenate([pair, pair, pair])
    assert trapnoise.SurfaceSample(positions=stack, extent=10.0).n == 6
    with pytest.raises(ConfigurationError, match="inside"):
        trapnoise.SurfaceSample(positions=pair + 10.5, extent=10.0)
    with pytest.raises(ConfigurationError, match=r"\(S, n, 2\)"):
        trapnoise.SurfaceSample(positions=np.zeros((2, 3, 3)), extent=10.0)


def test_sample_positions_must_be_finite():
    with pytest.raises(ConfigurationError, match="inside"):
        trapnoise.SurfaceSample(positions=np.array([[1.0, math.nan]]),
                                extent=10.0)


def reference_field_noise(positions, extent, axis, d):
    """The per-distance field sum: one kernel call for one ion height."""
    ion = np.array([0.5 * extent, 0.5 * extent, d])
    rel = np.empty((len(positions), 3))
    rel[:, :2] = ion[:2] - positions
    rel[:, 2] = ion[2]
    dist = np.linalg.norm(rel, axis=1)
    rn = rel / dist[:, None]
    e = 3.0 * rn[:, 2:] * rn
    e[:, 2] -= 1.0
    e = e / (FPE * dist ** 3)[:, None]
    proj = e @ np.asarray(axis, dtype=float)
    return float(np.sum(proj ** 2))


@pytest.mark.parametrize("n", [1, 2, 100, 300])
def test_field_sum_bit_identical_to_per_distance_reference(n):
    ds = np.array([3.0, 4.0, 5.0, 6.5, 8.0, 10.0])
    axes = [Z_AXIS, (0.6, 0.0, 0.8), tuple(np.ones(3) / math.sqrt(3.0))]
    for seed in range(100):
        sample = trapnoise.sample_surface(n, 100.0, seed)
        for axis in axes:
            expect = np.array([reference_field_noise(
                sample.positions, 100.0, axis, d) for d in ds])
            got = trapnoise.mc_field_noise(sample, axis, ds)
            assert got.tobytes() == expect.tobytes(), (seed, axis)


def test_distance_scaling_draws_surface_k_with_seed_plus_k():
    # surface k is sample_surface(n, extent, seed + k)
    d_values = [3.0, 4.0, 5.0, 6.5]
    res = trapnoise.distance_scaling_fit(40, 80.0, 7, Z_AXIS, d_values,
                                         n_seeds=5)
    se = seed_field_noise(40, 80.0, 7, d_values, 5)
    assert res.means.tobytes() == se.mean(axis=0).tobytes()
    assert res.stderrs.tobytes() == (se.std(axis=0, ddof=1)
                                     / math.sqrt(5)).tobytes()


def loop_fit_error(n, extent, seed, axis, d_list, n_seeds):
    """(type, text) of the error of a fit that checks the axis, the window
    and the seed count, then draws surfaces 0, 1, ... one seed at a time;
    None if it raises none."""
    try:
        if not abs(math.sqrt(sum(a * a for a in axis)) - 1.0) <= 1e-12:
            raise DomainError(f"axis {tuple(axis)} is not a unit vector")
        d_list = np.asarray(d_list, dtype=float)
        bad = d_list[(d_list < 3.0) | (d_list > extent / 10.0)]
        if len(bad):
            raise AnalysisError(
                f"distances {bad} outside the valid window [3, "
                f"{extent / 10.0:.3g}] (below: dipole granularity dominates; "
                "above: the finite patch acts as a composite source)")
        if n_seeds < 2 or len(np.unique(d_list)) < 3:
            raise AnalysisError(
                f"n_seeds = {n_seeds}, distances {d_list}: the standard "
                "errors need at least 2 seeds and the fit at least 3 "
                "distinct distances")
        for k in range(n_seeds):
            trapnoise.sample_surface(n, extent, seed + k)
    except (AnalysisError, DomainError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed, axis, d_list, n_seeds, expect", [
    (9, (0.0, 0.0, 2.0), [3.0, 3.2, 3.4], 4, DomainError),
    (8, (0.0, 0.0, 2.0), [3.0, 3.2, 3.4], 4, DomainError),
    (8, Z_AXIS, [1.0, 3.0, 3.2], 4, AnalysisError),
    (8, Z_AXIS, [3.0, 3.0, 3.2], 4, AnalysisError),
    (8, Z_AXIS, [3.0, 3.2, 3.4], 4, None),
    (9, Z_AXIS, [3.0, 3.2, 3.4], 1, AnalysisError),
    (8, Z_AXIS, [3.0, 3.2, 3.4], 1, AnalysisError),
], ids=["surface-0", "axis", "window", "distinct", "later-seed",
        "one-seed-packing", "one-seed"])
@pytest.mark.parametrize("fit_cells", [trapnoise._FIT_CELLS, 1, 3600],
                         ids=["one-chunk", "chunks-of-1", "chunks-of-2"])
def test_fit_errors_come_in_the_order_of_a_seed_loop(
        monkeypatch, seed, axis, d_list, n_seeds, expect, fit_cells):
    # 600 in 34^2, from seed 8 or 9: the fit raises the error a loop that
    # checks its arguments and then draws one seed at a time raises,
    # whatever the chunks.  Where the loop raises none (later-seed), the
    # fit's means are the loop's, bit for bit.
    monkeypatch.setattr(trapnoise, "_FIT_CELLS", fit_cells)
    want = loop_fit_error(600, 34.0, seed, axis, d_list, n_seeds)
    if expect is None:
        assert want is None
        res = trapnoise.distance_scaling_fit(600, 34.0, seed, axis, d_list,
                                             n_seeds=n_seeds)
        se = seed_field_noise(600, 34.0, seed, d_list, n_seeds)
        assert res.means.tobytes() == se.mean(axis=0).tobytes()
        return
    assert want[0] is expect
    with pytest.raises(expect) as got:
        trapnoise.distance_scaling_fit(600, 34.0, seed, axis, d_list,
                                       n_seeds=n_seeds)
    assert (type(got.value), str(got.value)) == want


@pytest.mark.parametrize("changes, error, message", [
    ({"axis": (0.0, 0.0, 2.0)}, DomainError, "not a unit vector"),
    ({"d_list": [1.0, 5.0, 10.0]}, AnalysisError, "outside the valid window"),
    ({"n_seeds": 1}, AnalysisError, "at least 2 seeds"),
    ({"n": 2000, "extent": 50.0}, AnalysisError, r"window \[3, 5\]"),
    ({"seed": -3}, ConfigurationError, "seed must be non-negative, got -3"),
    ({"n": 5555556}, ConfigurationError,
     "montecarlo.n_dipoles = 5555556 at 3 distances"),
], ids=["axis", "window", "one-seed", "packing", "negative-seed", "budget"])
def test_refused_fit_draws_nothing(monkeypatch, changes, error, message):
    # Every refusal comes before the first sample_surface call.
    calls = []
    monkeypatch.setattr(trapnoise, "sample_surface",
                        lambda *args: calls.append(args))
    kwargs = dict(n=100, extent=100.0, seed=0, axis=Z_AXIS,
                  d_list=[3.0, 5.0, 10.0], n_seeds=8)
    with pytest.raises(error, match=message):
        trapnoise.distance_scaling_fit(**{**kwargs, **changes})
    assert calls == []


def test_fit_chunks_stay_within_the_cell_budget(monkeypatch):
    # 300 seeds of 100 dipoles at 6 distances are 180,000 cells: the fit
    # draws and sums them in chunks of at most _FIT_CELLS, in seed order,
    # and each kernel evaluation stays within _KERNEL_CELLS; the result
    # has the bits of one unchunked pass and of one surface at a time.
    d_values = [3.0, 4.0, 5.0, 6.5, 8.0, 10.0]
    calls = []
    for name in ("sample_surface", "mc_field_noise", "dipole_field_kernel"):
        def spy(*args, _name=name, _f=getattr(trapnoise, name), **kwargs):
            calls.append((_name, args))
            return _f(*args, **kwargs)
        monkeypatch.setattr(trapnoise, name, spy)
    res = trapnoise.distance_scaling_fit(100, 100.0, 3, Z_AXIS, d_values,
                                         n_seeds=300)
    seeds = [list(a[2]) for f, a in calls if f == "sample_surface"]
    assert len(seeds) == 3 and sum(seeds, []) == list(range(3, 303))
    budget = trapnoise._FIT_CELLS
    stacks = [a[0].positions.shape for f, a in calls if f == "mc_field_noise"]
    assert [s[0] for s in stacks] == [len(c) for c in seeds]
    assert all(s * n * len(d_values) <= budget for s, n, _ in stacks)
    kernels = [a[0].shape for f, a in calls if f == "dipole_field_kernel"]
    assert all(s * n * len(d_values) <= trapnoise._KERNEL_CELLS
               for s, n, _ in kernels)
    assert sum(s for s, _, _ in kernels) == 300
    calls.clear()
    monkeypatch.setattr(trapnoise, "_FIT_CELLS", 1 << 30)
    whole = trapnoise.distance_scaling_fit(100, 100.0, 3, Z_AXIS, d_values,
                                           n_seeds=300)
    assert len([f for f, _ in calls if f == "sample_surface"]) == 1
    for field_name in ("exponent", "stderr", "means", "stderrs"):
        assert (np.asarray(getattr(res, field_name)).tobytes()
                == np.asarray(getattr(whole, field_name)).tobytes())
    se = seed_field_noise(100, 100.0, 3, d_values, 300)
    assert res.means.tobytes() == se.mean(axis=0).tobytes()


def test_stacked_field_sum_matches_one_surface_at_a_time():
    # (S, D) from a stack, in kernel blocks of several surfaces or, past
    # _KERNEL_CELLS, of one: each row has the bits of its surface alone
    ds = [3.0, 4.0, 5.0, 6.5, 8.0, 10.0]
    for n, extent, seeds in ((100, 100.0, range(40)),
                             (2000, 100.0, range(3))):
        stack = trapnoise.sample_surface(n, extent, seeds)
        for axis in (Z_AXIS, (0.6, 0.0, 0.8)):
            se = trapnoise.mc_field_noise(stack, axis, ds)
            assert se.shape == (len(seeds), len(ds))
            for row, s in zip(se, seeds):
                one = trapnoise.sample_surface(n, extent, s)
                assert row.tobytes() == trapnoise.mc_field_noise(
                    one, axis, ds).tobytes()


def test_mc_single_dipole_below_ion():
    # one dipole directly under the ion: S_E = 4 S_mu / (4 pi eps0)^2 d^6,
    # here per unit S_mu
    sample = trapnoise.SurfaceSample(positions=np.array([[5.0, 5.0]]),
                                     extent=10.0)
    ds = (1.0, 2.0)
    for d, got in zip(ds, trapnoise.mc_field_noise(sample, Z_AXIS, ds)):
        assert got == pytest.approx(4 / (FPE ** 2 * d ** 6), rel=1e-12)


def test_mc_additive_over_subsamples():
    full = trapnoise.sample_surface(40, 60.0, seed=3)
    lo = trapnoise.SurfaceSample(positions=full.positions[:17], extent=60.0)
    hi = trapnoise.SurfaceSample(positions=full.positions[17:], extent=60.0)
    assert trapnoise.mc_field_noise(full, Z_AXIS, [5.0]) == pytest.approx(
        trapnoise.mc_field_noise(lo, Z_AXIS, [5.0])
        + trapnoise.mc_field_noise(hi, Z_AXIS, [5.0]), rel=1e-12)


def test_mc_rotation_invariance():
    # rigid rotation about the vertical through the ion leaves the
    # z-axis projection unchanged
    raw = trapnoise.sample_surface(30, 60.0, seed=11)
    center = np.array([30.0, 30.0])
    inside = np.linalg.norm(raw.positions - center, axis=1) < 25.0
    sample = trapnoise.SurfaceSample(positions=raw.positions[inside],
                                     extent=60.0)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    turned = (sample.positions - center) @ rot.T + center
    rotated = trapnoise.SurfaceSample(positions=turned, extent=60.0)
    a = trapnoise.mc_field_noise(sample, Z_AXIS, [4.0])
    b = trapnoise.mc_field_noise(rotated, Z_AXIS, [4.0])
    assert b == pytest.approx(a, rel=1e-12)


def test_mc_ensemble_matches_plane_integral():
    # law of large numbers against sigma * K / ((4 pi eps0)^2 d^4)
    res = trapnoise.distance_scaling_fit(100, 100.0, 2024, Z_AXIS,
                                         [4.0, 6.0, 9.0], n_seeds=800)
    k = trapnoise.kernel_integral_constant()
    sigma = 100 / 100.0 ** 2
    for d, mean in zip(res.distances, res.means):
        expected = sigma * k / (FPE ** 2 * d ** 4)
        assert mean == pytest.approx(expected, rel=0.10)


def test_distance_scaling_paper_geometry():
    res = trapnoise.distance_scaling_fit(100, 100.0, 12345, Z_AXIS,
                                         [3.0, 4.0, 5.0, 6.5, 8.0, 10.0],
                                         n_seeds=1000)
    assert res.exponent == pytest.approx(-4.0, abs=0.15)


def test_distance_scaling_single_dipole_is_minus_six():
    # a single dipole under the ion is a pure point source
    base = trapnoise.SurfaceSample(positions=np.array([[50.0, 50.0]]),
                                   extent=100.0)
    d_list = [3.0, 4.0, 5.0, 6.5, 8.0, 10.0]
    se = trapnoise.mc_field_noise(base, Z_AXIS, d_list)
    x = np.log(d_list)
    slope = np.polyfit(x, np.log(se), 1)[0]
    assert slope == pytest.approx(-6.0, abs=0.05)


def test_far_field_drifts_toward_point_dipole():
    # far beyond the patch the finite cluster acts as a composite source:
    # the local exponent leaves -4 and heads for -6 (documented regime,
    # excluded from the fitting window)
    ds = (250.0, 500.0)
    vals = [trapnoise.mc_field_noise(
        trapnoise.sample_surface(100, 100.0, seed=5 + k), Z_AXIS, ds)
        for k in range(60)]
    means = np.mean(vals, axis=0)
    slope = math.log(means[1] / means[0]) / math.log(ds[1] / ds[0])
    assert -6.2 < slope < -5.3


def test_distance_window_enforced():
    with pytest.raises(AnalysisError, match="window"):
        trapnoise.distance_scaling_fit(100, 100.0, 1, Z_AXIS, [1.0, 5.0],
                                       n_seeds=5)
    with pytest.raises(AnalysisError, match="window"):
        trapnoise.distance_scaling_fit(100, 100.0, 1, Z_AXIS, [5.0, 40.0],
                                       n_seeds=5)


OMEGA_T = 2 * math.pi * 1e6


def test_heating_rate_reference_point():
    # q = e, m = 40 amu, omega_t = 2 pi MHz, S_E = 1e-12 -> ~2.9e2 /s
    expected = E_CHARGE ** 2 * 1e-12 / (2 * 40 * AMU * HBAR * 2 * math.pi * 1e6)
    got = trapnoise.heating_rate(1e-12, E_CHARGE, 40 * AMU, OMEGA_T)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(291.6, rel=1e-3)


def test_heating_rate_scalings():
    assert trapnoise.heating_rate(0.0, E_CHARGE, 40 * AMU, OMEGA_T) == 0.0
    assert trapnoise.heating_rate(
        1e-12, E_CHARGE, 40 * AMU, OMEGA_T / 2) == pytest.approx(
        2 * trapnoise.heating_rate(1e-12, E_CHARGE, 40 * AMU, OMEGA_T),
        rel=1e-12)


def test_array_calls_match_scalar_calls():
    # one call over a sweep gives, bit for bit, the per-entry scalar calls
    s_mu = np.array([0.0, 1e-70, 3.7e-68, 2.2e-66])
    s_e = trapnoise.analytic_field_noise(1e18, s_mu, 1e-5)
    assert s_e.tobytes() == np.array([
        trapnoise.analytic_field_noise(1e18, float(x), 1e-5)
        for x in s_mu]).tobytes()
    ndot = trapnoise.heating_rate(s_e, -2 * E_CHARGE, 9 * AMU, OMEGA_T)
    assert ndot.tobytes() == np.array([
        trapnoise.heating_rate(float(x), -2 * E_CHARGE, 9 * AMU, OMEGA_T)
        for x in s_e]).tobytes()
    with pytest.raises(DomainError, match="s_mu"):
        trapnoise.analytic_field_noise(1e18, np.array([1e-70, -1e-70]), 1e-5)
    with pytest.raises(DomainError, match="S_E"):
        trapnoise.heating_rate(np.array([1e-12, -1e-12]), E_CHARGE,
                               40 * AMU, OMEGA_T)


@pytest.mark.parametrize("charge,ion_mass,omega_t", [
    (E_CHARGE, 0.0, OMEGA_T), (E_CHARGE, -40 * AMU, OMEGA_T),
    (E_CHARGE, 40 * AMU, 0.0), (E_CHARGE, 40 * AMU, -OMEGA_T),
    (0.0, 40 * AMU, OMEGA_T), (-0.0, 40 * AMU, OMEGA_T)])
def test_heating_rate_checks_trap_values(charge, ion_mass, omega_t):
    # The parser rejects these keys first; heating_rate still checks them.
    with pytest.raises(DomainError, match="ion mass"):
        trapnoise.heating_rate(1e-12, charge, ion_mass, omega_t)


@pytest.mark.parametrize("axis", [(0.0, 0.0, 2.0), (0.0, 0.0, 0.0),
                                  (0.3, 0.4, 1.0), (0.0, 0.0, math.nan),
                                  (0.0, 0.0, 1.0 + 1e-11)])
def test_distance_scaling_fit_needs_unit_axis(axis):
    with pytest.raises(DomainError, match="not a unit vector"):
        trapnoise.distance_scaling_fit(100, 100.0, 1, axis, [3.0, 4.0, 5.0],
                                       n_seeds=2)
