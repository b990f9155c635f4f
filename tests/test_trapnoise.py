import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adnoise import cli, config, spectrum, trapnoise, validate
from adnoise.errors import (AnalysisError, ConfigurationError, DomainError,
                            NumericalError, PackingError)
from adnoise.units import AMU, E_CHARGE, HBAR
from conftest import assert_close_pairs, close_pair_table

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
    sources = trapnoise.sample_surface(50, 60.0, 1.0, seed=4).positions
    ions = np.array([(30.0, 30.0, d) for d in (3.0, 4.5, 10.0)])
    batch = trapnoise.dipole_field_kernel(sources, ions)
    assert batch.shape == (3, 50, 3)
    for ion, e in zip(ions, batch):
        assert e.tobytes() == trapnoise.dipole_field_kernel(
            sources, ion).tobytes()
    with pytest.raises(DomainError):
        trapnoise.dipole_field_kernel(sources, [(1.0, 1.0, 2.0), (1.0, 1.0, 0.0)])
    # an (S, n, 2) stack of sources gives (S, D, n, 3), one surface a row
    stack = trapnoise.sample_surface(50, 60.0, 1.0, range(4, 7)).positions
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
    s = trapnoise.sample_surface(100, 100.0, 1.0, seed=42)
    assert s.n == 100
    assert np.all(s.positions >= 0) and np.all(s.positions <= 100.0)
    d2 = np.sum((s.positions[:, None] - s.positions[None, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    assert d2.min() >= 1.0


def test_sample_surface_deterministic():
    a = trapnoise.sample_surface(50, 100.0, 1.0, seed=7)
    b = trapnoise.sample_surface(50, 100.0, 1.0, seed=7)
    c = trapnoise.sample_surface(50, 100.0, 1.0, seed=8)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_sample_surface_single_point():
    s = trapnoise.sample_surface(1, 10.0, 3.0, seed=0)
    assert s.n == 1


def test_sample_surface_infeasible_packing():
    with pytest.raises(ConfigurationError):
        trapnoise.sample_surface(1000, 10.0, 1.0, seed=0)


def test_sample_surface_negative_seed():
    with pytest.raises(ConfigurationError, match="non-negative, got -1"):
        trapnoise.sample_surface(10, 100.0, 1.0, seed=-1)


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


def reference_sample(n, extent, min_spacing, seed,
                     max_rejects=trapnoise.MAX_CONSECUTIVE_REJECTS):
    """The per-candidate loop: one draw and one np.sum per candidate."""
    rng = np.random.default_rng(seed)
    pts = np.empty((n, 2))
    count = consecutive = total_rejects = 0
    while count < n:
        cand = rng.uniform(0.0, extent, 2)
        if count:
            d2 = np.sum((pts[:count] - cand) ** 2, axis=1)
            if d2.min() < min_spacing ** 2:
                consecutive += 1
                total_rejects += 1
                if consecutive > max_rejects:
                    raise PackingError(
                        f"seed {seed}: gave up after {consecutive} "
                        f"consecutive rejections ({count}/{n} placed)")
                continue
        pts[count] = cand
        count += 1
        consecutive = 0
    return pts, total_rejects


def assert_matches_reference(n, extent, min_spacing, seeds):
    for seed in seeds:
        pts, rejects = reference_sample(n, extent, min_spacing, seed)
        s = trapnoise.sample_surface(n, extent, min_spacing, seed)
        assert s.positions.tobytes() == pts.tobytes(), seed
        assert s.rejects == rejects, seed


@pytest.mark.parametrize("n", [1, 2, 100, 300])
def test_sample_surface_bit_identical_to_reference(n):
    assert_matches_reference(n, 100.0, 1.0, range(50))


def test_sample_surface_bit_identical_dense_packing():
    # 1500 in 60^2 is near the feasibility limit: thousands of rejects
    assert_matches_reference(1500, 60.0, 1.0, range(4))


def test_sample_surface_bit_identical_non_integer_cells():
    # extent 37.3 and d0 = 0.7, not a multiple of each other and d0 not a
    # double: the close-pair reach and the limit fl(0.7^2) are those of a
    # spacing other than 1 (the name is from the deleted cell grid)
    assert_matches_reference(600, 37.3, 0.7, range(10))


def test_sample_surface_bit_identical_beyond_int64_keys():
    # extent / d0 past ~1e16: x + d0 rounds to x, so the close-pair loop
    # reaches the ties in x only
    assert_matches_reference(100, 1e10, 1.0, range(10))
    assert_matches_reference(100, 1e20, 1.0, range(10))


def test_sample_surface_bit_identical_cell_edges_at_two_d0():
    # 1000 in 64^2 needs a second block on every seed, scanned together
    # with the points placed from the first (the name is from the deleted
    # cell grid, whose cells were a hair wider than 2 d0)
    assert_matches_reference(1000, 64.0, 1.0, range(6))


@st.composite
def sampler_configs(draw):
    """(n, extent, min_spacing, seed) below the packing gate: dense ones
    by packing fraction n pi d0^2 / 4 / extent^2 up to 0.4999, sparse ones
    by extent up to 1e20."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(30, 60)))
    d0 = draw(st.one_of(st.sampled_from([0.7, 1e-3, 37.5]),
                        st.floats(1e-3, 1e3)))
    if draw(st.booleans()):
        fraction = draw(st.one_of(st.floats(1e-3, 0.4999),
                                  st.floats(0.44, 0.4999)))
        extent = d0 * math.sqrt(n * math.pi / 4.0 / fraction)
    else:
        extent = 10.0 ** draw(st.floats(0.0, 20.0))
    assume(n * math.pi * (d0 / extent) ** 2 / 4.0 < 0.5)
    return n, extent, d0, draw(st.integers(0, 2 ** 32))


def sample_or_error(sample, *args, **kwargs):
    """(positions bytes, rejects) of a sample, or a PackingError's text."""
    try:
        got = sample(*args, **kwargs)
    except PackingError as exc:
        return str(exc)
    if isinstance(got, tuple):
        return got[0].tobytes(), got[1]
    return got.positions.tobytes(), got.rejects


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sampler_configs())
def test_sample_surface_matches_reference_property(case):
    # Near the gate a run of rejects can end the draw: both sides give up
    # after the same 101 consecutive rejections, or neither does.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", 100)
        got = sample_or_error(trapnoise.sample_surface, *case)
    assert got == sample_or_error(reference_sample, *case, max_rejects=100)


def draw_spy(monkeypatch):
    """Patch np.random.default_rng so that its generators record the size
    of each uniform draw; returns that list."""
    sizes, make = [], np.random.default_rng

    def spying_rng(seed):
        rng = make(seed)

        def uniform(low, high, size):
            sizes.append(size)
            return rng.uniform(low, high, size)
        return SimpleNamespace(uniform=uniform)

    monkeypatch.setattr(np.random, "default_rng", spying_rng)
    return sizes


def test_sample_surface_bit_identical_over_several_blocks(monkeypatch):
    # 150 in 20^2 rejects more candidates than the first block holds
    # beyond the 150 it needs
    sizes = draw_spy(monkeypatch)
    for seed in range(3):
        pts, rejects = reference_sample(150, 20.0, 1.0, seed)
        del sizes[:]
        s = trapnoise.sample_surface(150, 20.0, 1.0, seed)
        assert rejects > sizes[0][0] - 150 and len(sizes) > 1
        assert s.positions.tobytes() == pts.tobytes(), seed
        assert s.rejects == rejects, seed


def test_packing_error_run_across_blocks(monkeypatch):
    # 60 in 10^2 gets stuck at 59: the 301 rejects in a row begin in one
    # block and end in a later one
    monkeypatch.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", 300)
    sizes = draw_spy(monkeypatch)
    with pytest.raises(PackingError) as expected:
        reference_sample(60, 10.0, 1.0, 3, max_rejects=300)
    assert str(expected.value) == ("seed 3: gave up after 301 consecutive "
                                   "rejections (59/60 placed)")
    last = len(sizes) - 1              # the candidate the reference gave up on
    del sizes[:]
    with pytest.raises(PackingError) as got:
        trapnoise.sample_surface(60, 10.0, 1.0, seed=3)
    assert str(got.value) == str(expected.value)
    starts = np.cumsum([size[0] for size in sizes])
    assert np.any((last - 300 < starts) & (starts <= last)), (last, starts)


@pytest.mark.parametrize("n, extent, seed, longest", [
    (150, 20.0, 3, 17), (240, 22.0, 2, 57), (60, 10.5, 1, 77)])
def test_packing_limit_at_the_longest_run_across_blocks(monkeypatch, n,
                                                        extent, seed,
                                                        longest):
    # The longest run of rejects of these draws begins in one block and
    # ends in the next.  With the limit at its length the draw fills, one
    # below it gives up at its last candidate: the run carried from block
    # to block is counted exactly, alone and in a stack.
    sizes = draw_spy(monkeypatch)
    with pytest.raises(PackingError) as expected:
        reference_sample(n, extent, 1.0, seed, max_rejects=longest - 1)
    end = len(sizes) - 1          # the candidate the reference gave up on
    pts, rejects = reference_sample(n, extent, 1.0, seed,
                                    max_rejects=longest)
    monkeypatch.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", longest)
    del sizes[:]
    s = trapnoise.sample_surface(n, extent, 1.0, seed)
    assert (s.positions.tobytes(), s.rejects) == (pts.tobytes(), rejects)
    starts = np.cumsum([size[0] for size in sizes])
    assert np.any((end - longest < starts) & (starts <= end)), (end, starts)
    seeds = [seed, seed + 1, seed + 2]
    monkeypatch.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", longest - 1)
    with pytest.raises(PackingError) as got:
        trapnoise.sample_surface(n, extent, 1.0, seed)
    assert str(got.value) == str(expected.value)
    assert stacked_draw(n, extent, 1.0, seeds) == single_draws(
        n, extent, 1.0, seeds)


def test_packing_error_names_placed_count(monkeypatch):
    monkeypatch.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", 20)
    with pytest.raises(PackingError) as expected:
        reference_sample(1500, 60.0, 1.0, 0, max_rejects=20)
    assert "/1500 placed)" in str(expected.value)
    with pytest.raises(PackingError) as got:
        trapnoise.sample_surface(1500, 60.0, 1.0, seed=0)
    assert str(got.value) == str(expected.value)


def single_draws(n, extent, min_spacing, seeds):
    """The stack a loop over the seeds gives: (positions, total rejects),
    or the text of the first PackingError, which names its seed."""
    try:
        samples = [trapnoise.sample_surface(n, extent, min_spacing, s)
                   for s in seeds]
    except PackingError as exc:
        return str(exc)
    return (np.array([s.positions for s in samples]).tobytes(),
            sum(s.rejects for s in samples))


def stacked_draw(n, extent, min_spacing, seeds):
    """single_draws' result from one stacked sample_surface call."""
    try:
        stack = trapnoise.sample_surface(n, extent, min_spacing, seeds)
    except PackingError as exc:
        return str(exc)
    assert stack.positions.shape == (len(seeds), n, 2)
    assert stack.n == len(seeds) * n
    return stack.positions.tobytes(), stack.rejects


STACKS = pytest.mark.parametrize("n, extent, min_spacing, seeds, blocks", [
    (150, 24.0, 1.0, range(16), {1, 2}),
    (240, 22.0, 1.0, range(8), {4, 5}),
    (300, 100.0, 1.0, range(30), {1}),
    (600, 37.3, 0.7, range(4), {2}),
    (100, 1e20, 1.0, range(10), {1}),
    (100, 1e35, 1.0, range(10), {1}),
    (1, 10.0, 3.0, [0, 7, 7, 2 ** 40], {1}),
], ids=["1-2-blocks", "4-5-blocks", "surface-mc", "d0-0.7", "extent-1e20",
        "extent-1e35", "one-point"])


@STACKS
def test_stacked_sample_matches_single_draws(monkeypatch, n, extent,
                                             min_spacing, seeds, blocks):
    # Surface k of a stack is, bit for bit, the draw from seeds[k] alone,
    # whether it finishes in the first round or needs more blocks.  At
    # extents of 1e20 and 1e35 with d0 = 1, seed * extent + x would round
    # away the x of every pair; the surfaces must stay apart all the same.
    # The first three single draws are those of the per-candidate loop.
    sizes = draw_spy(monkeypatch)
    rounds = []
    for s in seeds:
        del sizes[:]
        trapnoise.sample_surface(n, extent, min_spacing, s)
        rounds.append(len(sizes))
    assert set(rounds) == blocks
    assert_matches_reference(n, extent, min_spacing, seeds[:3])
    assert stacked_draw(n, extent, min_spacing, seeds) == single_draws(
        n, extent, min_spacing, seeds)


@STACKS
def test_sampled_surfaces_keep_the_minimum_spacing(n, extent, min_spacing,
                                                   seeds, blocks):
    # Placement is the only spacing test its output gets: every pair of a
    # surface, stacked or single, lies at least d0 apart by the direct
    # test's arithmetic.
    for seed in (seeds, seeds[0]):
        pts = trapnoise.sample_surface(n, extent, min_spacing, seed).positions
        assert not close_pair_table(pts.reshape(-1, n, 2), min_spacing ** 2)


def test_spacing_is_tested_once_per_placement_round(monkeypatch):
    # A sample, even one of coincident points, is built without a spacing
    # pass; a 30-seed draw of 100 that fills in one round makes one.
    calls, close_pairs = [], trapnoise._close_pairs

    def spy(points, reach, limit):
        calls.append(points.shape)
        return close_pairs(points, reach, limit)

    monkeypatch.setattr(trapnoise, "_close_pairs", spy)
    trapnoise.SurfaceSample(positions=np.ones((3, 2, 2)), extent=1.0)
    assert calls == []
    trapnoise.sample_surface(100, 100.0, 1.0, range(30))
    assert calls == [(30, 256, 2)]


@STACKS
def test_every_surface_of_a_round_draws_one_block_size(monkeypatch, n, extent,
                                                       min_spacing, seeds,
                                                       blocks):
    # In a stacked draw, every surface that draws in a round draws a block
    # of the same size, which heads its row of the round's spacing pass.
    sizes = draw_spy(monkeypatch)
    rounds, close_pairs = [], trapnoise._close_pairs

    def spy(points, reach, limit):
        rounds.append((points.shape, sizes[:]))
        del sizes[:]
        return close_pairs(points, reach, limit)

    monkeypatch.setattr(trapnoise, "_close_pairs", spy)
    trapnoise.sample_surface(n, extent, min_spacing, seeds)
    assert len(rounds) == max(blocks)
    for (surfaces, width, _), drawn in rounds:
        assert len(drawn) == surfaces
        assert set(drawn) == {(drawn[0][0], 2)}
        assert 256 <= drawn[0][0] <= width


def test_stacked_packing_error_is_the_lowest_failing_seed(monkeypatch):
    # 600 in 34^2 with the limit at 120: seed 8 fills, seed 9 gives up in
    # its 7th block, seeds 10 and 11 in their 6th.  The stack raises seed
    # 9's error, as a loop over the seeds does, though 10 fails first.
    monkeypatch.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", 120)
    sizes = draw_spy(monkeypatch)
    blocks = {}
    for s in range(8, 12):
        del sizes[:]
        try:
            trapnoise.sample_surface(600, 34.0, 1.0, s)
            blocks[s] = "filled"
        except PackingError:
            blocks[s] = len(sizes)
    assert blocks == {8: "filled", 9: 7, 10: 6, 11: 6}
    got = stacked_draw(600, 34.0, 1.0, range(8, 12))
    assert got == single_draws(600, 34.0, 1.0, range(8, 12))
    assert got.startswith("seed 9: gave up after 121")


@st.composite
def seed_stacks(draw):
    """(n, extent, min_spacing, seeds) with 1-6 seeds: mostly dense, by
    packing fraction from 0.3 to 0.4999, where blocks run out and draws
    give up, else sparse by extent up to 1e35."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(150, 300)))
    d0 = draw(st.one_of(st.sampled_from([1.0, 0.7]), st.floats(1e-3, 1e3)))
    if draw(st.integers(0, 2)):
        fraction = draw(st.floats(0.3, 0.4999))
        extent = d0 * math.sqrt(n * math.pi / 4.0 / fraction)
    else:
        extent = 10.0 ** draw(st.floats(0.0, 35.0))
    assume(n * math.pi * (d0 / extent) ** 2 / 4.0 < 0.5)
    seed = draw(st.integers(0, 2 ** 32))
    return n, extent, d0, [seed + draw(st.integers(0, 50))
                           for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed_stacks())
def test_stacked_sample_matches_single_draws_property(case):
    # Near the gate some seeds give up after 101 rejections in a row: the
    # stack then raises the error of the lowest-indexed one.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", 100)
        assert stacked_draw(*case) == single_draws(*case)


def test_stack_spacing_check_keeps_surfaces_apart():
    # The same surface three times has no close pair: points of different
    # surfaces never pair.  One close pair inside the third surface is
    # found, at the extents where seed * extent + x would round.
    for extent in (100.0, 1e20, 1e35):
        one = trapnoise.sample_surface(50, extent, 1.0, seed=1).positions
        stack = np.array([one, one, one])
        assert trapnoise.SurfaceSample(positions=stack, extent=extent).n == 150
        assert assert_close_pairs(stack, 1.0, 1.0) == set()
        stack[2, 7] = stack[2, 3] + (0.0, 0.5)
        assert (2, 3, 7) in assert_close_pairs(stack, 1.0, 1.0)
    with pytest.raises(ConfigurationError, match=r"\(S, n, 2\)"):
        trapnoise.SurfaceSample(positions=np.zeros((2, 3, 3)), extent=10.0)


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


def test_packing_error_exits_four(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", 20)
    cfgfile = tmp_path / "dense.ini"
    cfgfile.write_text("preset = Ne-Au\n[montecarlo]\nn_dipoles = 1500\n"
                       "extent = 60\nd_values = 3, 4, 5\nseed = 0\n")
    assert cli.main(["mc-scaling", "--config", str(cfgfile),
                     "--output", str(tmp_path / "o")]) == 4
    assert "consecutive rejections" in capsys.readouterr().err


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
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

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
    ("extent = 10\n", 2,
     "configuration error: packing fraction too high for rejection sampling"),
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
    # the sparse-surface rule first, then sampling's argument and packing
    # errors, then the window and the seed count
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
        trapnoise.sample_surface(n, extent, 1.0, seed + k), Z_AXIS, d_values)
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
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(trapnoise, "sample_surface", no_sampling)
    with pytest.raises(AnalysisError) as err:
        trapnoise.distance_scaling_fit(100, extent, 0, Z_AXIS,
                                       [3.0, 4.0, 5.0], n_seeds=8)
    assert str(err.value).startswith(f"{count} dipoles expected")
    assert "too sparse" in str(err.value)


def test_sample_surface_rejects_bad_geometry():
    for extent, spacing in ((10.0, 0.0), (10.0, -1.0), (-10.0, 1.0),
                            (math.inf, 1.0), (10.0, math.nan)):
        with pytest.raises(ConfigurationError):
            trapnoise.sample_surface(5, extent, spacing, seed=0)


def test_sample_positions_validated():
    pair = np.array([[[0.0, 0.0], [0.1, 0.0]]])
    assert assert_close_pairs(pair, 1.0, 1.0) == {(0, 0, 1)}
    with pytest.raises(ConfigurationError, match="inside"):
        trapnoise.SurfaceSample(positions=pair + 10.0, extent=10.0)


def test_spacing_window_reaches_every_close_successor():
    # 40 points within 1e-3 in x: the pair that fails is the first and the
    # last in x order, 39 places apart
    n = 40
    x = 5.0 + np.linspace(0.0, 1e-3, n)
    y = np.concatenate([[0.0], 2.0 + np.arange(n - 2), [0.5]])
    pts = np.column_stack([x, y])[None]
    assert assert_close_pairs(pts, 1.0, 1.0) == {(0, 0, n - 1)}
    pts[0, -1, 1] = 1.0
    assert assert_close_pairs(pts, 1.0, 1.0) == set()


def test_spacing_loop_runs_to_the_last_rank_on_tied_x():
    # Every row of surface 0 shares one x, so each has every successor in
    # reach and the loop runs to rank m - 1; surface 1 ends it no sooner.
    m = 30
    rng = np.random.default_rng(4)
    tied = np.column_stack([np.full(m, 5.0), 0.7 * np.arange(m)])
    tied[-1, 1] = 0.2
    stack = np.array([tied, rng.uniform(0.0, 6.0, (m, 2))])
    got = assert_close_pairs(stack, 1.0, 1.0)
    assert {(0, 0, m - 1), (0, 1, m - 1)} <= got


def test_spacing_loop_skips_a_surface_of_nan_rows():
    # a surface of nan pads only: it pairs with nothing, beside a full one
    full = np.random.default_rng(5).uniform(0.0, 4.0, (40, 2))
    stack = np.array([np.full((40, 2), np.nan), full])
    got = assert_close_pairs(stack, 1.0, 1.0)
    assert got and all(s == 1 for s, _, _ in got)


def test_spacing_loop_of_one_row_per_surface():
    # m = 1: no row has a successor, and the loop never runs
    stack = np.array([[[1.0, 1.0]], [[1.0, 1.0]], [[np.nan, np.nan]]])
    assert assert_close_pairs(stack, 1.0, 1.0) == set()


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
        sample = trapnoise.sample_surface(n, 100.0, 1.0, seed)
        for axis in axes:
            expect = np.array([reference_field_noise(
                sample.positions, 100.0, axis, d) for d in ds])
            got = trapnoise.mc_field_noise(sample, axis, ds)
            assert got.tobytes() == expect.tobytes(), (seed, axis)


def test_distance_scaling_draws_surface_k_with_seed_plus_k():
    # surface k is sample_surface(n, extent, 1.0, seed + k)
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
            trapnoise.sample_surface(n, extent, 1.0, seed + k)
    except (AnalysisError, DomainError, PackingError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed, axis, d_list, n_seeds, expect", [
    (9, (0.0, 0.0, 2.0), [3.0, 3.2, 3.4], 4, DomainError),
    (8, (0.0, 0.0, 2.0), [3.0, 3.2, 3.4], 4, DomainError),
    (8, Z_AXIS, [1.0, 3.0, 3.2], 4, AnalysisError),
    (8, Z_AXIS, [3.0, 3.0, 3.2], 4, AnalysisError),
    (8, Z_AXIS, [3.0, 3.2, 3.4], 4, PackingError),
    (9, Z_AXIS, [3.0, 3.2, 3.4], 1, AnalysisError),
    (8, Z_AXIS, [3.0, 3.2, 3.4], 1, AnalysisError),
], ids=["surface-0", "axis", "window", "distinct", "later-seed",
        "one-seed-packing", "one-seed"])
@pytest.mark.parametrize("fit_cells", [trapnoise._FIT_CELLS, 1, 3600],
                         ids=["one-chunk", "chunks-of-1", "chunks-of-2"])
def test_fit_errors_come_in_the_order_of_a_seed_loop(
        monkeypatch, seed, axis, d_list, n_seeds, expect, fit_cells):
    # 600 in 34^2 with the limit at 120: seed 8 fills, seed 9 gives up in
    # its 7th block and seed 10 in its 6th.  The argument checks come
    # first, even where surface 0 would give up (surface-0,
    # one-seed-packing); then the PackingError of the lowest-indexed
    # surface, whatever the chunks.
    monkeypatch.setattr(trapnoise, "MAX_CONSECUTIVE_REJECTS", 120)
    monkeypatch.setattr(trapnoise, "_FIT_CELLS", fit_cells)
    want = loop_fit_error(600, 34.0, seed, axis, d_list, n_seeds)
    assert want[0] is expect
    with pytest.raises(expect) as got:
        trapnoise.distance_scaling_fit(600, 34.0, seed, axis, d_list,
                                       n_seeds=n_seeds)
    assert (type(got.value), str(got.value)) == want
    if expect is PackingError:
        assert str(got.value).startswith("seed 9: gave up after 121")


@pytest.mark.parametrize("changes, error, message", [
    ({"axis": (0.0, 0.0, 2.0)}, DomainError, "not a unit vector"),
    ({"d_list": [1.0, 5.0, 10.0]}, AnalysisError, "outside the valid window"),
    ({"n_seeds": 1}, AnalysisError, "at least 2 seeds"),
    ({"n": 2000, "extent": 50.0}, ConfigurationError, "packing fraction"),
    ({"seed": -3}, ConfigurationError, "seed must be non-negative, got -3"),
], ids=["axis", "window", "one-seed", "packing", "negative-seed"])
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
    seeds = [list(a[3]) for f, a in calls if f == "sample_surface"]
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
        stack = trapnoise.sample_surface(n, extent, 1.0, seeds)
        for axis in (Z_AXIS, (0.6, 0.0, 0.8)):
            se = trapnoise.mc_field_noise(stack, axis, ds)
            assert se.shape == (len(seeds), len(ds))
            for row, s in zip(se, seeds):
                one = trapnoise.sample_surface(n, extent, 1.0, s)
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
    full = trapnoise.sample_surface(40, 60.0, 1.0, seed=3)
    lo = trapnoise.SurfaceSample(positions=full.positions[:17], extent=60.0)
    hi = trapnoise.SurfaceSample(positions=full.positions[17:], extent=60.0)
    assert trapnoise.mc_field_noise(full, Z_AXIS, [5.0]) == pytest.approx(
        trapnoise.mc_field_noise(lo, Z_AXIS, [5.0])
        + trapnoise.mc_field_noise(hi, Z_AXIS, [5.0]), rel=1e-12)


def test_mc_rotation_invariance():
    # rigid rotation about the vertical through the ion leaves the
    # z-axis projection unchanged
    raw = trapnoise.sample_surface(30, 60.0, 1.0, seed=11)
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
        trapnoise.sample_surface(100, 100.0, 1.0, seed=5 + k), Z_AXIS, ds)
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
