"""The table writer against a cell-by-cell '%.9g' reference, at the values
where its numpy kernel could go wrong, and its memory on a large table."""

import tracemalloc

import numpy as np
import pytest
from conftest import per_cell_table

from adnoise import boundstates, tables


def neighbours(values, k=4):
    """Each value with its k nearest floats on either side."""
    x = np.asarray(values, dtype=float)
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


def assert_renders_like_reference(x, ncols=8):
    """The values, in a table of ncols columns, against per_cell_table."""
    x = np.concatenate([x, np.full(-len(x) % ncols, 0.5)])
    rows = x.reshape(-1, ncols)
    columns = [(f"c{j}", "1") for j in range(ncols)]
    assert (tables.render_table(columns, rows, ["h"])
            == per_cell_table(columns, rows.tolist(), ["h"]))


def signed(values):
    return np.concatenate([values, -values])


def test_powers_of_ten_and_their_neighbours():
    assert_renders_like_reference(
        signed(neighbours([float(f"1e{k}") for k in range(-330, 311)])))


def test_switch_between_fixed_and_scientific_form():
    # '%.9g' turns scientific below 1e-4 and from 1e9 on, after rounding
    assert_renders_like_reference(signed(neighbours(
        [1e-5, 1e-4, 9.9999999995e-5, 1e9, 999999999.5, 99999999.95])))


def test_nine_digit_half_way_values():
    rng = np.random.default_rng(1)
    q = np.repeat(np.arange(-300, 291), 3)
    m = rng.integers(10 ** 8, 10 ** 9, q.size)
    assert_renders_like_reference(
        signed(neighbours((m + 0.5) * 10.0 ** q, k=2)))


def test_every_format_class_and_count_of_significant_digits():
    # s significant digits '12...' at exponent e: fixed for e in -4..8,
    # scientific with a 2- or 3-digit exponent beyond
    exponents = list(range(-4, 9)) + [-99, -5, 9, 99, -290, -100, 100, 290]
    e, s = np.meshgrid(exponents, np.arange(1, 10), indexing="ij")
    e, s = e.ravel(), s.ravel()
    rows = tables._ROW[e + tables._LIMIT + 1] + s
    assert set(rows.tolist()) == set(range(len(tables._KEEP))) == set(
        range(135))
    x = np.array([float(f"{'123456789'[:k]}e{q - k + 1}")
                  for q, k in zip(e.tolist(), s.tolist())])
    # integral cells whose integer part ends in zeros
    integral = [10.0 ** q for q in range(9)] + [120.0, 1020.0, 5e8,
                                                123456780.0, 100000001.0]
    assert_renders_like_reference(signed(np.concatenate([x, integral])))


def test_edges_of_the_kernel_range_and_special_values():
    # the float maximum stands alone: its upper neighbour overflows
    assert_renders_like_reference(signed(np.concatenate([
        neighbours([1e-290, 1e290, 5e-324, 2.2250738585072014e-308]),
        [0.0, np.nan, np.inf, 1.7976931348623157e308]])))


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_exponent_estimate_one_off_falls_back_to_python(monkeypatch, shift):
    # an exponent one too low or too high puts the nine digits outside
    # 1e8..1e9, so the cell must go to Python, not come out wrong
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    rng = np.random.default_rng(2)
    assert_renders_like_reference(signed(np.concatenate([
        neighbours([float(f"1e{k}") for k in range(-290, 291)], k=1),
        rng.random(4000) * 10.0 ** rng.integers(-290, 291, 4000)])))


def test_random_bit_patterns():
    bits = np.random.default_rng(15).integers(0, 2 ** 64, 10 ** 6,
                                              dtype=np.uint64)
    assert_renders_like_reference(bits.view(np.float64), ncols=100)


@pytest.mark.parametrize("ncols", [1, 3, 7, tables._BLOCK + 1])
def test_tables_straddling_the_block_size(ncols):
    step = max(1, tables._BLOCK // ncols)
    rng = np.random.default_rng(ncols)
    for nrows in (step - 1, step, step + 1, 2 * step + 1):
        if nrows < 1:
            continue
        rows = rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(
            -12, 12, (nrows, ncols))
        columns = [(f"c{j}", "1") for j in range(ncols)]
        assert (tables.render_table(columns, rows)
                == per_cell_table(columns, rows.tolist()))


def test_table_without_columns_has_empty_lines():
    assert (tables.render_table([], np.empty((2, 0)), ["h"])
            == per_cell_table([], [[], []], ["h"]) == "# h\n\n\n\n")


def test_bool_column_writes_only_zero_and_one_as_words():
    rows = np.array([[0.0, 1.5], [1.0, -2.0], [0.5, 1.0], [np.nan, 0.0],
                     [-0.0, 1e-300]])
    columns = [("masked", "bool"), ("x", "1")]
    cells = [[False, 1.5], [True, -2.0], [0.5, 1.0], [np.nan, 0.0],
             [False, 1e-300]]
    assert (tables.render_table(columns, rows)
            == per_cell_table(columns, cells))


def test_large_table_memory_stays_near_its_text(ne):
    # a 16000-point states table: z, U and five wavefunctions
    params, _ = ne
    s = boundstates.solve(params, boundstates.auto_grid(params, 16000),
                          max_states=5)
    rows = np.column_stack([s.grid.z, s.potential_values,
                            s.wavefunctions.T])
    columns = [("z", "m"), ("U", "J")]
    columns += [(f"psi_{i}", "1/sqrt(m)") for i in range(s.n_states)]
    assert rows.shape == (16000, 7)
    tracemalloc.start()
    try:
        text = tables.render_table(columns, rows, ["h"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), (peak, len(text))
