"""Deterministic CSV output.

Files begin with '#'-prefixed comment lines (resolved configuration, tool
version, seed), followed by one header row carrying a unit annotation per
column, then data rows with 9 significant digits.  Identical inputs yield
byte-identical files.

Rows are a 2-D float ndarray, one row per line, every cell written as
'%.9g' writes it, so an integral cell below 1e9 prints as the integer it
holds.  In a column whose unit is 'bool', a 0 or 1 cell is written 'false'
or 'true'; any other value there is written like a float cell.

The data lines come from one numpy byte kernel, `_render_rows`, run over
blocks of about `_BLOCK` cells (whole rows), so that its temporaries stay
small.  It works cell by cell on 64-bit words, and its output equals
'%.9g' byte for byte:

1. Per cell it estimates the decimal exponent e = floor(log10|x|) and the
   nine digits y = |x| 10^(8 - e), rounded to n9.  It trusts the estimate
   only where y >= 1e8, n9 < 1e9 and y lies more than 1e-5 from a rounding
   tie.  That margin is about 80 ulp at 1e9, while the float estimate is
   off by a few ulp, so the digits do not depend on how log10 or the
   powers of ten round on a given CPU.
2. Two integer divmods split n9 into three 3-digit groups.  Each cell is
   laid out in 32 bytes, four little-endian uint64 words: the sign and
   the '0.000' ahead of a fixed form below 1 (6 bytes), the three groups
   as 'd.d.d.' from a 1000-entry table (18 bytes, each digit with a point
   slot after it), then 'e+ddd' or 'e-ddd' from a table over e, the
   column's separator and two zero bytes.  The format class of a cell is
   its fixed form with e in -4..8, or its scientific form with a 2- or
   3-digit exponent; with its count of significant digits, 1..9, taken
   from the groups by table, it picks one of 135 keep-mask rows
   (`_KEEP`).  One take of those rows and one AND zero every byte that
   '%.9g' does not write: trailing zeros, unused point slots and prefix
   bytes, a missing sign.  The zero bytes are then deleted in one pass
   over the block's text, which is already in cell order.
3. Python writes with '%.9g' only the cells the kernel cannot be sure
   of: zero, -0, nan, +-inf, |x| outside 1e-290 to 1e290, and the cells
   the estimate does not settle (near a tie, or rounding to a power of
   ten the estimate missed).  It also writes the 0/1 cells of 'bool'
   columns, as 'false' and 'true'.  Their text replaces the first three
   words of the cell.  On a states table this leaves about 2 cells in
   100,000 to Python.

Every table is built with numpy at import.
"""

from pathlib import Path

import numpy as np

from .errors import ConfigurationError

_FLOAT = "%.9g"
_BOOL = {0.0: "false", 1.0: "true"}
_BLOCK = 4096                 # cells per kernel pass, in whole rows
_LIMIT = 290                  # the kernel writes |x| in 1e-290..1e290
# 10^(8 - e) at index _LIMIT + 1 - e, one spare power at each end
_POW10 = 10.0 ** np.arange(7 - _LIMIT, 10 + _LIMIT)
_WORD = np.dtype("<u8")
_FIXED = 13                   # format classes 0..12: fixed, e = -4..8


def _words(b):
    """Rows of 8 bytes as little-endian uint64 words, one per row."""
    return np.ascontiguousarray(b, np.uint8).view(_WORD)[..., 0]


def _decimal(n, width):
    """The ASCII digits of each n, zero-padded to width, one row each."""
    return 48 + n[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10


def _tables():
    """The kernel's lookup tables, built without a Python loop over them.

    digits: 'd.d.d.' for each 3-digit group g.  significant[j]: for g as
    group j + 1 of the nine digits, the count of digits up to its last
    non-zero one (0 for 000).  exponent: 'e+ddd' or 'e-ddd' for each e
    that step 1 can give, at index e + _LIMIT + 1; row: at the same
    index, the first keep-mask row of e's format class, less 1.  keep:
    one 32-byte row per format class and count s = 1..9 of significant
    digits, at 9 class + s - 1.  Class 13 is the scientific form with a
    2-digit exponent and class 14 the one with 3.  In a cell, byte 0 is
    the sign, 1-5 '0.000', 6 + 2i digit i and 7 + 2i the point slot after
    it, 24-28 the exponent and 29 the separator.
    """
    g = np.arange(1000)
    b = np.zeros((1000, 8), np.uint8)
    b[:, 0:6:2] = _decimal(g, 3)
    b[:, 1:6:2] = ord(".")
    digits = _words(b)
    last = 3 - (g % 10 == 0) - (g % 100 == 0)
    significant = np.where(g > 0, last + 3 * np.arange(3)[:, None], 0)

    e = np.arange(-_LIMIT - 1, _LIMIT + 2)
    b = np.zeros((e.size, 8), np.uint8)
    b[:, 0] = ord("e")
    b[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    b[:, 2:5] = _decimal(np.abs(e), 3)
    exponent = _words(b)
    row = 9 * np.where((e >= -4) & (e < 9), e + 4,
                       _FIXED + (np.abs(e) >= 100)) - 1

    c = np.arange(_FIXED + 2)[:, None, None]
    s = np.arange(1, 10)[:, None]
    p = np.arange(32)
    fixed = c < _FIXED
    point = np.where(fixed, c - 4, 0)         # the digit the point follows
    digit = (p >= 6) & (p < 24)
    keep = ((p == 0) | (p == 29)
            | fixed & (point < 0) & (p >= 1) & (p <= 1 - point)
            | digit & (p % 2 == 0)
            & ((p - 6) // 2 < np.where(fixed, np.maximum(s, point + 1), s))
            | digit & (p == 7 + 2 * point) & (s > point + 1)
            | ~fixed & (p >= 24) & (p < 29) & ((p != 26) | (c > _FIXED)))
    keep = _words(keep.reshape(-1, 4, 8) * np.uint8(255))
    return digits, significant, exponent, row, keep


_DIGITS, _SIGNIFICANT, _EXPONENT, _ROW, _KEEP = _tables()
# word 0 ahead of the digits: a zero byte, where a sign goes, and '0.000'
_ZERO = np.frombuffer(b"\0" b"0.000\0\0", _WORD)[0]
_SIGN = _WORD.type(ord("-"))
_SEPARATOR = _WORD.type(0xFF << 40)       # the separator byte of word 3


def _render_rows(block, sep, bools):
    """The lines of a 2-D float64 block: each cell as '%.9g' writes it,
    then the separator byte of its column in sep; a cell of a column
    flagged in bools that holds 0 or 1 is written 'false' or 'true'."""
    x = block.ravel()
    a = np.abs(x)
    ok = (a >= 10.0 ** -_LIMIT) & (a <= 10.0 ** _LIMIT)
    a[~ok] = 1.0
    e = np.floor(np.log10(a))
    k = e.astype(np.intp)
    y = a * _POW10[_LIMIT + 1 - k]
    n9 = np.rint(y)                              # the nine digits
    ok &= (y >= 1e8) & (n9 < 1e9) & (np.abs(y - n9) < 0.5 - 1e-5)

    # Two divmods split n9 into its 3-digit groups; an unsettled cell can
    # hold n9 up to 1e10, so the takes of group 1 clip.
    n = n9.astype(np.int64)
    g12 = n // 1000
    g3 = n - 1000 * g12
    g1 = g12 // 1000
    g2 = g12 - 1000 * g1
    d1 = _DIGITS.take(g1, mode="clip")
    d2 = _DIGITS.take(g2)
    d3 = _DIGITS.take(g3)
    k += _LIMIT + 1                              # e's index in the tables
    w = np.empty((x.size, 4), _WORD)
    w[:, 0] = (x < 0) * _SIGN | _ZERO | d1 << 48
    w[:, 1] = d1 >> 16 | d2 << 32
    w[:, 2] = d2 >> 32 | d3 << 16
    w.reshape(*block.shape, 4)[..., 3] = (
        _EXPONENT.take(k).reshape(block.shape) | sep.astype(_WORD) << 40)
    row = np.maximum(_SIGNIFICANT[0].take(g1, mode="clip"),
                     _SIGNIFICANT[1].take(g2))
    np.maximum(row, _SIGNIFICANT[2].take(g3), out=row)
    row += _ROW.take(k)
    w &= _KEEP.take(row, axis=0)

    flag = (bools & ((block == 0) | (block == 1))).ravel()
    fall = np.flatnonzero(~ok | flag)
    if fall.size:
        words = [_BOOL[v] if f else _FLOAT % v
                 for v, f in zip(x[fall].tolist(), flag[fall].tolist())]
        w[fall, :3] = np.array(words, dtype="S24").view(_WORD).reshape(-1, 3)
        w[fall, 3] &= _SEPARATOR
    return w.tobytes().translate(None, b"\0").decode()


def render_table(columns, rows, header_lines=()):
    """Render to a string; columns is a list of (name, unit) pairs, rows a
    2-D float array with one column per pair."""
    ncols = len(columns)
    if not (isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.shape[1] == ncols and rows.dtype.kind == "f"):
        got = (f"shape {rows.shape} of {rows.dtype}"
               if isinstance(rows, np.ndarray) else type(rows).__name__)
        raise ConfigurationError(
            f"rows must be a 2-D float array with {ncols} columns, got {got}")
    text = ["".join([f"# {line}\n" for line in header_lines]),
            ",".join([f"{name} [{unit}]" for name, unit in columns]), "\n"]
    if not ncols:
        return "".join(text) + "\n" * len(rows)
    sep = np.frombuffer(b"," * (ncols - 1) + b"\n", np.uint8)
    bools = np.array([unit == "bool" for _, unit in columns])
    step = max(1, _BLOCK // ncols)
    for lo in range(0, len(rows), step):
        block = np.asarray(rows[lo:lo + step], dtype=np.float64)
        text.append(_render_rows(block, sep, bools))
    return "".join(text)


def emit_table(path, columns, rows, header_lines=()):
    """Write the rendered table to path, making its directory; returns path."""
    text = render_table(columns, rows, header_lines)
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from None
    return path
