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
small.  Its output equals '%.9g' byte for byte:

1. Per cell it estimates the decimal exponent e = floor(log10|x|) and the
   nine digits y = |x| 10^(8 - e), rounded to n9.  It trusts the estimate
   only where y >= 1e8, n9 < 1e9 and y lies more than 1e-5 from a rounding
   tie.  That margin is about 80 ulp at 1e9, while the float estimate is
   off by a few ulp, so the digits do not depend on how log10 or the
   powers of ten round on a given CPU.
2. It lays out every cell in a fixed-width byte template, one template
   row per byte position and one column per cell (`_LAYOUT`): the sign,
   the '0.000' ahead of a fixed form below 1, the nine digits each with a
   point slot after it, the scientific exponent (2 or 3 digits) and the
   separator.  A keep mask picks the bytes of '%.9g': trailing zeros and
   unused slots are dropped.  The bytes outside the mask are zeroed and
   deleted in one pass over the block's text.
3. Python writes with '%.9g' only the cells the kernel cannot be sure
   of: zero, -0, nan, +-inf, |x| outside 1e-290 to 1e290, and the cells
   the estimate does not settle (near a tie, or rounding to a power of
   ten the estimate missed).  It also writes the 0/1 cells of 'bool'
   columns, as 'false' and 'true'.  On a states table this leaves about 2
   cells in 100,000 to Python.
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
_PLACE = 10.0 ** np.arange(9, -1, -1)[:, None]    # 1e9, 1e8, ..., 1
_EPLACE = _PLACE[-4:]                             # 1000, 100, 10, 1
_INDEX = np.arange(9.0)[:, None]
# One template row per byte: sign, the '0.000' ahead of a fixed form below
# 1, nine digits each followed by a point (the last excepted), the
# exponent and the separator.  Python writes at most _TEXT bytes.
_LAYOUT = np.frombuffer(b"-0.0000.0.0.0.0.0.0.0.0e+000,", np.uint8)[:, None]
_TEXT = len(_LAYOUT) - 1


def _render_rows(block, sep, bools):
    """The lines of a 2-D float64 block: each cell as '%.9g' writes it,
    then the separator byte of its column in sep; a cell of a column
    flagged in bools that holds 0 or 1 is written 'false' or 'true'."""
    x = block.ravel()
    a = np.abs(x)
    ok = (a >= 10.0 ** -_LIMIT) & (a <= 10.0 ** _LIMIT)
    a[~ok] = 1.0
    e = np.floor(np.log10(a))
    y = a * _POW10[_LIMIT + 1 - e.astype(np.intp)]
    n9 = np.rint(y)                              # the nine digits
    ok &= (y >= 1e8) & (n9 < 1e9) & (np.abs(y - n9) < 0.5 - 1e-5)
    q = np.floor(n9 / _PLACE)                    # n9 // 1e9, ..., n9 // 1
    more = q[:-1] * _PLACE[:-1] != n9            # a non-zero digit from i on
    fixed = (e >= -4) & (e < 9)
    point = np.where(fixed, e, 0.0)              # digit the point follows
    point[fixed & (e < 0)] = -1.0                # 0.000ddd: in the prefix
    qe = np.floor(np.abs(e) / _EPLACE)

    t = np.repeat(_LAYOUT, x.size, axis=1)
    keep = np.empty(t.shape, bool)
    keep[0] = x < 0
    keep[1:3] = point < 0
    np.less(_INDEX[1:4], -e, out=keep[3:6])
    keep[3:6] &= fixed
    t[6:23:2] += (q[1:] - 10 * q[:-1]).astype(np.uint8)
    np.less_equal(_INDEX, point, out=keep[6:23:2])
    keep[6:23:2] |= more
    np.equal(_INDEX[:8], point, out=keep[7:22:2])
    keep[7:22:2] &= more[1:]
    t[24, e < 0] = ord("-")
    t[25:28] += (qe[1:] - 10 * qe[:-1]).astype(np.uint8)
    keep[23:28] = ~fixed
    keep[25] &= qe[1] > 0
    t[28].reshape(block.shape)[...] = sep
    keep[28] = True
    t *= keep

    flag = (bools & ((block == 0) | (block == 1))).ravel()
    fall = np.flatnonzero(~ok | flag)
    if fall.size:
        words = [_BOOL[v] if f else _FLOAT % v
                 for v, f in zip(x[fall].tolist(), flag[fall].tolist())]
        b = np.array(words, dtype=f"S{_TEXT}").view(np.uint8)
        t[:_TEXT, fall] = b.reshape(fall.size, _TEXT).T
    return t.T.tobytes().translate(None, b"\0").decode()


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
