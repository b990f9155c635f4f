"""Deterministic CSV output.

Files begin with '#'-prefixed comment lines (resolved configuration, tool
version, seed), followed by one header row carrying a unit annotation per
column, then data rows with 9 significant digits.  Identical inputs yield
byte-identical files.

Rows are a 2-D float ndarray, one row per line, each written with one '%'
format line: '%.9g' per cell, so an integral cell below 1e9 prints as the
integer it holds.  In a column whose unit is 'bool', a 0 or 1 cell is
written 'false' or 'true'; any other value there gets '%.9g' too.
"""

from pathlib import Path

import numpy as np

from .errors import ConfigurationError

_FLOAT = "%.9g"
_BOOL = {0.0: "false", 1.0: "true"}


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
    bools = [j for j, (_, unit) in enumerate(columns) if unit == "bool"]
    fmt = ",".join(["%s" if j in bools else _FLOAT
                    for j in range(ncols)]) + "\n"
    values = rows.tolist()
    for j in bools:
        for row in values:
            row[j] = _BOOL.get(row[j]) or _FLOAT % row[j]
    text = "".join([f"# {line}\n" for line in header_lines])
    text += ",".join([f"{name} [{unit}]" for name, unit in columns]) + "\n"
    return text + "".join([fmt % tuple(row) for row in values])


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
