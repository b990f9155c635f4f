"""Deterministic CSV output.

Files begin with '#'-prefixed comment lines (resolved configuration, tool
version, seed), followed by one header row carrying a unit annotation per
column, then data rows with 9 significant digits.  Identical inputs yield
byte-identical files.

Rows are either a list of lists, whose cells may mix bool, int, str and
float, or a 2-D float ndarray.  The array form writes each row with one
'%.9g' format string, the same format a float cell of a list row gets, so
both forms give the same bytes for the same float values.
"""

import csv
import io
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

_FLOAT = "%.9g"


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT % value
    return str(value)


def render_table(columns, rows, header_lines=()):
    """Render to a string; columns is a list of (name, unit) pairs, rows a
    list of lists or a 2-D float array."""
    ncols = len(columns)
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{name} [{unit}]" for name, unit in columns])
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != ncols or rows.dtype.kind != "f":
            raise ConfigurationError(
                f"rows must be a 2-D float array with {ncols} columns, "
                f"got shape {rows.shape} of {rows.dtype}")
        fmt = ",".join([_FLOAT] * ncols) + "\n"
        buf.write("".join([fmt % tuple(row) for row in rows.tolist()]))
        return buf.getvalue()
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ConfigurationError(
                f"row {i} has {len(row)} cells, expected {ncols}")
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def emit_table(path, columns, rows, header_lines=()):
    """Write the rendered table to path, making its directory; returns path."""
    text = render_table(columns, rows, header_lines)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(text)
    return path
