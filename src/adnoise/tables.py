"""Deterministic CSV output.

Files begin with '#'-prefixed comment lines (resolved configuration, tool
version, seed), followed by one header row carrying a unit annotation per
column, then data rows with 9 significant digits.  Identical inputs yield
byte-identical files.
"""

import csv
import io
from pathlib import Path

from .errors import ConfigurationError


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def render_table(columns, rows, header_lines=()):
    """Render to a string; columns is a list of (name, unit) pairs."""
    ncols = len(columns)
    buf = io.StringIO()
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"{name} [{unit}]" for name, unit in columns])
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
