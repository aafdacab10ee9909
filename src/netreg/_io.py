"""The one writer for the package's result files (CSV tables and JSON reports).

CSV: a header line, then one comma-joined line per row, LF line endings.
Each cell is written by one rule: ``None`` is empty, a float (numpy floats
included) is ``repr(float(v))``, anything else is ``str(v)``. JSON is
``json.dump(obj, indent=2)`` plus a trailing newline.
"""

from __future__ import annotations

import json

import numpy as np

_FLOATS = (float, np.floating)


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, _FLOATS) else str(value)


def write_csv(path, columns, rows) -> None:
    """Write the header ``columns``, then each row of ``rows`` (a sequence of cells)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
