"""Deterministic machine-readable output.

One scalar format serves both layouts: floats with 17 significant digits
(round-trip exact), exact rationals as "p/q" (a JSON string), booleans as
true/false. A non-finite float has no CSV or JSON form and raises
ValueError, which the CLI reports as invalid input. CSV follows RFC 4180
with a mandatory header row. JSON objects keep insertion order, so a fixed
input yields byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json as _json
import math
from fractions import Fraction

__all__ = ["dump_json", "render_csv"]


def fmt_scalar(v) -> str:
    """Canonical text of a scalar: a CSV cell, or a JSON atom before quoting."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cannot print the non-finite number {v!r}")
        return format(float(v), ".17g")
    return str(v)


def _atom(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, int, float)):
        return fmt_scalar(v)
    if isinstance(v, (Fraction, str)):
        return _json.dumps(fmt_scalar(v))
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dump_json(value) -> str:
    """Serialize dicts/lists/scalars with a deterministic layout."""
    out = io.StringIO()

    def emit(v, depth: int) -> None:
        pad = "  " * depth
        if isinstance(v, dict):
            if not v:
                out.write("{}")
                return
            out.write("{\n")
            items = list(v.items())
            for i, (key, item) in enumerate(items):
                out.write(pad + "  " + _json.dumps(str(key)) + ": ")
                emit(item, depth + 1)
                out.write(",\n" if i < len(items) - 1 else "\n")
            out.write(pad + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                out.write("[]")
                return
            if all(not isinstance(x, (dict, list, tuple)) for x in v):
                out.write("[" + ", ".join(_atom(x) for x in v) + "]")
                return
            out.write("[\n")
            for i, x in enumerate(v):
                out.write(pad + "  ")
                emit(x, depth + 1)
                out.write(",\n" if i < len(v) - 1 else "\n")
            out.write(pad + "]")
        else:
            out.write(_atom(v))

    emit(value, 0)
    return out.getvalue() + "\n"


def render_csv(columns, rows) -> str:
    """RFC 4180 CSV with a header; rows are value sequences matching columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt_scalar(v) for v in row])
    return buf.getvalue()
