"""Deterministic machine-readable output.

One scalar format serves both layouts: floats with 17 significant digits
(round-trip exact), exact rationals as "p/q" (a JSON string), booleans as
true/false. A non-finite float has no CSV or JSON form and raises
ValueError, which the CLI reports as invalid input. CSV follows RFC 4180
with a mandatory header row. One recursive writer lays out JSON: children
one per line, two spaces deeper than their brackets, except that a list of
scalars stays on one line. Objects keep insertion order, so a fixed input
yields byte-identical output.
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
    return _json_text(value, "") + "\n"


def _json_text(v, pad: str) -> str:
    """``v`` as JSON text whose closing bracket is indented by ``pad``."""
    inner = pad + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = (f"{inner}{_json.dumps(str(k))}: {_json_text(x, inner)}" for k, x in v.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(v, (list, tuple)):
        if not any(isinstance(x, (dict, list, tuple)) for x in v):  # the empty list too
            return "[" + ", ".join(map(_atom, v)) + "]"
        items = (inner + _json_text(x, inner) for x in v)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _atom(v)


def render_csv(columns, rows) -> str:
    """RFC 4180 CSV with a header; rows are value sequences matching columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt_scalar(v) for v in row])
    return buf.getvalue()
