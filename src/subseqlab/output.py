"""Deterministic machine-readable output.

One scalar format serves both layouts: floats with 17 significant digits
(round-trip exact), exact rationals as "p/q" (a JSON string), booleans as
true/false. A non-finite float has no CSV or JSON form and raises
ValueError, which the CLI reports as invalid input. CSV follows RFC 4180
with a mandatory header row and is written as it renders, a chunk of
rows at a time, so no table is held whole. One recursive writer lays out
JSON: children one per line, two spaces deeper than their brackets, except
that a list of scalars stays on one line. Objects keep insertion order, so
a fixed input yields byte-identical output. An integer is anything with
``__index__`` (numpy's counts too), an exact rational a Fraction or the
expectation engine's reduced pair, and any other value raises TypeError;
the json module loads only for JSON output.
"""

from __future__ import annotations

import math
from itertools import chain, filterfalse

__all__ = ["check_finite", "dump_json", "render_csv"]

# Characters per CSV write: a float row takes about 25 and an exact row can
# take kilobytes, so chunks are cut by size to bound both memory and writes.
CSV_CHUNK = 1 << 14


def fmt_scalar(v) -> str:
    """Canonical text of a scalar: a CSV cell, or a JSON atom before quoting.
    Of the texts of non-strings, only a rational's holds a ``/``."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"cannot print the non-finite number {v!r}")
        return format(float(v), ".17g")
    if isinstance(v, str):
        return v
    if hasattr(v, "__index__"):  # any integer, numpy's too, though it has a denominator
        return str(v.__index__())
    if hasattr(v, "denominator"):  # a Fraction, or a pair already in lowest terms
        return f"{v.numerator}/{v.denominator}"
    raise TypeError(f"cannot print {type(v).__name__}")


def check_finite(floats) -> None:
    """Refuse the first non-finite value of ``floats`` as :func:`fmt_scalar`
    does, so a long float column can be checked before its table streams."""
    for v in filterfalse(math.isfinite, floats):
        fmt_scalar(v)


def _quote(text: str) -> str:
    import json

    return json.dumps(text)


def _atom(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return _quote(v)
    text = fmt_scalar(v)
    return f'"{text}"' if "/" in text else text  # an exact rational: "p/q" needs no escapes


def dump_json(value) -> str:
    """Serialize dicts, lists (or iterators, as lists) and scalars with a
    deterministic layout."""
    return _json_text(value, "") + "\n"


def _json_text(v, pad: str) -> str:
    """``v`` as JSON text whose closing bracket is indented by ``pad``."""
    inner = pad + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = (f"{inner}{_quote(str(k))}: {_json_text(x, inner)}" for k, x in v.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if hasattr(v, "__next__"):  # an iterator is an array, read once
        v = list(v)
    if isinstance(v, (list, tuple)):
        if not any(isinstance(x, (dict, list, tuple)) for x in v):  # the empty list too
            return "[" + ", ".join(map(_atom, v)) + "]"
        items = (inner + _json_text(x, inner) for x in v)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _atom(v)


def _cell(v) -> str:
    """A CSV field: a str holding a comma, a quote or a newline is quoted,
    its quotes doubled; every other scalar prints as :func:`fmt_scalar`."""
    if not isinstance(v, str):
        return fmt_scalar(v)
    if "," in v or '"' in v or "\n" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


def render_csv(columns, rows, write) -> None:
    """RFC 4180 CSV with a header, handed to ``write`` as it renders.

    ``rows`` is an iterable of value sequences matching ``columns``, read
    once. A row of one empty cell prints as ``""``, so it is not a blank
    line. ``write`` gets the text in chunks: a chunk closes after the row
    that brings it to ``CSV_CHUNK`` characters, and the rest follows in a
    last one. No chunk is handed over until all its rows have rendered, so
    a non-finite float within the first ``CSV_CHUNK`` characters writes
    nothing; a caller with a longer table checks its floats before the call.
    """
    lines: list[str] = []
    size = 0
    for row in chain((columns,), rows):
        cells = list(map(_cell, row))
        line = '""\n' if cells == [""] else ",".join(cells) + "\n"
        lines.append(line)
        size += len(line)
        if size >= CSV_CHUNK:
            write("".join(lines))
            lines.clear()
            size = 0
    write("".join(lines))
