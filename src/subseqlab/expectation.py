"""Expectation engines for distinct-subsequence counts of random strings.

One recurrence gives ``E[count(S_n)]`` under the nonempty convention. It
runs over a model's letter source (see ``IIDModel.letter_source``), so it
serves IID strings over any alphabet and the two-state Markov chain alike.
It tracks the expected new-count weight built up since each letter last
occurred and costs O(d * m**2) per length for d letters and m hidden states.
When the model carries Fractions it runs exactly, on integer numerators at
scale q0 * q**i (q0 and q the common denominators of the start and the
steps), and builds one Fraction per row; otherwise it runs in floats, where
a row past the float64 range holds ln(E). The paper's closed form for IID
binary strings stays here as a test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .models import IIDModel, MarkovModel

__all__ = [
    "ExpectationSeries",
    "closed_form_binary",
    "asymptotic_constants",
    "iid_matrix_expectation",
    "markov_expectation",
]


@dataclass(frozen=True)
class ExpectationSeries:
    """``E[distinct nonempty subsequences of S_i]`` for i = 1..n.

    ``values[0]`` corresponds to i = 1; :meth:`value_at` takes the 1-based
    length. ``mode`` is "exact" (Fraction values) or "float". The last
    ``log_rows`` float values exceed the float64 range and hold ln(E).
    """

    values: tuple
    mode: str
    log_rows: int = 0

    def __len__(self) -> int:
        return len(self.values)

    def value_at(self, i: int):
        if not 1 <= i <= len(self.values):
            raise IndexError(f"series holds i = 1..{len(self.values)}, asked for {i}")
        return self.values[i - 1]

    def final(self):
        return self.values[-1]


def closed_form_binary(alpha, n: int) -> float:
    """Expected distinct nonempty subsequences of an IID binary string.

    ``Pr[letter = 1] = alpha``. Constant strings (alpha 0 or 1) give exactly
    n. Otherwise, with ``r = sqrt(alpha * (1 - alpha))``::

        ((1 - 2r) * (1 - (1 - r)**n) + (1 + 2r) * ((1 + r)**n - 1)) / (2r)

    Evaluated in floating point. At alpha = 1/2 this reduces to
    ``2 * (3/2)**n - 2``, one less than the empty-inclusive count
    ``2 * (3/2)**n - 1``.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = float(alpha)
    if a in (0.0, 1.0):
        return float(n)
    r = math.sqrt(a * (1.0 - a))
    grow = (1.0 + r) ** n
    decay = (1.0 - r) ** n
    return ((1.0 - 2.0 * r) * (1.0 - decay) + (1.0 + 2.0 * r) * (grow - 1.0)) / (2.0 * r)


def asymptotic_constants(alpha) -> tuple[float, float]:
    """Growth base and prefactor: ``E[count] ~ prefactor * base**n``.

    ``base = 1 + r`` and ``prefactor = (1 + 2r) / (2r)`` with
    ``r = sqrt(alpha * (1 - alpha))``. Only defined strictly inside (0, 1);
    constant strings grow linearly, not exponentially.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("asymptotic constants need alpha strictly inside (0, 1)")
    r = math.sqrt(a * (1.0 - a))
    return 1.0 + r, (1.0 + 2.0 * r) / (2.0 * r)


def _resolve_mode(model, mode: str) -> str:
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"mode must be auto, exact or float, got {mode!r}")
    if mode == "auto":
        return "exact" if model.is_exact else "float"
    if mode == "exact" and not model.is_exact:
        raise ValueError("exact mode needs rational (Fraction) probabilities")
    return mode


def _source_series(model, n: int, mode: str) -> ExpectationSeries:
    """Iterate the last-occurrence recurrence over ``model.letter_source()``.

    ``acc[c]`` is a row vector over hidden states: the expected new-count
    weight built up since letter c last occurred (a phantom start counts as
    1), split by the state the source is in now. Appending letter c earns
    ``acc[c] @ steps[c]``; afterwards ``acc[c]`` restarts from the letter's
    total new weight, plus its old weight carried through every other letter.
    Exact mode scales ``start`` by q0 and ``steps`` by q, the lcm of their
    denominators, so after i letters ``acc`` and ``total`` are ints at scale
    ``q0 * q**i`` and row i is one ``Fraction(total, q0 * q**i)``. Floats
    run the same loop with q = q0 = 1 and are kept at scale 2**-k (divided
    by 2**600, which is exact, once ``total`` passes it); a row whose
    ``2**k * total`` overflows holds its ln.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    mode = _resolve_mode(model, mode)
    start, steps = (model if mode == "exact" else model.as_floats()).letter_source()
    q0 = q = 1
    if mode == "exact":
        q0 = math.lcm(*(Fraction(p).denominator for p in start))
        q = math.lcm(*(Fraction(p).denominator for step in steps for row in step for p in row))
        start = [int(p * q0) for p in start]
        steps = [[[int(p * q) for p in row] for row in step] for step in steps]
    letters, states = range(len(steps)), range(len(start))
    # column-major, so each entry of a row-vector product is one sum(map(mul))
    step_cols = [list(zip(*steps[c])) for c in letters]
    carry_cols = [
        [[sum(steps[t][s][u] for t in letters if t != c) for s in states] for u in states]
        for c in letters
    ]
    acc = [list(start) for _ in steps]
    total, scale = 0, q0
    values, k, log_rows = [], 0, 0
    for _ in range(n):
        earned = [[sum(map(mul, a, col)) for col in cols] for a, cols in zip(acc, step_cols)]
        weight = [sum(col) for col in zip(*earned)]
        total = total * q + sum(weight)
        scale *= q
        acc = [
            [w + sum(map(mul, a, col)) for w, col in zip(weight, cols)]
            for a, cols in zip(acc, carry_cols)
        ]
        if mode == "exact":
            values.append(Fraction(total, scale))
            continue
        if total > 2.0**600:
            acc = [[math.ldexp(x, -600) for x in a] for a in acc]
            total, k = math.ldexp(total, -600), k + 600
        if math.frexp(total)[1] + k <= 1024:  # 2**k * total is finite
            values.append(math.ldexp(total, k) if k else total)
        else:
            values.append(math.log(total) + k * math.log(2))
            log_rows += 1
    return ExpectationSeries(tuple(values), mode=mode, log_rows=log_rows)


def iid_matrix_expectation(model: IIDModel, n: int, mode: str = "auto") -> ExpectationSeries:
    """Expected counts for IID strings over any alphabet size.

    Exact for Fraction models under ``mode="auto"``; O(d) work per length.
    """
    if not isinstance(model, IIDModel):
        raise TypeError(f"expected an IIDModel, got {type(model).__name__}")
    return _source_series(model, n, mode)


def markov_expectation(model: MarkovModel, n: int, mode: str = "auto") -> ExpectationSeries:
    """Expected counts for binary strings from a two-state Markov chain.

    Covers every valid chain, boundary alpha and beta included; constant
    work per length.
    """
    if not isinstance(model, MarkovModel):
        raise TypeError(f"expected a MarkovModel, got {type(model).__name__}")
    return _source_series(model, n, mode)
