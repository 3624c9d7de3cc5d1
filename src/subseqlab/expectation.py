"""Expectation engines for distinct-subsequence counts of random strings.

One recurrence gives ``E[count(S_n)]`` under the nonempty convention. It
runs over a model's letter source (see ``IIDModel.letter_source``), so it
serves IID strings over any alphabet and the two-state Markov chain alike.
It tracks the expected new-count weight built up since each letter last
occurred, once per letter law, and costs O(L * m**2 + d * m) per length for
d letters, L laws (distinct step and carry columns) and m hidden states.
When the model carries Fractions it runs exactly, on integer numerators at
scale q0 * q**i (q0 and q the common denominators of the start and the
steps), and hands each row out as a reduced integer pair, cancelled only by
the primes of q0 * q; otherwise it runs in floats, where a row past the
float64 range holds ln(E). An exact run predicts its cost before its
first step and raises :class:`SizeGuardError` over ``EXACT_GUARD``. The
paper's closed form for IID binary strings stays here as a test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .models import IIDModel, MarkovModel

__all__ = [
    "ExpectationSeries",
    "closed_form_binary",
    "iid_matrix_expectation",
    "markov_expectation",
]

# Predicted cost an exact run may reach: the squared digits of its rows,
# summed. Printing a row costs about its digits squared, since CPython's
# int-to-str is quadratic.
EXACT_GUARD = 4 * 10**10


class SizeGuardError(RuntimeError):
    """A computation would exceed its size guard: the oracle's exhaustive
    guard, or the exact engine's budget. :mod:`subseqlab.oracle` exports it."""


@dataclass(frozen=True, slots=True)
class Ratio:
    """An exact rational already in lowest terms, with a positive
    denominator: the engine's exact row, which nothing normalises again."""

    numerator: int
    denominator: int


def _reduced(num: int, den: int, base: int) -> Ratio:
    """``num / den`` in lowest terms, where every prime of ``den`` divides
    ``base``.

    Each pass takes ``g = gcd(base, num, den)``, one pass over each big
    number by a small one, and strips g, g**2, g**4, ... from both while
    the power divides them; the passes end when g is 1. The ladder keeps
    the passes logarithmic where q cancels many times: a deterministic
    chain's row i is ``i * q**i / q**i``. No prime of ``base`` is ever
    found, so a large prime in it costs nothing extra.
    """
    while (g := math.gcd(base, num, den)) > 1:
        power = g
        while num % power == 0 and den % power == 0:
            num, den, power = num // power, den // power, power * power
    return Ratio(num, den)


def _value(row):
    """A row as ``ExpectationSeries.values`` holds it: a :class:`Ratio`
    becomes a Fraction."""
    return Fraction(row.numerator, row.denominator) if isinstance(row, Ratio) else row


@dataclass(frozen=True)
class ExpectationSeries:
    """``E[distinct nonempty subsequences of S_i]`` for i = 1..n.

    ``rows[0]`` corresponds to i = 1; :meth:`value_at` takes the 1-based
    length. ``mode`` is "exact" or "float". Exact rows are Fractions or the
    engine's :class:`Ratio` pairs, and ``values`` reads every row as a
    Fraction, built on first read; :meth:`value_at` and :meth:`final`
    convert only the row they return. The last ``log_rows`` float rows exceed
    the float64 range and hold ln(E).
    """

    rows: tuple
    mode: str
    log_rows: int = 0

    @cached_property
    def values(self) -> tuple:
        return tuple(map(_value, self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def value_at(self, i: int):
        if not 1 <= i <= len(self.rows):
            raise IndexError(f"series holds i = 1..{len(self.rows)}, asked for {i}")
        return _value(self.rows[i - 1])

    def final(self):
        return _value(self.rows[-1])


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


def _source_series(model, n: int, mode: str) -> ExpectationSeries:
    """Iterate the last-occurrence recurrence over ``model.letter_source()``.

    ``acc[c]`` is a row vector over hidden states: the expected new-count
    weight built up since letter c last occurred (a phantom start counts as
    1), split by the state the source is in now. Appending letter c earns
    ``acc[c] @ steps[c]``; afterwards ``acc[c]`` restarts from the letter's
    total new weight, plus its old weight carried through every other letter.
    Letters with equal step and carry columns (one law) share an ``acc`` row.
    Exact mode scales ``start`` by q0 and ``steps`` by q, the lcm of their
    denominators, so after i letters ``acc`` and ``total`` are ints at scale
    ``q0 * q**i``, and row i is ``total / (q0 * q**i)`` as a :class:`Ratio`
    that :func:`_reduced` cancels with the primes of ``q0 * q``, the only
    ones the scale holds. Row i has about ``log10(q0 * q**i)`` digits a
    side, and its numerator at most ``i * log10(2)`` more, since the count
    stays below 2**i; priced with ``max(q, 2)`` for q, so that a source
    with q = 1 is bounded too, the rows cost about ``n * D**2 / 3`` squared
    digits, D being the last row's, and over ``EXACT_GUARD`` the run stops
    before it starts.
    Floats run the same loop with q = q0 = 1 and are kept at scale 2**-k
    (divided by 2**600, which is exact, once ``total`` passes it); a row
    whose ``2**k * total`` overflows holds its ln.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if mode not in ("auto", "exact"):
        raise ValueError(f"mode must be auto or exact, got {mode!r}")
    if mode == "exact" and not model.is_exact:
        raise ValueError("exact mode needs rational (Fraction) probabilities")
    mode = "exact" if model.is_exact else "float"
    start, steps = model.letter_source()
    q0 = q = 1
    if mode == "exact":
        q0 = math.lcm(*(Fraction(p).denominator for p in start))
        q = math.lcm(*(Fraction(p).denominator for step in steps for row in step for p in row))
        start = [int(p * q0) for p in start]
        steps = [[[int(p * q) for p in row] for row in step] for step in steps]
        rows = min(n, EXACT_GUARD)  # spares a huge n a float overflow; it is over long before
        digits = math.log10(q0) + rows * math.log10(max(q, 2))
        if (cost := rows * digits * digits / 3) > EXACT_GUARD:
            raise SizeGuardError(
                f"exact rows to n={n} reach {digits:.3g} digits: a predicted cost of "
                f"{cost:.3g} squared digits, over the exact guard of {EXACT_GUARD:.3g}"
            )
    letters, states = range(len(steps)), range(len(start))
    # column-major, so each entry of a row-vector product is one sum(map(mul))
    laws = [
        (tuple(zip(*steps[c])),
         tuple(tuple(sum(steps[t][s][u] for t in letters if t != c) for s in states)
               for u in states))
        for c in letters
    ]
    law_of = {law: g for g, law in enumerate(dict.fromkeys(laws))}
    group = [law_of[law] for law in laws]
    step_cols, carry_cols = zip(*law_of)
    acc = [list(start) for _ in law_of]
    total, scale = 0, q0
    values, k, log_rows = [], 0, 0
    for _ in range(n):
        earned = [[sum(map(mul, a, col)) for col in cols] for a, cols in zip(acc, step_cols)]
        weight = [sum(map(col.__getitem__, group)) for col in zip(*earned)]  # letter by letter
        total = total * q + sum(weight)
        scale *= q
        acc = [
            [w + sum(map(mul, a, col)) for w, col in zip(weight, cols)]
            for a, cols in zip(acc, carry_cols)
        ]
        if mode == "exact":
            values.append(_reduced(total, scale, q0 * q))
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

    Exact for Fraction models, in floats otherwise.
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
