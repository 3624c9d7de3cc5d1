"""Reference formulas the tests check the package against; nothing in the
package calls them."""

import math
from fractions import Fraction
from operator import mul

from subseqlab import oracle


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


def per_letter_series(model, n: int) -> tuple[tuple, int]:
    """``(values, log_rows)`` of ``E[count(S_i)]``, i = 1..n, from the
    last-occurrence recurrence with one ``acc`` row per letter, which the
    engine, sharing a row among letters of one law, must equal bit for bit.

    Exact on integer numerators at scale ``q0 * q**i`` for exact models, in
    floats otherwise; float state is divided by 2**600 once the total
    passes it, and a row past the float range holds its ln.
    """
    start, steps = model.letter_source()
    q0 = q = 1
    if model.is_exact:
        q0 = math.lcm(*(Fraction(p).denominator for p in start))
        q = math.lcm(*(Fraction(p).denominator for step in steps for row in step for p in row))
        start = [int(p * q0) for p in start]
        steps = [[[int(p * q) for p in row] for row in step] for step in steps]
    letters, states = range(len(steps)), range(len(start))
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
        if model.is_exact:
            values.append(Fraction(total, scale))
            continue
        if total > 2.0**600:
            acc = [[math.ldexp(x, -600) for x in a] for a in acc]
            total, k = math.ldexp(total, -600), k + 600
        if math.frexp(total)[1] + k <= 1024:
            values.append(math.ldexp(total, k) if k else total)
        else:
            values.append(math.log(total) + k * math.log(2))
            log_rows += 1
    return tuple(values), log_rows


def dbonacci(d: int, n: int) -> tuple[int, ...]:
    """The d-bonacci numbers ``nu_1, ..., nu_n``: from ``nu_0 = 1`` and
    ``nu_i = 0`` for i < 0, each term is the sum of the d before it.

    ``nu_i`` is the new-subsequence count at letter i of the cyclic string
    ``0 1 ... d-1 0 1 ...``, which has the most distinct subsequences of any
    d-ary string of its length (Flaxman, Harrow & Sorkin, Electron. J.
    Combin. 11 (2004) R8), so that string counts ``sum(dbonacci(d, n))``.
    For d = 2 these are the Fibonacci numbers ``F(2), ..., F(n + 1)``.
    """
    window = [0] * (d - 1) + [1]
    terms = []
    for _ in range(n):
        window = window[1:] + [sum(window)]
        terms.append(window[-1])
    return tuple(terms)


def exhaustive_moments(model, n: int) -> tuple[Fraction, Fraction]:
    """``(E[phi_n], E[phi_n**2])`` for an exact model, from one walk of the
    oracle over every length-n string: each adds its count ``before + nu``
    and that count squared, times its integer weight ``q**n * Pr[T]``."""
    rows, after = model.letter_rows()
    q = math.lcm(*(Fraction(p).denominator for row in rows for p in row))
    weights = [tuple(int(p * q) for p in row) for row in rows]
    sums = [0, 0]

    def add(depth: int, nu: int, before: int, w: int) -> None:
        if depth == n:
            phi = before + nu
            sums[0] += phi * w
            sums[1] += phi * phi * w

    oracle._walk(weights[0], [weights[r] for r in after], n, add)
    return Fraction(sums[0], q**n), Fraction(sums[1], q**n)
