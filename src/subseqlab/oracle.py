"""Brute-force ground truth for the fast counters and expectation engines.

Everything here trades time for transparency: subsequence sets are built
explicitly, expectations sum over every possible string in exact
arithmetic, and structural identities are checked row by row. One
depth-first walk over the prefix tree, with integer path weights, serves
both the tree rows (plain tuples of new counts) and the exhaustive
expectations. Size guards keep the exponential enumerations inside a sane
budget and raise :class:`SizeGuardError` beyond it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .expectation import ExpectationSeries
from .models import IIDModel, MarkovModel
from .strings import Alphabet, IncrementalCounter, LetterString

__all__ = [
    "ENUMERATION_MAX",
    "EXHAUSTIVE_GUARD",
    "SizeGuardError",
    "enumerate_distinct",
    "exhaustive_expectation",
    "tree_row",
    "check_pair_structure",
    "check_submultiplicativity",
    "superpattern_k_bruteforce",
]

ENUMERATION_MAX = 22
EXHAUSTIVE_GUARD = 2**20


class SizeGuardError(RuntimeError):
    """An exhaustive computation would exceed the configured size guard."""


def _guard_power(d: int, n: int) -> None:
    # For d >= 2, d**k exceeds the guard once k reaches its bit length, so
    # capping n there spares a huge n a huge power.
    if d ** min(n, EXHAUSTIVE_GUARD.bit_length()) > EXHAUSTIVE_GUARD:
        raise SizeGuardError(
            f"{d}**{n} strings exceed the exhaustive guard of {EXHAUSTIVE_GUARD}"
        )


def enumerate_distinct(s: LetterString) -> set[tuple[int, ...]]:
    """All distinct nonempty subsequences of ``s``, as tuples of letters.

    Built letter by letter: each letter extends every subsequence seen so
    far and starts its own singleton. Guarded to length 22 since the result
    can hold up to ``2**n - 1`` elements.
    """
    if len(s) > ENUMERATION_MAX:
        raise SizeGuardError(
            f"refusing to enumerate subsequences of a length-{len(s)} string "
            f"(max {ENUMERATION_MAX})"
        )
    subs: set[tuple[int, ...]] = set()
    for letter in s:
        subs = _extend_distinct(subs, letter)
    return subs


def _extend_distinct(subs: set, letter: int) -> set:
    """The subsequence set of a string with ``letter`` appended, from the
    string's own set ``subs`` (left as it is)."""
    tail = (letter,)
    grown = set(subs)
    grown.update([prev + tail for prev in subs])
    grown.add(tail)
    return grown


def _walk(start, steps, n: int, visit) -> None:
    """Depth-first walk over every string of length 1..n with nonzero weight.

    ``start[c]`` weighs a first letter c and ``steps[prev][c]`` a letter c
    after ``prev``; a string weighs the product along it, and a zero-weight
    prefix is pruned with its whole subtree. Children are visited in
    decreasing letter order, and each string reports
    ``visit(length, nu, weight)`` with ``nu`` the new-subsequence count of
    its last letter. Prefix state is shared through counter snapshots, so
    every string costs one push. The guard bounds the depth too, which keeps
    one-letter walks off the recursion limit.
    """
    d = len(start)
    _guard_power(max(d, 2), n)
    counter = IncrementalCounter(Alphabet(d))
    letters = range(d - 1, -1, -1)

    def down(depth: int, weights, path: int) -> None:
        state = counter.snapshot()
        for letter in letters:
            w = path * weights[letter]
            if w:
                nu, _ = counter.push(letter)
                visit(depth, nu, w)
                if depth < n:
                    down(depth + 1, steps[letter], w)
                counter.restore(state)

    if n:
        down(1, start, 1)


def tree_row(d: int, n: int) -> tuple[int, ...]:
    """Row ``n`` of the complete d-ary prefix tree of new-subsequence counts.

    Entry m is the new count at the final letter of the m-th length-n
    string, in the tree's left-to-right order: children are appended in
    decreasing letter order, so the leftmost branch is the all-(d-1) string.
    For binary rows that reads 11..1 first and 00..0 last. Row 0 is the
    empty string with value 0. Row n is the walk with every weight 1,
    keeping the new counts at depth n: O(d**n) pushes in total.
    """
    if d < 1:
        raise ValueError("alphabet size must be at least 1")
    if n < 0:
        raise ValueError("row index must be nonnegative")
    values = [] if n else [0]

    def keep(depth: int, nu: int, _w: int) -> None:
        if depth == n:
            values.append(nu)

    ones = (1,) * d
    _walk(ones, (ones,) * d, n, keep)
    return tuple(values)


def _require_exact(model) -> None:
    if not model.is_exact:
        raise ValueError(
            "exhaustive expectation runs in exact arithmetic; "
            "build the model from Fractions"
        )


def exhaustive_expectation(model, n: int) -> ExpectationSeries:
    """Exact ``E[count(S_i)]`` for i = 1..n by enumerating every string.

    Sums ``phi(T) * Pr[T]`` over all strings T of each length with one
    depth-first walk that adds up per-length new weight. The model's
    probabilities are scaled by their common denominator q, so path weights
    are the integers ``q**i * Pr[T]`` and each length is divided by
    ``q**i`` once. IID letters weigh the same after every letter; a Markov
    string starts from the stationary distribution and continues with the
    transition probabilities. Zero-probability branches are pruned, so
    degenerate models cost only their support.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # Validate before the cache: a float model compares equal to its exact
    # twin, so a cache hit would otherwise skip the exactness check.
    _require_exact(model)
    return _exhaustive_expectation_cached(model, n)


@lru_cache(maxsize=128)
def _exhaustive_expectation_cached(model, n: int) -> ExpectationSeries:
    # rows[0] weighs the first letter and rows[1 + prev] the letter after
    # prev. They are read off the model's fields, not its letter source, so
    # the oracle stays independent of the engine it checks.
    if isinstance(model, IIDModel):
        rows = (model.probs,) * (model.d + 1)
    elif isinstance(model, MarkovModel):
        a, b, g = model.alpha, model.beta, model.gamma
        rows = ((1 - g, g), (1 - b, b), (1 - a, a))
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    q = lcm(*(Fraction(p).denominator for row in rows for p in row))
    start, *steps = [tuple(int(p * q) for p in row) for row in rows]
    new_weight = [0] * (n + 1)

    def add(depth: int, nu: int, w: int) -> None:
        new_weight[depth] += nu * w

    _walk(start, steps, n, add)
    values = []
    acc = 0  # q**i * E[count(S_i)]
    for i in range(1, n + 1):
        acc = acc * q + new_weight[i]
        values.append(Fraction(acc, q**i))
    return ExpectationSeries(tuple(values), mode="exact")


def check_pair_structure(n: int) -> bool:
    """Verify the paired structure of consecutive binary tree rows.

    Indexing row entries 1..2**n: the equal pair at positions (m, m+1) with
    m = 2 mod 4 sums its two parents in row n-1, while the equal pair with
    m = 0 mod 4 (excluding m = 2**n) repeats its parents, which also match
    each other. Needs n >= 2 so both row levels exist.
    """
    if n < 2:
        raise ValueError("pair structure checks need n >= 2")
    row = tree_row(2, n)
    parent = tree_row(2, n - 1)
    for m in range(2, 2**n, 2):
        first, second = row[m - 1], row[m]
        if first != second:
            return False
        left, right = parent[m // 2 - 1], parent[m // 2]
        if m % 4 == 2:
            if first != left + right:
                return False
        else:
            if left != right or first != left:
                return False
    return True


def check_submultiplicativity(model: IIDModel, n: int, m: int) -> bool:
    """Exact check that empty-inclusive expected counts are submultiplicative.

    With ``psi(i) = E[count(S_i)] + 1`` (the empty subsequence included),
    checks ``psi(n + m) <= psi(n) * psi(m)``. The inclusion matters: the
    nonempty-only version already fails for fair binary strings at
    n = m = 2, where E[count] values (1, 5/2, 19/4, 65/8) give
    65/8 > (5/2)**2. Splitting a string into a prefix and a suffix maps
    each subsequence to a pair of possibly-empty halves, which is where the
    inequality (and the need for the empty subsequence) comes from.
    """
    if not isinstance(model, IIDModel):
        raise TypeError("submultiplicativity checks apply to IID models")
    if n < 1 or m < 1:
        raise ValueError("both lengths must be at least 1")
    series = exhaustive_expectation(model, n + m)

    def psi(i: int) -> Fraction:
        return series.value_at(i) + 1

    return psi(n + m) <= psi(n) * psi(m)


def superpattern_k_bruteforce(s: LetterString) -> int:
    """Largest k with every length-k pattern embedded, by direct enumeration.

    Walks pattern space level by level, tracking for every pattern the end
    position of its leftmost embedding via a next-occurrence table; level
    k + 1 is reachable only while every pattern of length k + 1 embeds.
    Exponential in the answer, so guarded by the exhaustive budget.
    """
    d = s.alphabet.size
    n = len(s)
    # next_at[i][c] = least j >= i with letters[j] == c, else n
    next_at = [[n] * d for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = next_at[i]
        row[:] = next_at[i + 1]
        row[s.letters[i]] = i

    ends = [0]
    k = 0
    while True:
        _guard_power(d, k + 1)
        nxt: list[int] = []
        complete = True
        for pos in ends:
            for c in range(d):
                q = next_at[pos][c] + 1
                if q > n:
                    complete = False
                    break
                nxt.append(q)
            if not complete:
                break
        if not complete:
            return k
        k += 1
        ends = nxt
