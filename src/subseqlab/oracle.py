"""Brute-force ground truth for the fast counters and expectation engines.

Everything here trades time for transparency: subsequence sets are built
explicitly (as bitsets, one per length), expectations sum over every
possible string in exact arithmetic, and structural identities are checked
row by row. The exhaustive expectations add up each string's count times
its weight in one depth-first walk over the prefix tree, with integer path
weights. The walks that ``verify`` checks and ``tree-row`` prints are
handed out as generators: the short strings with their bitset counts, and
a tree row in runs, each a group of blocks from a depth-first walk over
the prefix tree, expanded in bulk to the row asked for. Size guards keep
the exponential enumerations inside a sane budget and raise
:class:`SizeGuardError` beyond it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, islice, repeat
from math import lcm
from operator import add, iadd

from .expectation import ExpectationSeries, SizeGuardError
from .strings import LetterString

__all__ = [
    "EXHAUSTIVE_GUARD",
    "SizeGuardError",
    "enumerate_distinct",
    "exhaustive_expectation",
    "tree_row",
    "check_pair_structure",
    "check_submultiplicativity",
    "superpattern_k_bruteforce",
]

EXHAUSTIVE_GUARD = 2**20
ROW_SLICE = 2048  # about the tree-row entries per run, so a streamed row is never held whole


def _guard_power(d: int, n: int, counted: str) -> None:
    # For d >= 2, d**k exceeds the guard once k reaches its bit length, so
    # capping n there spares a huge n a huge power.
    if d ** min(n, EXHAUSTIVE_GUARD.bit_length()) > EXHAUSTIVE_GUARD:
        raise SizeGuardError(
            f"{d}**{n} {counted} exceed the exhaustive guard of {EXHAUSTIVE_GUARD}"
        )


def enumerate_distinct(s: LetterString) -> set[tuple[int, ...]]:
    """All distinct nonempty subsequences of ``s``, as tuples of letters.

    Built letter by letter as per-length bitsets (see :func:`_extend_levels`):
    each letter extends every subsequence seen so far, the empty one
    included, which starts its singleton. The set bits are decoded to
    tuples at the end. The result can hold ``2**n - 1`` elements and the
    longest level ``d**n`` bits, so n is held to the exhaustive guard on
    both, like every other brute-force enumeration.
    """
    d, n = s.alphabet.size, len(s)
    _guard_power(2, n, "position subsets")
    _guard_power(d, n, "subsequence codes")
    levels = [1]
    for letter in s:
        levels = _extend_levels(levels, letter, d)
    subs = set()
    for k, bits in enumerate(levels[1:], start=1):
        for code, bit in enumerate(bin(bits)[:1:-1]):  # bit c at index c
            if bit == "1":
                subs.add(tuple(code // d**i % d for i in range(k)))
    return subs


def _extend_levels(levels: list[int], letter: int, d: int) -> list[int]:
    """The subsequence bitsets of a string over ``d`` letters with
    ``letter`` appended, from the string's own bitsets (left as they are).

    ``levels[k]`` has bit c set when the string holds the length-k
    subsequence whose letters, first letter least significant, read c in
    base d. The empty string's levels are ``[1]``, the empty subsequence
    alone, and ``sum(map(int.bit_count, levels)) - 1`` counts the
    nonempty subsequences. Appending a letter to a length-k subsequence
    adds ``letter * d**k`` to its code, so each old level, shifted once,
    joins the next.
    """
    grown = levels + [0]
    shift = letter
    for k, bits in enumerate(levels):
        grown[k + 1] |= bits << shift
        shift *= d
    return grown


def _short_strings(d: int, limit: int):
    """``(letters, count, k)`` for each string over ``d`` letters of length
    1..limit, in ``verify``'s depth-first order (children 0..d-1 on a stack),
    its bitsets (:func:`_extend_levels`) grown from its parent's: count is
    their set bits less the empty one, k its last leading full level (all
    ``d**k`` bits set), searched from its parent's k."""
    stack = [((), [1], 0)]
    while stack:
        prefix, levels, parent_k = stack.pop()
        for c in range(d):
            letters, grown, k = prefix + (c,), _extend_levels(levels, c, d), parent_k
            while k + 1 < len(grown) and grown[k + 1].bit_count() == d ** (k + 1):
                k += 1
            yield letters, sum(map(int.bit_count, grown)) - 1, k
            if len(letters) < limit:
                stack.append((letters, grown, k))


def _walk(start, steps, n: int, visit) -> None:
    """Depth-first walk over every string of length 1..n with nonzero weight,
    for the exhaustive expectations.

    ``start[c]`` weighs a first letter c and ``steps[prev][c]`` a letter c
    after ``prev``; a string weighs the product along it, and a zero-weight
    prefix is pruned with its whole subtree. Children are visited in
    decreasing letter order, and each string reports
    ``visit(length, nu, before, weight)``: ``nu`` is the new-subsequence
    count of its last letter and ``before`` the count of the string without
    it, so the string itself counts ``before + nu``. The walk runs the
    counter's -1-convention recurrence in place: ``base[c]`` holds the
    running total just before c's last occurrence on the current path, and
    descending into a child overwrites that one slot and puts it back on
    the way up, so every string costs one recurrence step. The guard bounds
    the depth too, which keeps one-letter walks off the recursion limit.
    """
    d = len(start)
    _guard_power(max(d, 2), n, "strings")
    letters = range(d - 1, -1, -1)
    base = [-1] * d

    def down(depth: int, weights, path: int, total: int) -> None:
        for c in letters:
            w = path * weights[c]
            if w:
                b = base[c]
                nu = total - b
                visit(depth, nu, total, w)
                if depth < n:
                    base[c] = total
                    down(depth + 1, steps[c], w, total + nu)
                    base[c] = b

    if n:
        down(1, start, 1, 0)


def _row_runs(d: int, n: int):
    """Row ``n`` of the d-ary tree in order, in runs of at most ``ROW_SLICE``
    entries, so no caller holds the row: row 0 is ``[0]``, row 1 d ones, and
    a later row each ``group`` of the blocks :func:`_blocks` walks to,
    ``levels`` rows up, grown in bulk by :func:`_expand`. ``levels`` (0 for
    d >= 13) keeps ``group`` at d blocks or more unless the row is one run.
    Inputs and the size guard are checked on the call, before any run."""
    if d < 1:
        raise ValueError("alphabet size must be at least 1")
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if n == 0:
        return ([0],)
    _guard_power(max(d, 2), n, "strings")  # before any d-entry block is built
    if n == 1:
        return ([1] * min(ROW_SLICE, d - start) for start in range(0, d, ROW_SLICE))
    levels = max((k for k in range(n) if d ** (k + 2) <= ROW_SLICE), default=0)
    group = ROW_SLICE // d ** (levels + 1)
    blocks = _blocks(d, n - 1 - levels)
    runs = iter(lambda: reduce(iadd, islice(blocks, group), []), [])  # [] once the walk ends
    return (_expand(run, d, levels) for run in runs)


def _blocks(d: int, depth: int):
    """The block of each length-``depth`` string in tree order, from a
    depth-first walk that holds the blocks on its path. A string's block is
    the new counts of its d children by letter, decreasing, so row n is the
    length-(n-1) strings' blocks; the empty string's is all ones. By the
    counter's -1-convention recurrence the child at position c keeps entry
    c and adds it to every other entry (whatever letter position c is)."""

    def down(block, depth):
        for c, kept in enumerate(block):
            child = list(map(add, block, repeat(kept, d)))
            child[c] = kept
            if depth == 1:
                yield child
            else:
                yield from down(child, depth - 1)

    return down([1] * d, depth) if depth else iter([[1] * d])


def _expand(run: list[int], d: int, levels: int) -> list[int]:
    """The entries ``levels`` rows below ``run``, a list of whole blocks: row
    by row, :func:`_blocks`' rule in d**2 strided slice assignments, each in
    C across the row (child c's entry e, for every parent at once)."""
    square = d * d
    for _ in range(levels):
        columns = [run[e::d] for e in range(d)]
        run = [0] * (len(run) * d)
        for c, kept in enumerate(columns):
            for e, column in enumerate(columns):
                run[d * c + e::square] = kept if e == c else map(add, column, kept)
    return run


def tree_row(d: int, n: int) -> tuple[int, ...]:
    """Row ``n`` of the complete d-ary prefix tree of new-subsequence counts.

    Entry m is the new count at the final letter of the m-th length-n
    string, in the tree's left-to-right order: children are appended in
    decreasing letter order, so the leftmost branch is the all-(d-1) string.
    For binary rows that reads 11..1 first and 00..0 last. Row 0 is the
    empty string with value 0. The row is the concatenation of the runs
    that ``tree-row`` writes as they arrive: a walk to the strings a few
    rows up and a bulk expansion of each group of their blocks, O(d**n)
    additions, most of them run in C across whole runs.
    """
    return tuple(chain.from_iterable(_row_runs(d, n)))


def exhaustive_expectation(model, n: int) -> ExpectationSeries:
    """Exact ``E[count(S_i)]`` for i = 1..n by enumerating every string.

    Sums ``phi(T) * Pr[T]`` over all strings T of each length with one
    depth-first walk, each string adding its own count times its weight.
    The model's probabilities are scaled by their common denominator q, so
    path weights are the integers ``q**i * Pr[T]`` and each length's sum is
    divided by ``q**i`` once. The letter weights are the model's
    ``letter_rows()``: a first letter weighs ``rows[0]`` and a letter after
    c weighs ``rows[after[c]]``. Zero-probability branches are pruned, so
    degenerate models cost only their support.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # Validate before the cache: a float model compares equal to its exact
    # twin, so a cache hit would otherwise skip the exactness check.
    if not model.is_exact:
        raise ValueError(
            "exhaustive expectation runs in exact arithmetic; "
            "build the model from Fractions"
        )
    return _exhaustive_expectation_cached(model, n)


@lru_cache(maxsize=128)
def _exhaustive_expectation_cached(model, n: int) -> ExpectationSeries:
    # The walk reads the model's letter rows, not its letter source, so the
    # oracle stays independent of the engine it checks.
    rows, after = model.letter_rows()
    q = lcm(*(Fraction(p).denominator for row in rows for p in row))
    weights = [tuple(int(p * q) for p in row) for row in rows]
    sums = [0] * (n + 1)  # sums[i] = q**i * E[count(S_i)]

    def add(depth: int, nu: int, before: int, w: int) -> None:
        sums[depth] += (before + nu) * w

    _walk(weights[0], [weights[r] for r in after], n, add)
    values = tuple(Fraction(sums[i], q**i) for i in range(1, n + 1))
    return ExpectationSeries(values, mode="exact")


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


def check_submultiplicativity(model, n: int, m: int) -> bool:
    """Exact check that empty-inclusive expected counts are submultiplicative.

    With ``psi(i) = E[count(S_i)] + 1`` (the empty subsequence included),
    checks ``psi(n + m) <= psi(n) * psi(m)``. The inclusion matters: the
    nonempty-only version already fails for fair binary strings at
    n = m = 2, where E[count] values (1, 5/2, 19/4, 65/8) give
    65/8 > (5/2)**2. Splitting a string into a prefix and a suffix maps
    each subsequence to a pair of possibly-empty halves, which is where the
    inequality (and the need for the empty subsequence) comes from. The
    model must have independent letters: one letter row.
    """
    if len(model.letter_rows()[0]) > 1:
        raise TypeError("submultiplicativity checks apply to IID models")
    if n < 1 or m < 1:
        raise ValueError("both lengths must be at least 1")
    series = exhaustive_expectation(model, n + m)

    def psi(i: int) -> Fraction:
        return series.value_at(i) + 1

    return psi(n + m) <= psi(n) * psi(m)


def superpattern_k_bruteforce(s: LetterString) -> int:
    """Largest k with every length-k pattern embedded, by direct enumeration:
    the acceptance cross-check of ``superpattern_k`` (``verify`` reads k off
    the full levels of :func:`_short_strings`).

    ``ends`` holds, for every length-k pattern in order, the position just
    past its leftmost embedding, read from a next-occurrence table. Level
    k + 1 is complete iff every letter occurs at or after every end; its
    ends are then ``next_at[pos][c] + 1`` for each end pos and each c in turn.
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
        _guard_power(d, k + 1, "patterns")
        if any(n in next_at[pos] for pos in ends):
            return k
        ends = [q + 1 for pos in ends for q in next_at[pos]]
        k += 1
