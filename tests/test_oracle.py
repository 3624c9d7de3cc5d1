"""Tests for the brute-force oracles: enumeration, contribution trees,
exhaustive expectations, submultiplicativity, and cover-length search."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import extended
from subseqlab import (
    BINARY,
    Alphabet,
    EXHAUSTIVE_GUARD,
    IIDModel,
    LetterString,
    MarkovModel,
    SizeGuardError,
    check_pair_structure,
    check_submultiplicativity,
    count_distinct,
    enumerate_distinct,
    exhaustive_expectation,
    iid_matrix_expectation,
    new_subseq_counts,
    superpattern_k_bruteforce,
    tree_row,
)
from subseqlab import oracle
from subseqlab.montecarlo import superpattern_k

random_binary = st.lists(st.integers(0, 1), max_size=12).map(
    lambda xs: LetterString.from_letters(xs, BINARY)
)


def test_enumerate_known_string():
    got = enumerate_distinct(LetterString.from_text("010"))
    assert got == {(0,), (1,), (0, 0), (0, 1), (1, 0), (0, 1, 0)}


def test_enumerate_excludes_empty():
    assert enumerate_distinct(LetterString.from_text("")) == set()


def test_enumerate_size_guard():
    """Enumeration shares the exhaustive guard: a length-n string has 2**n
    sets of positions."""
    top = EXHAUSTIVE_GUARD.bit_length() - 1
    assert len(enumerate_distinct(LetterString.from_letters([0] * top, BINARY))) == top
    text = f"2**{top + 1} position subsets exceed the exhaustive guard of {EXHAUSTIVE_GUARD}"
    with pytest.raises(SizeGuardError, match=f"^{re.escape(text)}$"):
        enumerate_distinct(LetterString.from_letters([0] * (top + 1), BINARY))


def test_enumerate_guards_the_widest_level():
    """The length-n level has a bit for each of the d**n codes, so a
    ternary string meets the guard long before its 2**n position subsets."""
    ternary = Alphabet(3)
    assert len(enumerate_distinct(LetterString(ternary, (2,) * 12))) == 12
    text = f"3**13 subsequence codes exceed the exhaustive guard of {EXHAUSTIVE_GUARD}"
    with pytest.raises(SizeGuardError, match=f"^{re.escape(text)}$"):
        enumerate_distinct(LetterString(ternary, (0,) * 13))


def test_levels_hold_each_length_as_base_d_codes():
    """Over letters 0 and 1, "010" holds 0 and 1, then 00, 01 and 10 (codes
    0, 2 and 1, the first letter least significant), then 010 (code 2)."""
    levels = [1]
    for letter in (0, 1, 0):
        levels = oracle._extend_levels(levels, letter, 2)
    assert levels == [0b1, 0b11, 0b111, 0b100]
    ternary = [1]
    for letter in (2, 1):
        ternary = oracle._extend_levels(ternary, letter, 3)
    assert ternary == [1, (1 << 2) | (1 << 1), 1 << (2 + 1 * 3)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enumeration_is_every_subset_of_positions(d):
    """The integer-coded sets decode to the letters at every nonempty set
    of positions, built here from ``itertools.combinations``, for every
    string up to length 6: the top letter d-1 and repeated letters too."""
    alphabet = Alphabet(d)
    for n in range(7):
        for letters in itertools.product(range(d), repeat=n):
            picked = {
                tuple(letters[i] for i in positions)
                for k in range(1, n + 1)
                for positions in itertools.combinations(range(n), k)
            }
            assert enumerate_distinct(LetterString(alphabet, letters)) == picked, letters


@given(random_binary)
@settings(max_examples=150)
def test_enumeration_agrees_with_counter(s):
    """The O(n) counter and the exponential enumeration must agree."""
    assert count_distinct(s) == len(enumerate_distinct(s))


def test_tree_rows_binary():
    assert tree_row(2, 0) == (0,)
    assert tree_row(2, 1) == (1, 1)
    assert tree_row(2, 2) == (1, 2, 2, 1)
    assert tree_row(2, 3) == (1, 3, 3, 2, 2, 3, 3, 1)


def test_tree_row_ternary():
    assert tree_row(3, 2) == (1, 2, 2, 2, 1, 2, 2, 2, 1)


def test_tree_rows_are_palindromes():
    """Reversing the letter order of a row reads the same row backwards."""
    for n in range(1, 10):
        row = tree_row(2, n)
        assert row == row[::-1]


def test_tree_row_sums_double_plus_siblings():
    """Row n has d^n entries; each entry is >= 1 past the root row."""
    for n in range(1, 8):
        row = tree_row(2, n)
        assert len(row) == 2**n
        assert min(row) == 1


def test_walk_depth_hits_the_size_guard():
    """One-letter walks have one string per length but are n deep: guarded,
    not a RecursionError. A huge n is refused without computing d**n. The
    walk's message counts strings."""

    def refused(power):
        text = f"{power} strings exceed the exhaustive guard of {EXHAUSTIVE_GUARD}"
        return pytest.raises(SizeGuardError, match=f"^{re.escape(text)}$")

    with refused("2**3000"):
        exhaustive_expectation(IIDModel((Fraction(1),)), 3000)
    with refused("2**5000"):
        tree_row(1, 5000)
    with refused("3**100000000"):
        tree_row(3, 10**8)
    assert tree_row(1, 20) == (1,)
    assert exhaustive_expectation(IIDModel((Fraction(1),)), 20).values[-1] == 20


@pytest.fixture
def visits(monkeypatch):
    """Counts the strings ``oracle._walk`` reports to its visitor, with a cold
    oracle cache."""
    calls = [0]
    walk = oracle._walk

    def counted(start, steps, n, visit):
        def counting(depth, nu, before, w):
            calls[0] += 1
            visit(depth, nu, before, w)

        walk(start, steps, n, counting)

    monkeypatch.setattr(oracle, "_walk", counted)
    oracle._exhaustive_expectation_cached.cache_clear()
    return calls


def test_tree_row_blocks_follow_the_row_above():
    """Block i of row n, entries d*i .. d*i + d - 1, holds the new counts of
    the children of the i-th length-(n-1) string. It is its parent's block,
    block i // d of row n-1, with the parent's entry c = i % d added to
    every entry but entry c. Row 1 is the empty string's block, all ones."""
    for d in (1, 2, 3, 4):
        above = tree_row(d, 1)
        assert above == (1,) * d
        for n in range(2, 8):
            row = tree_row(d, n)
            assert len(row) == d**n, (d, n)
            for i in range(d ** (n - 1)):
                start, c = d * (i // d), i % d
                parent = above[start:start + d]
                block = tuple(x if e == c else x + parent[c] for e, x in enumerate(parent))
                assert row[d * i:d * i + d] == block, (d, n, i)
            above = row


def test_tree_row_runs_hold_at_most_a_slice_and_a_block():
    """Every run of a row, whether from strided assignments or built one
    block at a time, holds at most ``ROW_SLICE + d`` entries, and the runs
    hold the row's d**n entries between them. Row 1 is cut into runs of at
    most ``ROW_SLICE``."""
    for d, n in [(3000, 1), (1024, 2), (101, 3), (11, 5), (10, 6), (5, 8), (2, 17)]:
        runs = list(oracle._row_runs(d, n))
        bound = oracle.ROW_SLICE if n == 1 else oracle.ROW_SLICE + d
        assert max(map(len, runs)) <= bound, (d, n)
        assert sum(map(len, runs)) == d**n, (d, n)


def test_tree_row_runs_are_checked_on_the_call():
    """Bad inputs and the size guard raise before any run is asked for, so
    ``tree-row`` prints nothing for them."""
    with pytest.raises(SizeGuardError):
        oracle._row_runs(3, 40)
    with pytest.raises(ValueError, match="alphabet size must be at least 1"):
        oracle._row_runs(0, 2)


def test_walk_prunes_zero_probability_branches(visits):
    """gamma = 1 and alpha = 1 leave one string; a zero letter leaves 2**i
    strings of each length i."""
    model = MarkovModel(1, Fraction(1, 2))
    assert model.gamma == 1
    exhaustive_expectation(model, 16)
    assert visits[0] == 16
    visits[0] = 0
    exhaustive_expectation(IIDModel((Fraction(1, 3), 0, Fraction(2, 3))), 9)
    assert visits[0] == 1022


def test_tree_row_is_the_counter_on_every_string():
    """Entry m of row n is the counter's last new count on the m-th length-n
    string in the tree's order, so the rows built from the row above and
    ``IncrementalCounter`` agree on every string. The row over 40 letters
    is built one child block at a time, and the one over 12 letters also
    by strided assignments."""
    shapes = [(d, n) for d in (1, 2, 3) for n in range(1, 7)]
    shapes += [(d, n) for d in (4, 5) for n in range(1, 6)] + [(40, 2), (12, 3)]
    for d, n in shapes:
        alphabet = Alphabet(d)
        strings = itertools.product(range(d - 1, -1, -1), repeat=n)
        expected = tuple(new_subseq_counts(LetterString(alphabet, s))[-1] for s in strings)
        assert tree_row(d, n) == expected, (d, n)


def test_walk_reports_each_strings_count_before_its_last_letter():
    """With unit weights the walk visits every string of length 1..n in
    preorder, children in decreasing letter order. Each visit's ``before``
    is the count of the string without its last letter (0 for the empty
    prefix), and ``before + nu`` is the string's own count."""

    def preorder(prefix, d, n):
        for c in range(d - 1, -1, -1):
            s = prefix + (c,)
            yield s
            if len(s) < n:
                yield from preorder(s, d, n)

    for d in (1, 2, 3):
        alphabet = Alphabet(d)
        for n in range(1, 7):
            seen = []
            ones = (1,) * d
            oracle._walk(ones, (ones,) * d, n, lambda *visit: seen.append(visit))
            strings = list(preorder((), d, n))
            assert len(seen) == len(strings), (d, n)
            for s, (depth, nu, before, w) in zip(strings, seen):
                assert (depth, w) == (len(s), 1)
                assert before == count_distinct(LetterString(alphabet, s[:-1])), s
                assert before + nu == count_distinct(LetterString(alphabet, s)), s


def test_tree_row_sums_are_expectation_increments():
    """Under uniform letters every length-n string weighs d**-n, so row n
    sums to d**n (E[phi_n] - E[phi_(n-1)])."""
    for d in (1, 2, 3):
        model = IIDModel.uniform(d)
        for series in (
            exhaustive_expectation(model, 8),
            iid_matrix_expectation(model, 8, mode="exact"),
        ):
            e = (Fraction(0),) + series.values
            for n in range(1, 9):
                assert sum(tree_row(d, n)) == d**n * (e[n] - e[n - 1]), (d, n)


def test_pair_structure_small_rows():
    for n in range(2, 13):
        assert check_pair_structure(n), n


# Row 3 is 1,3,3,2,2,3,3,1 over parents 1,2,2,1. Each corruption keeps the
# pairs before it intact, so it fails the check it names and no earlier one.
@pytest.mark.parametrize(
    "rows",
    [
        {3: (1, 3, 4, 2, 2, 3, 3, 1)},  # the pair at m = 2 is unequal
        {3: (1, 4, 4, 2, 2, 3, 3, 1)},  # m = 2 (mod 4): 4 is not 1 + 2
        {2: (1, 2, 3, 1)},  # m = 0 (mod 4): parents 2 and 3 differ
    ],
    ids=["unequal-pair", "not-parent-sum", "parents-differ"],
)
def test_pair_structure_rejects_corrupted_rows(monkeypatch, rows):
    real = oracle.tree_row
    monkeypatch.setattr(oracle, "tree_row", lambda d, n: rows.get(n) or real(d, n))
    assert check_pair_structure(3) is False


def test_exhaustive_fair_binary():
    series = exhaustive_expectation(IIDModel.binary(Fraction(1, 2)), 4)
    assert series.values == (
        Fraction(1),
        Fraction(5, 2),
        Fraction(19, 4),
        Fraction(65, 8),
    )


def test_exhaustive_skewed_binary():
    series = exhaustive_expectation(IIDModel.binary(Fraction(3, 10)), 4)
    assert series.values == (
        Fraction(1),
        Fraction(121, 50),
        Fraction(447, 100),
        Fraction(37241, 5000),
    )


def test_exhaustive_ternary_uniform():
    series = exhaustive_expectation(IIDModel.uniform(3), 3)
    assert series.values == (Fraction(1), Fraction(8, 3), Fraction(49, 9))


def test_exhaustive_markov():
    model = MarkovModel(Fraction(7, 10), Fraction(3, 10))
    assert model.gamma == Fraction(1, 2)
    series = exhaustive_expectation(model, 3)
    assert series.values == (Fraction(1), Fraction(23, 10), Fraction(411, 100))


def test_exhaustive_requires_exact_model():
    with pytest.raises(ValueError):
        exhaustive_expectation(IIDModel.binary(0.5), 4)


def test_submultiplicativity_fair_binary():
    """With the empty subsequence included the product bound holds."""
    for n in range(1, 6):
        for m in range(1, 6):
            assert check_submultiplicativity(IIDModel.binary(Fraction(1, 2)), n, m)


def test_submultiplicativity_rejects_a_chain():
    with pytest.raises(TypeError, match="IID"):
        check_submultiplicativity(MarkovModel(Fraction(1, 2), Fraction(1, 2)), 2, 2)


def test_submultiplicativity_needs_empty_convention():
    """Dropping the empty subsequence breaks the bound immediately:
    E[count(4)] = 65/8 while (E[count(2)])^2 = 25/4."""
    model = IIDModel.binary(Fraction(1, 2))
    four = exhaustive_expectation(model, 4).value_at(4)
    two = exhaustive_expectation(model, 2).value_at(2)
    assert four == Fraction(65, 8)
    assert two == Fraction(5, 2)
    assert four > two * two


def test_superpattern_bruteforce_known():
    assert superpattern_k_bruteforce(LetterString.from_text("01")) == 1
    assert superpattern_k_bruteforce(LetterString.from_text("0101")) == 2
    assert superpattern_k_bruteforce(LetterString.from_text("0000", BINARY)) == 0
    assert superpattern_k_bruteforce(LetterString.from_text("")) == 0


def test_superpattern_bruteforce_size_guard():
    """Level k + 1 holds d**(k+1) patterns: running through 102 letters
    twice embeds every pattern of length 2, and level 3 is past the guard."""
    s = LetterString(Alphabet(102), tuple(range(102)) * 2)
    text = f"102**3 patterns exceed the exhaustive guard of {EXHAUSTIVE_GUARD}"
    with pytest.raises(SizeGuardError, match=f"^{re.escape(text)}$"):
        superpattern_k_bruteforce(s)


def test_superpattern_depends_on_alphabet():
    """Over a one-letter alphabet the same text covers everything."""
    assert superpattern_k_bruteforce(LetterString.from_text("0000")) == 4


def naive_superpattern_k(s: LetterString) -> int:
    """Largest k with each of the d**k patterns a subsequence of ``s``,
    tried one pattern at a time."""

    def embeds(pattern) -> bool:
        it = iter(s.letters)
        return all(c in it for c in pattern)

    letters = range(s.alphabet.size)
    k = 0
    while all(embeds(p) for p in itertools.product(letters, repeat=k + 1)):
        k += 1
    return k


# Strings of up to 9 letters over 1 to 3 letters, often using fewer letters
# than their alphabet holds.
small_strings = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.integers(0, d - 1), max_size=9).map(
        lambda xs: LetterString(Alphabet(d), tuple(xs))
    )
)


@given(small_strings)
@example(LetterString(Alphabet(3), (0, 1, 0, 1, 0, 1)))
@example(LetterString(Alphabet(3), (2, 1, 0, 0, 1, 2, 1)))
@settings(max_examples=200)
def test_superpattern_bruteforce_is_the_naive_search(s):
    assert superpattern_k_bruteforce(s) == naive_superpattern_k(s)


@pytest.mark.parametrize("d,top", [(2, 10), (3, 6)])
def test_full_levels_give_the_bruteforce_superpattern_k(d, top):
    """The k read off the leading full levels, searched from the parent's
    k on verify's walk, equals the next-occurrence search on every string
    of length 1..top."""
    for letters, _, k in oracle._short_strings(d, top):
        assert k == superpattern_k_bruteforce(LetterString(Alphabet(d), letters)), letters


@pytest.mark.parametrize("d,limit", [(2, 8), (3, 5)])
def test_short_strings_hand_out_every_string_once_with_its_brute_force(d, limit):
    """The walk yields each string of length 1..limit exactly once, with
    the count and the superpattern k that the explicit searches find."""
    alphabet = Alphabet(d)
    walked = []
    for letters, count, k in oracle._short_strings(d, limit):
        s = LetterString(alphabet, letters)
        assert count == len(enumerate_distinct(s)), letters
        assert k == superpattern_k_bruteforce(s), letters
        walked.append(letters)
    every = [w for n in range(1, limit + 1) for w in itertools.product(range(d), repeat=n)]
    assert sorted(walked) == sorted(every)


def test_short_strings_come_in_stack_order():
    """Children are pushed in letter order and the last pushed is walked
    first, which is the order in which verify names its first failure."""
    walk = [letters for letters, _, _ in oracle._short_strings(2, 3)]
    assert walk == [(0,), (1,), (1, 0), (1, 1), (1, 1, 0), (1, 1, 1), (1, 0, 0), (1, 0, 1),
                    (0, 0), (0, 1), (0, 1, 0), (0, 1, 1), (0, 0, 0), (0, 0, 1)]


@given(random_binary)
@settings(max_examples=150)
def test_greedy_cover_matches_bruteforce(s):
    """The round-decomposition answer equals the exhaustive search."""
    assert superpattern_k(s) == superpattern_k_bruteforce(s)


@given(random_binary, st.integers(0, 1))
@settings(max_examples=150)
def test_cover_length_monotone_under_append(s, letter):
    """Appending a letter can only extend what the string covers."""
    assert superpattern_k(extended(s, letter)) >= superpattern_k(s)


# Inputs each check of this layer refuses, with the message it raises.
REJECTED = [
    pytest.param(lambda: tree_row(0, 2), "alphabet size must be at least 1", id="row-d"),
    pytest.param(lambda: tree_row(2, -1), "row index must be nonnegative", id="row-n"),
    pytest.param(lambda: exhaustive_expectation(IIDModel.binary(Fraction(1, 2)), -1),
                 "n must be nonnegative", id="exhaustive-n"),
    pytest.param(lambda: check_pair_structure(1), "pair structure checks need n >= 2",
                 id="pair-n"),
    pytest.param(lambda: check_submultiplicativity(IIDModel.binary(Fraction(1, 2)), 0, 2),
                 "both lengths must be at least 1", id="split-lengths"),
]

@pytest.mark.parametrize("call,message", REJECTED)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
