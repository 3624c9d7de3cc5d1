"""Tests for the brute-force oracles: enumeration, contribution trees,
exhaustive expectations, submultiplicativity, and cover-length search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import extended
from subseqlab import (
    BINARY,
    ENUMERATION_MAX,
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
    superpattern_k_bruteforce,
    tree_row,
)
from subseqlab import oracle
from subseqlab.montecarlo import superpattern_k
from subseqlab.strings import IncrementalCounter

random_binary = st.lists(st.integers(0, 1), max_size=12).map(
    lambda xs: LetterString.from_letters(xs, BINARY)
)


def test_enumerate_known_string():
    got = enumerate_distinct(LetterString.from_text("010"))
    assert got == {(0,), (1,), (0, 0), (0, 1), (1, 0), (0, 1, 0)}


def test_enumerate_excludes_empty():
    assert enumerate_distinct(LetterString.from_text("")) == set()


def test_enumerate_size_guard():
    with pytest.raises(SizeGuardError):
        enumerate_distinct(LetterString.from_letters([0] * (ENUMERATION_MAX + 1), BINARY))


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
    not a RecursionError. A huge n is refused without computing d**n."""
    with pytest.raises(SizeGuardError):
        exhaustive_expectation(IIDModel((Fraction(1),)), 3000)
    with pytest.raises(SizeGuardError):
        tree_row(1, 5000)
    with pytest.raises(SizeGuardError):
        tree_row(3, 10**8)
    assert tree_row(1, 20) == (1,)
    assert exhaustive_expectation(IIDModel((Fraction(1),)), 20).values[-1] == 20


@pytest.fixture
def pushes(monkeypatch):
    """Counts ``IncrementalCounter.push`` calls, with a cold oracle cache."""
    calls = [0]
    push = IncrementalCounter.push

    def counted(self, letter):
        calls[0] += 1
        return push(self, letter)

    monkeypatch.setattr(IncrementalCounter, "push", counted)
    oracle._exhaustive_expectation_cached.cache_clear()
    return calls


def test_tree_row_pushes_every_prefix_once(pushes):
    for n in range(7):
        pushes[0] = 0
        tree_row(3, n)
        assert pushes[0] == sum(3**i for i in range(1, n + 1))


def test_walk_prunes_zero_probability_branches(pushes):
    """gamma = 1 and alpha = 1 leave one string; a zero letter leaves 2**i
    strings of each length i."""
    model = MarkovModel(1, Fraction(1, 2))
    assert model.gamma == 1
    exhaustive_expectation(model, 16)
    assert pushes[0] == 16
    pushes[0] = 0
    exhaustive_expectation(IIDModel((Fraction(1, 3), 0, Fraction(2, 3))), 9)
    assert pushes[0] == 1022


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


def test_superpattern_depends_on_alphabet():
    """Over a one-letter alphabet the same text covers everything."""
    assert superpattern_k_bruteforce(LetterString.from_text("0000")) == 4


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
