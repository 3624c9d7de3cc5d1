"""Tests for the core string types and the distinct-subsequence counter."""

import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import extended
from subseqlab import (
    Alphabet,
    BINARY,
    IncrementalCounter,
    LetterString,
    count_distinct,
    new_subseq_counts,
)

binary_letters = st.lists(st.integers(0, 1), max_size=40)
small_strings = st.integers(2, 4).flatmap(
    lambda d: st.lists(st.integers(0, d - 1), max_size=30).map(
        lambda xs: LetterString.from_letters(xs, Alphabet(d))
    )
)
counted_strings = st.one_of(
    binary_letters.map(lambda xs: LetterString.from_letters(xs, BINARY)), small_strings
)


def test_alphabet_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Alphabet(0)
    with pytest.raises(ValueError):
        Alphabet(-3)
    assert Alphabet(1).size == 1


def test_letter_string_validates_letters():
    with pytest.raises(ValueError):
        LetterString.from_letters([0, 2], Alphabet(2))
    with pytest.raises(ValueError):
        LetterString.from_letters([-1], Alphabet(3))


def test_from_text_digit_form():
    s = LetterString.from_text("0120")
    assert s.alphabet.size == 3
    assert s.letters == (0, 1, 2, 0)


def test_from_text_comma_form():
    s = LetterString.from_text("10,3,7")
    assert s.alphabet.size == 11
    assert s.letters == (10, 3, 7)


def test_from_text_explicit_alphabet():
    s = LetterString.from_text("010", alphabet=Alphabet(4))
    assert s.alphabet.size == 4
    assert s.letters == (0, 1, 0)


def test_from_text_empty():
    assert LetterString.from_text("").letters == ()


def test_count_distinct_known_values():
    """Hand-checked examples, including the repeated-letter collapses."""
    assert count_distinct(LetterString.from_text("")) == 0
    assert count_distinct(LetterString.from_text("0")) == 1
    assert count_distinct(LetterString.from_text("00")) == 2
    assert count_distinct(LetterString.from_text("01")) == 3
    assert count_distinct(LetterString.from_text("010")) == 6
    assert count_distinct(LetterString.from_text("0000")) == 4
    assert count_distinct(LetterString.from_text("0101")) == 11
    assert count_distinct(LetterString.from_text("0123")) == 15


def test_new_subseq_counts_profile():
    """Per-position contributions for 0101: 1, 2, 3, 5."""
    profile = new_subseq_counts(LetterString.from_text("0101"))
    assert profile == (1, 2, 3, 5)
    assert sum(profile) == 11
    assert tuple(accumulate(profile)) == (1, 3, 6, 11)


def test_distinct_letters_always_contribute_total_plus_one():
    profile = new_subseq_counts(LetterString.from_text("0123"))
    assert profile == (1, 2, 4, 8)


@given(counted_strings)
@settings(max_examples=300)
def test_incremental_matches_batch(s):
    """Pushing letters one by one agrees with the whole-string profile and
    with the batch kernel behind count_distinct, over 2 to 4 letters."""
    counter = IncrementalCounter(s.alphabet)
    pushed = [counter.push(c)[0] for c in s]
    assert tuple(pushed) == new_subseq_counts(s)
    assert counter.total == count_distinct(s)


@pytest.mark.parametrize("letters", [[0, 1, 0, 2], [0, 10**7 - 1, 0, 5]])
def test_counting_memory_ignores_the_alphabet_size(letters):
    """Neither count_distinct nor the counter allocates per alphabet letter,
    nor per value of the largest letter."""
    s = LetterString.from_letters(letters, Alphabet(10**7))
    tracemalloc.start()
    try:
        assert count_distinct(s) == 13
        counter = IncrementalCounter(s.alphabet)
        for c in s:
            counter.push(c)
        assert counter.total == 13
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(binary_letters)
@settings(max_examples=200)
def test_count_bounded_by_full_powerset(letters):
    """A length-n string has at most 2^n - 1 nonempty subsequences."""
    s = LetterString.from_letters(letters, BINARY)
    n = len(letters)
    assert count_distinct(s) <= 2**n - 1
    if n > 0:
        assert count_distinct(s) >= n and count_distinct(s) >= 1


@given(small_strings)
@settings(max_examples=200)
def test_counts_strictly_increase(s):
    """Every appended letter contributes at least one new subsequence."""
    totals = list(accumulate(new_subseq_counts(s)))
    assert all(b > a for a, b in zip(totals, totals[1:]))


@given(small_strings, st.integers(0, 23))
@settings(max_examples=200)
def test_relabeling_invariance(s, shift):
    """Any permutation of the alphabet preserves the count."""
    d = s.alphabet.size
    perm = {c: (c + shift) % d for c in range(d)}
    relabeled = LetterString(s.alphabet, tuple(perm[x] for x in s.letters))
    assert count_distinct(relabeled) == count_distinct(s)


@given(small_strings, st.integers(0, 3))
@settings(max_examples=200)
def test_sibling_and_repeat_identities(s, letter):
    """Appending c twice adds the same amount twice; two different
    letters appended to the same prefix contribute independently."""
    d = s.alphabet.size
    j = letter % d
    k = (j + 1) % d
    base = new_subseq_counts(s)
    nu_j = new_subseq_counts(extended(s, j))[-1]
    nu_jj = new_subseq_counts(extended(extended(s, j), j))[-1]
    nu_jk = new_subseq_counts(extended(extended(s, j), k))[-1]
    nu_k = new_subseq_counts(extended(s, k))[-1]
    assert nu_jj == nu_j
    assert nu_jk == nu_j + nu_k
    assert sum(base) + nu_j == count_distinct(extended(s, j))


def test_counter_snapshot_restore():
    counter = IncrementalCounter(BINARY)
    counter.push(0)
    counter.push(1)
    snap = counter.snapshot()
    counter.push(0)
    counter.push(0)
    counter.restore(snap)
    assert counter.total == 3
    nu, total = counter.push(0)
    assert (nu, total) == (3, 6)


def test_counter_rejects_foreign_letters():
    counter = IncrementalCounter(BINARY)
    with pytest.raises(ValueError):
        counter.push(2)
