"""The d-bonacci ceiling as an exact reference at any length.

Flaxman, Harrow & Sorkin (Electron. J. Combin. 11 (2004) R8) show that the
cyclic string ``0 1 ... d-1 0 1 ...`` has the most distinct subsequences
among d-ary strings of its length; its new counts are the d-bonacci numbers
of ``reference.dbonacci``. The alternating chain (alpha 0, beta 1) draws
only the two binary cyclic strings, so its expectation is their count,
``F(n + 3) - 2`` with F the Fibonacci numbers.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import engine_series, rational_models
from reference import dbonacci
from subseqlab import (
    Alphabet,
    LetterString,
    MarkovModel,
    count_distinct,
    markov_expectation,
    tree_row,
)

N = 2000
F = (0, 1) + dbonacci(2, N + 2)  # F[i] is the Fibonacci number F(i)


def test_dbonacci_first_terms():
    assert F[:12] == (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
    assert dbonacci(3, 7) == (1, 2, 4, 7, 13, 24, 44)


def test_alternating_chain_is_fibonacci_exactly():
    values = markov_expectation(MarkovModel(0, 1), N).values
    assert values == tuple(F[n + 3] - 2 for n in range(1, N + 1))


def test_alternating_chain_in_floats():
    """Rows within 1e-12 relative of ``F(n + 3) - 2``; the rows past the
    float range hold ln, so their ln differs by at most 1e-12."""
    series = markov_expectation(MarkovModel(0.0, 1.0), N)
    assert series.log_rows == 527
    split = N - series.log_rows
    for n, got in enumerate(series.values, start=1):
        want = F[n + 3] - 2
        if n <= split:
            assert math.isclose(got, want, rel_tol=1e-12), n
        else:
            assert math.isclose(got, math.log(want), rel_tol=0, abs_tol=1e-12), n


@pytest.mark.parametrize("d,max_n", [(2, 10), (3, 7)])
def test_tree_row_maximum_is_dbonacci(d, max_n):
    """The largest new count in row n of the d-ary tree is ``nu_n``."""
    assert [max(tree_row(d, n)) for n in range(1, max_n + 1)] == list(dbonacci(d, max_n))


@pytest.mark.parametrize("d,max_n", [(2, 14), (3, 9), (4, 7)])
def test_cyclic_string_has_the_most_subsequences(d, max_n):
    """Over all d-ary strings of each length, the largest count is the
    cyclic string's, ``nu_1 + ... + nu_n``."""
    alphabet = Alphabet(d)
    for n in range(1, max_n + 1):
        ceiling = sum(dbonacci(d, n))
        strings = itertools.product(range(d), repeat=n)
        assert max(count_distinct(LetterString(alphabet, s)) for s in strings) == ceiling
        cyclic = LetterString(alphabet, tuple(i % d for i in range(n)))
        assert count_distinct(cyclic) == ceiling


@given(rational_models(), st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_mean_stays_below_the_cyclic_count(model, n):
    """A mean cannot exceed the maximum: every exact row E[phi_i] is at most
    the cyclic d-ary string's count, ``nu_1 + ... + nu_i``."""
    ceiling = itertools.accumulate(dbonacci(model.d, n))
    assert all(mean <= top for mean, top in zip(engine_series(model, n).values, ceiling))
