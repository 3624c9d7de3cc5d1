"""Tests for the analytic helpers: entropy, the balance function and its
roots, the occurrence threshold, and expected pattern occurrences."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqlab import (
    Alphabet,
    IIDModel,
    LetterString,
    MarkovModel,
    balance_minimum,
    balance_value,
    binary_entropy,
    expected_occurrences,
    occurrence_threshold,
    solve_balance,
)
from subseqlab.analysis import _bisect

unit_interval = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


@given(unit_interval)
@settings(max_examples=200)
def test_entropy_symmetry(x):
    assert math.isclose(binary_entropy(x), binary_entropy(1.0 - x), abs_tol=1e-12)


def test_balance_endpoints():
    assert balance_value(0.0) == 1.0
    assert balance_value(1.0) == 2.0
    assert math.isclose(balance_value(0.5), math.sqrt(2) / 2, rel_tol=1e-12)


@given(unit_interval)
@settings(max_examples=200)
def test_balance_entropy_identity(x):
    """log2 of the balance function is x minus the entropy of x."""
    assert math.isclose(
        balance_value(x), 2.0 ** (x - binary_entropy(x)), rel_tol=1e-12
    )


def test_balance_minimum_location():
    """The minimum sits at x = 1/3 with value 2/3: g is larger on both sides."""
    x_min, g_min = balance_minimum()
    assert x_min == 1 / 3
    assert g_min == balance_value(x_min)
    assert math.isclose(g_min, 2 / 3, rel_tol=1e-12)
    for h in (0.2, 1e-2, 1e-4, 1e-6):
        assert balance_value(x_min - h) > g_min
        assert balance_value(x_min + h) > g_min


def test_solve_balance_two_roots():
    roots = solve_balance(0.75)
    assert roots.lower is not None
    assert abs(roots.lower.x - 0.1230623223962593) < 1e-9
    assert abs(roots.upper.x - 0.5705521304341155) < 1e-9
    assert abs(roots.lower.residual) <= 1e-12
    assert abs(roots.upper.residual) <= 1e-12


def test_solve_balance_recovers_targets():
    for target in (0.70, 0.75, 0.9, 0.99):
        roots = solve_balance(target)
        assert math.isclose(balance_value(roots.upper.x), target, rel_tol=1e-10)
        if roots.lower is not None:
            assert math.isclose(balance_value(roots.lower.x), target, rel_tol=1e-10)


def test_solve_balance_single_root_regime():
    """Targets at or above g(0) = 1 only cross once, on the right branch."""
    roots = solve_balance(1.0)
    assert roots.lower is None
    assert abs(roots.upper.x - 0.7729078047806577) < 1e-9


def test_solve_balance_grazing_target():
    roots = solve_balance(2 / 3 + 1e-13)
    assert roots.lower is not None
    assert abs(roots.lower.x - 1 / 3) < 1e-4
    assert abs(roots.upper.x - 1 / 3) < 1e-4


@pytest.mark.parametrize("target", [2 / 3, 2 / 3 - 1e-13], ids=["at-minimum", "just-below"])
def test_solve_balance_grazing_double_root(target):
    """At or just below g_min = 2/3 (exactly 0.6666666666666666 in floats)
    both roots are the minimiser, with the defect g_min - target."""
    x_min, g_min = balance_minimum()
    roots = solve_balance(target)
    assert roots.lower == roots.upper
    assert roots.upper.x == x_min == 1 / 3
    assert roots.upper.residual == g_min - target


def test_solve_balance_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_balance(0.5)
    with pytest.raises(ValueError):
        solve_balance(1.5)
    with pytest.raises(ValueError):
        solve_balance(0.0)


def test_occurrence_threshold_value():
    """Where entropy crosses the identity line: about 0.77291."""
    root = occurrence_threshold()
    assert abs(root.x - 0.7729078047806577) < 1e-10
    assert abs(root.residual) <= 1e-12
    assert math.isclose(binary_entropy(root.x), root.x, rel_tol=1e-12)


def test_threshold_is_where_balance_hits_one():
    root = occurrence_threshold()
    assert math.isclose(balance_value(root.x), 1.0, rel_tol=1e-12)


def test_expected_occurrences_exact_binary():
    """Ten heads in twenty fair flips: C(20,10)/2^10 = 180.42578125."""
    pattern = LetterString.from_letters([1] * 10, Alphabet(2))
    value = expected_occurrences(20, pattern, IIDModel.binary(Fraction(1, 2)))
    assert value == 180.42578125


def test_expected_occurrences_small_case():
    pattern = LetterString.from_text("11")
    assert expected_occurrences(4, pattern, IIDModel.binary(0.5)) == 1.5
    assert expected_occurrences(2, LetterString.from_text("01"), IIDModel.binary(0.5)) == 0.25


def test_expected_occurrences_log_space():
    pattern = LetterString.from_letters([1] * 10, Alphabet(2))
    model = IIDModel.binary(0.5)
    log_value = expected_occurrences(20, pattern, model, log_space=True)
    assert math.isclose(math.exp(log_value), 180.42578125, rel_tol=1e-12)


def test_expected_occurrences_zero_probability_letter():
    pattern = LetterString.from_text("01")
    model = IIDModel.binary(1.0)
    assert expected_occurrences(5, pattern, model) == 0.0
    assert expected_occurrences(5, pattern, model, log_space=True) == -math.inf


def test_expected_occurrences_validation():
    with pytest.raises(ValueError):
        expected_occurrences(3, LetterString.from_text("0101"), IIDModel.binary(0.5))
    with pytest.raises(ValueError):
        expected_occurrences(
            5, LetterString.from_text("012"), IIDModel.binary(0.5)
        )


def test_expected_occurrences_huge_n_needs_log_space():
    pattern = LetterString.from_letters([1] * 400, Alphabet(2))
    model = IIDModel.binary(0.5)
    log_value = expected_occurrences(100_000, pattern, model, log_space=True)
    assert math.isfinite(log_value)
    with pytest.raises(ValueError, match="log_space=True"):
        expected_occurrences(100_000, pattern, model)


def test_expected_occurrences_past_float_range_of_the_binomial():
    """C(2000, 1000) overflows a float on its own, but times 2**-1000 the
    count is about 1.9e299, the same for float and Fraction weights."""
    pattern = LetterString.from_letters([1] * 1000, Alphabet(2))
    for alpha in (0.5, Fraction(1, 2)):
        value = expected_occurrences(2000, pattern, IIDModel.binary(alpha))
        assert value == 1.9114653986474661e299


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_expected_occurrences_float_and_fraction_models_agree(alpha):
    """Where a float model and a Fraction model hold the same number for
    every letter a pattern uses, the counts are equal: one exact product,
    rounded once. Below 1/2, 1 - alpha rounds in floats, so there only
    patterns of ones qualify."""
    model = IIDModel.binary(alpha)
    twin = IIDModel.binary(Fraction(alpha))
    checked = 0
    for n in (5, 40, 300):
        for text in ("1", "11111", "0110", "10" * 20, "1" * 30, "0" * 30 + "1" * 30):
            pattern = LetterString.from_text(text, Alphabet(2))
            if len(pattern) > n or any(model.probs[c] != twin.probs[c] for c in pattern):
                continue
            value = expected_occurrences(n, pattern, model)
            assert value == expected_occurrences(n, pattern, twin), (n, text)
            checked += 1
    assert checked >= 8


def test_expected_occurrences_rejects_chains_by_type():
    """Only IID letters have a per-letter probability to multiply; a chain
    is refused by type before any arithmetic."""
    with pytest.raises(TypeError, match="MarkovModel"):
        expected_occurrences(4, LetterString.from_text("01"), MarkovModel(0.5, 0.5))
    with pytest.raises(TypeError, match="MarkovModel"):
        expected_occurrences(1, LetterString.from_text("01"), MarkovModel(0.5, 0.5))


# Inputs each check of this layer refuses, with the message it raises.
REJECTED = [
    pytest.param(lambda: binary_entropy(1.5), "entropy argument must lie in [0, 1], got 1.5",
                 id="entropy"),
    pytest.param(lambda: balance_value(-0.1), "balance argument must lie in [0, 1], got -0.1",
                 id="balance"),
    pytest.param(lambda: expected_occurrences(-1, LetterString.from_text(""), IIDModel.binary(0.5)),
                 "n must be nonnegative", id="occurrences-n"),
    pytest.param(lambda: _bisect(lambda x: 1.0, 0.0, 1.0), "no sign change on [0.0, 1.0]",
                 id="bisect"),
]

@pytest.mark.parametrize("call,message", REJECTED)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
