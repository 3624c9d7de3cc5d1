"""Tests for the expectation engines: the closed form and the letter-source
recurrence, cross-checked against the oracle and against the paper's own
constructions (the split-weight closed form and the 4 x 4 Markov matrix),
which live here as reference implementations."""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqlab import (
    IIDModel,
    MarkovModel,
    asymptotic_constants,
    closed_form_binary,
    exhaustive_expectation,
    iid_matrix_expectation,
    markov_expectation,
)

ALPHAS = [Fraction(k, 10) for k in range(1, 10)]
# every valid binary chain on this grid; (1, 0) has no stationary start
BOUNDARY_GRID = (Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(1))
CHAINS = [(a, b) for a, b in itertools.product(BOUNDARY_GRID, repeat=2) if (a, b) != (1, 0)]


def ab_explicit(alpha, i):
    """The paper's closed-form split weights of IID binary strings.

    ``a_i`` (``b_i``) is the expected new weight of length-i strings ending
    in 1 (in 0); they solve ``a_i = a_{i-1} + alpha * b_{i-1}``,
    ``b_i = b_{i-1} + (1 - alpha) * a_{i-1}`` from ``a_1 = alpha``.
    """
    r = math.sqrt(alpha * (1.0 - alpha))
    up = (1.0 + r) ** (i - 1)
    down = (1.0 - r) ** (i - 1)
    a = ((alpha - r) * down + (alpha + r) * up) / 2.0
    b = ((1.0 - alpha - r) * down + (1.0 - alpha + r) * up) / 2.0
    return a, b


def markov_matrix_series(model, n):
    """The paper's 4 x 4 Markov construction, for interior chains only.

    New weight is split by the last two letters, in state order
    (11, 10, 01, 00); the transfer matrix divides by alpha and 1 - beta.
    """
    a, b, g = model.alpha, model.beta, model.gamma
    mat = [
        [a, 0, a, 0],
        [1 - a, a, 1 - a, b * (1 - a) / (1 - b)],
        [(1 - a) * b / a, b, 1 - b, b],
        [0, 1 - b, 0, 1 - b],
    ]
    vec = [g * a, g * (1 - a), (1 - g) * b, (1 - g) * (1 - b)]
    values = [sum(vec)]
    for _ in range(n - 1):
        vec = [sum(x * y for x, y in zip(row, vec)) for row in mat]
        values.append(values[-1] + sum(vec))
    return tuple(values)


def test_closed_form_fair_matches_doubling_rule():
    """At alpha = 1/2 the formula collapses to 2 * 1.5^n - 2, exactly."""
    for n in range(1, 34):
        assert closed_form_binary(0.5, n) == 2.0 * 1.5**n - 2.0


def test_closed_form_degenerate_alphabet():
    assert closed_form_binary(0.0, 7) == 7.0
    assert closed_form_binary(1.0, 7) == 7.0


def test_closed_form_small_values():
    assert closed_form_binary(0.5, 1) == 1.0
    assert closed_form_binary(0.5, 2) == 2.5
    assert math.isclose(closed_form_binary(0.3, 2), 2.42, rel_tol=1e-12)


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(ValueError):
        closed_form_binary(-0.1, 3)
    with pytest.raises(ValueError):
        closed_form_binary(1.2, 3)
    with pytest.raises(ValueError):
        closed_form_binary(0.5, -1)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_closed_form_matches_oracle(alpha):
    series = exhaustive_expectation(IIDModel.binary(alpha), 10)
    for n in range(1, 11):
        expected = float(series.value_at(n))
        got = closed_form_binary(float(alpha), n)
        assert math.isclose(got, expected, rel_tol=1e-11)


def test_asymptotic_constants_fair():
    base, prefactor = asymptotic_constants(0.5)
    assert base == 1.5
    assert prefactor == 2.0


def test_asymptotic_constants_skewed():
    base, prefactor = asymptotic_constants(0.3)
    r = math.sqrt(0.3 * 0.7)
    assert math.isclose(base, 1 + r, rel_tol=1e-15)
    assert math.isclose(prefactor, (1 + 2 * r) / (2 * r), rel_tol=1e-15)
    with pytest.raises(ValueError):
        asymptotic_constants(0.0)


def test_ab_explicit_first_terms():
    """The closed form reproduces the split recurrence term by term."""
    for i, want in enumerate((0.5, 0.75, 1.125), start=1):
        a, b = ab_explicit(0.5, i)
        assert math.isclose(a, want, rel_tol=1e-15)
        assert math.isclose(b, want, rel_tol=1e-15)
    a, b = ab_explicit(0.25, 2)
    assert math.isclose(a, 0.25 + 0.25 * 0.75, rel_tol=1e-15)
    assert math.isclose(b, 0.75 + 0.75 * 0.25, rel_tol=1e-15)
    for alpha in (0.1, 0.3, 0.5, 0.8):
        for i in range(2, 21):
            (pa, pb), (a, b) = ab_explicit(alpha, i - 1), ab_explicit(alpha, i)
            assert math.isclose(a, pa + alpha * pb, rel_tol=1e-12)
            assert math.isclose(b, pb + (1 - alpha) * pa, rel_tol=1e-12)


def test_ab_explicit_matches_engine_increments():
    """a_i + b_i is the engine's expected new count at length i."""
    for alpha in (0.1, 0.3, 0.5, 0.8):
        values = (0.0,) + iid_matrix_expectation(IIDModel.binary(alpha), 20).values
        for i in range(1, 21):
            a, b = ab_explicit(alpha, i)
            assert math.isclose(values[i] - values[i - 1], a + b, rel_tol=1e-12)


def test_ab_totals_recover_expectation():
    """Summing the per-position weights reproduces the closed form and the engine."""
    for alpha in (0.2, 0.5, 0.7):
        series = iid_matrix_expectation(IIDModel.binary(alpha), 12)
        for n in (1, 5, 12):
            total = sum(sum(ab_explicit(alpha, i)) for i in range(1, n + 1))
            assert math.isclose(total, closed_form_binary(alpha, n), rel_tol=1e-12)
            assert math.isclose(total, series.value_at(n), rel_tol=1e-12)


def test_iid_matrix_exact_binary():
    model = IIDModel.binary(Fraction(1, 2))
    series = iid_matrix_expectation(model, 4)
    assert series.mode == "exact"
    assert series.values == exhaustive_expectation(model, 4).values


def test_iid_matrix_exact_ternary_skewed():
    model = IIDModel((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    assert iid_matrix_expectation(model, 6).values == exhaustive_expectation(
        model, 6
    ).values


def test_iid_matrix_float_mode_tracks_closed_form():
    series = iid_matrix_expectation(IIDModel.binary(0.3), 40)
    assert series.mode == "float"
    for n in (1, 10, 25, 40):
        assert math.isclose(
            series.value_at(n), closed_form_binary(0.3, n), rel_tol=1e-11
        )


def test_iid_matrix_mode_override():
    model = IIDModel.binary(Fraction(1, 2))
    series = iid_matrix_expectation(model, 6, mode="float")
    assert series.mode == "float"
    assert isinstance(series.value_at(6), float)


def test_markov_engine_matches_oracle_exactly():
    grid = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
    for alpha in grid:
        for beta in grid:
            model = MarkovModel(alpha, beta)
            assert (
                markov_expectation(model, 8).values
                == exhaustive_expectation(model, 8).values
            )


def test_markov_reduces_to_iid_on_diagonal():
    """alpha == beta makes tomorrow independent of today."""
    for p in (0.3, 0.5, 0.7):
        series = markov_expectation(MarkovModel(p, p), 40)
        for n in (1, 5, 20, 40):
            assert math.isclose(
                series.value_at(n), closed_form_binary(p, n), rel_tol=1e-9
            )


def test_markov_matrix_reference_matches_engine():
    """The paper's 4 x 4 iteration equals the engine on c05's interior grid."""
    grid = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
    for alpha, beta in itertools.product(grid, repeat=2):
        model = MarkovModel(alpha, beta)
        assert markov_matrix_series(model, 12) == markov_expectation(model, 12).values


def test_markov_boundary_chains_match_oracle():
    """Chains with alpha or beta at 0 or 1 need no special case."""
    assert len(CHAINS) == 24
    for alpha, beta in CHAINS:
        model = MarkovModel(alpha, beta)
        assert (
            markov_expectation(model, 12).values
            == exhaustive_expectation(model, 12).values
        ), model.describe()


def test_engines_check_the_model_type():
    with pytest.raises(TypeError):
        iid_matrix_expectation(MarkovModel(Fraction(1, 2), Fraction(1, 2)), 3)
    with pytest.raises(TypeError):
        markov_expectation(IIDModel.binary(Fraction(1, 2)), 3)


def test_markov_model_rejects_undefined_start():
    with pytest.raises(ValueError):
        MarkovModel(Fraction(1), Fraction(0))


def test_series_accessors():
    series = iid_matrix_expectation(IIDModel.binary(Fraction(1, 2)), 3)
    assert series.value_at(1) == Fraction(1)
    assert series.final() == Fraction(19, 4)
    assert series.values == (1, Fraction(5, 2), Fraction(19, 4))
    with pytest.raises(IndexError):
        series.value_at(0)
    with pytest.raises(IndexError):
        series.value_at(4)


@st.composite
def rational_models(draw):
    """IID models with d = 1..4 letters, denominators up to 10 and zero
    probabilities allowed, or binary chains with alpha, beta in {k/10}."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        q = draw(st.integers(1, 10))
        cuts = sorted(draw(st.lists(st.integers(0, q), min_size=d - 1, max_size=d - 1)))
        edges = [0] + cuts + [q]
        return IIDModel(tuple(Fraction(hi - lo, q) for lo, hi in zip(edges, edges[1:])))
    tenths = st.integers(0, 10).map(lambda k: Fraction(k, 10))
    alpha, beta = draw(
        st.tuples(tenths, tenths).filter(lambda ab: ab != (Fraction(1), Fraction(0)))
    )
    return MarkovModel(alpha, beta)


def engine_series(model, n, mode="auto"):
    if isinstance(model, IIDModel):
        return iid_matrix_expectation(model, n, mode=mode)
    return markov_expectation(model, n, mode=mode)


@given(rational_models(), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_exact_engine_equals_oracle(model, n):
    # keep the walk under 3**8 paths: four-letter models stop at n = 6
    n = min(n, 6) if isinstance(model, IIDModel) and model.d == 4 else n
    series = engine_series(model, n)
    assert series.mode == "exact"
    assert series.values == exhaustive_expectation(model, n).values


@given(rational_models(), st.integers(1, 60))
@settings(max_examples=30, deadline=None)
def test_float_engine_tracks_exact(model, n):
    exact = engine_series(model, n).values
    floats = engine_series(model, n, mode="float")
    assert floats.mode == "float"
    for got, want in zip(floats.values, exact):
        assert math.isclose(got, want, rel_tol=1e-12)


def uniform_ln(d, n):
    """ln E_n for d uniform letters: E_n = ((2 - 1/d)**n - 1) / (1 - 1/d)."""
    grow = n * math.log(2 - 1 / d)
    return grow + math.log1p(-math.exp(-grow)) - math.log1p(-1 / d)


FLOAT_MAX_LN = math.log(2.0**1023 * (2 - 2.0**-52))


@pytest.mark.parametrize("d,first_ln_row", [(26, 1054), (2, 1749)])
def test_float_rows_past_the_range_hold_ln(d, first_ln_row):
    """Rows from the first n whose true E_n exceeds float64 hold ln(E_n);
    beside that boundary both kinds of row match the analytic value (for
    fair bits E_n = 2 * 1.5**n - 2)."""
    n = 2000
    series = iid_matrix_expectation(IIDModel.uniform(d), n, mode="float")
    assert series.log_rows == n - first_ln_row + 1
    assert uniform_ln(d, first_ln_row - 1) < FLOAT_MAX_LN < uniform_ln(d, first_ln_row)
    for i in range(first_ln_row - 40, n + 1):
        value = series.value_at(i)
        got = value if i >= first_ln_row else math.log(value)
        assert math.isclose(got, uniform_ln(d, i), rel_tol=1e-13), i


FLOAT_MODELS = [
    IIDModel.uniform(26),
    IIDModel((0.2, 0.3, 0.5)),
    IIDModel((0.5, 0.0, 0.5)),
    MarkovModel(0.7, 0.3),
    MarkovModel(0.2, 0.9),
    MarkovModel(1.0, 0.5),
]


@pytest.mark.parametrize(
    "model", FLOAT_MODELS, ids=["d26", "d3", "zero-letter", "chain.7,.3", "chain.2,.9", "chain1,.5"]
)
def test_float_rows_are_finite_and_increasing(model):
    """No row is inf or nan; the values rise up to the ln rows, and the ln
    rows (a suffix) rise from ln of the float range on."""
    series = engine_series(model, 3000, mode="float")
    split = len(series) - series.log_rows
    plain, logs = series.values[:split], series.values[split:]
    assert all(math.isfinite(v) for v in series.values)
    assert all(a < b for a, b in zip(plain, plain[1:]))
    assert all(a < b for a, b in zip(logs, logs[1:]))
    assert not logs or FLOAT_MAX_LN < logs[0] < FLOAT_MAX_LN + 1


def test_markov_float_ln_rows_track_the_exact_engine():
    """The chain's ln rows agree with ln of its exact rationals."""
    model = MarkovModel(Fraction(7, 10), Fraction(3, 10))
    exact = markov_expectation(model, 2100)
    floats = markov_expectation(model, 2100, mode="float")
    assert floats.log_rows == 2100 - 2031 + 1
    for i in (2030, 2031, 2100):
        want = exact.value_at(i)
        ln_want = math.log(want.numerator) - math.log(want.denominator)
        got = floats.value_at(i)
        assert math.isclose(got if i >= 2031 else math.log(got), ln_want, rel_tol=1e-13)


def test_exact_series_past_the_float_range_stay_rational():
    """Exact mode never rescales: E_1800 of fair bits, past float64, is the
    rational 2 * (3/2)**1800 - 2 and the series has no ln rows."""
    series = iid_matrix_expectation(IIDModel.binary(Fraction(1, 2)), 1800)
    assert series.log_rows == 0
    assert series.final() == 2 * Fraction(3, 2) ** 1800 - 2


def _perfbench_checks():
    """``perfbench/checks.py``, loaded by path: its references are
    independent of the engine."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Exact mode scales the start by q0 and the steps by q, the lcm of their
# denominators. The 1/3,1/7 chain starts at (14/17, 3/17) with steps over
# 21, so q0 != q; the others hold a zero letter, one letter, or a boundary
# chain (0,1 alternates; 1,1/2 starts in state 1 and stays there).
INTEGER_SCALE_MODELS = [
    MarkovModel(Fraction(1, 3), Fraction(1, 7)),
    IIDModel((Fraction(1, 3), Fraction(0), Fraction(2, 3))),
    IIDModel((Fraction(1),)),
    MarkovModel(Fraction(0), Fraction(1)),
    MarkovModel(Fraction(1), Fraction(1, 2)),
]


@pytest.mark.parametrize("model", INTEGER_SCALE_MODELS, ids=lambda m: m.describe())
def test_integer_numerators_equal_oracle(model):
    series = engine_series(model, 10)
    assert series.values == exhaustive_expectation(model, 10).values
    assert all(type(v) is Fraction for v in series.values)


def test_integer_numerators_pin_uniform_d26_row():
    """Row 200 of 26 uniform letters, against the symmetric closed form."""
    want = _perfbench_checks().uniform_iid_exact(26, 200)[-1]
    assert iid_matrix_expectation(IIDModel.uniform(26), 200).final() == want
