"""Tests for the expectation engines: the closed form and the letter-source
recurrence, cross-checked against the oracle and against the paper's own
constructions (the split-weight closed form and the 4 x 4 Markov matrix),
which live here as reference implementations."""

import importlib.util
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import engine_series, rational_models
from reference import asymptotic_constants, float_twin, per_letter_series
from subseqlab import (
    IIDModel,
    MarkovModel,
    SizeGuardError,
    closed_form_binary,
    exhaustive_expectation,
    iid_matrix_expectation,
    markov_expectation,
    parse_probability,
)
from subseqlab import expectation
from subseqlab.expectation import Ratio

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


# Chains whose step table is pinned entry by entry: exact, float, and
# boundary chains holding int probabilities.
STEP_CHAINS = [
    pytest.param(Fraction(7, 10), Fraction(3, 10), id="7/10,3/10"),
    pytest.param(0.7, 0.3, id="0.7,0.3"),
    pytest.param(0, 1, id="0,1"),
    pytest.param(1, Fraction(1, 2), id="1,1/2"),
    pytest.param(Fraction(1, 2), 0, id="1/2,0"),
]


@pytest.mark.parametrize("alpha,beta", STEP_CHAINS)
def test_markov_steps_follow_their_rule(alpha, beta):
    """``steps[c][s][s2]`` is ``T[s][c]`` when ``s2 == c`` and the int 0
    otherwise, with ``T = ((1 - beta, beta), (1 - alpha, alpha))``; each
    entry keeps its type (Fraction, float or int)."""
    t = ((1 - beta, beta), (1 - alpha, alpha))
    want = [[[t[s][c] if s2 == c else 0 for s2 in (0, 1)] for s in (0, 1)] for c in (0, 1)]
    _, steps = expectation._letter_source(MarkovModel(alpha, beta))

    def typed(table):
        return [[[(type(x), x) for x in row] for row in step] for step in table]

    assert typed(steps) == typed(want)


# (alpha, beta) -> gamma: exact and integer-boundary chains keep a Fraction,
# and one float probability makes gamma a float.
GAMMAS = [
    pytest.param(Fraction(3, 10), Fraction(7, 10), Fraction(1, 2), id="exact"),
    pytest.param(0, 0, Fraction(0), id="0,0"),
    pytest.param(0, 1, Fraction(1, 2), id="0,1"),
    pytest.param(1, Fraction(1, 2), Fraction(1), id="1,1/2"),
    pytest.param(0.3, 0.7, 0.7 / (1 + 0.7 - 0.3), id="float"),
    pytest.param(Fraction(1, 2), 0.25, 0.25 / 0.75, id="mixed-beta-float"),
    pytest.param(0.5, Fraction(1, 4), 0.25 / 0.75, id="mixed-alpha-float"),
]


@pytest.mark.parametrize("alpha,beta,want", GAMMAS)
def test_gamma_value_and_type(alpha, beta, want):
    gamma = MarkovModel(alpha, beta).gamma
    assert type(gamma) is type(want)
    assert gamma == want


def test_series_accessors():
    series = iid_matrix_expectation(IIDModel.binary(Fraction(1, 2)), 3)
    assert series.value_at(1) == Fraction(1)
    assert series.final() == Fraction(19, 4)
    assert type(series.value_at(2)) is type(series.final()) is Fraction
    assert series.values == (1, Fraction(5, 2), Fraction(19, 4))
    with pytest.raises(IndexError):
        series.value_at(0)
    with pytest.raises(IndexError):
        series.value_at(4)


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
    floats = engine_series(float_twin(model), n)
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
    series = iid_matrix_expectation(float_twin(IIDModel.uniform(d)), n)
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
    series = engine_series(float_twin(model), 3000)
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
    floats = markov_expectation(float_twin(model), 2100)
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


def test_exact_budget_is_checked_before_the_first_step(monkeypatch):
    """An exact run predicts ``n * D**2 / 3`` squared digits, D the digits
    of its last row's scale, and stops over ``EXACT_GUARD`` before any
    step: with q = 10 and q0 = 1, n = 30 predicts 9000 and n = 31 about
    9930, and n = 10**400 is refused at once rather than run or overflowed."""
    ten = IIDModel.uniform(10)
    monkeypatch.setattr(expectation, "EXACT_GUARD", 9000)
    assert len(iid_matrix_expectation(ten, 30)) == 30
    text = ("exact rows to n=31 reach 31 digits: a predicted cost of 9.93e+03 "
            "squared digits, over the exact guard of 9e+03")
    with pytest.raises(SizeGuardError, match=f"^{re.escape(text)}$"):
        iid_matrix_expectation(ten, 31)
    with pytest.raises(SizeGuardError):
        markov_expectation(MarkovModel(Fraction(7, 10), Fraction(3, 10)), 31)
    monkeypatch.undo()
    with pytest.raises(SizeGuardError, match="^exact rows to n=1000+ reach "):
        iid_matrix_expectation(IIDModel.binary(Fraction(1, 2)), 10**400)
    assert iid_matrix_expectation(float_twin(ten), 31).mode == "float"  # floats are not priced


def test_float_rows_are_checked_before_the_first_step(monkeypatch):
    """A float run priced over ``FLOAT_GUARD`` row operations stops before
    any step: d**2 for its law table and d * m * (m + 1) a row, its L <= d
    laws counted as d. An exact run is priced by its budget alone. The guard
    admits ``expect --engine markov --markov 0.7,0.3 --n 1000000`` and
    ``--engine closed --alpha 0.5 --n 1000000``, and refuses 2 * 10**6 rows
    over 300 letters, which cost about half a millisecond a row."""
    chain = MarkovModel(0.7, 0.3)
    assert expectation.FLOAT_GUARD >= 2**2 + 10**6 * 2 * 2 * 3  # the chain, d = m = 2
    assert expectation.FLOAT_GUARD >= 2**2 + 10**6 * 2 * 1 * 2  # binary IID, m = 1
    with pytest.raises(SizeGuardError, match=r"^float rows to n=10{400} cost 2\*\*2 \+ n\*4 row "):
        iid_matrix_expectation(IIDModel.binary(0.5), 10**400)
    weights = IIDModel(tuple(i / 45150 for i in range(1, 301)))
    with pytest.raises(SizeGuardError, match=r"^float rows to n=2000000 cost 300\*\*2 \+ n\*600 row "):
        iid_matrix_expectation(weights, 2 * 10**6)
    monkeypatch.setattr(expectation, "FLOAT_GUARD", 2**2 + 30 * 12)
    assert len(markov_expectation(chain, 30)) == 30
    with pytest.raises(SizeGuardError, match=(
        r"^float rows to n=31 cost 2\*\*2 \+ n\*12 row operations, over the float guard of 364$"
    )):
        markov_expectation(chain, 31)
    assert iid_matrix_expectation(IIDModel.uniform(10), 31).mode == "exact"


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


def same_rows(series, want):
    """``series`` holds the rows and ln-row count of ``want``, a
    ``(values, log_rows)`` pair: bit for bit in float mode, ``==`` in exact."""
    def bits(values):
        return [v.hex() if isinstance(v, float) else v for v in values]
    return (bits(series.values), series.log_rows) == (bits(want[0]), want[1])


def iid_from_text(probs, exact):
    return IIDModel(tuple(parse_probability(p, exact) for p in probs.split(",")))


@st.composite
def repeated_law_models(draw):
    """IID models whose letters share one to three probabilities (weights
    0..9 over their total, each on one to four letters) in any order, as
    Fractions or as floats."""
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True).filter(any))
    letters = draw(st.permutations([w for w in weights for _ in range(draw(st.integers(1, 4)))]))
    model = IIDModel(tuple(Fraction(w, sum(letters)) for w in letters))
    return model if draw(st.booleans()) else float_twin(model)


@given(repeated_law_models(), st.integers(1, 120))
@settings(max_examples=40, deadline=None)
def test_letters_of_one_law_share_a_row_without_changing_any(model, n):
    assert same_rows(iid_matrix_expectation(model, n), per_letter_series(model, n))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_equal_probabilities_with_unequal_carries_keep_their_rows(exact):
    """Letters 0 and 3 have equal p, but in floats the other letters' sum,
    their carry, differs by one ulp between them, so they are two laws."""
    model = iid_from_text("0.188,0.02,0.604,0.188", exact)
    p = model.probs
    assert (p[1] + p[2] + p[3] != p[0] + p[1] + p[2]) is not exact
    assert same_rows(iid_matrix_expectation(model, 300), per_letter_series(model, 300))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_zero_probability_letters_change_no_row(exact):
    """Letters that never occur, appended or interleaved, leave every row of
    the fair coin as it was, past its rescaling and into its ln rows."""
    coin = iid_matrix_expectation(iid_from_text("0.5,0.5", exact), 2000)
    assert (coin.log_rows > 0) is not exact
    for probs in ("0.5,0.5,0,0,0", "0,0.5,0,0.5"):
        series = iid_matrix_expectation(iid_from_text(probs, exact), 2000)
        assert same_rows(series, (coin.values, coin.log_rows))


# 2**107 - 1, a 33-digit prime: a denominator holding it must reduce with
# no search for the primes of q.
MERSENNE_107 = 2**107 - 1


@st.composite
def repeated_prime_models(draw):
    """Exact IID models (one to four letters) or binary chains whose common
    denominator q holds a repeated prime (4, 8, 9, 12, 1000), a 33-digit
    prime, or both."""
    q = draw(st.sampled_from([4, 8, 9, 12, 1000, MERSENNE_107, 12 * MERSENNE_107]))
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        cuts = sorted(draw(st.lists(st.integers(0, q), min_size=d - 1, max_size=d - 1)))
        edges = [0] + cuts + [q]
        return IIDModel(tuple(Fraction(hi - lo, q) for lo, hi in zip(edges, edges[1:])))
    share = st.integers(0, q).map(lambda k: Fraction(k, q))
    alpha, beta = draw(st.tuples(share, share).filter(lambda ab: ab != (1, 0)))
    return MarkovModel(alpha, beta)


@given(repeated_prime_models(), st.integers(1, 150))
@settings(max_examples=60, deadline=None)
@example(IIDModel((Fraction(1, MERSENNE_107), 1 - Fraction(1, MERSENNE_107))), 300)
@example(MarkovModel(Fraction(1, 12), Fraction(5, 12 * MERSENNE_107)), 300)
@example(IIDModel((Fraction(1, 12), Fraction(5, 12), Fraction(1, 2))), 200)
# deterministic chains: row i is i * q**i / q**i, so q cancels i times
@example(MarkovModel(Fraction(1, 2), 0), 300)
@example(MarkovModel(1, Fraction(1, 2)), 300)
@example(MarkovModel(Fraction(3, 10), 0), 300)
def test_exact_rows_leave_the_engine_as_reduced_pairs(model, n):
    """Row i is a Ratio whose numerator and denominator are those of
    ``Fraction(total, q0 * q**i)``, recomputed with one row per letter."""
    rows = engine_series(model, n).rows
    want, _ = per_letter_series(model, n)
    assert all(type(r) is Ratio for r in rows)
    assert [(r.numerator, r.denominator) for r in rows] == [
        (f.numerator, f.denominator) for f in want
    ]


@pytest.mark.parametrize("model", [
    pytest.param(MarkovModel(Fraction(1, 2), 0), id="1/2,0"),
    pytest.param(MarkovModel(1, Fraction(1, 2)), id="1,1/2"),
    pytest.param(MarkovModel(Fraction(3, 10), 0), id="3/10,0"),
])
def test_reduction_takes_logarithmic_passes(model, monkeypatch):
    """A deterministic chain's row i is ``i * q**i / q**i``: q cancels i
    times, so dividing by one g per pass would take i passes a row (6 s
    for 1/2,0 at n = 3000). Stripping g, g**2, g**4, ... keeps the gcd
    passes per row within twice the bit length of n."""
    n = 3000
    calls = 0

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, *args):
            nonlocal calls
            calls += 1
            return math.gcd(*args)

    monkeypatch.setattr(expectation, "math", CountingMath())
    rows = markov_expectation(model, n).rows
    assert [(r.numerator, r.denominator) for r in rows] == [(i, 1) for i in range(1, n + 1)]
    assert n <= calls <= 2 * n.bit_length() * n


# Inputs each check of the model and engine layers refuses, with the
# message it raises.
REJECTED = [
    pytest.param(lambda: parse_probability("x"), "cannot parse probability 'x'", id="parse"),
    pytest.param(lambda: parse_probability("inf"), "cannot parse probability 'inf'", id="inf"),
    pytest.param(lambda: parse_probability(" nan"), "cannot parse probability 'nan'", id="nan"),
    pytest.param(lambda: parse_probability("1e400"), "cannot parse probability '1e400'",
                 id="past-float-range"),
    # its power of ten would take hours to build
    pytest.param(lambda: parse_probability("1e-999999999"),
                 "cannot parse probability '1e-999999999'", id="huge-exponent"),
    pytest.param(lambda: IIDModel((1.5, -0.5)), "letter probability must lie in [0, 1], got 1.5",
                 id="letter-range"),
    pytest.param(lambda: MarkovModel(0.5, 2), "beta must lie in [0, 1], got 2", id="chain-range"),
    pytest.param(lambda: IIDModel(()), "need at least one letter probability", id="empty"),
    pytest.param(lambda: IIDModel((Fraction(1, 2), Fraction(1, 3))),
                 "probabilities must sum to 1, got 5/6", id="exact-sum"),
    pytest.param(lambda: IIDModel((0.5, 0.4)),
                 "probabilities must sum to 1 within 1e-12, got 0.9", id="float-sum"),
    pytest.param(lambda: iid_matrix_expectation(IIDModel.uniform(2), 3, mode="float"),
                 "mode must be auto or exact, got 'float'", id="mode"),
    pytest.param(lambda: iid_matrix_expectation(IIDModel.binary(0.5), 3, mode="exact"),
                 "exact mode needs rational (Fraction) probabilities", id="exact-on-float"),
    pytest.param(lambda: markov_expectation(MarkovModel(0.5, 0.5), 0), "n must be at least 1",
                 id="length"),
]

@pytest.mark.parametrize("call,message", REJECTED)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@given(st.floats(0, 1), st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:.40f}", "{:.0e}"]))
@settings(max_examples=300)
def test_parse_probability_rounds_like_float(x, form):
    """Parsing as a Fraction and rounding once gives what float() gives."""
    text = form.format(x)
    assert parse_probability(text) == float(text)
    assert parse_probability(text, exact=True) == Fraction(text)
