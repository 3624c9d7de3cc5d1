"""Release checklist: twelve end-to-end criteria, one per test.

Each test prints (and records for the terminal summary) a single
``criterion NN: PASS/FAIL`` line, so the run log doubles as a sign-off
sheet. Tolerances live next to the criterion they protect.
"""

import functools
import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

from reference import asymptotic_constants
from subseqlab import (
    Alphabet,
    IIDModel,
    LetterString,
    MarkovModel,
    check_pair_structure,
    check_submultiplicativity,
    closed_form_binary,
    count_distinct,
    enumerate_distinct,
    estimate_expected_count,
    exhaustive_expectation,
    fit_growth_rate,
    iid_matrix_expectation,
    markov_expectation,
    occurrence_threshold,
    solve_balance,
    superpattern_k_bruteforce,
    tree_row,
)
from subseqlab.montecarlo import superpattern_k

RESULTS: list[str] = []


def criterion(number, label):
    """Run the test body, then log one PASS/FAIL line for the summary."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException as exc:
                RESULTS.append(f"criterion {number:02d}: FAIL  {label} ({exc!r})")
                raise
            line = f"criterion {number:02d}: PASS  {label} ({detail})"
            RESULTS.append(line)
            print(line)

        return run

    return wrap


@criterion(1, "fast counter equals exhaustive enumeration")
def test_c01_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for d, n in ((2, 12), (3, 8)):
        for letters in itertools.product(range(d), repeat=n):
            s = LetterString.from_letters(letters, Alphabet(d))
            assert count_distinct(s) == len(enumerate_distinct(s)), letters
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    return f"{checked} strings, {elapsed:.1f}s"


@criterion(2, "contribution-tree rows match the hand-computed tables")
def test_c02_tree_rows():
    assert tree_row(2, 0) == (0,)
    assert tree_row(2, 1) == (1, 1)
    assert tree_row(2, 2) == (1, 2, 2, 1)
    assert tree_row(2, 3) == (1, 3, 3, 2, 2, 3, 3, 1)
    assert tree_row(3, 2) == (1, 2, 2, 2, 1, 2, 2, 2, 1)
    return "binary rows 0-3 and ternary row 2"


@criterion(3, "closed form tracks the oracle and the fair-coin identity")
def test_c03_closed_form():
    worst = 0.0
    for k in range(1, 10):
        alpha = Fraction(k, 10)
        series = exhaustive_expectation(IIDModel.binary(alpha), 12)
        for n in range(1, 13):
            exact = float(series.value_at(n))
            got = closed_form_binary(k / 10, n)
            worst = max(worst, abs(got - exact) / exact)
    assert worst <= 1e-9, f"worst relative error {worst:.3e}"
    for n in range(1, 34):
        assert closed_form_binary(0.5, n) + 1.0 == 2.0 * 1.5**n - 1.0
    return f"9 alphas x 12 lengths, worst rel err {worst:.1e}"


@criterion(4, "engine equals the oracle on IID letters: exact small-n, float large-n")
def test_c04_iid_matrix_engine():
    models = [
        IIDModel.uniform(2),
        IIDModel.uniform(3),
        IIDModel.uniform(4),
        IIDModel.binary(Fraction(3, 10)),
        IIDModel((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
        IIDModel((Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10))),
    ]
    for model in models:
        assert (
            iid_matrix_expectation(model, 8).values
            == exhaustive_expectation(model, 8).values
        ), model.describe()
    series = iid_matrix_expectation(IIDModel.binary(0.3), 40)
    worst = max(
        abs(series.value_at(n) - closed_form_binary(0.3, n))
        / closed_form_binary(0.3, n)
        for n in range(1, 41)
    )
    assert worst <= 1e-9, f"float drift {worst:.3e}"
    return f"{len(models)} exact models to n=8, float drift {worst:.1e} to n=40"


@criterion(5, "engine equals the oracle on two-state chains, reduces on the diagonal")
def test_c05_markov_engine():
    grid = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
    for alpha, beta in itertools.product(grid, repeat=2):
        model = MarkovModel(alpha, beta)
        assert (
            markov_expectation(model, 12).values
            == exhaustive_expectation(model, 12).values
        ), model.describe()
    worst = 0.0
    for p in (0.3, 0.5, 0.7):
        series = markov_expectation(MarkovModel(p, p), 40)
        for n in range(1, 41):
            ref = closed_form_binary(p, n)
            worst = max(worst, abs(series.value_at(n) - ref) / ref)
    assert worst <= 1e-9, f"diagonal drift {worst:.3e}"
    return f"9 exact chains to n=12, diagonal drift {worst:.1e} to n=40"


@criterion(6, "equal-pair layout of the binary tree rows")
def test_c06_pair_structure():
    for n in range(2, 13):
        assert check_pair_structure(n), n
    return "rows n=2..12"


@criterion(7, "empty-inclusive expectations are submultiplicative")
def test_c07_submultiplicative():
    cases = 0
    for model in (
        IIDModel.binary(Fraction(1, 2)),
        IIDModel.binary(Fraction(3, 10)),
        IIDModel.uniform(3),
    ):
        for n in range(1, 12):
            for m in range(1, 12):
                if n + m > 12:
                    continue
                assert check_submultiplicativity(model, n, m), (
                    model.describe(), n, m,
                )
                cases += 1
    return f"{cases} (n, m) splits across 3 models"


@criterion(8, "Monte Carlo mean brackets the exact value at n=30")
def test_c08_monte_carlo():
    start = time.monotonic()
    record = estimate_expected_count(
        IIDModel.binary(0.5), 30, 100_000, seed=20260819, workers=2
    )
    elapsed = time.monotonic() - start
    truth = 2.0 * 1.5**30 - 2.0
    z = (record.mean - truth) / record.stderr
    assert abs(z) <= 4.0, f"z = {z:.2f}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    return f"z = {z:+.2f} over 100k trials, {elapsed:.1f}s"


@criterion(9, "growth-constant fits: analytic within 0.5%, sampled within 2%")
def test_c09_growth_fits():
    for alpha in (0.3, 0.5):
        ns = list(range(10, 41))
        fit = fit_growth_rate(ns, [math.log(closed_form_binary(alpha, n)) for n in ns])
        base, _ = asymptotic_constants(alpha)
        rel = abs(fit.c - base) / base
        assert rel <= 5e-3, f"alpha={alpha}: {rel:.3e}"
    ns = range(10, 41, 5)
    records = [estimate_expected_count(IIDModel.binary(0.5), n, 4000, 99, stream=i)
               for i, n in enumerate(ns)]
    mc = fit_growth_rate(ns, [r.log_mean() for r in records])
    mc_rel = abs(mc.c - 1.5) / 1.5
    assert mc_rel <= 2e-2, f"sampled fit off by {mc_rel:.3e}"
    return f"analytic grids 10..40, sampled rel err {mc_rel:.1e}"


@criterion(10, "balance roots and the entropy fixed point")
def test_c10_balance_and_threshold():
    roots = solve_balance(0.75)
    assert roots.lower is not None
    assert abs(roots.lower.x - 0.1230623) <= 1e-3
    assert abs(roots.upper.x - 0.5705521) <= 1e-3
    assert abs(roots.lower.residual) <= 1e-12
    assert abs(roots.upper.residual) <= 1e-12
    fixed = occurrence_threshold()
    assert abs(fixed.x - 0.7729078) <= 1e-4
    assert abs(fixed.residual) <= 1e-12
    return "roots of 0.75 plus the 0.77291 fixed point"


@criterion(11, "greedy cover length equals brute force on every short binary string")
def test_c11_superpattern():
    checked = 0
    for n in range(0, 15):
        for letters in itertools.product((0, 1), repeat=n):
            s = LetterString.from_letters(letters, Alphabet(2))
            assert superpattern_k(s) == superpattern_k_bruteforce(s), letters
            checked += 1
    return f"{checked} strings to length 14"


@criterion(12, "CLI simulation output is byte-identical run to run")
def test_c12_cli_determinism():
    argv = [
        sys.executable, "-m", "subseqlab.cli",
        "simulate", "--model", "iid", "--alpha", "0.5",
        "--grid", "10:20:5", "--trials", "120", "--seed", "7",
        "--fit-growth", "--out", "json", "--workers", "2",
    ]
    first = subprocess.run(argv, capture_output=True, check=True).stdout
    second = subprocess.run(argv, capture_output=True, check=True).stdout
    assert first == second and first
    return f"{len(first)} bytes, two runs"
