"""Shared pytest wiring: echo the acceptance checklist after the run, and
helpers the test modules import."""

import sys
from fractions import Fraction

from hypothesis import strategies as st

from subseqlab import (
    IIDModel,
    LetterString,
    MarkovModel,
    iid_matrix_expectation,
    markov_expectation,
)


def extended(s: LetterString, letter: int) -> LetterString:
    """Copy of ``s`` with one letter appended."""
    return LetterString(s.alphabet, s.letters + (letter,))


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


def engine_series(model, n):
    if isinstance(model, IIDModel):
        return iid_matrix_expectation(model, n)
    return markov_expectation(model, n)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
