"""Shared pytest wiring: echo the acceptance checklist after the run, and
helpers the test modules import."""

import sys

from subseqlab import LetterString


def extended(s: LetterString, letter: int) -> LetterString:
    """Copy of ``s`` with one letter appended."""
    return LetterString(s.alphabet, s.letters + (letter,))


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
