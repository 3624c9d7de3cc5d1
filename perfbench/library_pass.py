"""One pass through subseqlab's oracle API, run as a fresh interpreter.

    PYTHONPATH=src python3 perfbench/library_pass.py

Computes the exhaustive exact expectation of an interior Markov chain, then
sweeps the empty-inclusive submultiplicativity check over every split of
lengths up to SWEEP_TOTAL for uniform ternary letters, in the style of
acceptance criterion c07 (whose full grid is too slow to repeat here).
Prints one JSON object: the series as "p/q" strings and [n, m, ok] per split.
"""

from __future__ import annotations

import json
from fractions import Fraction

from subseqlab import IIDModel, MarkovModel, oracle

MARKOV = (Fraction(7, 10), Fraction(3, 10))
MARKOV_N = 16
SWEEP_D = 3
SWEEP_TOTAL = 9


def splits() -> list[tuple[int, int]]:
    return [(n, m) for n in range(1, SWEEP_TOTAL) for m in range(1, SWEEP_TOTAL + 1 - n)]


def main() -> None:
    # Module attribute lookups, so that a traced run sees these calls.
    series = oracle.exhaustive_expectation(MarkovModel(*MARKOV), MARKOV_N).values
    model = IIDModel.uniform(SWEEP_D)
    sweep = [[n, m, oracle.check_submultiplicativity(model, n, m)] for n, m in splits()]
    print(json.dumps({"series": [f"{v.numerator}/{v.denominator}" for v in series], "sweep": sweep}))


if __name__ == "__main__":
    main()
