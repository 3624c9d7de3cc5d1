"""Distinct-subsequence counting and random-string expectation toolkit.

Fast exact counting of distinct subsequences, brute-force oracles, expected
counts for random strings (the binary closed form, and one recurrence that
serves IID letters over any alphabet and the two-state Markov chain),
reproducible Monte Carlo estimation, and the root-solving analysis around
expected pattern-occurrence counts.
"""

from .analysis import (
    BalanceRoots,
    RootResult,
    balance_minimum,
    balance_value,
    binary_entropy,
    expected_occurrences,
    occurrence_threshold,
    solve_balance,
)
from .expectation import (
    ExpectationSeries,
    closed_form_binary,
    iid_matrix_expectation,
    markov_expectation,
)
from .models import IIDModel, MarkovModel, parse_probability
from .montecarlo import (
    EstimateRecord,
    GrowthFit,
    SuperpatternRecord,
    estimate_expected_count,
    fit_growth_rate,
    sample_string,
    superpattern_experiment,
    superpattern_k,
    trial_rng,
)
from .oracle import (
    ENUMERATION_MAX,
    EXHAUSTIVE_GUARD,
    SizeGuardError,
    check_pair_structure,
    check_submultiplicativity,
    enumerate_distinct,
    exhaustive_expectation,
    superpattern_k_bruteforce,
    tree_row,
)
from .strings import (
    BINARY,
    Alphabet,
    IncrementalCounter,
    LetterString,
    count_distinct,
    new_subseq_counts,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BINARY",
    "LetterString",
    "IncrementalCounter",
    "new_subseq_counts",
    "count_distinct",
    "IIDModel",
    "MarkovModel",
    "parse_probability",
    "ExpectationSeries",
    "closed_form_binary",
    "iid_matrix_expectation",
    "markov_expectation",
    "ENUMERATION_MAX",
    "EXHAUSTIVE_GUARD",
    "SizeGuardError",
    "enumerate_distinct",
    "exhaustive_expectation",
    "tree_row",
    "check_pair_structure",
    "check_submultiplicativity",
    "superpattern_k_bruteforce",
    "EstimateRecord",
    "GrowthFit",
    "SuperpatternRecord",
    "trial_rng",
    "sample_string",
    "estimate_expected_count",
    "fit_growth_rate",
    "superpattern_k",
    "superpattern_experiment",
    "RootResult",
    "BalanceRoots",
    "binary_entropy",
    "balance_value",
    "balance_minimum",
    "solve_balance",
    "occurrence_threshold",
    "expected_occurrences",
]
