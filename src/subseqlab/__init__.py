"""Distinct-subsequence counting and random-string expectation toolkit.

Fast exact counting of distinct subsequences, brute-force oracles, expected
counts for random strings (the binary closed form, and one recurrence that
serves IID letters over any alphabet and the two-state Markov chain),
reproducible Monte Carlo estimation, and the root-solving analysis around
expected pattern-occurrence counts.

Each module's ``__all__`` is its public API, and the package re-exports
those lists unchanged; ``output`` and ``cli`` stay out of the package
namespace.
"""

from . import analysis, expectation, models, montecarlo, oracle, strings
from .analysis import *
from .expectation import *
from .models import *
from .montecarlo import *
from .oracle import *
from .strings import *

__version__ = "0.1.0"

__all__ = [
    *strings.__all__,
    *models.__all__,
    *expectation.__all__,
    *oracle.__all__,
    *montecarlo.__all__,
    *analysis.__all__,
]
