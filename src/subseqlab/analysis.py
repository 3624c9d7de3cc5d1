"""Embedding-count analysis: expected occurrence counts of a fixed pattern
and the balance and threshold equations they lead to.

The balance function ``g(x) = 2**x * x**x * (1-x)**(1-x)`` measures the
exponential rate of the expected number of embeddings of a pattern of
length x*n in a fair binary string of length n, normalised against a target
rate; its minimum 2/3 sits at x = 1/3 in closed form, and sub-unit
targets above it are hit twice in (0, 1). The threshold where the expected
embedding count itself drops below one solves ``H(x) = x`` with H the
base-2 binary entropy. Expected counts of IID models are one exact
product, rounded to a float once, for float and Fraction models alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .models import IIDModel
from .strings import LetterString

__all__ = [
    "BRACKET_TOL",
    "RESIDUAL_TOL",
    "RootResult",
    "BalanceRoots",
    "binary_entropy",
    "balance_value",
    "balance_minimum",
    "solve_balance",
    "occurrence_threshold",
    "expected_occurrences",
]

BRACKET_TOL = 1e-13
RESIDUAL_TOL = 1e-12
_EDGE = 1e-15


@dataclass(frozen=True)
class RootResult:
    """A bracketed root: location, defect against the target, final bracket."""

    x: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class BalanceRoots:
    """Both solutions of ``g(x) = target``. ``lower`` is None when only the
    increasing branch reaches the target (target at or near 1)."""

    lower: RootResult | None
    upper: RootResult


def binary_entropy(x: float) -> float:
    """Base-2 entropy ``-x log2 x - (1-x) log2 (1-x)``, zero at the endpoints."""
    if not 0 <= x <= 1:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x!r}")
    if x == 0 or x == 1:
        return 0.0
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


def balance_value(x: float) -> float:
    """``g(x) = 2**x * x**x * (1-x)**(1-x)``, extended continuously to [0, 1].

    ``x**x -> 1`` as x -> 0, which is Python's ``0.0 ** 0.0 == 1.0``, and
    likewise for the mirrored factor at x = 1, so g(0) = 1 and g(1) = 2.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"balance argument must lie in [0, 1], got {x!r}")
    return 2.0**x * x**x * (1.0 - x) ** (1.0 - x)


def _bisect(f, lo: float, hi: float, target: float = 0.0) -> RootResult:
    """Bisection for ``f(x) = target`` on [lo, hi]; endpoints must straddle."""
    f_lo = f(lo) - target
    f_hi = f(hi) - target
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    iterations = 0
    while hi - lo > BRACKET_TOL:
        mid = (lo + hi) / 2.0
        f_mid = f(mid) - target
        iterations += 1
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    x = (lo + hi) / 2.0
    return RootResult(x, f(x) - target, (lo, hi), iterations)


def balance_minimum() -> tuple[float, float]:
    """Location and value of the interior minimum of the balance function.

    The derivative of ``ln g``, ``ln 2 + ln(x / (1 - x))``, vanishes where
    ``x / (1 - x) = 1/2``, so the minimiser is x = 1/3 with g(1/3) = 2/3.
    """
    x_min = 1.0 / 3.0
    return x_min, balance_value(x_min)


def solve_balance(target: float) -> BalanceRoots:
    """Both roots of ``2**x * x**x * (1-x)**(1-x) = target`` inside (0, 1).

    g decreases from 1 (its limit at 0) to the interior minimum 2/3 at
    x = 1/3, then increases to 2 at x = 1, so each target in (2/3, 1) is hit
    once per branch, and each monotone branch is bisected to a 1e-13
    bracket. target = 1 is reached only on the increasing branch (lower is
    None); targets below the minimum have no root and raise.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must lie in (0, 1], got {target!r}")
    x_min, g_min = balance_minimum()
    if target < g_min - RESIDUAL_TOL:
        raise ValueError(
            f"no real roots: target {target} lies below the minimum "
            f"{g_min:.15f} of the balance function"
        )
    if target <= g_min:
        # grazing the minimum: double root
        grazing = RootResult(
            x_min, g_min - target, (x_min - 1e-9, x_min + 1e-9), 0
        )
        return BalanceRoots(grazing, grazing)
    upper = _bisect(balance_value, x_min, 1.0 - _EDGE, target=target)
    if balance_value(_EDGE) <= target:
        return BalanceRoots(None, upper)
    lower = _bisect(balance_value, _EDGE, x_min, target=target)
    return BalanceRoots(lower, upper)


def occurrence_threshold() -> RootResult:
    """Root of ``H(x) = x`` on (1/2, 1): the pattern-length fraction above
    which a fair binary string is expected to contain less than one
    embedding of a typical pattern. Equivalent to the balance function
    hitting 1 on its increasing branch."""
    return _bisect(lambda x: binary_entropy(x) - x, 0.5, 1.0 - _EDGE)


def expected_occurrences(
    n: int, pattern: LetterString, model: IIDModel, log_space: bool = False
) -> float:
    """Expected number of index-set embeddings of ``pattern`` in an IID
    random string of length n.

    Equals ``C(n, k)`` times the product of the pattern's letter
    probabilities, with k the pattern length. Computed exactly, as a
    big-integer binomial times the product of the probabilities as
    Fractions (a float converts to a Fraction exactly), and rounded to a
    float once. ``log_space=True`` returns the natural log instead, with
    -inf for zero-probability patterns; use it once the plain value
    overflows floats.
    """
    if not isinstance(model, IIDModel):
        raise TypeError(
            f"expected occurrences need an IIDModel, got {type(model).__name__}"
        )
    k = len(pattern)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k > n:
        raise ValueError(f"pattern length {k} exceeds n = {n}")
    for letter in pattern:
        if letter >= model.d:
            raise ValueError(
                f"pattern letter {letter} is outside the model's alphabet of size {model.d}"
            )
    if log_space:
        total = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        for letter in pattern:
            p = float(model.probs[letter])
            if p == 0.0:
                return -math.inf
            total += math.log(p)
        return total
    weight = Fraction(1)
    for letter in pattern:
        weight *= Fraction(model.probs[letter])
    try:
        return float(math.comb(n, k) * weight)
    except OverflowError:
        raise ValueError(
            "expected count overflows a float; call with log_space=True"
        ) from None
