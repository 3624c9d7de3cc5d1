"""Random letter-generation models: IID letters and a two-state Markov chain.

Models carry their probabilities either as exact rationals (Fractions or
ints) or as floats. Exact models feed the exact expectation engines and the
exhaustive oracle; float models feed the floating engines and the samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["IIDModel", "MarkovModel", "parse_probability"]

FLOAT_SUM_TOL = 1e-12


def is_exact_number(value) -> bool:
    """True for values usable in exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def parse_probability(text: str, exact: bool = False):
    """Parse "0.3" or "3/10" as a Fraction, returned as a float unless
    ``exact`` is set. inf, nan, exponents beyond 10000 (slow to build) and,
    as floats, values past the float range do not parse."""
    text = text.strip()
    exponent = text.lower().partition("e")[2]
    try:
        if exponent and abs(int(exponent)) > 10000:
            raise ValueError
        value = Fraction(text)
        return value if exact else float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"cannot parse probability {text!r}") from None


def _check_unit_interval(p, name: str) -> None:
    if not 0 <= p <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


@dataclass(frozen=True)
class IIDModel:
    """Independent letters: letter j is drawn with probability ``probs[j]``."""

    probs: tuple

    def __post_init__(self) -> None:
        if len(self.probs) < 1:
            raise ValueError("need at least one letter probability")
        for p in self.probs:
            _check_unit_interval(p, "letter probability")
        total = sum(self.probs)
        if self.is_exact:
            if total != 1:
                raise ValueError(f"probabilities must sum to 1, got {total}")
        elif abs(total - 1) > FLOAT_SUM_TOL:
            raise ValueError(
                f"probabilities must sum to 1 within {FLOAT_SUM_TOL}, got {total!r}"
            )

    @property
    def d(self) -> int:
        return len(self.probs)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_number(p) for p in self.probs)

    @classmethod
    def binary(cls, alpha) -> "IIDModel":
        """Binary model with ``Pr[letter 1] = alpha``."""
        _check_unit_interval(alpha, "alpha")
        return cls((1 - alpha, alpha))

    @classmethod
    def uniform(cls, d: int) -> "IIDModel":
        return cls(tuple(Fraction(1, d) for _ in range(d)))

    def as_floats(self) -> "IIDModel":
        return IIDModel(tuple(float(p) for p in self.probs))

    def letter_source(self) -> tuple:
        """``(start, steps)`` with one hidden state: ``steps[c] = [[p_c]]``.

        A letter source has m hidden states; ``start`` is their initial
        distribution and ``steps[c][s][s2]`` is the probability that the
        next letter is c and the source moves from s to s2.
        """
        return (1,), tuple(((p,),) for p in self.probs)

    def letter_rows(self) -> tuple:
        """``(rows, after)``: ``rows[0]`` is the law of the first letter and
        ``rows[after[c]]`` that of the letter after c. IID letters share one
        row."""
        return (self.probs,), (0,) * self.d

    def describe(self) -> str:
        return "iid(" + ",".join(str(p) for p in self.probs) + ")"


@dataclass(frozen=True)
class MarkovModel:
    """Two-state binary chain: ``Pr[1 after 1] = alpha``, ``Pr[1 after 0] = beta``.

    The first letter is drawn with the stationary probability of a one,
    ``gamma = beta / (1 + beta - alpha)``, which is what a phantom letter in
    front of the string (contributing no subsequences) produces.
    """

    alpha: object
    beta: object

    def __post_init__(self) -> None:
        _check_unit_interval(self.alpha, "alpha")
        _check_unit_interval(self.beta, "beta")
        if self.alpha == 1 and self.beta == 0:
            raise ValueError(
                "alpha=1, beta=0 has no stationary start (both states absorbing)"
            )

    @property
    def d(self) -> int:
        """Alphabet size: the chain is binary."""
        return 2

    @property
    def is_exact(self) -> bool:
        return is_exact_number(self.alpha) and is_exact_number(self.beta)

    @property
    def gamma(self):
        """Stationary probability that a letter is 1; a float if either probability is."""
        return Fraction(self.beta) / (1 + self.beta - self.alpha)

    def as_floats(self) -> "MarkovModel":
        return MarkovModel(float(self.alpha), float(self.beta))

    def letter_source(self) -> tuple:
        """Two hidden states, the last letter, started from stationarity.

        ``steps[c][s][s2] = T[s][c]`` when ``s2 == c`` and 0 otherwise, with
        ``T[s][1]`` the chance of a one after letter s.
        """
        a, b, g = self.alpha, self.beta, self.gamma
        return (1 - g, g), (((1 - b, 0), (1 - a, 0)), ((0, b), (0, a)))

    def letter_rows(self) -> tuple:
        """``(rows, after)``: the stationary first letter in ``rows[0]``, and
        the letter after c in ``rows[1 + c]``."""
        a, b, g = self.alpha, self.beta, self.gamma
        return ((1 - g, g), (1 - b, b), (1 - a, a)), (1, 2)

    def describe(self) -> str:
        return f"markov(alpha={self.alpha},beta={self.beta})"
