"""Counting distinct subsequences of strings over finite alphabets.

A subsequence is obtained by deleting letters at any positions; each
distinct value is counted once no matter how many ways it embeds. Counts
follow the nonempty convention: :func:`count_distinct` excludes the empty
subsequence, so the empty-inclusive count is one more.

Letters are integers ``0..d-1``. Counts are plain Python ints, which are
arbitrary precision; a length-n binary string can reach ``2**n - 1``
distinct subsequences, far past any fixed-width integer.

The counting recurrence is written in five forms, each shaped by what its
caller holds. Two live here: the batch kernel :func:`_count_distinct_fast`
(behind :func:`count_distinct`, one string as a list of letters) and the
streaming :class:`IncrementalCounter` (behind the per-letter profiles of
:func:`new_subseq_counts`, one letter at a time). ``montecarlo._count_block``
runs it on numpy arrays across a block of sampled strings, one letter of
each per step, since a Python loop per trial would dominate sampling.
``oracle._walk`` runs it in place on one table during the exhaustive
expectations' depth-first walk, undoing the one slot each step overwrites
when it backs up, so each string costs one step and no state is copied.
The first four store, per letter, the running total just before its last
occurrence, with -1 for a letter not seen yet, so
``nu = total - before_last[c]`` needs no branch. The fifth is what that
convention implies for a string's block, the new counts of its children:
appending c keeps entry c and adds it to every other entry. The oracle
builds the tree's rows with it, one block at a time down a walk
(``oracle._blocks``), then many blocks per slice assignment
(``oracle._expand``). ``tree-row`` and ``verify`` pull their rows and
strings from the oracle's generators.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

__all__ = [
    "Alphabet",
    "BINARY",
    "LetterString",
    "IncrementalCounter",
    "new_subseq_counts",
    "count_distinct",
]


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet whose letters are the integers ``0..size-1``."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"alphabet size must be a positive int, got {self.size!r}")

    def check_letter(self, letter: int) -> None:
        if not 0 <= letter < self.size:
            raise ValueError(
                f"letter {letter} out of range for alphabet of size {self.size}"
            )


BINARY = Alphabet(2)


@dataclass(frozen=True)
class LetterString:
    """Immutable string of letters over a fixed alphabet."""

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        letters = self.letters
        # one min and max in C; the walk names the first bad letter
        if letters and not 0 <= min(letters) <= max(letters) < self.alphabet.size:
            for letter in letters:
                self.alphabet.check_letter(letter)

    @classmethod
    def from_letters(
        cls, letters: Iterable[int], alphabet: Alphabet | None = None
    ) -> "LetterString":
        """Build from an iterable of ints; infers the alphabet if not given."""
        seq = tuple(int(x) for x in letters)
        if alphabet is None:
            alphabet = Alphabet(max(seq) + 1 if seq else 1)
        return cls(alphabet, seq)

    @classmethod
    def from_text(cls, text: str, alphabet: Alphabet | None = None) -> "LetterString":
        """Parse a digit string ("0110") or comma-separated letters ("2,1,0").

        The empty string parses to the empty LetterString. Digit form covers
        alphabets up to size 10; the comma form covers any size. Without an
        explicit alphabet, :meth:`from_letters` infers it.
        """
        text = text.strip()
        if "," in text:
            try:
                seq = tuple(int(tok.strip()) for tok in text.split(","))
            except ValueError:
                raise ValueError(f"cannot parse letters from {text!r}") from None
        elif set(text) <= set("0123456789"):  # digits, or the empty string
            seq = tuple(int(ch) for ch in text)
        else:
            raise ValueError(
                f"cannot parse {text!r}: expected digits or comma-separated integers"
            )
        if any(x < 0 for x in seq):
            raise ValueError(f"negative letter in {text!r}")
        return cls.from_letters(seq, alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


class IncrementalCounter:
    """Streaming counter of new and total distinct subsequences.

    Feeding letters in order yields, per letter, how many subsequences first
    appear with that letter and the running total of distinct nonempty
    subsequences.

    The recurrence, for letter c arriving after i-1 earlier letters: the new
    count is the running total minus the running total just before c's
    previous occurrence, taken as -1 when c has not occurred (so a new
    letter adds the total plus one). Keeping that saved total per letter
    makes each push O(1) big-integer additions. The state is a dict keyed
    by the letters seen, so its size never depends on the alphabet's.

    Single writer only; :meth:`snapshot` / :meth:`restore` go back to an
    earlier prefix without copying the counter.
    """

    __slots__ = ("alphabet", "_total", "_before_last")

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self._total = 0
        self._before_last: dict[int, int] = {}

    @property
    def total(self) -> int:
        """Distinct nonempty subsequences of everything pushed so far."""
        return self._total

    def push(self, letter: int) -> tuple[int, int]:
        """Append one letter; returns ``(new_count, running_total)``."""
        self.alphabet.check_letter(letter)
        nu = self._total - self._before_last.get(letter, -1)
        self._before_last[letter] = self._total
        self._total += nu
        return nu, self._total

    def snapshot(self):
        """Opaque state token; pass back to :meth:`restore` to rewind."""
        return self._total, dict(self._before_last)

    def restore(self, state) -> None:
        total, before = state
        self._total = total
        self._before_last = dict(before)


def _count_distinct_fast(letters, d: int) -> int:
    """Distinct nonempty subsequences of ``letters``, each in ``0..d-1``.

    The batch form of :meth:`IncrementalCounter.push` over a sequence of
    letters, without letter checks; its table holds d entries.
    """
    total = 0
    base = [-1] * d
    for c in letters:
        nu = total - base[c]
        base[c] = total
        total += nu
    return total


def new_subseq_counts(s: LetterString) -> tuple[int, ...]:
    """New-subsequence count contributed by each letter of ``s``, in order.

    Entry i is the number of distinct subsequences of the length-(i+1)
    prefix that are not subsequences of the length-i prefix. Every entry is
    at least 1 (the prefix itself is always new), the running sums are the
    distinct-subsequence counts of the prefixes, and the whole sum is
    :func:`count_distinct` of ``s``.
    """
    counter = IncrementalCounter(s.alphabet)
    return tuple(counter.push(x)[0] for x in s)


def count_distinct(s: LetterString) -> int:
    """Number of distinct nonempty subsequences of ``s`` (0 for the empty string)."""
    letters = s.letters
    d = max(letters, default=-1) + 1
    if d > len(letters):
        # Renumber sparse letters densely (the count does not depend on
        # their names), so the kernel's table is never longer than s.
        dense: dict[int, int] = {}
        letters = [dense.setdefault(c, len(dense)) for c in letters]
        d = len(dense)
    return _count_distinct_fast(letters, d)

