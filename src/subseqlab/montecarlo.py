"""Seeded Monte Carlo estimation for random-string statistics.

Reproducibility contract: trials run in blocks of BLOCK (4096; fewer past
64 letters), and each block draws from its own counter-based random stream
(Philox) keyed by ``(master seed, stream, block index)``. Blocks are mapped
in order, and a block's values depend on nothing else, so a fixed seed gives
bit-identical results no matter how many workers run them. Reductions
always run over the per-trial values in trial order.

Every block runs through one function, :func:`_block`. It draws the letters of
all its trials in ``(rows, w)`` slabs of at most CELLS uniforms (one row per
trial), and a statistic consumes them one column (one letter of every
trial) at a time: the counting recurrence of
:func:`subseqlab.strings.count_distinct` run across rows, or the greedy
rounds of the superpattern statistic. :func:`sample_string` is the 1-row
case of the same sampler. Every letter comes from one inverse-CDF rule over
the model's ``letter_rows()``, run on each slab once per row, so the
sampler needs no case per model: a chain only picks, column by column,
each string's letter from the row it is in.

Counts are exact integers per trial: int64 while every count of a block
stays below 2**62, Python ints after. Once any count exceeds 2**53 a
float64 can no longer hold it exactly, so the estimate switches to log
space and the record carries a flag saying so.

Before a run draws a letter, :func:`_check_run` prices it in letter cells
and raises :class:`~subseqlab.expectation.SizeGuardError` over
SAMPLE_GUARD; that module loads only to raise it.

numpy and the process pool are imported by the functions that use them,
so importing the package (and every CLI command that does not sample)
loads neither.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .strings import Alphabet, LetterString
from .strings import _count_distinct_fast  # noqa: F401  (perfbench/crosscheck.py imports it from here)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "INT_EXACT_MAX",
    "DEGENERATE_SLOPE_EPS",
    "EstimateRecord",
    "GrowthFit",
    "SuperpatternRecord",
    "trial_rng",
    "sample_string",
    "estimate_expected_count",
    "fit_growth_rate",
    "superpattern_k",
    "superpattern_experiment",
]

INT_EXACT_MAX = 2**53
MAX_SEED = 2**64
BLOCK = 4096  # trials per random stream
STATE = 2**18  # letter state (rows * d) a block may hold: BLOCK rows up to d = 64
CELLS = 2**14  # uniforms per slab a block draws at a time
# What a sampler run may cost, in letter cells of about 25 ns each on a
# 2-core Xeon (see _price). A block's column costs COLUMN cells, and a trial
# TRIAL cells for its value, which the run holds to its end.
SAMPLE_GUARD = 5 * 10**8
COLUMN = 256
TRIAL = 200
SWITCH = 62  # a count after j < 62 letters is below 2**62, so those columns stay int64


def _block_size(d: int) -> int:
    """Trials per block: BLOCK, or fewer past 64 letters to keep STATE."""
    return min(BLOCK, max(1, STATE // d))


def _power_sums(ns: range) -> tuple[int, int, int]:
    """Length, sum and sum of squares of a range with a positive step, in O(1)."""
    a, s = ns.start, ns.step
    m = max(0, -(-(ns.stop - a) // s))
    pairs = m * (m - 1) // 2  # the sum of 0..m-1; the sum of their squares is pairs * (2m - 1) / 3
    return m, m * a + s * pairs, m * a * a + 2 * a * s * pairs + s * s * (pairs * (2 * m - 1) // 3)


def _price(counts: bool, d: int, ns: range, trials: int) -> int:
    """Letter cells a run of ``trials`` strings at each length in ``ns``
    costs, counting (``counts``) or finding the superpattern k.

    At each length n, a trial costs its n letter cells and TRIAL more, and a
    block COLUMN cells a column and one per entry of its ``rows * d`` state.
    A count past the int64 switch is weighted by its digits: its cell in
    column j holds up to j bits and costs ``16 + j / 256``, so a counting
    trial at n > SWITCH costs ``15 * (n - SWITCH) + (n * (n - 1) - SWITCH *
    (SWITCH - 1)) / 512`` more.
    """
    size = _block_size(d)
    m, total, _ = _power_sums(ns)
    price = -(-trials // size) * (COLUMN * total + m * size * d) + trials * (TRIAL * m + total)
    if counts:
        k, high, squares = _power_sums(ns[max(0, -(-(SWITCH - ns.start) // ns.step)):])
        extra = 512 * 15 * (high - SWITCH * k) + squares - high - SWITCH * (SWITCH - 1) * k
        price += -(-trials * extra // 512)
    return price


def _check_run(stat, model, ns: range, trials: int, seed: int) -> None:
    """Refuse a run of ``stat`` over the lengths ``ns`` before it draws a
    letter: bad input with ValueError, and a :func:`_price` over
    SAMPLE_GUARD with SizeGuardError."""
    if not isinstance(seed, int) or not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    counts = stat is _count_block  # a count needs 2 trials for its standard error
    if trials < 1 + counts:
        raise ValueError("need at least 2 trials for a standard error" if counts
                         else "need at least 1 trial")
    if ns.start < 0:
        raise ValueError("n must be nonnegative")
    price = _price(counts, model.d, ns, trials)
    if price > SAMPLE_GUARD:
        from .expectation import SizeGuardError

        exp = int(math.log10(price))  # the price may be past the float range
        raise SizeGuardError(
            f"trials={trials} at lengths up to n={ns[-1]} are priced at {price / 10**exp:.3g}"
            f"e+{exp:02d} letter cells, over the sample guard of {SAMPLE_GUARD:.3g}"
        )


def trial_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Independent Philox stream for one block of trials of one experiment."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def _slabs(model, rows: int, n: int, rng: np.random.Generator):
    """Letters of ``rows`` strings of length n drawn from one stream, as
    ``(rows, w)`` integer slabs from left to right, ``w = CELLS // rows``.

    Each letter is the inverse CDF of its law at one uniform u: how many
    running sums of its :meth:`letter_rows` row, the last (1) left out, are
    at most u, so never more than d - 1. One ``searchsorted`` per row
    answers a whole slab. A one-row model's letters are independent, so
    that answer is the slab; a chain walks it column by column, each string
    taking letter c from the row it is in and moving to row ``after[c]``.
    The rows reached carry into the next slab, and as only one slab is held
    at a time, a block never holds its whole ``(rows, n)`` letter matrix.
    """
    import numpy as np

    table, after = model.letter_rows()
    cuts = np.array(table, dtype=np.float64).cumsum(axis=1)[:, :-1]
    after = np.array(after, dtype=np.intp)
    state = np.zeros(rows, dtype=np.intp)  # every string starts at row 0
    width = max(1, CELLS // rows)
    for lo in range(0, n, width):
        u = rng.random((rows, min(width, n - lo)))
        # one answer per row; indexing cuts is cheaper than iterating it
        cand = [np.searchsorted(cuts[r], u, side="right") for r in range(len(cuts))]
        if len(cand) > 1:
            cand, ar = np.stack(cand), np.arange(rows)
            for j in range(u.shape[1]):
                cand[0, :, j] = c = cand[state, ar, j]
                state = after[c]
        yield cand[0]


def _sample_letters(model, n: int, rng: np.random.Generator) -> list[int]:
    """Letters of one string: the 1-row case of :func:`_slabs`."""
    letters: list[int] = []
    for slab in _slabs(model, 1, n, rng):
        letters += slab[0].tolist()
    return letters


def sample_string(model, n: int, rng: np.random.Generator) -> LetterString:
    """One random string of length n drawn from the model."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    letters = tuple(_sample_letters(model, n, rng))
    return LetterString(Alphabet(model.d), letters)


def _count_block(columns, rows: int, d: int) -> list[int]:
    """:func:`_count_distinct_fast` of ``rows`` strings at once, fed one
    column of letters (one letter per string) at a time.

    Counts stay in int64 while all are below 2**62, where ``2 * total + 1``
    still fits, and are Python ints (object arrays) after that.
    """
    import numpy as np

    off = np.arange(rows) * d  # row r's entry for letter c is base[off[r] + c]
    total = np.zeros(rows, dtype=np.int64)
    base = np.full(rows * d, -1, dtype=np.int64)
    for c in columns:
        if total.dtype == np.int64 and total.max() >= 2**62:
            total, base = total.astype(object), base.astype(object)
        at = off + c
        b = base[at]
        base[at] = total
        total = 2 * total - b
    return total.tolist()


def _greedy_block(columns, rows: int, d: int) -> list[int]:
    """:func:`superpattern_k` of ``rows`` strings at once, fed one column of
    letters at a time: a size per row, and a flat ``(rows, d)`` table of the
    round parity each letter was last seen in.

    A closed round has seen every letter, so a letter was last seen either
    in its row's current round or in the one before, and one parity bit
    tells the two apart: closing a round flips the row's parity ``now``,
    which leaves every letter of the row unseen without clearing the row.
    """
    import numpy as np

    off = np.arange(rows) * d  # row r's entry for letter c is seen[off[r] + c]
    seen = np.zeros(rows * d, dtype=bool)  # no letter is seen in round 0, of parity True
    now = np.ones(rows, dtype=bool)
    size = np.zeros(rows, dtype=np.int64)
    k = np.zeros(rows, dtype=np.int64)
    for c in columns:
        at = off + c
        size += seen[at] != now
        seen[at] = now
        done = size == d
        k += done
        size *= ~done
        now ^= done
    return k.tolist()


def _block(stat, model, n, trials, seed, stream, size, b) -> list[int]:
    """``stat(columns, rows, d)`` for the trials of block b: trials
    ``b*size`` up to ``(b+1)*size`` (or ``trials``), drawn from the block's
    own stream."""
    rows = min(size, trials - b * size)
    slabs = _slabs(model, rows, n, trial_rng(seed, b, stream))
    return stat((c for slab in slabs for c in slab.T), rows, model.d)


def _run_trials(stat, model, n, trials, seed, stream, workers) -> list[int]:
    """Per-trial values in trial order, optionally computed across processes.

    :func:`_block` is mapped over the block indices in order, by the builtin
    map or by a pool's map in ``ceil(blocks / parts)`` blocks per task, one
    process per task. A block's values depend only on (seed, stream, block
    index, trials, d), so every worker count returns the identical list.
    """
    size = _block_size(model.d)
    blocks = -(-trials // size)
    parts = min(workers, os.cpu_count() or 1, blocks)
    run = partial(_block, stat, model, n, trials, seed, stream, size)
    if parts <= 1:
        return [v for values in map(run, range(blocks)) for v in values]
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-blocks // parts)
    with ProcessPoolExecutor(max_workers=-(-blocks // chunk)) as pool:
        return [v for values in pool.map(run, range(blocks), chunksize=chunk) for v in values]


@dataclass(frozen=True)
class EstimateRecord:
    """Monte Carlo estimate of the expected distinct-subsequence count.

    In the normal mode ``mean`` and ``stderr`` are the sample mean and the
    standard error of the counts. When any sampled count exceeds 2**53 the
    record flips to log space: ``mean`` becomes ln(arithmetic mean of the
    counts), computed by a stable log-sum-exp, and ``stderr`` becomes the
    delta-method standard error of that ln(mean): the counts' sample
    standard deviation over ``sqrt(trials)`` times their mean, the relative
    error of the mean.
    """

    n: int
    mean: float
    stderr: float
    trials: int
    seed: int
    log_space: bool = False

    def log_mean(self) -> float:
        """ln of the estimated expectation, valid in both modes."""
        return self.mean if self.log_space else math.log(self.mean)


def estimate_expected_count(
    model, n: int, trials: int, seed: int, workers: int = 1, stream: int = 0
) -> EstimateRecord:
    """Sample mean of the distinct nonempty subsequence count of S_n.

    Args:
        model: IIDModel or MarkovModel to draw strings from.
        n: string length.
        trials: number of independent strings, at least 2.
        seed: master seed (64-bit unsigned).
        workers: process count; the result is identical for any value.
        stream: substream tag letting experiments share a seed while staying
            independent.

    Per-trial counts are exact integers. The reduction to mean and standard
    error runs over the trial-ordered array with numpy's pairwise summation,
    so the output does not depend on the worker split.
    """
    # numpy loads before _run_trials forks, so a pool's workers inherit it,
    # but numpy.random loads lazily (numpy 2) and each worker imports it
    # again. Importing it here too cut the 2-worker run of 40,000 trials at
    # n=30 by about 20 ms, but added about 6 MB to this process's RSS, which
    # raised the sampler runs' peak from 37.1 to 39.0 MB; forking by hand in
    # place of the pool saved nothing (212 against 217 ms).
    import numpy as np

    _check_run(_count_block, model, range(n, n + 1), trials, seed)
    phis = _run_trials(_count_block, model, n, trials, seed, stream, workers)
    if max(phis) <= INT_EXACT_MAX:
        arr = np.array(phis, dtype=np.float64)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(trials))
        return EstimateRecord(n, mean, stderr, trials, seed, False)
    logs = np.array([math.log(p) for p in phis], dtype=np.float64)
    peak = float(logs.max())
    w = np.exp(logs - peak)
    mean_w = float(w.mean())
    log_mean = peak + math.log(mean_w)
    # Delta method: the standard error of ln(mean) is that of the mean
    # divided by the mean, and the common factor exp(peak) cancels.
    stderr = float(w.std(ddof=1) / (math.sqrt(trials) * mean_w))
    return EstimateRecord(n, log_mean, stderr, trials, seed, True)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponential-growth estimate from log values against n."""

    c: float
    slope: float
    intercept: float
    r_squared: float
    clamped: bool


DEGENERATE_SLOPE_EPS = 0.05


def fit_growth_rate(ns, log_values) -> GrowthFit:
    """Fit ``log(value) = slope * n + intercept``; the growth constant is
    ``exp(slope)``.

    Slopes below ``log(1 + DEGENERATE_SLOPE_EPS)`` are reported as c = 1: values
    that grow polynomially (constant strings give counts growing like n)
    still show a small positive slope on a finite grid, and the threshold
    folds those onto the degenerate constant.
    """
    import numpy as np

    ns = [int(x) for x in ns]
    if len(set(ns)) < 3:
        raise ValueError("growth fit needs at least 3 distinct grid lengths")
    x = np.array(ns, dtype=np.float64)
    y = np.array([float(v) for v in log_values], dtype=np.float64)
    if len(x) != len(y):
        raise ValueError("grid and log values differ in length")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    clamped = bool(slope < math.log1p(DEGENERATE_SLOPE_EPS))
    c = 1.0 if clamped else float(math.exp(slope))
    return GrowthFit(
        c=c,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        clamped=clamped,
    )


def superpattern_k(s: LetterString) -> int:
    """Largest k such that every length-k string over the alphabet is a
    subsequence of ``s``.

    Greedy round decomposition: scan once, closing a round whenever all d
    letters have appeared since the round started; the completed-round count
    is the answer. Rounds embed any pattern one letter per round. Conversely
    the pattern made of each round's last-arriving letter, extended by one
    letter missing from the leftover tail, cannot embed, so no longer
    pattern length works.
    """
    d = s.alphabet.size
    seen: set[int] = set()
    k = 0
    for c in s.letters:
        seen.add(c)
        if len(seen) == d:
            k += 1
            seen.clear()
    return k


@dataclass(frozen=True)
class SuperpatternRecord:
    """Distribution of the superpattern statistic over sampled strings."""

    n: int
    trials: int
    seed: int
    mean_k: float
    mean_ratio: float
    histogram: tuple[tuple[int, int], ...]


def superpattern_experiment(
    model, n: int, trials: int, seed: int, workers: int = 1
) -> SuperpatternRecord:
    """Sample the superpattern statistic: histogram, mean, and mean of k/n."""
    import numpy as np  # before _run_trials forks: see estimate_expected_count

    _check_run(_greedy_block, model, range(n, n + 1), trials, seed)
    ks = _run_trials(_greedy_block, model, n, trials, seed, 0, workers)
    hist = tuple(sorted(Counter(ks).items()))
    mean_k = float(np.mean(np.array(ks, dtype=np.float64)))
    mean_ratio = mean_k / n if n else 0.0
    return SuperpatternRecord(
        n=n,
        trials=trials,
        seed=seed,
        histogram=hist,
        mean_k=mean_k,
        mean_ratio=mean_ratio,
    )
