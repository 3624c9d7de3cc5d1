"""Seeded Monte Carlo estimation for random-string statistics.

Reproducibility contract: trials run in blocks of BLOCK (4096), and each
block draws from its own counter-based random stream (Philox) keyed by
``(master seed, stream, block index)``. Workers split the trials on block
boundaries, so a fixed seed gives bit-identical results no matter how many
workers run them. Reductions always run over the per-trial values in trial
order.

Every block runs through one loop, :func:`_trials`. It draws the letters of
all its trials in ``(rows, w)`` slabs of at most CELLS uniforms (one row per
trial), and a statistic consumes them one column (one letter of every
trial) at a time: the counting recurrence of
:func:`subseqlab.strings.count_distinct` run across rows, or the greedy
rounds of the superpattern statistic. :func:`sample_string` is the 1-row
case of the same sampler.

Counts are exact integers per trial: int64 for the first INT64_COLUMNS
letters, Python ints after. Once any count exceeds 2**53 a float64 can no
longer hold it exactly, so the estimate switches to log space and the
record carries a flag saying so.

numpy and the process pool are imported by the functions that use them,
so importing the package (and every CLI command that does not sample)
loads neither.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .models import IIDModel, MarkovModel
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
    "estimate_growth_constant",
    "superpattern_k",
    "superpattern_experiment",
]

INT_EXACT_MAX = 2**53
MAX_SEED = 2**64
BLOCK = 4096  # trials per random stream
CELLS = 2**14  # uniforms per slab a block draws at a time
INT64_COLUMNS = 62  # letters counted in int64 before counts switch to Python ints


def _check_run(n: int, trials: int, seed: int, min_trials: int, too_few: str) -> None:
    if not isinstance(seed, int) or not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    if trials < min_trials:
        raise ValueError(too_few)
    if n < 0:
        raise ValueError("n must be nonnegative")


def trial_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Independent Philox stream for one block of trials of one experiment."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def _chain_fill(u: np.ndarray, prev, model: MarkovModel) -> np.ndarray:
    """Chain letters (as bools) for a ``(rows, w)`` slab of uniforms that
    continues the letters ``prev``, or starts the strings when it is None.

    The sequential rule draws a 1 when ``u < alpha`` after a 1 and when
    ``u < beta`` after a 0. So where ``u < min(alpha, beta)`` the letter is 1
    and where ``u >= max(alpha, beta)`` it is 0 whatever came before: these
    are resets. Between resets a letter copies the one before it when
    alpha > beta and flips it when alpha < beta, so each letter is the one at
    the last reset, XOR the parity of the distance to it when flipping.
    """
    import numpy as np

    alpha, beta = float(model.alpha), float(model.beta)
    ones = u < min(alpha, beta)
    reset = ones | (u >= max(alpha, beta))
    if prev is None:  # the first letter comes from the stationary start
        ones[:, 0] = u[:, 0] < float(model.gamma)
        reset[:, 0] = True
    cols = np.arange(u.shape[1])
    last = np.maximum.accumulate(np.where(reset, cols, -1), axis=1)
    letters = np.take_along_axis(ones, np.maximum(last, 0), axis=1)
    if prev is not None:  # no reset yet: continue from prev, one column back
        letters = np.where(last < 0, prev[:, None], letters)
    if alpha < beta:
        letters ^= ((cols - last) & 1).astype(bool)
    return letters


def _slabs(model, rows: int, n: int, rng: np.random.Generator):
    """Letters of ``rows`` strings of length n drawn from one stream, as
    ``(rows, w)`` integer slabs from left to right, ``w = CELLS // rows``.

    Only one slab is held at a time, so a block of trials never holds its
    whole ``(rows, n)`` letter matrix.
    """
    import numpy as np

    if isinstance(model, IIDModel):
        cum = np.array(model.probs, dtype=np.float64).cumsum()
    elif not isinstance(model, MarkovModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    width = max(1, CELLS // rows)
    prev = None
    for lo in range(0, n, width):
        u = rng.random((rows, min(width, n - lo)))
        if isinstance(model, MarkovModel):
            chain = _chain_fill(u, prev, model)
            prev = chain[:, -1]
            yield chain.astype(np.intp)
        else:
            letters = np.searchsorted(cum, u, side="right")
            yield np.minimum(letters, model.d - 1, out=letters)


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

    Counts stay in int64 for the first INT64_COLUMNS letters, where
    phi <= 2**62 - 1, and are Python ints (object arrays) after that.
    """
    import numpy as np

    ar = np.arange(rows)
    total = np.zeros(rows, dtype=np.int64)
    base = np.full((rows, d), -1, dtype=np.int64)
    for i, c in enumerate(columns):
        if i == INT64_COLUMNS:
            total, base = total.astype(object), base.astype(object)
        b = base[ar, c]
        base[ar, c] = total
        total = 2 * total - b
    return total.tolist()


def _greedy_rounds(letters: list[int], d: int) -> int:
    seen: set[int] = set()
    k = 0
    for c in letters:
        seen.add(c)
        if len(seen) == d:
            k += 1
            seen.clear()
    return k


def _greedy_block(columns, rows: int, d: int) -> list[int]:
    """:func:`_greedy_rounds` of ``rows`` strings at once, fed one column of
    letters at a time: a ``(rows, d)`` seen matrix and a size per row."""
    import numpy as np

    ar = np.arange(rows)
    seen = np.zeros((rows, d), dtype=bool)
    size = np.zeros(rows, dtype=np.int64)
    k = np.zeros(rows, dtype=np.int64)
    for c in columns:
        size += ~seen[ar, c]
        seen[ar, c] = True
        done = size == d
        k += done
        seen[done] = False
        size[done] = 0
    return k.tolist()


def _trials(stat, model, n, trials, seed, stream, lo, hi) -> list[int]:
    """``stat(columns, rows, d)`` for the trials of blocks lo..hi-1; block b
    holds trials ``b*BLOCK`` up to ``(b+1)*BLOCK`` (or ``trials``) and draws
    from its own stream."""
    out: list[int] = []
    for b in range(lo, hi):
        rows = min(BLOCK, trials - b * BLOCK)
        slabs = _slabs(model, rows, n, trial_rng(seed, b, stream))
        out += stat((c for slab in slabs for c in slab.T), rows, model.d)
    return out


def _run_trials(stat, model, n, trials, seed, stream, workers) -> list[int]:
    """Per-trial values in trial order, optionally computed across processes.

    The blocks of trials are split into at most one chunk per worker, per
    CPU and per block, and the pool gets one process per chunk. Each block's
    values depend only on (seed, stream, block index, trials), so any
    chunking returns the identical list.
    """
    blocks = -(-trials // BLOCK)
    parts = min(workers, os.cpu_count() or 1, blocks)
    if parts <= 1:
        return _trials(stat, model, n, trials, seed, stream, 0, blocks)
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-blocks // parts)
    bounds = [(lo, min(lo + chunk, blocks)) for lo in range(0, blocks, chunk)]
    with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
        futures = [
            pool.submit(_trials, stat, model, n, trials, seed, stream, lo, hi)
            for lo, hi in bounds
        ]
        return [v for f in futures for v in f.result()]


@dataclass(frozen=True)
class EstimateRecord:
    """Monte Carlo estimate of the expected distinct-subsequence count.

    In the normal mode ``mean`` and ``stderr`` are the sample mean and the
    standard error of the counts. When any sampled count exceeds 2**53 the
    record flips to log space: ``mean`` becomes ln(arithmetic mean of the
    counts), computed by a stable log-sum-exp, and ``stderr`` becomes the
    standard error of ln(count), a spread diagnostic on the log scale.
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
    import numpy as np  # before _run_trials forks, so the workers inherit it

    _check_run(n, trials, seed, 2, "need at least 2 trials for a standard error")
    phis = _run_trials(_count_block, model, n, trials, seed, stream, workers)
    if max(phis) <= INT_EXACT_MAX:
        arr = np.array(phis, dtype=np.float64)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(trials))
        return EstimateRecord(n, mean, stderr, trials, seed, False)
    logs = np.array([math.log(p) for p in phis], dtype=np.float64)
    peak = float(logs.max())
    log_mean = peak + math.log(float(np.exp(logs - peak).mean()))
    stderr = float(logs.std(ddof=1) / math.sqrt(trials))
    return EstimateRecord(n, log_mean, stderr, trials, seed, True)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponential-growth estimate from log values against n."""

    c: float
    slope: float
    intercept: float
    r_squared: float
    clamped: bool
    records: tuple = ()


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


def estimate_growth_constant(
    model, n_grid, trials: int, seed: int, workers: int = 1
) -> GrowthFit:
    """Monte Carlo growth constant for the expected count.

    Estimates the expected count at each grid length (one independent
    substream per length), then fits the log means against n. The returned
    fit carries the per-length records.
    """
    ns = sorted(set(int(x) for x in n_grid))
    if len(ns) < 3:
        raise ValueError("growth fit needs at least 3 distinct grid lengths")
    short = [n for n in ns if n < 1]
    if short:
        raise ValueError(
            f"growth fit takes ln of the mean count, so lengths must be at least 1; got {short}"
        )
    records = tuple(
        estimate_expected_count(model, n, trials, seed, workers=workers, stream=idx)
        for idx, n in enumerate(ns)
    )
    fit = fit_growth_rate(ns, [r.log_mean() for r in records])
    return replace(fit, records=records)


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
    return _greedy_rounds(list(s.letters), s.alphabet.size)


@dataclass(frozen=True)
class SuperpatternRecord:
    """Distribution of the superpattern statistic over sampled strings."""

    n: int
    trials: int
    seed: int
    histogram: tuple[tuple[int, int], ...]
    mean_k: float
    mean_ratio: float


def superpattern_experiment(
    model, n: int, trials: int, seed: int, workers: int = 1, stream: int = 0
) -> SuperpatternRecord:
    """Sample the superpattern statistic: histogram, mean, and mean of k/n."""
    import numpy as np  # before _run_trials forks, so the workers inherit it

    _check_run(n, trials, seed, 1, "need at least 1 trial")
    ks = _run_trials(_greedy_block, model, n, trials, seed, stream, workers)
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
