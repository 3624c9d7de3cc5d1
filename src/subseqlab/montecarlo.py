"""Seeded Monte Carlo estimation for random-string statistics.

Reproducibility contract: every trial draws from its own counter-based
random stream (Philox) keyed by ``(master seed, stream, trial index)``, so
a fixed seed gives bit-identical results no matter how trials are split
across workers. Reductions always run over the per-trial values in trial
order.

Every trial runs through one loop, :func:`_trials`, which samples the
trial's letters and applies a statistic to them: the counting kernel that
also backs :func:`subseqlab.strings.count_distinct`, or the greedy rounds
of the superpattern statistic.

Counts are computed as exact integers per trial. Once any count exceeds
2**53 a float64 can no longer hold it exactly, so the estimate switches to
log space and the record carries a flag saying so.

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
from .strings import Alphabet, LetterString, _count_distinct_fast

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


def _check_run(n: int, trials: int, seed: int, min_trials: int, too_few: str) -> None:
    if not isinstance(seed, int) or not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    if trials < min_trials:
        raise ValueError(too_few)
    if n < 0:
        raise ValueError("n must be nonnegative")


def trial_rng(seed: int, trial: int, stream: int = 0) -> np.random.Generator:
    """Independent Philox stream for one trial of one experiment."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, trial))
    return np.random.Generator(np.random.Philox(ss))


def _sample_letters(model, n: int, rng: np.random.Generator) -> list[int]:
    import numpy as np

    if isinstance(model, IIDModel):
        cum = np.cumsum([float(p) for p in model.probs])
        idx = np.searchsorted(cum, rng.random(n), side="right")
        return np.minimum(idx, model.d - 1).tolist()
    if isinstance(model, MarkovModel):
        alpha = float(model.alpha)
        beta = float(model.beta)
        p_one = float(model.gamma)  # stationary start
        u = rng.random(n)
        out: list[int] = []
        for i in range(n):
            letter = 1 if u[i] < p_one else 0
            out.append(letter)
            p_one = alpha if letter == 1 else beta
        return out
    raise TypeError(f"unsupported model type {type(model).__name__}")


def sample_string(model, n: int, rng: np.random.Generator) -> LetterString:
    """One random string of length n drawn from the model."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    letters = tuple(_sample_letters(model, n, rng))
    return LetterString(Alphabet(model.d), letters)


def _greedy_rounds(letters: list[int], d: int) -> int:
    seen: set[int] = set()
    k = 0
    for c in letters:
        seen.add(c)
        if len(seen) == d:
            k += 1
            seen.clear()
    return k


def _trials(stat, model, n, seed, stream, lo, hi) -> list[int]:
    """``stat(letters, d)`` for trials lo..hi-1, each on its own stream."""
    d = model.d
    return [
        stat(_sample_letters(model, n, trial_rng(seed, t, stream)), d)
        for t in range(lo, hi)
    ]


def _run_trials(stat, model, n, trials, seed, stream, workers) -> list[int]:
    """Per-trial values in trial order, optionally computed across processes.

    The trials are split into at most one chunk per worker and per CPU, and
    the pool gets one process per chunk. Each trial's value depends only on
    (seed, stream, trial index), so any chunking returns the identical list.
    """
    parts = min(workers, os.cpu_count() or 1)
    if parts <= 1:
        return _trials(stat, model, n, seed, stream, 0, trials)
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-trials // parts)
    bounds = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
        futures = [
            pool.submit(_trials, stat, model, n, seed, stream, lo, hi) for lo, hi in bounds
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
    phis = _run_trials(_count_distinct_fast, model, n, trials, seed, stream, workers)
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
    ks = _run_trials(_greedy_rounds, model, n, trials, seed, stream, workers)
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
