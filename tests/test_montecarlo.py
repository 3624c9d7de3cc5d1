"""Tests for the sampling layer: seeded generators, estimators, growth
fits, and the superpattern experiment.

Every stochastic assertion here runs under a fixed seed, so the suite is
deterministic; tolerances were chosen with 4-standard-error headroom.
"""

import concurrent.futures
import math
import os

import numpy as np
import pytest

from subseqlab import (
    Alphabet,
    IIDModel,
    LetterString,
    MarkovModel,
    asymptotic_constants,
    closed_form_binary,
    estimate_expected_count,
    estimate_growth_constant,
    fit_growth_rate,
    sample_string,
    superpattern_experiment,
    trial_rng,
)
from subseqlab import montecarlo
from subseqlab.montecarlo import (
    BLOCK,
    MAX_SEED,
    _chain_fill,
    _count_block,
    _count_distinct_fast,
    _greedy_block,
    _greedy_rounds,
    _slabs,
    _trials,
    superpattern_k,
)
from subseqlab.oracle import enumerate_distinct, superpattern_k_bruteforce


def test_trial_rng_is_deterministic():
    a = trial_rng(42, 3).random(5).tolist()
    b = trial_rng(42, 3).random(5).tolist()
    assert a == b


def test_trial_rng_separates_trials_and_streams():
    base = trial_rng(42, 0).random(5).tolist()
    assert trial_rng(42, 1).random(5).tolist() != base
    assert trial_rng(42, 0, stream=1).random(5).tolist() != base
    assert trial_rng(43, 0).random(5).tolist() != base


def test_seed_range_enforced():
    with pytest.raises(ValueError):
        estimate_expected_count(IIDModel.binary(0.5), 5, 10, seed=-1)
    with pytest.raises(ValueError):
        estimate_expected_count(IIDModel.binary(0.5), 5, 10, seed=MAX_SEED)


def test_sample_string_shape_and_alphabet():
    s = sample_string(IIDModel.uniform(3), 200, trial_rng(1, 0))
    assert len(s.letters) == 200
    assert s.alphabet.size == 3
    assert set(s.letters) <= {0, 1, 2}


def test_sample_string_degenerate_distribution():
    s = sample_string(IIDModel.binary(1.0), 50, trial_rng(1, 0))
    assert s.letters == (1,) * 50


def test_iid_letter_frequencies():
    """100k draws at alpha = 0.3; the 4-sigma band is about +-580."""
    s = sample_string(IIDModel.binary(0.3), 100_000, trial_rng(11, 0))
    assert abs(sum(s.letters) - 30_000) < 600


def test_markov_transition_frequencies():
    """Empirical transition rates of a sampled chain match the model."""
    s = sample_string(MarkovModel(0.8, 0.2), 100_000, trial_rng(12, 0))
    pairs = list(zip(s.letters, s.letters[1:]))
    stay = sum(1 for a, b in pairs if a == 1 and b == 1)
    ones = sum(1 for a, _ in pairs if a == 1)
    enter = sum(1 for a, b in pairs if a == 0 and b == 1)
    zeros = len(pairs) - ones
    assert abs(stay / ones - 0.8) < 0.01
    assert abs(enter / zeros - 0.2) < 0.01


def test_estimate_requires_two_trials():
    with pytest.raises(ValueError):
        estimate_expected_count(IIDModel.binary(0.5), 5, 1, seed=0)


def test_estimate_matches_exact_mean():
    """n = 18 fair coin: the sample mean lands within 4 standard errors."""
    record = estimate_expected_count(IIDModel.binary(0.5), 18, 4000, seed=7)
    truth = closed_form_binary(0.5, 18)
    assert not record.log_space
    assert abs(record.mean - truth) <= 4 * record.stderr
    assert math.isclose(record.log_mean(), math.log(record.mean))


def test_estimate_is_worker_independent():
    """The same seed gives bit-identical records for any worker count."""
    trials = 2 * BLOCK + 7  # three blocks, the last one partial
    one = estimate_expected_count(IIDModel.binary(0.5), 18, trials, seed=7)
    three = estimate_expected_count(IIDModel.binary(0.5), 18, trials, seed=7, workers=3)
    assert one == three


@pytest.mark.parametrize("cpus", [None, 2, 64])
def test_pool_is_sized_by_chunks_not_by_workers(monkeypatch, cpus):
    """A huge worker count asks for no more processes than there are blocks,
    and never more than the CPU count; the records do not change. A single
    block runs in this process."""
    asked = []

    class InlinePool:
        """Runs each chunk in this process and records the pool size."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cap = min(3, os.cpu_count() or 1)
    model = IIDModel.binary(0.5)
    trials = 3 * BLOCK
    one = estimate_expected_count(model, 10, trials, seed=4)
    assert estimate_expected_count(model, 10, trials, seed=4, workers=10**6) == one
    k_one = superpattern_experiment(model, 10, trials, seed=4)
    assert superpattern_experiment(model, 10, trials, seed=4, workers=10**6) == k_one
    assert asked == ([cap] * 2 if cap > 1 else [])
    estimate_expected_count(model, 10, 3, seed=4, workers=10**6)  # one block: no pool
    assert len(asked) == (2 if cap > 1 else 0)


def block_rows(model, rows, n, seed=13, stream=2):
    """The letters of the rows of a first block, drawn as its trials draw them."""
    slabs = _slabs(model, rows, n, trial_rng(seed, 0, stream))
    return np.concatenate([np.empty((rows, 0), dtype=np.intp), *slabs], axis=1).tolist()


@pytest.mark.parametrize("model", [IIDModel((0.2, 0.5, 0.3)), MarkovModel(0.8, 0.3)])
def test_trial_statistics_match_the_oracle(model):
    """Each row's count and superpattern k equal the brute-force values on
    the string the one sampler drew for that row."""
    phis = _trials(_count_block, model, 9, 40, 13, 2, 0, 1)
    ks = _trials(_greedy_block, model, 9, 40, 13, 2, 0, 1)
    for t, letters in enumerate(block_rows(model, 40, 9)):
        s = LetterString(Alphabet(model.d), tuple(letters))
        assert phis[t] == len(enumerate_distinct(s))
        assert ks[t] == superpattern_k_bruteforce(s)


CHAINS = [(0.8, 0.3), (0.3, 0.8), (0.5, 0.5), (0, 1), (1, 0.5)]


def sequential_chain(u, model):
    """The chain's letter-by-letter rule: a 1 when u < alpha after a 1 and
    when u < beta after a 0, starting from the stationary probability."""
    alpha, beta = float(model.alpha), float(model.beta)
    out = []
    for row in u:
        p_one, letters = float(model.gamma), []
        for x in row:
            letters.append(bool(x < p_one))
            p_one = alpha if letters[-1] else beta
        out.append(letters)
    return out


@pytest.mark.parametrize("alpha,beta", CHAINS)
def test_chain_fill_matches_the_sequential_rule(alpha, beta):
    """The vectorised fill equals the sequential rule bit for bit, on
    uniforms that include alpha, beta and gamma themselves, and a slab that
    continues from the last column of the one before gives the same letters."""
    model = MarkovModel(alpha, beta)
    rng = np.random.default_rng(5)
    u = rng.random((30, 50))
    planted = rng.random(u.shape) < 0.3
    u[planted] = rng.choice([alpha, beta, float(model.gamma)], planted.sum())
    expected = sequential_chain(u, model)
    assert _chain_fill(u.copy(), None, model).tolist() == expected
    head = _chain_fill(u[:, :17].copy(), None, model)
    tail = _chain_fill(u[:, 17:].copy(), head[:, -1], model)
    assert np.concatenate([head, tail], axis=1).tolist() == expected


COUNT_MODELS = [
    pytest.param(IIDModel.binary(0.5), id="fair"),
    pytest.param(IIDModel.uniform(1000), id="d1000"),
] + [pytest.param(MarkovModel(a, b), id=f"chain{a},{b}") for a, b in CHAINS]


@pytest.mark.parametrize("n", [61, 62, 63, 64, 100])
@pytest.mark.parametrize("model", COUNT_MODELS)
def test_block_counts_cross_the_int64_switch(monkeypatch, model, n):
    """Every row equals the scalar kernel on either side of the switch from
    int64 to Python ints, with slabs narrow enough that each string spans
    several of them; near-distinct letters (d = 1000) push counts from n = 64
    on past the int64 range."""
    rows = 40
    monkeypatch.setattr(montecarlo, "CELLS", rows * 7)
    phis = _trials(_count_block, model, n, rows, 13, 2, 0, 1)
    assert phis == [_count_distinct_fast(r, model.d) for r in block_rows(model, rows, n)]
    if model.d == 1000 and n >= 64:
        assert max(phis) > np.iinfo(np.int64).max


def test_greedy_block_over_seventy_letters():
    """Rows of a 70-letter alphabet close rounds as the scalar scan does."""
    model = IIDModel.uniform(70)
    ks = _trials(_greedy_block, model, 1000, 30, 13, 2, 0, 1)
    assert ks == [_greedy_rounds(r, 70) for r in block_rows(model, 30, 1000)]
    assert max(ks) >= 2


def test_block_skips_a_zero_probability_letter():
    model = IIDModel((0.5, 0.0, 0.5))
    rows = block_rows(model, 40, 64)
    assert 1 not in {c for r in rows for c in r}
    assert _trials(_count_block, model, 64, 40, 13, 2, 0, 1) == [
        _count_distinct_fast(r, 3) for r in rows
    ]
    assert _trials(_greedy_block, model, 64, 40, 13, 2, 0, 1) == [
        _greedy_rounds(r, 3) for r in rows
    ]


@pytest.mark.parametrize("model", [IIDModel.binary(0.3), MarkovModel(0.8, 0.2)])
def test_sample_string_draws_whole_slabs(model):
    """One string is drawn a slab at a time, never letter by letter."""

    class Counting:
        calls = 0

        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            Counting.calls += 1
            return self.rng.random(shape)

    s = sample_string(model, 100_000, Counting(trial_rng(1, 0)))
    assert len(s) == 100_000
    assert Counting.calls == -(-100_000 // montecarlo.CELLS)


def test_estimate_streams_are_independent():
    a = estimate_expected_count(IIDModel.binary(0.5), 18, 400, seed=7)
    b = estimate_expected_count(IIDModel.binary(0.5), 18, 400, seed=7, stream=1)
    assert a.mean != b.mean


def test_estimate_switches_to_log_space():
    """At n = 120 the counts overflow exact float territory, so the
    record reports ln(mean); it still brackets the closed form."""
    record = estimate_expected_count(IIDModel.binary(0.5), 120, 400, seed=321)
    truth = math.log(2 * 1.5**120 - 2)
    assert record.log_space
    assert abs(record.mean - truth) <= 4 * record.stderr
    assert record.log_mean() == record.mean


def test_estimate_calibration_across_seeds():
    """Coverage meta-check: over 20 seeds the 4-sigma interval should
    essentially always contain the exact value."""
    truth = closed_form_binary(0.5, 12)
    hits = 0
    for seed in range(20):
        record = estimate_expected_count(IIDModel.binary(0.5), 12, 2000, seed=seed)
        if abs(record.mean - truth) <= 4 * record.stderr:
            hits += 1
    assert hits >= 19


def test_fit_growth_rate_recovers_pure_exponential():
    ns = list(range(5, 15))
    fit = fit_growth_rate(ns, [math.log(3.0 * 1.4**n) for n in ns])
    assert math.isclose(fit.c, 1.4, rel_tol=1e-12)
    assert math.isclose(fit.intercept, math.log(3.0), rel_tol=1e-9)
    assert fit.r_squared > 0.999999
    assert not fit.clamped


def test_fit_growth_rate_needs_three_lengths():
    with pytest.raises(ValueError):
        fit_growth_rate([3, 4], [1.0, 2.0])


def test_fit_on_exact_series_hits_asymptotic_base():
    """Closed-form values over n = 10..40 fit the predicted growth base
    to a few parts in ten thousand."""
    for alpha in (0.3, 0.5):
        ns = list(range(10, 41))
        fit = fit_growth_rate(ns, [math.log(closed_form_binary(alpha, n)) for n in ns])
        base, _ = asymptotic_constants(alpha)
        assert abs(fit.c - base) / base < 5e-3
        assert fit.r_squared > 0.9999


def test_degenerate_model_clamps_to_no_growth():
    """A one-letter alphabet grows linearly, not exponentially."""
    fit = estimate_growth_constant(IIDModel.binary(1.0), range(10, 41, 5), 50, seed=3)
    assert fit.clamped
    assert fit.c == 1.0


def test_estimate_growth_constant_monte_carlo():
    fit = estimate_growth_constant(
        IIDModel.binary(0.5), range(10, 41, 5), 4000, seed=99
    )
    assert abs(fit.c - 1.5) / 1.5 < 0.02
    assert len(fit.records) == 7
    assert [r.n for r in fit.records] == list(range(10, 41, 5))


def test_growth_fit_rejects_short_lengths_before_sampling(monkeypatch):
    """ln of the zero mean at n = 0 has no value: refuse the grid up front."""
    from subseqlab import montecarlo

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before validating the grid")

    monkeypatch.setattr(montecarlo, "estimate_expected_count", no_sampling)
    with pytest.raises(ValueError, match=r"at least 1; got \[0\]"):
        estimate_growth_constant(IIDModel.binary(0.5), range(0, 5), 3, seed=1)


def test_superpattern_greedy_known_values():
    assert superpattern_k(LetterString.from_text("")) == 0
    assert superpattern_k(LetterString.from_text("0101")) == 2
    assert superpattern_k(LetterString.from_text("0011")) == 1
    assert superpattern_k(LetterString.from_text("012012", alphabet=None)) == 2


def test_superpattern_experiment_record():
    record = superpattern_experiment(IIDModel.binary(0.5), 60, 300, seed=5)
    assert sum(count for _, count in record.histogram) == 300
    assert record.mean_ratio == record.mean_k / 60
    assert 0.25 < record.mean_ratio < 0.4
    again = superpattern_experiment(IIDModel.binary(0.5), 60, 300, seed=5, workers=4)
    assert record == again


def test_superpattern_ratio_approaches_one_third():
    """Long fair-coin strings cover all patterns of length about n/3."""
    record = superpattern_experiment(IIDModel.binary(0.5), 1000, 400, seed=5)
    assert abs(record.mean_ratio - 1 / 3) < 0.01
