"""The benchmark's three workloads, as lists of checked invocations.

Each workload is a closed loop with one client: its invocations run one
after another, each in a fresh process. Building a workload computes every
reference its checkers need, so that work stays outside the timed region.
The benchmark seed sets every --seed; expect and oracle take none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import checks
import library_pass

WORKLOADS = ("simulate", "expect", "oracle")

IID_TRIALS = 40_000
MARKOV_TRIALS = 10_000
SUPER_N = 1000
SUPER_TRIALS = 2_000

D26 = ",".join(["1/26"] * 26)
D4 = ",".join(["1/4"] * 4)

# Oracle depths for the exact rows: as deep as a fraction of a second allows.
ORACLE_N = {4: 7, 26: 3, "markov": 14}


class KnownDefect(NamedTuple):
    """A documented failure at the seed: why, and the ``Result.failure``
    text it produces (a regular expression that must match all of it)."""

    reason: str
    failure: str


@dataclass(frozen=True)
class Invocation:
    """One program run and the checker for its stdout.

    ``script`` names a library script in this directory to run instead of
    the CLI. ``known_defect`` marks an input that fails at the seed for a
    documented reason; it still counts as failed, and a failure that differs
    from the documented one is not excused. ``step`` is
    ``(metric, engine span, n)`` for the per-step engine metrics.
    """

    name: str
    args: tuple[str, ...]
    check: Callable[[bytes], dict]
    script: str | None = None
    trials: int = 0
    same_stdout_as: str | None = None
    known_defect: KnownDefect | None = None
    step: tuple[str, str, int] | None = None


def simulate(seed: int) -> list[Invocation]:
    iid = ("simulate", "--model", "iid", "--alpha", "0.5", "--n", "30",
           "--trials", str(IID_TRIALS), "--seed", str(seed))
    return [
        Invocation("iid-w1", iid + ("--workers", "1"),
                   checks.fair_iid_mean(30, IID_TRIALS, seed), trials=IID_TRIALS),
        Invocation("iid-w2", iid + ("--workers", "2"),
                   checks.fair_iid_mean(30, IID_TRIALS, seed), trials=IID_TRIALS,
                   same_stdout_as="iid-w1"),
        Invocation("markov-n100",
                   ("simulate", "--model", "markov",
                    "--markov", ",".join(map(str, checks.MARKOV_CHAIN)),
                    "--n", str(checks.MARKOV_N), "--trials", str(MARKOV_TRIALS),
                    "--seed", str(seed), "--out", "json"),
                   checks.markov_log_mean(MARKOV_TRIALS, seed), trials=MARKOV_TRIALS),
        Invocation("superpattern",
                   ("superpattern", "--alpha", "0.5", "--n", str(SUPER_N),
                    "--trials", str(SUPER_TRIALS), "--seed", str(seed), "--out", "json"),
                   checks.fair_superpattern(SUPER_N, SUPER_TRIALS, seed),
                   trials=SUPER_TRIALS),
    ]


def expect(seed: int) -> list[Invocation]:
    from subseqlab import IIDModel, MarkovModel, exhaustive_expectation

    def brute(model, n):
        return list(exhaustive_expectation(model, n).values)

    markov = (Fraction(7, 10), Fraction(3, 10))
    iid_span, markov_span = "expectation.iid_matrix_expectation", "expectation.markov_expectation"
    return [
        Invocation("iid-float-d26",
                   ("expect", "--engine", "matrix", "--probs", D26, "--n", "2000"),
                   checks.float_series(2000, checks.uniform_iid_log(26, 2000)),
                   known_defect=KnownDefect("ROADMAP item 4: the float IID engine prints inf "
                                            "from n=1054", "prints inf"),
                   step=("expectation.iid.float.d26.step_us", iid_span, 2000)),
        Invocation("iid-exact-d4",
                   ("expect", "--engine", "matrix", "--probs", D4, "--exact", "--n", "1000"),
                   checks.exact_series(1000, checks.uniform_iid_exact(4, 1000),
                                       brute(IIDModel.uniform(4), ORACLE_N[4])),
                   step=("expectation.iid.exact.d4.step_us", iid_span, 1000)),
        Invocation("iid-exact-d26",
                   ("expect", "--engine", "matrix", "--probs", D26, "--exact", "--n", "200"),
                   checks.exact_series(200, checks.uniform_iid_exact(26, 200),
                                       brute(IIDModel.uniform(26), ORACLE_N[26])),
                   step=("expectation.iid.exact.d26.step_us", iid_span, 200)),
        Invocation("markov-exact",
                   ("expect", "--engine", "markov", "--markov", "7/10,3/10", "--exact",
                    "--n", "1000"),
                   checks.exact_series(1000, checks.markov_exact(*markov, 1000),
                                       brute(MarkovModel(*markov), ORACLE_N["markov"])),
                   step=("expectation.markov.exact.step_us", markov_span, 1000)),
        Invocation("markov-float",
                   ("expect", "--engine", "markov", "--markov", "0.7,0.3", "--n", "3000"),
                   checks.float_series(3000, checks.markov_log(0.7, 0.3, 3000)),
                   known_defect=KnownDefect("ROADMAP item 4: the float Markov engine prints "
                                            "inf from n=2031 and nan from n=2040",
                                            "prints inf, nan"),
                   step=("expectation.markov.float.step_us", markov_span, 3000)),
        Invocation("closed-a0.3",
                   ("expect", "--engine", "closed", "--alpha", "0.3", "--n", "2000"),
                   # IID letters are the Markov chain with alpha = beta
                   checks.float_series(2000, checks.markov_log(0.3, 0.3, 2000)),
                   known_defect=KnownDefect("ROADMAP item 4: the closed form raises "
                                            "OverflowError before n=2000 at alpha 0.3",
                                            r"exit code 1: OverflowError: .*")),
    ]


def oracle(seed: int) -> list[Invocation]:
    return [
        Invocation("verify-14", ("verify", "--max-n", "14"), checks.verify_passed(6)),
        Invocation("tree-row-d3-n12", ("tree-row", "--d", "3", "--n", "12"),
                   checks.tree_row_sum(3, 12)),
        Invocation("library-pass", (),
                   checks.library_pass(checks.markov_exact(*library_pass.MARKOV,
                                                           library_pass.MARKOV_N),
                                       library_pass.splits(), library_pass.SWEEP_D),
                   script="library_pass.py"),
    ]


def build(name: str, seed: int) -> list[Invocation]:
    return {"simulate": simulate, "expect": expect, "oracle": oracle}[name](seed)
