"""Run one subseqlab invocation with spans around each layer's public functions.

    PYTHONPATH=src python3 perfbench/traced.py cli ARGS...   # as python -m subseqlab.cli ARGS...
    PYTHONPATH=src python3 perfbench/traced.py script PATH   # a library script

Stdout and the exit code are the invocation's own. Before exiting, the
process writes one line ``@@perfbench-trace@@ {json}`` to stderr with the
import times, per-function aggregates ``[calls, total_s, self_s]`` and the
number of counter pushes made inside oracle spans.

Functions are wrapped where their callers look them up: in the namespace of
``subseqlab.cli``, of ``subseqlab.oracle`` for the oracle's calls to itself,
of ``subseqlab.montecarlo`` for the per-trial RNG, and on the
``IncrementalCounter`` class. Every call is aggregated under its function's
name; no call is recorded on its own. ProcessPoolExecutor workers are
forked and exit without reporting, so for ``--workers 2`` only the parent's
wait inside ``estimate_expected_count`` is traced.
"""

from time import perf_counter

T0 = perf_counter()
import numpy  # noqa: E402,F401  (timed on its own: the CLI pays for it at import)

T1 = perf_counter()
import subseqlab.cli  # noqa: E402

T2 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

from subseqlab import cli, montecarlo, oracle  # noqa: E402
from subseqlab.strings import IncrementalCounter  # noqa: E402

MARK = "@@perfbench-trace@@"

# SPAN may have traced children; LEAF and NODE have none, and a NODE call
# inside an oracle span counts as an oracle node.
SPAN, LEAF, NODE = "span", "leaf", "node"

# (span name, owners, attribute, kind, inside the oracle layer)
TARGETS = [
    ("cli.main", [cli], "main", SPAN, False),
    ("output.render_csv", [cli], "render_csv", SPAN, False),
    ("output.dump_json", [cli], "dump_json", SPAN, False),
    ("strings.count_distinct", [cli], "count_distinct", SPAN, False),
    ("strings.IncrementalCounter.push", [IncrementalCounter], "push", NODE, False),
    ("strings.IncrementalCounter.snapshot", [IncrementalCounter], "snapshot", LEAF, False),
    ("strings.IncrementalCounter.restore", [IncrementalCounter], "restore", LEAF, False),
    ("expectation.closed_form_binary", [cli], "closed_form_binary", SPAN, False),
    ("expectation.iid_matrix_expectation", [cli], "iid_matrix_expectation", SPAN, False),
    ("expectation.markov_expectation", [cli], "markov_expectation", SPAN, False),
    ("montecarlo.estimate_expected_count", [cli], "estimate_expected_count", SPAN, False),
    ("montecarlo.superpattern_experiment", [cli], "superpattern_experiment", SPAN, False),
    ("montecarlo.trial_rng", [montecarlo], "trial_rng", LEAF, False),
    ("oracle.enumerate_distinct", [cli], "enumerate_distinct", SPAN, True),
    ("oracle.superpattern_k_bruteforce", [cli], "superpattern_k_bruteforce", SPAN, True),
    ("oracle.check_pair_structure", [cli], "check_pair_structure", SPAN, True),
    ("oracle.tree_row", [cli, oracle], "tree_row", SPAN, True),
    ("oracle.check_submultiplicativity", [cli, oracle], "check_submultiplicativity", SPAN, True),
    ("oracle.exhaustive_expectation", [cli, oracle], "exhaustive_expectation", SPAN, True),
]


class Tracer:
    """Per-name aggregates, kept in memory until the process ends."""

    def __init__(self) -> None:
        self.agg: dict[str, list] = {}
        self.stack: list[list] = []  # [seconds in traced children] per open span
        self.oracle_depth = 0
        self.oracle_nodes = 0

    def wrap(self, name: str, fn, kind: str, in_oracle: bool):
        stat = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        if kind in (LEAF, NODE):  # no traced children: skip the stack frame

            def leaf(*args, **kwargs):
                if kind == NODE and self.oracle_depth:
                    self.oracle_nodes += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt
                    if stack:
                        stack[-1][0] += dt

            return leaf

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            self.oracle_depth += in_oracle
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.oracle_depth -= in_oracle
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return span

    def install(self) -> None:
        for name, owners, attr, kind, in_oracle in TARGETS:
            wrapped = self.wrap(name, getattr(owners[0], attr), kind, in_oracle)
            for owner in owners:
                setattr(owner, attr, wrapped)

    def report(self) -> dict:
        return {
            "import_numpy_s": T1 - T0,
            "import_s": T2 - T0,
            "agg": self.agg,
            "oracle_nodes": self.oracle_nodes,
        }


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    pid = os.getpid()
    try:
        if mode == "cli":
            return cli.main(rest)
        sys.argv = rest
        runpy.run_path(rest[0], run_name="__main__")
        return 0
    finally:
        if os.getpid() == pid:
            sys.stdout.flush()
            sys.stderr.write(MARK + " " + json.dumps(tracer.report()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
