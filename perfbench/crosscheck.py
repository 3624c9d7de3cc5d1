"""Re-measure ROADMAP item 1's baseline table with the benchmark's harness.

    python3 perfbench/crosscheck.py [--seed N]

Each invocation runs in a fresh process after one warm-up, several times,
and is reported as its median. A row is flagged when its median differs
from the ROADMAP figure by more than the wall_s bound in BENCHMARK.json.
Prints a table, then one JSON object with the same rows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from time import perf_counter

import run

# (row, CLI arguments or None for a per-call figure, ROADMAP figure, unit, repeats)
TABLE = [
    ("count 0101", ["count", "0101"], 0.33, "s", 9),
    ("simulate --n 30 --trials 100000, 1 worker", ["--workers", "1"], 5.4, "s", 3),
    ("simulate --n 30 --trials 100000, 2 workers", ["--workers", "2"], 3.6, "s", 3),
    ("trial_rng per trial", None, 34.0, "us", 0),
    ("sample_string per trial", None, 15.0, "us", 0),
    ("count_distinct per trial", None, 3.6, "us", 0),
    ("verify --max-n 10", ["verify", "--max-n", "10"], 0.73, "s", 5),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    bound = next(m["bound"] for m in json.loads(run.SPEC.read_text())["end_to_end"]
                 if m["name"] == "wall_s")
    simulate = ["simulate", "--model", "iid", "--alpha", "0.5", "--n", "30",
                "--trials", "100000", "--seed", str(args.seed)]
    run.noop()
    micro = run.microbench(args.seed)
    # the private kernels the per-trial loop calls, for comparison
    from subseqlab import IIDModel
    from subseqlab.montecarlo import _count_distinct_fast, _sample_letters, trial_rng

    model, rng = IIDModel.binary(0.5), trial_rng(args.seed, 0)
    letters = _sample_letters(model, 30, rng)
    kernels = {}
    for name, fn in (("_sample_letters", lambda: _sample_letters(model, 30, rng)),
                     ("_count_distinct_fast", lambda: _count_distinct_fast(letters, 2))):
        t0 = perf_counter()
        for _ in range(10_000):
            fn()
        kernels[name] = (perf_counter() - t0) / 10_000 * 1e6
    per_call = {"trial_rng per trial": micro["montecarlo.trial_rng.us"],
                "sample_string per trial": micro["montecarlo.sample_string.us"],
                "count_distinct per trial": micro["strings.count_distinct.us"]}
    rows = []
    print(f"ROADMAP item 1 cross-check, flag when off by more than {bound:.0%}  {run.environment()}")
    for name, cli_args, roadmap, unit, repeats in TABLE:
        if cli_args is None:
            value, samples = per_call[name], 5
        else:
            argv = simulate + cli_args if cli_args[0] == "--workers" else cli_args
            walls = []
            for _ in range(repeats):
                res = run.spawn([sys.executable, "-m", "subseqlab.cli", *argv])
                if res.rc != 0:
                    raise SystemExit(f"{name}: exit code {res.rc}")
                walls.append(res.wall)
            value, samples = statistics.median(walls), repeats
        ratio = value / roadmap
        flag = "FLAG" if abs(ratio - 1) > bound else "ok"
        print(f"  {name:<44} {value:10.4g} {unit:<3} (n={samples})  ROADMAP {roadmap:g} {unit}"
              f"  ratio {ratio:.2f}  {flag}")
        rows.append({"row": name, "measured": value, "roadmap": roadmap, "unit": unit,
                     "samples": samples, "ratio": ratio, "flagged": flag == "FLAG"})
    for name, value in kernels.items():
        print(f"  {name + ' (private kernel)':<44} {value:10.4g} us")
    print(json.dumps({"bound": bound, "rows": rows, "private_kernels_us": kernels}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
