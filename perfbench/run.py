"""subseqlab benchmark: real CLI invocations, checked and timed end to end.

    python3 perfbench/run.py --workload simulate|expect|oracle [--seed N]
                             [--seconds S] [--trace 0|1]

Run from a checkout root. Every invocation is a fresh ``python -m
subseqlab.cli`` process (or a library script) with ``src`` on PYTHONPATH,
checked against an independent reference (see checks.py).

--trace 0: after one untimed warm-up, repeats rounds of SETUP_PER_PASS
no-op invocations (``setup_s``) and one pass over the workload's
invocations (``wall_s``) while they fit in --seconds, and reports medians.

--trace 1: one untraced pass of the workload, then one traced pass of each
of the three workloads (traced.py), so that every per-layer metric is
measured in every run; --seconds is not used. The result line counts the
named workload's two passes; the other workloads' traced passes only turn
``correct`` false if they fail in a way that is not a known defect.

Prints a report, then as the last stdout line one JSON object with the keys
correct, attempted, failed and metrics. An invocation fails when it exits
nonzero, prints inf or nan, or fails its check; a failure of an input
marked as a known defect (workloads.py) counts in ``failed`` but leaves
``correct`` true when it is the documented failure. Exits 2 without a
result when the checkout lacks the subseqlab sources or BENCHMARK.json,
which names the metrics and their units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
MARK = "@@perfbench-trace@@"
SETUP_PER_PASS = 3
NOOP = ("--help",)  # imports subseqlab.cli (and numpy), parses, prints help
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30


@dataclass
class Result:
    name: str
    wall: float
    rss_mb: float
    rc: int
    out: bytes
    err: bytes
    trace: dict | None = None
    failure: str | None = None
    facts: dict = field(default_factory=dict)


# A child forked from this process inherits its memory high-water mark in
# ru_maxrss (Linux records the old address space's peak at exec). So each
# child is started by a small launcher interpreter, which reports the
# child's wall time, max RSS and exit code on a pipe.
LAUNCHER = """
import os, sys, time
fd = int(sys.argv[1])
os.set_inheritable(fd, False)
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(fd, f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}".encode())
"""


def spawn(argv: list[str], name: str = "") -> Result:
    """Run one child to completion; wall time and max RSS from its own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SUBSEQLAB_SEED", None)
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen([sys.executable, "-I", "-S", "-c", LAUNCHER, str(report_w), *argv],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, pass_fds=(report_w,),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        os.close(report_w)
        out, err = proc.communicate()
        report = os.read(report_r, 256).decode().split()
    finally:
        os.close(report_r)
    if proc.returncode != 0 or len(report) != 3:
        raise RuntimeError(f"launcher failed for {argv}: {err.decode(errors='replace')[-300:]}")
    wall, maxrss_kb, rc = float(report[0]), int(report[1]), int(report[2])
    return Result(name, wall, maxrss_kb / 1024, rc, out, err)


def run_invocation(inv, traced: bool = False) -> Result:
    if traced:
        target = ["script", str(HERE / inv.script)] if inv.script else ["cli"]
        argv = [sys.executable, str(HERE / "traced.py"), *target, *inv.args]
    elif inv.script:
        argv = [sys.executable, str(HERE / inv.script), *inv.args]
    else:
        argv = [sys.executable, "-m", "subseqlab.cli", *inv.args]
    res = spawn(argv, inv.name)
    if traced:
        keep = []
        for line in res.err.decode(errors="replace").splitlines(keepends=True):
            if line.startswith(MARK):
                res.trace = json.loads(line[len(MARK):])
            else:
                keep.append(line)
        res.err = "".join(keep).encode()
    return res


def noop() -> Result:
    return spawn([sys.executable, "-m", "subseqlab.cli", *NOOP], "noop")


def evaluate(inv, res: Result, earlier: dict[str, Result]) -> None:
    """Set ``res.failure`` (None when the output is correct) and ``res.facts``."""
    if res.rc != 0:
        last = res.err.decode(errors="replace").strip().splitlines()[-1:]
        res.failure = f"exit code {res.rc}" + "".join(f": {line[:100]}" for line in last)
    elif tokens := checks.inf_nan_tokens(res.out):
        res.failure = "prints " + ", ".join(tokens)
    elif inv.same_stdout_as and res.out != earlier[inv.same_stdout_as].out:
        res.failure = f"stdout differs from {inv.same_stdout_as}"
    else:
        try:
            res.facts = inv.check(res.out)
        except checks.CheckError as exc:
            res.failure = f"check: {exc}"
        except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
            res.failure = f"check: malformed output ({type(exc).__name__}: {exc})"


def run_pass(invs, traced: bool = False) -> list[Result]:
    return [run_invocation(inv, traced) for inv in invs]


def check_pass(invs, results: list[Result]) -> None:
    earlier: dict[str, Result] = {}
    for inv, res in zip(invs, results):
        evaluate(inv, res, earlier)
        earlier[inv.name] = res


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return f"p{100 * k // n}", sorted(values)[k - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    text = f"{name:<14} median {statistics.median(values):.6g} {unit}"
    pct = tail(values)
    text += f", {pct[0]} {pct[1]:.6g} {unit}" if pct else ", no percentile with 10 samples beyond"
    return text + f" (n={len(values)})"


def environment() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def explained(inv, res: Result) -> bool:
    """True when the invocation failed exactly as its known defect says."""
    return (res.failure is not None and inv.known_defect is not None
            and re.fullmatch(inv.known_defect.failure, res.failure) is not None)


def tally(invs, passes: list[list[Result]]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct unless a failure is unexplained."""
    attempted = failed = 0
    correct = True
    for results in passes:
        for inv, res in zip(invs, results):
            attempted += 1
            if res.failure:
                failed += 1
                correct = correct and explained(inv, res)
    return attempted, failed, correct


def print_invocations(invs, passes: list[list[Result]]) -> None:
    for i, inv in enumerate(invs):
        runs = [results[i] for results in passes]
        failures = sorted({r.failure for r in runs if r.failure})
        status = "ok" if not failures else "FAIL " + "; ".join(failures)
        if failures and inv.known_defect:
            known = all(explained(inv, r) for r in runs if r.failure)
            status += (f" [known defect: {inv.known_defect.reason}]" if known else
                       f" [NOT its known defect, whose failure is {inv.known_defect.failure!r}]")
        walls = [r.wall for r in runs]
        print(f"  {inv.name:<16} wall median {statistics.median(walls):.4f} s (n={len(walls)})"
              f"  rss {max(r.rss_mb for r in runs):.1f} MB  {status}")


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    invs = workloads.build(workload, seed)  # references: outside the timed region
    noop()  # warm-up: bytecode caches and page cache
    setup: list[float] = []
    passes: list[list[Result]] = []
    start = perf_counter()
    # Set-up samples are interleaved with the passes so that both metrics
    # see the same stretch of machine time; a round starts only when the
    # mean round so far still fits in the budget.
    while True:
        setup += [noop().wall for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(invs))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    for results in passes:
        check_pass(invs, results)

    walls = [sum(r.wall for r in results) for results in passes]
    rss = [max(r.rss_mb for r in results) for results in passes]
    attempted, failed, correct = tally(invs, passes)
    print(describe("setup_s", setup, "s"))
    print(describe("wall_s", walls, "s") + f"  [one pass = {len(invs)} invocations]")
    trials = sum(inv.trials for inv in invs)
    if trials:
        print(describe("trials_per_s", [trials / w for w in walls], "trials/s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print(f"{'fail_ratio':<14} {failed}/{attempted} = {failed / attempted:.4g} ratio")
    print_invocations(invs, passes)
    values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
              "peak_rss_mb": statistics.median(rss)}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units("end_to_end").items()}}


def microbench(seed: int) -> dict[str, float]:
    """Per-call microseconds of public functions at the simulate shape:
    a fair-coin string of length 30. Median of five timed loops."""
    from subseqlab import IIDModel, count_distinct, sample_string, trial_rng

    model = IIDModel.binary(0.5)
    rng = trial_rng(seed, 0)
    letters = sample_string(model, 30, rng)

    def per_call(fn, calls: int = 2000) -> float:
        loops = []
        for _ in range(5):
            t0 = perf_counter()
            for i in range(calls):
                fn(i)
            loops.append((perf_counter() - t0) / calls * 1e6)
        return statistics.median(loops)

    return {
        "montecarlo.trial_rng.us": per_call(lambda i: trial_rng(seed, i)),
        "montecarlo.sample_string.us": per_call(lambda i: sample_string(model, 30, rng)),
        "strings.count_distinct.us": per_call(lambda i: count_distinct(letters)),
    }


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


AGG_FIELDS = ("calls", "total_s", "self_s")  # the order of traced.py's aggregates


def layer_metrics(traced: dict[str, tuple[list, list[Result]]], names) -> dict:
    """Per-layer metrics from one traced pass of every workload.

    A metric named ``<span>.calls``, ``<span>.total_s`` or ``<span>.self_s``
    sums that aggregate of a traced.py span over all traced invocations;
    the others are derived below.
    """
    pairs = [(inv, res) for invs, results in traced.values() for inv, res in zip(invs, results)]
    traces = [res.trace for _, res in pairs]
    agg: dict[str, list] = {}
    for trace in traces:
        for span, stat in trace["agg"].items():
            acc = agg.setdefault(span, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += stat[i]
    m = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if span in agg and kind in AGG_FIELDS:
            m[name] = agg[span][AGG_FIELDS.index(kind)]
    sim = {inv.name: (inv, res) for inv, res in zip(*traced["simulate"])}
    (w1_inv, w1), (_, w2) = sim["iid-w1"], sim["iid-w2"]
    m.update({
        "cli.import_s": statistics.median(t["import_s"] for t in traces),
        "cli.import_numpy_s": statistics.median(t["import_numpy_s"] for t in traces),
        # the CLI output of the two workloads that format much; simulate's
        # few bytes vary with the digits of its seed
        "output.bytes": sum(len(res.out) for w in ("expect", "oracle")
                            for inv, res in zip(*traced[w]) if not inv.script),
        "strings.counter.total_s": sum(agg[f"strings.IncrementalCounter.{f}"][1]
                                       for f in ("push", "snapshot", "restore")),
        "expectation.exact_max_bits": max(res.facts.get("max_bits", 0)
                                          for res in traced["expect"][1]),
        "oracle.nodes": sum(t["oracle_nodes"] for t in traces),
        "montecarlo.us_per_trial": w1.trace["agg"]["montecarlo.estimate_expected_count"][1]
        / w1_inv.trials * 1e6,
        "montecarlo.parallel_eff": w1.wall / (2 * w2.wall),
    })
    for inv, res in zip(*traced["expect"]):
        if inv.step:
            metric, span, n = inv.step
            m[metric] = res.trace["agg"][span][1] / n * 1e6
    return m


def traced_run(workload: str, seed: int) -> dict:
    import workloads

    built = {w: workloads.build(w, seed) for w in workloads.WORKLOADS}
    noop()  # warm-up
    invs = built[workload]
    untraced = run_pass(invs)
    traced = {w: (built[w], run_pass(built[w], traced=True)) for w in workloads.WORKLOADS}
    runs = [(invs, untraced)] + list(traced.values())
    for w_invs, results in runs:
        check_pass(w_invs, results)
    layer_units = units("per_layer")
    metrics = layer_metrics(traced, layer_units)
    metrics.update(microbench(seed))
    metrics["trace.overhead_ratio"] = (sum(r.wall for r in traced[workload][1])
                                       / sum(r.wall for r in untraced))
    attempted, failed, correct = tally(invs, [untraced, traced[workload][1]])
    correct = correct and all(tally(w_invs, [results])[2] for w_invs, results in traced.values())

    for w, (w_invs, results) in traced.items():
        print(f"traced pass: {w}")
        print_invocations(w_invs, [results])
    print("note: --workers 2 runs its trials in forked workers whose spans are lost;"
          " only the parent's wait inside estimate_expected_count is traced")
    for name, unit in layer_units.items():
        value = metrics[name]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:<44} {shown} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in layer_units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("simulate", "expect", "oracle"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subseqlab" / "cli.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs {SRC / 'subseqlab'} and {SPEC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}  {environment()}")
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
