"""Seeded argv fuzzing of every subcommand, in process.

About 400 invocations of ``main`` draw their flags from pools of hostile
values: nan, inf, 1/0, 1e-320, -0, the empty string, huge and negative
integers, and model flags mixed or missing. Whatever the input, ``main``
must return 0, 1 or 2 with no exception escaping it and no traceback on
stderr, and a run that exits 0 prints no inf or nan.

Sizes stay small so the whole run takes a few seconds: ``verify --max-n``
at most 5, ``tree-row --n`` at most 8, ``--trials`` at most 5 and ``--n``
at most 1000, except for 10**30, which ``expect --n``, ``simulate --n``,
``--trials`` and ``--grid`` and ``superpattern --n`` and ``--trials`` also
draw. Every ``expect`` and sampler run is priced before its first step or
letter, so a valid one at that size must exit 2 within a second, in exact
and in float mode alike, and for each sampler. ``--exact`` runs
draw from the same lengths whatever their denominators: the exact engine's
budget refuses, with exit 2, a run such as ``expect --engine closed
--alpha 1e-320 --exact --n 1000`` that would take about half an hour.
``-h`` is never drawn, since argparse's help exits the interpreter by
design.
"""

import random
import re
import time

import pytest

from subseqlab import cli
from subseqlab.cli import main

HUGE = str(10**30)
# Values no flag takes, drawn in a tenth of the draws; each flag's own pool
# of ordinary values covers the rest. A huge positive integer is drawn
# only where it is refused or costs nothing: seeds, workers, alphabets,
# tree-row's --d, solve's values, and the sizes of expect and the samplers.
HOSTILE = ["nan", "inf", "-inf", "1/0", "1e-320", "-0", "", "-1", "-7", "-" + HUGE]
ALPHAS = ["0", "1", "0.5", "1/3", "0.7", "3/10", "1e-320", "0.333333333333333333333"]
PROBS = ["0.2,0.3,0.5", "1/3,1/3,1/3", "1/2,1/2", "1", "0,1", "1e-320,1", "0.1,0.2,0.3,0.4"]
CHAINS = ["0.7,0.3", "0,1", "1,0", "1/2,1/3", "1,1", "1e-320,0.5", "0.333333333333333333333,1"]
LENGTHS = ["0", "1", "2", "3", "7", "20", "64", "200", "1000"]
TRIALS = ["1", "2", "3", "5", "5", "5"]
SEEDS = ["0", "7", str(2**64 - 1), str(2**64), HUGE]
WORKERS = ["1", "1", "2", HUGE]  # 5 trials fill one block, so no pool starts
STRINGS = ["010", "0110", "", "2,1,0", "0,10,3", "9" * 30, "01" * 100] * 2 + ["1,,2", "1,-2", "abc"]
ALPHABETS = ["1", "2", "3", "11", HUGE]
GRIDS = ["0:3", "1:200:50", "2:8:3", "1:5", "3:5"] * 2 + ["5:1", "0:10:0", "1:2:3:4", "a:b"]
OUTS = ["csv", "json"] * 5 + ["xml"]
SAMPLER_SIZES = {"--n": LENGTHS + [HUGE] * 2, "--trials": TRIALS + [HUGE],
                 "--grid": GRIDS + [f"0:{HUGE}", f"3:{HUGE}:7"]}  # priced, so refused


def _pick(rng, pool):
    return rng.choice(HOSTILE if rng.random() < 0.1 else pool)


MODELS = {"alpha": ALPHAS, "probs": PROBS, "markov": CHAINS}


def _model_flags(rng, takes=tuple(MODELS)):
    """Mostly one of the model flags in ``takes``; sometimes none, or any one
    or two of --alpha, --probs and --markov."""
    choices = [[rng.choice(takes)], [], [rng.choice(list(MODELS))], rng.sample(list(MODELS), 2)]
    flags = rng.choices(choices, weights=[17, 1, 1, 1])[0]
    return [arg for flag in flags for arg in (f"--{flag}", _pick(rng, MODELS[flag]))]


def _maybe(rng, argv, flag, pool, p=0.5):
    if rng.random() < p:
        argv += [flag, _pick(rng, pool)]


def _count(rng, tmp_path):
    argv = ["count"]
    if rng.random() < 0.15:
        lines = tmp_path / "strings.txt"
        lines.write_text("\n".join(rng.sample(STRINGS, 3)) + "\n")
        argv += ["--file", rng.choice([str(lines), str(tmp_path / "missing.txt")])]
        argv += rng.sample(STRINGS, rng.choice([0, 0, 0, 1]))
    else:
        argv += rng.sample(STRINGS, rng.choice([0, 1, 1, 2, 3, 3]))
    _maybe(rng, argv, "--alphabet", ALPHABETS, 0.3)
    for flag in ("--with-empty", "--profile"):
        if rng.random() < 0.4:
            argv.append(flag)
    _maybe(rng, argv, "--out", OUTS, 0.4)
    return argv


def _expect(rng, tmp_path):
    argv = ["expect"]
    engine = rng.choice(["closed", "matrix", "markov"])
    if rng.random() < 0.95:
        argv += ["--engine", engine if rng.random() < 0.95 else "bogus"]
    argv += _model_flags(rng, cli._TAKES[engine])
    _maybe(rng, argv, "--n", LENGTHS + [HUGE] * 2, 0.95)
    if rng.random() < 0.5:
        argv.append("--exact")
    _maybe(rng, argv, "--out", OUTS, 0.4)
    return argv


def _simulate(rng, tmp_path):
    argv = ["simulate"]
    model = rng.choice(["iid", "markov"])
    if rng.random() < 0.95:
        argv += ["--model", model if rng.random() < 0.95 else "chain"]
    argv += _model_flags(rng, cli._TAKES[model])
    lengths = rng.choices([["--n"], ["--grid"], [], ["--n", "--grid"]], weights=[12, 6, 1, 1])[0]
    for flag in lengths:
        argv += [flag, _pick(rng, SAMPLER_SIZES[flag])]
    argv += ["--trials", _pick(rng, SAMPLER_SIZES["--trials"])]  # the default of 1000 is too many here
    _maybe(rng, argv, "--seed", SEEDS, 0.4)
    _maybe(rng, argv, "--workers", WORKERS, 0.3)
    _maybe(rng, argv, "--out", OUTS, 0.5)
    if rng.random() < (0.6 if "--grid" in argv else 0.05):
        argv += ["--fit-growth", "--out", "json"]
    return argv


def _verify(rng, tmp_path):
    return ["verify", "--max-n", _pick(rng, ["1", "2", "3", "4", "5"])]


def _tree_row(rng, tmp_path):
    argv = ["tree-row"]
    _maybe(rng, argv, "--d", ["0", "1", "2", "3", HUGE], 0.95)
    _maybe(rng, argv, "--n", ["0", "1", "2", "5", "8"], 0.95)
    return argv


def _superpattern(rng, tmp_path):
    argv = ["superpattern"]
    if rng.random() < 0.4:
        argv.append(rng.choice(STRINGS))
        _maybe(rng, argv, "--alphabet", ALPHABETS, 0.4)
    else:
        argv += _model_flags(rng)
        _maybe(rng, argv, "--n", SAMPLER_SIZES["--n"], 0.9)
    if rng.random() < 0.1:  # a model's flags after a string, or the reverse
        argv += rng.choice([["--n", "5"], ["--alphabet", "2"]])
    if "--n" in argv:  # the default of 1000 trials is too many here
        argv += ["--trials", _pick(rng, SAMPLER_SIZES["--trials"])]
        _maybe(rng, argv, "--seed", SEEDS, 0.3)
        _maybe(rng, argv, "--workers", WORKERS, 0.2)
    _maybe(rng, argv, "--out", OUTS, 0.4)
    return argv


def _solve(rng, tmp_path):
    task = rng.choices(["balance", "threshold", "occurrences", "none", "both"], [4, 2, 6, 1, 1])[0]
    argv = ["solve"]
    if task in ("balance", "both"):
        argv += ["--balance", _pick(rng, ["0.1", "0.5", "0.7", "0.9", "1", "1.9", HUGE])]
    if task in ("threshold", "both"):
        argv.append("--threshold")
    if task == "occurrences":
        argv.append("--occurrences")
        pairs = {
            "n": _pick(rng, ["0", "3", "30", HUGE]),
            "pattern": rng.choice(["0110", "1", "01", "012", "2,1,0", "", "-1", "abc"]),
            "alpha": _pick(rng, ALPHAS + PROBS),
            "log": rng.choice(["true", "false", "1", "no", "maybe"]),
        }
        tokens = [f"{key}={value}" for key, value in pairs.items() if rng.random() < 0.95]
        if rng.random() < 0.2:
            tokens.append(rng.choice(["n", "=5", "n=1=2", "x=1", "n=4"]))
        argv += tokens
    return argv


COMMANDS = [_count, _expect, _simulate, _verify, _tree_row, _superpattern, _solve]


def test_hostile_argv_exits_cleanly(capsys, tmp_path):
    rng = random.Random(0)
    huge = {}  # exit codes of expect --n HUGE, by mode, and of samplers drawing HUGE
    for i in range(400):
        argv = COMMANDS[i % len(COMMANDS)](rng, tmp_path)
        began = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv}: {exc!r} escaped main")
        seconds = time.perf_counter() - began
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        if code == 0:
            assert not re.search(r"(?i)\b(inf|infinity|nan)\b", out), (argv, out[:200])
        if argv[0] == "expect" and ("--n", HUGE) in zip(argv, argv[1:]):
            assert code in (1, 2) and seconds < 1, (argv, code, seconds)  # 1: invalid input
            assert (code == 2) is err.startswith("size guard:"), (argv, err)
            huge.setdefault("--exact" in argv, set()).add(code)
        sizes = [value for flag, value in zip(argv, argv[1:]) if flag in SAMPLER_SIZES]
        if argv[0] in ("simulate", "superpattern") and any(HUGE in value for value in sizes):
            assert code in (1, 2) and seconds < 1, (argv, code, seconds)
            assert (code == 2) is err.startswith("size guard:"), (argv, err)
            huge.setdefault(argv[0], set()).add(code)
    assert {key: 2 in codes for key, codes in huge.items()} == {
        False: True, True: True, "simulate": True, "superpattern": True}
