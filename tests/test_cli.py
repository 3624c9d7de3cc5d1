"""End-to-end tests for the command line interface.

Each test drives ``main(argv)`` in process and inspects stdout/stderr;
a few shell out: two determinism tests compare raw bytes across runs, one
prints numbers past the interpreter's digit limit, some meet a stdout that
closes early, is full, does not block or is closed from the start, and some
list the modules a command loads.
"""

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqlab import (
    IIDModel,
    LetterString,
    MarkovModel,
    RootResult,
    cli,
    count_distinct,
    exhaustive_expectation,
    iid_matrix_expectation,
    oracle,
)
from subseqlab import output
from subseqlab.cli import main
from subseqlab.expectation import ExpectationSeries
from subseqlab.output import dump_json, render_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_basic_csv(capsys):
    code, out, err = run_cli(capsys, "count", "010")
    assert code == 0
    assert out == "input,n,phi\n010,3,6\n"
    assert err == ""


def test_count_optional_columns(capsys):
    code, out, _ = run_cli(capsys, "count", "0101", "--with-empty", "--profile")
    assert code == 0
    assert out.splitlines() == [
        "input,n,phi,phi_with_empty,profile",
        "0101,4,11,12,1 2 3 5",
    ]


def test_count_multiple_strings_json(capsys):
    code, out, _ = run_cli(capsys, "count", "0", "01", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["phi"] for row in payload["rows"]] == [1, 3]


def test_count_comma_form_and_alphabet(capsys):
    code, out, _ = run_cli(capsys, "count", "3,1,3", "--alphabet", "5")
    assert code == 0
    assert out.splitlines()[1] == '"3,1,3",3,6'


def test_count_from_file(tmp_path, capsys):
    source = tmp_path / "strings.txt"
    source.write_text("010\n\n0000\n")
    code, out, _ = run_cli(capsys, "count", "--file", str(source))
    assert code == 0
    assert out.splitlines()[1:] == ["010,3,6", "0000,4,4"]


def test_count_file_error_names_line(tmp_path, capsys):
    source = tmp_path / "strings.txt"
    source.write_text("01\n0x1\n")
    code, _, err = run_cli(capsys, "count", "--file", str(source))
    assert code == 1
    assert "line 2" in err


def test_count_file_error_past_the_first_chunk_writes_nothing(tmp_path, capsys):
    """Every line parses before the first row is written, so a bad line
    after more good rows than one chunk of CSV holds leaves stdout empty."""
    source = tmp_path / "strings.txt"
    good = output.CSV_CHUNK // 4  # each row "01,2,3" takes 7 characters
    source.write_text("01\n" * good + "012\n")
    code, out, err = run_cli(capsys, "count", "--file", str(source), "--alphabet", "2")
    assert (code, out) == (1, "")
    assert err == f"error: line {good + 1}: letter 2 out of range for alphabet of size 2\n"


def test_count_rejects_file_plus_inline(tmp_path, capsys):
    source = tmp_path / "strings.txt"
    source.write_text("01\n")
    code, _, err = run_cli(capsys, "count", "01", "--file", str(source))
    assert code == 1
    assert err != ""


def test_expect_closed_csv(capsys):
    code, out, _ = run_cli(capsys, "expect", "--engine", "closed", "--alpha", "0.5", "--n", "4")
    assert code == 0
    assert out == "n,value\n1,1\n2,2.5\n3,4.75\n4,8.125\n"


def test_expect_matrix_exact_json(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "--engine", "matrix", "--probs", "1/2,1/2",
        "--exact", "--n", "4", "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "exact"
    assert payload["values"] == ["1/1", "5/2", "19/4", "65/8"]


def test_expect_markov_matches_diagonal(capsys):
    code, out, _ = run_cli(
        capsys, "expect", "--engine", "markov", "--markov", "0.5,0.5", "--n", "3"
    )
    assert code == 0
    assert out.splitlines()[1:] == ["1,1", "2,2.5", "3,4.75"]


def test_expect_closed_takes_exact(capsys):
    """--exact runs the closed engine in Fractions, row for row as the matrix
    engine with the same --alpha."""
    argv = ("--alpha", "3/10", "--n", "6", "--exact")
    closed = run_cli(capsys, "expect", "--engine", "closed", *argv)
    assert closed == run_cli(capsys, "expect", "--engine", "matrix", *argv)
    exact = iid_matrix_expectation(IIDModel.binary(Fraction(3, 10)), 6).final()
    assert closed[0] == 0 and closed[1].splitlines()[-1] == f"6,{exact}"


def test_expect_engine_model_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "expect", "--engine", "closed", "--probs", "0.5,0.5", "--n", "4"
    )
    assert code == 1
    assert err != ""


def test_expect_markov_boundary_matches_oracle(capsys):
    """Boundary chains run through the engine and equal the oracle."""
    tenths = ("0", "3/10", "1/2", "7/10", "1")
    chains = [(a, b) for a in tenths for b in tenths if (a, b) != ("1", "0")]
    for a, b, n in [("1", "1/2", 8)] + [(a, b, 12) for a, b in chains]:
        code, out, _ = run_cli(
            capsys, "expect", "--engine", "markov", "--markov", f"{a},{b}",
            "--exact", "--n", str(n), "--out", "json",
        )
        assert code == 0
        want = exhaustive_expectation(MarkovModel(Fraction(a), Fraction(b)), n).values
        assert tuple(Fraction(v) for v in json.loads(out)["values"]) == want


D26 = ",".join(["1/26"] * 26)


@pytest.mark.parametrize(
    "argv,first_ln_row",
    [
        (("--engine", "matrix", "--probs", D26, "--n", "2000"), 1054),
        (("--engine", "markov", "--markov", "0.7,0.3", "--n", "3000"), 2031),
        (("--engine", "closed", "--alpha", "0.3", "--n", "2000"), 1880),
    ],
    ids=["d26", "markov", "closed"],
)
def test_expect_prints_ln_rows_past_the_float_range(capsys, argv, first_ln_row):
    """Rows past float64 print ln(E) and say so in a log_space column."""
    code, out, _ = run_cli(capsys, "expect", *argv)
    assert code == 0
    assert "inf" not in out and "nan" not in out
    lines = out.splitlines()
    n = int(argv[-1])
    assert lines[0] == "n,value,log_space"
    flags = [line.split(",")[2] for line in lines[1:]]
    assert flags == ["false"] * (first_ln_row - 1) + ["true"] * (n - first_ln_row + 1)
    assert 709 < float(lines[first_ln_row].split(",")[1]) < 711
    code, out, _ = run_cli(capsys, "expect", *argv, "--out", "json")
    payload = json.loads(out)
    assert code == 0 and payload["log_space"] == [f == "true" for f in flags]
    assert payload["values"] == [float(line.split(",")[1]) for line in lines[1:]]


def test_expect_closed_runs_the_matrix_engine(capsys):
    """--engine closed is the matrix engine on the binary model: same rows,
    and JSON carries no log_space list when no row needs one."""
    code, closed, _ = run_cli(capsys, "expect", "--engine", "closed", "--alpha", "0.3",
                              "--n", "50", "--out", "json")
    assert code == 0
    code, matrix, _ = run_cli(capsys, "expect", "--engine", "matrix", "--alpha", "0.3",
                              "--n", "50", "--out", "json")
    closed, matrix = json.loads(closed), json.loads(matrix)
    assert closed["model"] == matrix["model"] == "iid(0.7,0.3)"
    assert closed["values"] == matrix["values"]
    assert "log_space" not in closed


def test_tree_row_output(capsys):
    code, out, _ = run_cli(capsys, "tree-row", "--d", "2", "--n", "3")
    assert code == 0
    assert out == "1,3,3,2,2,3,3,1\n"


@pytest.mark.parametrize("d,n", [(2, 13), (3, 8)])
def test_tree_row_streams_the_joined_row(capsys, d, n):
    """A row of several runs prints as one join."""
    assert d**n > oracle.ROW_SLICE
    code, out, _ = run_cli(capsys, "tree-row", "--d", str(d), "--n", str(n))
    assert code == 0
    assert out == ",".join(map(str, cli.tree_row(d, n))) + "\n"


class _Sink(io.TextIOBase):
    """A text stream that discards what it is given."""

    def write(self, text):
        return len(text)


def _peak(argv):
    """The most memory ``main(argv)`` held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d,n", [(3, 10), (2, 20), (101, 3), (1024, 2)])
def test_tree_row_never_holds_the_row(monkeypatch, d, n):
    """tree-row writes each run of the row as it is built from the row
    above. The 59049-entry row for d=3, n=10 costs over 1 MB as one tuple
    and its values, and the rows here reach a million entries. Printing one
    may take no more than a few runs, their parent pieces and their decimal
    strings above printing the 3-entry row n=1, whose peak is mostly the
    argument parser: under 512 KB, however long the row and however wide
    its alphabet."""
    monkeypatch.setattr(sys, "stdout", _Sink())
    _peak(["tree-row", "--d", "3", "--n", "1"])  # binds what the command imports
    small = _peak(["tree-row", "--d", "3", "--n", "1"])
    large = _peak(["tree-row", "--d", str(d), "--n", str(n)])
    assert large - small < 512 * 1024, (small, large)


EXPECT_D4 = ["expect", "--engine", "matrix", "--probs", "1/4,1/4,1/4,1/4"]


def test_expect_never_holds_the_exact_table(monkeypatch):
    """expect writes its CSV a chunk of rows at a time from the series. At
    n=2000 the exact series of four uniform letters holds about 1.5 MB, and
    its table of row dicts and text once cost about 8 MB more. Printing it
    may take no more than the series and 512 KB above printing n=1."""
    monkeypatch.setattr(sys, "stdout", _Sink())
    _peak([*EXPECT_D4, "--exact", "--n", "1"])  # binds what the command imports
    small = _peak([*EXPECT_D4, "--exact", "--n", "1"])
    tracemalloc.start()
    try:
        series = iid_matrix_expectation(IIDModel.uniform(4), 2000)
        own = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del series
    large = _peak([*EXPECT_D4, "--exact", "--n", "2000"])
    assert large - small < own + 512 * 1024, (small, large, own)


def test_expect_never_holds_the_float_table(monkeypatch):
    """20000 float rows once peaked about 11.5 MB above n=1; streamed, the
    series' own 0.6 MB is most of what remains."""
    monkeypatch.setattr(sys, "stdout", _Sink())
    floats = ["expect", "--engine", "matrix", "--probs", "0.25,0.25,0.25,0.25", "--n"]
    _peak([*floats, "1"])  # binds what the command imports
    small, large = _peak([*floats, "1"]), _peak([*floats, "20000"])
    assert large - small < 1024 * 1024, (small, large)


def test_count_never_holds_its_rows(monkeypatch, tmp_path):
    """count's CSV rows, profiles included, stream as they are counted: 2000
    binary strings of 200 letters peak at about 4.6 MB, most of it the
    parsed strings, where holding every row as JSON does takes about 38 MB."""
    rng = random.Random(0)
    lines = ("".join(rng.choice("01") for _ in range(200)) for _ in range(2000))
    (tmp_path / "strings.txt").write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(sys, "stdout", _Sink())
    _peak(["count", "0110", "--profile"])  # binds what the command imports
    assert _peak(["count", "--file", str(tmp_path / "strings.txt"), "--profile"]) < 8 * 10**6


def test_count_without_a_profile_holds_no_profile(monkeypatch):
    """count without --profile counts each string in O(n) state: the
    profile of a 20000-letter string, whose entries reach 20000 bits, once
    held about 16 MB only to be summed."""
    rng = random.Random(0)
    text = "".join(rng.choice("01") for _ in range(20000))
    monkeypatch.setattr(sys, "stdout", _Sink())
    _peak(["count", "0110"])  # binds what the command imports
    assert _peak(["count", text]) < 1024 * 1024


@pytest.mark.parametrize("out", ["csv", "json"])
def test_a_non_finite_last_row_leaves_stdout_empty(capsys, monkeypatch, out):
    """The rows stream, so expect checks every float before the header: a
    non-finite value in the last of 5000 rows still prints nothing."""
    values = (1.5,) * 4999 + (math.inf,)
    monkeypatch.setattr(cli, "iid_matrix_expectation",
                        lambda model, n: ExpectationSeries(values, mode="float"))
    assert run_cli(capsys, *EXPECT_D4, "--n", "5000", "--out", out) == (
        1, "", "error: cannot print the non-finite number inf\n"
    )


def test_tree_row_size_guard_exit_code(capsys):
    # A one-letter row is a single string, but its walk is 5000 deep; a
    # huge alphabet must meet the guard before any per-letter table.
    for d, n, power in (("2", "30", "2**30"), ("1", "5000", "2**5000"),
                        ("99999999999", "2", "99999999999**2")):
        code, out, err = run_cli(capsys, "tree-row", "--d", d, "--n", n)
        assert (code, out) == (2, "")
        assert err == f"size guard: {power} strings exceed the exhaustive guard of 1048576\n"
    assert run_cli(capsys, "tree-row", "--d", "99999999999", "--n", "0") == (0, "0\n", "")


def test_exact_budget_exit_code(capsys):
    """An exact run over the engine's budget exits 2 before its first row,
    though expect binds neither the oracle nor its SizeGuardError."""
    for n, digits, cost in (("200", "6.4e+04", "2.73e+11"), ("1000", "3.2e+05", "3.41e+13")):
        argv = ("expect", "--engine", "closed", "--alpha", "1e-320", "--exact", "--n", n)
        assert run_cli(capsys, *argv) == (2, "", (
            f"size guard: exact rows to n={n} reach {digits} digits: a predicted cost of "
            f"{cost} squared digits, over the exact guard of 4e+10\n"))


def test_float_guard_exit_code(capsys):
    """A float run priced over ``FLOAT_GUARD`` row operations exits 2 within
    a second, before its first row: 10**8 rows of a chain or of two
    letters, and 2 * 10**6 rows over 300 letters weighted 1..300."""
    weights = ",".join(repr(i / 45150) for i in range(1, 301))
    for model, n, price in ((("closed", "--alpha", "0.5"), 10**8, "2**2 + n*4"),
                            (("markov", "--markov", "0.7,0.3"), 10**8, "2**2 + n*12"),
                            (("matrix", "--probs", weights), 2 * 10**6, "300**2 + n*600")):
        began = time.perf_counter()
        assert run_cli(capsys, "expect", "--engine", *model, "--n", str(n)) == (2, "", (
            f"size guard: float rows to n={n} cost {price} row operations, "
            "over the float guard of 1.5e+07\n"))
        assert time.perf_counter() - began < 1


HUGE = str(10**30)
UNBOUNDED_SAMPLERS = [
    ("simulate", "--model", "iid", "--alpha", "0.5", "--n", HUGE, "--trials", "2"),
    ("superpattern", "--alpha", "0.5", "--n", HUGE, "--trials", "1"),
    ("simulate", "--model", "iid", "--alpha", "0.5", "--n", "10", "--trials", str(10**12)),
    ("simulate", "--model", "markov", "--markov", "0.7,0.3", "--grid", f"1:{HUGE}:3",
     "--trials", "2", "--fit-growth", "--out", "json"),
]


@pytest.mark.parametrize("argv", UNBOUNDED_SAMPLERS, ids=["n", "superpattern-n", "trials", "grid"])
def test_sample_guard_exit_code(argv):
    """A sampler run over the sample guard exits 2 before it draws a letter,
    in a new interpreter, where the guard's error class loads only when the
    sampler raises it."""
    began = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "subseqlab.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"size guard: trials=\d+ at lengths up to n=\d+ are priced at "
                        r"[\d.]+e\+\d\d+ letter cells, over the sample guard of 5e\+08\n",
                        proc.stderr), proc.stderr
    assert time.perf_counter() - began < 5  # a new interpreter that loads numpy


def test_the_grid_is_priced_before_its_first_length(capsys, monkeypatch):
    """The whole grid is priced at once: a grid whose first lengths are
    cheap samples none of them."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the grid was priced")

    monkeypatch.setattr(cli, "estimate_expected_count", no_sampling)
    code, out, err = run_cli(capsys, "simulate", "--model", "iid", "--alpha", "0.5",
                             "--grid", "1:100000", "--trials", "1000")
    assert (code, out) == (2, "")
    assert err.startswith("size guard: trials=1000 at lengths up to n=100000 are priced at ")


# Runs a small simulate through main, then prints this process's thread count.
THREADS = """
import os, sys
from subseqlab.cli import main
code = main(["simulate", "--model", "iid", "--alpha", "0.5", "--grid", "10:30:10",
             "--trials", "50", "--fit-growth", "--out", "json"])
print(code, len(os.listdir("/proc/self/task")), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and two CPUs for a BLAS pool to start")
def test_the_cli_runs_numpy_on_one_thread():
    """numpy's BLAS would start one thread per CPU as it loads; the CLI caps
    it at one. The environment is built without the cap, since a process
    that has run main carries it in its C environment."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", THREADS], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.stderr.split()[-2:] == ["0", "1"], proc.stderr


def test_exact_budget_bounds_a_source_with_q_one(capsys):
    """A count stays below 2**i, so a row whose steps need no denominator
    (q = 1) is still priced at ``i * log10(2)`` digits: the alternating
    chain and a constant letter exit 2 at n=20000, and the chain runs at
    n=10000, whose last row has 2,091 digits, under the 3,011 it is priced."""
    for model in (("markov", "--markov", "0,1"), ("closed", "--alpha", "0")):
        assert run_cli(capsys, "expect", "--engine", *model, "--exact", "--n", "20000") == (2, "", (
            "size guard: exact rows to n=20000 reach 6.02e+03 digits: a predicted cost of "
            "2.42e+11 squared digits, over the exact guard of 4e+10\n"))
    code, out, err = run_cli(capsys, "expect", "--engine", "markov", "--markov", "0,1",
                             "--exact", "--n", "10000")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 10001 and lines[-1].startswith("10000,")
    assert len(lines[-1].partition(",")[2].partition("/")[0]) == 2091


@pytest.mark.parametrize(
    "argv,name",
    [(("count", "01"), "count_distinct"), (("verify", "--max-n", "2"), "tree_row"),
     (("expect", "--engine", "closed", "--alpha", "1/2", "--exact", "--n", "2"),
      "iid_matrix_expectation")],
    ids=["count", "verify", "expect"],
)
def test_a_runtime_error_that_is_no_size_guard_propagates(monkeypatch, argv, name):
    """Only a SizeGuardError becomes exit 2, also once verify has bound the
    oracle or expect has loaded the engine that raises it; any other
    RuntimeError keeps its traceback."""

    def broken(*args):
        raise RuntimeError("not a size guard")

    monkeypatch.setattr(cli, name, broken)
    with pytest.raises(RuntimeError, match="^not a size guard$"):
        main(list(argv))


def test_simulate_single_length(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5",
        "--n", "12", "--trials", "200", "--seed", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,mean,stderr,trials,seed"
    fields = lines[1].split(",")
    assert fields[0] == "12" and fields[3] == "200" and fields[4] == "4"


def test_simulate_csv_flags_log_space(capsys):
    """Past 2**53 the mean is ln(mean); the CSV says so in a log_space column."""
    base = ("simulate", "--model", "iid", "--probs", "0.5,0.5", "--trials", "3", "--seed", "1")
    code, out, _ = run_cli(capsys, *base, "--n", "1100")
    assert code == 0
    header, row = out.splitlines()
    assert header == "n,mean,stderr,trials,seed,log_space"
    assert row.startswith("1100,445.0") and row.endswith(",3,1,true")
    code, out, _ = run_cli(capsys, *base, "--grid", "10:1100:1090")
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()] == ["log_space", "false", "true"]
    code, out, _ = run_cli(capsys, *base, "--n", "10")
    assert code == 0
    assert out.splitlines()[0] == "n,mean,stderr,trials,seed"


def test_simulate_grid_and_fit_json(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5",
        "--grid", "8:16:4", "--trials", "100", "--seed", "99",
        "--fit-growth", "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [rec["n"] for rec in payload["rows"]] == [8, 12, 16]
    assert set(payload["fit"]) >= {"c", "slope", "intercept", "r_squared", "clamped"}


def test_simulate_fit_rejects_length_zero(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5",
        "--grid", "0:4", "--trials", "3", "--fit-growth", "--out", "json",
    )
    assert code == 1
    assert out == ""
    assert "at least 1; got [0]" in err


@pytest.mark.parametrize(
    "lengths,message",
    [
        (("--grid", "0:4"), "growth fit takes ln of the mean count, so lengths must be at least 1; "
                            "got [0]"),
        (("--n", "5"), "growth fit needs at least 3 distinct grid lengths"),
        (("--grid", "0:1000000000000", "--trials", "2"),
         "growth fit takes ln of the mean count, so lengths must be at least 1; got [0]"),
        (("--grid", f"0:{10**30}", "--trials", "2"),  # longer than sys.maxsize
         "growth fit takes ln of the mean count, so lengths must be at least 1; got [0]"),
    ],
    ids=["length-zero", "one-length", "huge-grid", "grid-past-maxsize"],
)
def test_simulate_fit_checks_the_grid_before_sampling(capsys, monkeypatch, lengths, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the grid was checked")

    monkeypatch.setattr(cli, "estimate_expected_count", no_sampling)
    code, out, err = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5", *lengths,
        "--fit-growth", "--out", "json",
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_fit_requires_json(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5",
        "--grid", "8:16:4", "--trials", "100", "--seed", "99", "--fit-growth",
    )
    assert code == 1
    assert "json" in err


def test_simulate_needs_exactly_one_of_n_and_grid(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5", "--trials", "50"
    )
    assert code == 1
    code, _, _ = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5",
        "--n", "5", "--grid", "5:9:2", "--trials", "50",
    )
    assert code == 1


def test_simulate_model_flag_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--model", "markov", "--alpha", "0.5",
        "--n", "5", "--trials", "50", "--seed", "1",
    )
    assert code == 1
    assert err != ""


def test_simulate_markov_model(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "markov", "--markov", "0.7,0.3",
        "--n", "10", "--trials", "100", "--seed", "2",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("10,")


def test_superpattern_string_mode(capsys):
    code, out, _ = run_cli(capsys, "superpattern", "0101")
    assert code == 0
    assert out == "input,d,n,k\n0101,2,4,2\n"


@pytest.mark.parametrize("flag", ["--alpha", "--probs", "--markov"])
def test_superpattern_string_rejects_an_empty_model_flag(capsys, flag):
    code, out, err = run_cli(capsys, "superpattern", "0101", flag, "")
    assert (code, out) == (1, "")
    assert f"error: argument {flag}: not allowed with argument string" in err


@pytest.mark.parametrize(
    "extra,named",
    [
        (("--n", "5", "--trials", "3"), ["--n", "--trials"]),
        (("--seed", "0"), ["--seed"]),
        (("--workers", "1", "--trials", "1000"), ["--trials", "--workers"]),
    ],
)
def test_superpattern_string_rejects_experiment_flags(capsys, extra, named):
    """Flags given at their experiment defaults are still rejected."""
    code, out, err = run_cli(capsys, "superpattern", "0101", *extra)
    assert (code, out) == (1, "")
    assert f"error: {', '.join(named)} only apply with a model" in err


def test_superpattern_experiment_defaults(capsys):
    """Without --trials and --workers, experiment mode runs 1000 trials."""
    code, out, _ = run_cli(capsys, "superpattern", "--alpha", "0.5", "--n", "10", "--out", "json")
    assert code == 0
    assert json.loads(out)["trials"] == 1000


def test_superpattern_experiment_mode(capsys):
    code, out, _ = run_cli(
        capsys, "superpattern", "--alpha", "0.5", "--n", "40",
        "--trials", "100", "--seed", "5", "--out", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 40 and payload["trials"] == 100
    assert sum(payload["histogram"].values()) == 100


def test_superpattern_requires_string_or_n(capsys):
    code, _, _ = run_cli(capsys, "superpattern")
    assert code == 1


def test_solve_balance_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--balance", "0.75")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["lower"]["x"] - 0.1230623223962593) < 1e-9
    assert abs(payload["upper"]["x"] - 0.5705521304341155) < 1e-9


def test_solve_threshold(capsys):
    code, out, _ = run_cli(capsys, "solve", "--threshold")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["x"] - 0.7729078047806577) < 1e-10
    assert list(payload) == ["equation", *(f.name for f in fields(RootResult))]
    assert payload["bracket"][0] <= payload["x"] <= payload["bracket"][1]


def test_solve_occurrences(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--occurrences", "n=20", "pattern=1111111111", "alpha=0.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["expected"] == 180.42578125


def test_solve_occurrences_past_float_range_of_the_binomial(capsys):
    """C(2000, 1000) alone overflows a float; the count itself does not."""
    code, out, err = run_cli(
        capsys, "solve", "--occurrences", "n=2000", "pattern=" + "1" * 1000, "alpha=0.5"
    )
    assert (code, err) == (0, "")
    assert '"expected": 1.9114653986474661e+299\n' in out
    code, out, err = run_cli(
        capsys, "solve", "--occurrences", "n=4000", "pattern=" + "1" * 1000, "alpha=0.5"
    )
    assert (code, out) == (1, "")
    assert "log_space=True" in err


def test_solve_occurrences_log(capsys):
    for text, flag in (("true", True), ("YES", True), ("1", True), ("no", False), ("0", False)):
        code, out, _ = run_cli(
            capsys, "solve", "--occurrences", "n=20", "pattern=1111111111",
            "alpha=0.5", f"log={text}",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["log_space"] is flag
    code, out, err = run_cli(
        capsys, "solve", "--occurrences", "n=20", "pattern=1111111111",
        "alpha=0.5", "log=maybe",
    )
    assert (code, out) == (1, "")
    assert "'maybe'" in err
    for extra, named in (("logspace=true", "'logspace'"), ("n=30", "'n'")):
        code, out, err = run_cli(
            capsys, "solve", "--occurrences", "n=20", "pattern=1", "alpha=0.5", extra,
        )
        assert (code, out) == (1, "")
        assert named in err


def test_solve_prints_no_non_finite_number(capsys):
    """A zero-probability pattern has ln E = -inf, which JSON cannot hold."""
    code, out, err = run_cli(
        capsys, "solve", "--occurrences", "n=5", "pattern=01", "alpha=0", "log=true"
    )
    assert (code, out) == (1, "")
    assert err == "error: cannot print the non-finite number -inf\n"


def test_solve_requires_exactly_one_task(capsys):
    code, _, _ = run_cli(capsys, "solve")
    assert code == 1
    code, _, _ = run_cli(capsys, "solve", "--threshold", "--balance", "0.75")
    assert code == 1


def test_solve_balance_below_minimum(capsys):
    code, _, err = run_cli(capsys, "solve", "--balance", "0.5")
    assert code == 1
    assert err != ""


def test_verify_suites_pass(capsys):
    """Six suites, each PASS, in this order, then the verdict: the benchmark's
    check of verify's output counts exactly six PASS lines."""
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert code == 0
    *suites, verdict = out.splitlines()
    assert verdict == "all suites passed"
    assert [line.split()[:2] for line in suites] == [
        [name, "PASS"]
        for name in ("counting", "rows", "pair-structure", "fekete", "engines", "superpattern")
    ]


def test_workers_must_be_positive(capsys):
    for workers in ("0", "-4"):
        code, out, err = run_cli(
            capsys, "superpattern", "--alpha", "0.5", "--n", "20",
            "--trials", "5", "--workers", workers,
        )
        assert (code, out) == (1, "")
        assert "--workers" in err
        code, _, err = run_cli(
            capsys, "simulate", "--model", "iid", "--alpha", "0.5",
            "--n", "8", "--trials", "5", "--workers", workers,
        )
        assert code == 1
        assert "--workers" in err


def test_bad_usage_exits_one(capsys):
    code, _, _ = run_cli(capsys, "expect", "--engine", "closed", "--n", "4")
    assert code == 1


def _cli_bytes(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "subseqlab.cli", *argv],
        capture_output=True, check=True,
    )
    return proc.stdout


def test_simulate_output_is_byte_identical():
    argv = (
        "simulate", "--model", "iid", "--alpha", "0.5",
        "--grid", "8:16:4", "--trials", "60", "--seed", "99", "--out", "json",
    )
    assert _cli_bytes(*argv) == _cli_bytes(*argv)


def test_simulate_workers_do_not_change_bytes():
    base = (
        "simulate", "--model", "iid", "--alpha", "0.5",
        "--n", "14", "--trials", "90", "--seed", "13",
    )
    assert _cli_bytes(*base, "--workers", "1") == _cli_bytes(*base, "--workers", "3")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_reader_exits_one_quietly(unbuffered):
    """A reader that leaves early, as ``| head -c 20`` does, stops the output
    with exit code 1 and nothing on stderr. The row is far larger than a
    pipe's buffer, so the writer meets the closed pipe either way."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "subseqlab.cli", "tree-row", "--d", "2", "--n", "19"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(20) == b"1,19,19,18,18,35,35,"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


LONG_EXPECT = ("expect", "--engine", "markov", "--markov", "0.7,0.3", "--n", "20000")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_reader_of_a_long_expect_exits_one_quietly(unbuffered):
    """expect's 20000 rows run far past a pipe's buffer, as CSV chunks or
    as one JSON text, so a reader that leaves after the first bytes meets
    the writer mid-output, and must stop it the same way whether or not
    stdout is buffered."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    heads = {"csv": b"n,value,log_space\n1,1,false\n", "json": b'{\n  "engine": "markov",\n'}
    for out, head in heads.items():
        proc = subprocess.Popen(
            [sys.executable, "-m", "subseqlab.cli", *LONG_EXPECT, "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (out, proc.returncode, err) == (out, 1, b"")


@pytest.fixture
def any_digits():
    """Lift the interpreter's int-to-str digit limit (3.10.7+) in this process."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    yield
    if digits:
        sys.set_int_max_str_digits(digits)


def test_exact_results_print_past_the_digit_limit(any_digits):
    """A count of 8,360 digits and exact expectations whose denominators
    have 4,320 print in full: the interpreter's 4,300-digit limit on
    int-to-str conversion does not apply to the command."""
    s = "01" * 20000
    phi = _cli_bytes("count", s).decode().splitlines()[1].split(",")[2]
    assert int(phi) == count_distinct(LetterString.from_text(s)) and len(phi) == 8360
    rows = _cli_bytes("expect", "--engine", "matrix", "--alpha", "1/1000000000000",
                      "--exact", "--n", "360").decode().splitlines()
    series = iid_matrix_expectation(IIDModel.binary(Fraction(1, 10**12)), 360)
    assert Fraction(rows[-1].split(",")[1]) == series.final()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_full_device_is_one_error_line(unbuffered):
    """A write that fails for want of space ends in one error line, exit 1,
    buffered or not: the command hands its bytes to the device itself, so
    no buffer is left to fail again at exit."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "subseqlab.cli", "count", "01"],
                              stdout=full, stderr=subprocess.PIPE, env=env)
    assert (proc.returncode, proc.stderr) == (
        1, b"error: cannot write output: [Errno 28] No space left on device\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_help_on_a_full_device_is_one_error_line(unbuffered):
    """The help text meets a full device as count's output does."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "subseqlab.cli", "--help"],
                              stdout=full, stderr=subprocess.PIPE, env=env)
    assert (proc.returncode, proc.stderr) == (
        1, b"error: cannot write output: [Errno 28] No space left on device\n"
    )


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_help_to_a_gone_reader_exits_one_quietly(unbuffered):
    """The help text fits a pipe's buffer, so the pipe's reader is closed
    before the command starts."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "subseqlab.cli", "--help"],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not hasattr(os, "set_blocking"), reason="needs non-blocking pipes")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_full_non_blocking_pipe_is_one_error_line(unbuffered):
    """A non-blocking stdout that fills takes no more bytes and says so
    rather than blocking; the command stops with one error line instead of
    dropping the rest of its output and exiting 0."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.set_blocking(write, False)
    try:
        proc = subprocess.run([sys.executable, "-m", "subseqlab.cli", *LONG_EXPECT],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
        os.close(read)
    message = f"[Errno {errno.EAGAIN}] write could not complete without blocking"
    assert (proc.returncode, proc.stderr.decode()) == (1, f"error: cannot write output: {message}\n")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_text_printed_before_main_comes_first(unbuffered):
    """The command flushes what was printed to sys.stdout before it writes
    its own bytes past the text layer."""
    script = ("import sys; from subseqlab.cli import main; "
              "print('before'); sys.exit(main(['count', '01']))")
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"before\ninput,n,phi\n01,2,3\n", b"")


PRINT_THEN_MAIN = ("import sys; from subseqlab.cli import main; print('before'); "
                   "sys.stdin.readline(); sys.exit(main(['count', '01']))")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_text_printed_before_main_to_a_gone_reader_exits_one_quietly(unbuffered):
    """A caller prints, its reader leaves, then it runs the command: exit 1
    and nothing on stderr, with no second failure when the interpreter
    flushes what the caller's print left in sys.stdout's buffer. An
    unbuffered print meets the pipe at once, so there the reader takes the
    line before it leaves."""
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-c", PRINT_THEN_MAIN], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if unbuffered:
        assert proc.stdout.readline() == b"before\n"
    proc.stdout.close()
    _, err = proc.communicate(b"\n", timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_text_printed_before_main_to_a_full_device_is_one_error_line():
    """The caller's buffered print fails with the command's write, and not
    again at exit."""
    env = {**os.environ, "PYTHONUNBUFFERED": ""}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-c", PRINT_THEN_MAIN], input=b"\n",
                              stdout=full, stderr=subprocess.PIPE, env=env)
    assert (proc.returncode, proc.stderr) == (
        1, b"error: cannot write output: [Errno 28] No space left on device\n"
    )


def test_a_text_stream_without_a_binary_layer_takes_the_output():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["count", "0110"]) == 0
    assert buf.getvalue() == "input,n,phi\n0110,4,10\n"


def test_closed_stdout_is_one_error_line():
    command = f"{shlex.quote(sys.executable)} -m subseqlab.cli count 01 >&-"
    proc = subprocess.run(command, shell=True, capture_output=True)
    assert (proc.returncode, proc.stderr) == (1, b"error: stdout is closed\n")


def test_superpattern_usage_shows_one_input_choice(capsys):
    """The usage line offers --alpha, --probs, --markov and the string as
    one required choice, and names every option that the help lists."""
    with pytest.raises(SystemExit) as exit_info:
        main(["superpattern", "--help"])
    assert exit_info.value.code == 0
    usage, *sections = capsys.readouterr().out.split("\n\n")
    assert usage == (
        "usage: subseqlab superpattern [-h] [--alphabet ALPHABET]\n"
        "                              (--alpha ALPHA | --probs PROBS |\n"
        "                               --markov MARKOV | string)\n"
        "                              [--n N] [--trials TRIALS] [--seed SEED]\n"
        "                              [--workers WORKERS] [--out {csv,json}]"
    )
    listed = [line.split()[0].rstrip(",") for part in sections for line in part.splitlines()
              if line.startswith("  ")]
    assert len(listed) == 11 and "string" in listed
    assert all(name in usage for name in listed)


def test_importing_the_cli_skips_numpy():
    code = "import subseqlab.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


# Runs the command given as arguments, then lists every loaded module on stderr.
FOOTPRINT = """
import sys
from subseqlab.cli import main
try:
    main(sys.argv[1:])
finally:
    print(*sys.modules, file=sys.stderr)
"""


def _footprint(*argv) -> list[str]:
    """The modules a new interpreter holds after running the command."""
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


@pytest.mark.parametrize(
    "argv,modules",
    [
        (("--help",), ()),
        (("count", "0101"), ("strings", "output")),
        (("expect", "--engine", "closed", "--alpha", "0.3", "--n", "20"),
         ("models", "expectation", "output")),
        (("tree-row", "--d", "2", "--n", "3"), ("oracle", "expectation", "models", "strings")),
        (("simulate", "--model", "iid", "--alpha", "0.5", "--n", "5", "--trials", "10"),
         ("models", "montecarlo", "strings", "output")),
        (("verify", "--max-n", "4"), ("strings", "models", "expectation", "oracle", "montecarlo")),
    ],
    ids=["help", "count", "expect", "tree-row", "simulate", "verify"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, modules):
    """A command imports the library modules it runs and what those import."""
    loaded = [m for m in _footprint(*argv) if m.startswith("subseqlab.")]
    assert sorted(loaded) == sorted(["subseqlab.cli", *(f"subseqlab.{m}" for m in modules)])


def test_help_skips_the_stdlib_modules_commands_need():
    loaded = _footprint("--help")
    assert [m for m in ("dataclasses", "fractions", "json", "csv", "numpy") if m in loaded] == []


def test_csv_expect_loads_neither_csv_nor_json():
    """CSV is joined by hand and json loads for JSON output alone."""
    argv = ("expect", "--engine", "matrix", "--probs", "1/2,1/2", "--exact", "--n", "5")
    assert [m for m in ("csv", "json") if m in _footprint(*argv)] == []
    assert "json" in _footprint(*argv, "--out", "json")


# Exact stdout of each layout the emitter writes: JSON nesting, indentation
# and key order, inline scalar lists, exact rationals, and one-row CSV.
LAYOUTS = [
    (
        ("count", "0101", "--with-empty", "--profile", "--out", "json"),
        '{\n  "rows": [\n    {\n      "input": "0101",\n      "n": 4,\n'
        '      "phi": 11,\n      "phi_with_empty": 12,\n      "profile": [1, 2, 3, 5]\n'
        "    }\n  ]\n}\n",
    ),
    (
        ("expect", "--engine", "matrix", "--probs", "1/2,1/2", "--exact", "--n", "3",
         "--out", "json"),
        '{\n  "engine": "matrix",\n  "model": "iid(1/2,1/2)",\n  "mode": "exact",\n'
        '  "n": 3,\n  "values": ["1/1", "5/2", "19/4"]\n}\n',
    ),
    (("superpattern", "0101"), "input,d,n,k\n0101,2,4,2\n"),
    (
        ("superpattern", "0101", "--out", "json"),
        '{\n  "input": "0101",\n  "d": 2,\n  "n": 4,\n  "k": 2\n}\n',
    ),
    (
        ("solve", "--threshold"),
        '{\n  "equation": "H2(x) = x",\n  "x": 0.77290780478065768,\n'
        '  "residual": -1.6209256159527285e-14,\n'
        '  "bracket": [0.77290780478062926, 0.7729078047806861],\n  "iterations": 43\n}\n',
    ),
    (
        # alpha = 1 samples only 1s, so every count is n and the row is fixed
        ("simulate", "--model", "iid", "--alpha", "1", "--n", "5", "--trials", "2",
         "--seed", "3", "--out", "json"),
        '{\n  "model": "iid(0.0,1.0)",\n  "rows": [\n    {\n      "n": 5,\n'
        '      "mean": 5,\n      "stderr": 0,\n      "trials": 2,\n      "seed": 3,\n'
        '      "log_space": false\n    }\n  ]\n}\n',
    ),
    (
        # alpha = 1 again: no sampled string holds a 0, so every k is 0
        ("superpattern", "--alpha", "1", "--n", "50", "--trials", "40", "--seed", "0",
         "--out", "json"),
        '{\n  "model": "iid(0.0,1.0)",\n  "n": 50,\n  "trials": 40,\n  "seed": 0,\n'
        '  "mean_k": 0,\n  "mean_ratio": 0,\n  "histogram": {\n    "0": 40\n  }\n}\n',
    ),
    (
        ("solve", "--balance", "1.0"),
        '{\n  "equation": "2^x * x^x * (1-x)^(1-x) = target",\n  "target": 1,\n'
        '  "lower": null,\n  "upper": {\n    "x": 0.77290780478062904,\n'
        '    "residual": -4.3631764867768652e-14,\n'
        '    "bracket": [0.77290780478059107, 0.7729078047806669],\n'
        '    "iterations": 43\n  }\n}\n',
    ),
]


@pytest.mark.parametrize(
    "argv,expected", LAYOUTS,
    ids=["count-json", "expect-json", "superpattern-csv", "superpattern-json", "solve",
         "simulate-json", "superpattern-experiment-json", "solve-balance"],
)
def test_output_layouts(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, expected)


# The exit code and the first 16 hex digits of stdout's sha256 for one small
# invocation per command and format, so a change to the output path shows
# whether any byte moved. The error rows print nothing.
GOLDEN = [
    (0, "335930d6ea7baef2", ("count", "0110", "10", "--with-empty", "--profile")),
    (0, "7e159255201155c8",
     ("count", "0110", "10", "--with-empty", "--profile", "--out", "json")),
    (1, "e3b0c44298fc1c14", ("count", "01", "--alphabet", "1")),
    (0, "67a4d37ea9048506", ("expect", "--engine", "closed", "--alpha", "0.3", "--n", "12")),
    (0, "6c5e9ac18a50a68a", ("expect", "--engine", "matrix", "--probs", "1/2,1/3,1/6",
                             "--exact", "--n", "10", "--out", "json")),
    (0, "5efa4604b94e4714",
     ("expect", "--engine", "markov", "--markov", "7/10,3/10", "--exact", "--n", "12")),
    (0, "b0252bc11e11d648", ("expect", "--engine", "markov", "--markov", "0.7,0.3", "--n", "2040")),
    (0, "973464bb8a7d0f9c",
     ("expect", "--engine", "markov", "--markov", "0.7,0.3", "--n", "2040", "--out", "json")),
    (1, "e3b0c44298fc1c14", ("expect", "--engine", "closed", "--markov", "0.7,0.3", "--n", "3")),
    (0, "b0da290402a54efe", ("expect", "--engine", "matrix", "--probs", D26, "--n", "2000")),
    (0, "4ea4467d8ddc41c8",
     ("expect", "--engine", "matrix", "--probs", "1/4,1/4,1/4,1/4", "--exact", "--n", "1000")),
    (0, "00ee902cd8838815",
     ("expect", "--engine", "matrix", "--probs", "0.188,0.02,0.604,0.188", "--n", "300")),
    # q = 12 and q = 1000 hold repeated primes, which each exact row cancels in part
    (0, "cc7a87b3df632903",
     ("expect", "--engine", "matrix", "--probs", "1/12,5/12,1/2", "--exact", "--n", "200")),
    (0, "6aab90ac9e68c3be", ("expect", "--engine", "matrix", "--probs", "1/12,5/12,1/2",
                             "--exact", "--n", "200", "--out", "json")),
    (0, "849dac5240285262",
     ("expect", "--engine", "markov", "--markov", "1/8,999/1000", "--exact", "--n", "200")),
    (0, "82b2ba756a394656",
     ("simulate", "--model", "iid", "--alpha", "0.5", "--n", "12", "--trials", "200", "--seed", "5")),
    (0, "933529362eb68af5",
     ("simulate", "--model", "iid", "--alpha", "0.5", "--n", "100", "--trials", "50", "--seed", "1")),
    (0, "f91dbc549bef1b15", ("simulate", "--model", "markov", "--markov", "0.7,0.3", "--grid", "4:12:4",
                             "--trials", "100", "--seed", "3", "--fit-growth", "--out", "json")),
    (0, "e4f84db3557a3e42", ("superpattern", "0100110", "--alphabet", "2")),
    (0, "7fb546d67fec98a2", ("superpattern", "0100110", "--out", "json")),
    (0, "2c166758971765f9",
     ("superpattern", "--alpha", "0.5", "--n", "40", "--trials", "30", "--seed", "5")),
    (0, "5456abd5a6e64b12", ("superpattern", "--markov", "0.7,0.3", "--n", "40", "--trials", "30",
                             "--seed", "5", "--out", "json")),
    (0, "0a434cf96a6b107d", ("verify", "--max-n", "5")),
    (0, "d7c5b3c42109ad1d", ("tree-row", "--d", "3", "--n", "3")),
    (2, "e3b0c44298fc1c14", ("tree-row", "--d", "3", "--n", "40")),
    (0, "263c5b375a1c39d0", ("solve", "--balance", "0.75")),
    (0, "e019781675e80fd1",
     ("solve", "--occurrences", "n=30", "pattern=0110", "alpha=0.5", "log=true")),
]


@pytest.mark.parametrize("code, digest, argv", GOLDEN, ids=[" ".join(g[2]) for g in GOLDEN])
def test_output_matches_the_recorded_digest(capsys, code, digest, argv):
    got, out, _ = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


# Each suite's fast side as ``wrong(real, *args)``, wrong on one case, and
# the text naming that case, keyed by test id.
VERIFY_FAILURES = {
    "counting": ("counting", "count_distinct",
                 lambda real, s: real(s) + (s.letters == (1, 0)), "mismatch at (1, 0)"),
    "rows": ("rows", "tree_row",
             lambda real, d, n: real(d, n) if n != 2 else (1, 2, 1, 2), "binary row 2 mismatch"),
    "pair-structure": ("pair-structure", "check_pair_structure",
                       lambda real, n: n != 5, "pair structure fails at row 5"),
    "fekete": ("fekete", "check_submultiplicativity",
               lambda real, model, n, m: (n, m) != (2, 3), "fails for iid(1/2,1/2) at (2, 3)"),
    "engines": ("engines", "iid_matrix_expectation",
                lambda real, model, n: real(model, n + (model.d == 3)),
                "iid engine mismatch for uniform ternary"),
    "superpattern": ("superpattern", "superpattern_k",
                     lambda real, s: real(s) + (s.letters == (0, 1, 1, 0)),
                     "greedy/brute mismatch at (0, 1, 1, 0)"),
    "rows-ternary": ("rows", "tree_row",
                     lambda real, d, n: real(d, n) if d == 2 else (0,), "ternary row 2 mismatch"),
    "engines-iid": ("engines", "iid_matrix_expectation",
                    lambda real, model, n: real(model, n + (model.d == 2)),
                    "iid engine mismatch for iid(1/2,1/2)"),
    "engines-markov": ("engines", "markov_expectation",
                       lambda real, model, n: real(model, n + 1), "markov engine mismatch"),
    "engines-skewed": (
        "engines", "iid_matrix_expectation",
        lambda real, model, n: real(model, n + (model.describe() == "iid(7/10,3/10)")),
        "iid engine mismatch for iid(7/10,3/10)"),
}


@pytest.mark.parametrize(
    "suite,name,wrong,detail", list(VERIFY_FAILURES.values()), ids=list(VERIFY_FAILURES)
)
def test_verify_reports_a_failing_suite(capsys, monkeypatch, suite, name, wrong, detail):
    """A wrong fast side fails its own suite only, naming the case."""
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: wrong(real, *args))
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert code == 1
    *lines, last = out.splitlines()
    assert last == "FAILURES above"
    status = {line.split()[0]: line.split(None, 2)[1:] for line in lines}
    assert len(status) == 6
    assert status.pop(suite) == ["FAIL", detail]
    assert all(state == "PASS" for state, _ in status.values())


def test_verify_engines_stop_at_max_n(capsys, monkeypatch):
    """The ternary engine case runs no longer than --max-n, which it prints."""
    real = cli.iid_matrix_expectation
    monkeypatch.setattr(cli, "iid_matrix_expectation",
                        lambda model, n: real(model, n + (model.d == 3 and n > 3)))
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "engines         PASS  iid d=2/d=3 and markov vs exhaustive, n<=3\n" in out


def test_verify_reads_both_string_suites_off_one_set_of_levels(capsys, monkeypatch):
    """A bitset that loses one subsequence fails the counting suite and the
    superpattern suite alike, each naming that string, and no other suite:
    the string (0, 1) loses (0,) from its level 1, so it counts two
    subsequences and its level 1 is no longer full."""
    real = oracle._extend_levels

    def lossy(levels, letter, d):
        grown = real(levels, letter, d)
        if (levels, letter, d) == ([1, 1], 1, 2):  # appending 1 to the binary string (0,)
            grown[1] &= ~1
        return grown

    monkeypatch.setattr(oracle, "_extend_levels", lossy)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert code == 1
    *lines, last = out.splitlines()
    assert last == "FAILURES above"
    status = {line.split()[0]: line.split(None, 2)[1:] for line in lines}
    assert status.pop("counting") == ["FAIL", "mismatch at (0, 1)"]
    assert status.pop("superpattern") == ["FAIL", "greedy/brute mismatch at (0, 1)"]
    assert [state for state, _ in status.values()] == ["PASS"] * 4


def test_verify_walks_each_short_string_once(capsys, monkeypatch):
    """The counting and superpattern suites share one walk: at --max-n 6 it
    builds the bitsets and the LetterString of each of the 126 binary strings
    with n <= 6 and 12 ternary strings with n <= 2 exactly once."""
    calls = {}

    def counted(name, real):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(oracle, "_extend_levels", counted("levels", oracle._extend_levels))
    monkeypatch.setattr(cli, "LetterString", counted("strings", cli.LetterString))
    code, _, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert code == 0
    assert calls == {"levels": 138, "strings": 138}


@pytest.mark.parametrize("grid", ["5", "a:b", "5:1", "1:5:0"])
def test_malformed_grid_is_rejected(capsys, grid):
    code, out, err = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5", "--grid", grid, "--trials", "5"
    )
    assert (code, out) == (1, "")
    assert "grid" in err and "Traceback" not in err


def test_count_missing_file_is_rejected(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(capsys, "count", "--file", str(missing))
    assert (code, out) == (1, "")
    assert str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,flags",
    [
        (("expect", "--engine", "matrix", "--alpha", "0.5", "--probs", "0.5,0.5", "--n", "4"),
         ("--alpha", "--probs")),
        (("simulate", "--model", "iid", "--alpha", "0.5", "--n", "5", "--grid", "5:9"),
         ("--n", "--grid")),
        (("solve", "--threshold", "--balance", "0.7"), ("--threshold", "--balance")),
    ],
    ids=["alpha-probs", "n-grid", "threshold-balance"],
)
def test_conflicting_flags_are_rejected(capsys, argv, flags):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert all(flag in err for flag in flags) and "Traceback" not in err


# Inputs each CLI check refuses, with the error line it prints.
REJECTED = [
    (("simulate", "--model", "iid", "--alpha", "0.5", "--n", "8", "--workers", "x"),
     "argument --workers: expected an integer, got 'x'"),
    (("superpattern", "--n", "5"),
     "one of the arguments --alpha --probs --markov string is required"),
    (("simulate", "--model", "markov", "--markov", "0.5", "--n", "8"),
     "--markov takes two probabilities: alpha,beta"),
    (("count",), "one of the arguments strings --file is required"),
    (("count", "01", "--file", "F"), "argument --file: not allowed with argument strings"),
    (("superpattern", "--alpha", "0.5", "--n", "5", "--alphabet", "3"),
     "--alphabet only apply with a string, not with a model"),
    (("expect", "--engine", "markov", "--alpha", "2", "--n", "3"),
     "the markov engine takes --markov"),
    (("verify", "--max-n", "1"), "--max-n must be at least 2"),
    (("superpattern", "--alpha", "0.5"), "experiment mode needs --n (or pass a string)"),
    (("expect", "--engine", "matrix", "--alpha", "inf", "--n", "3"),
     "cannot parse probability 'inf'"),
    (("solve", "--occurrences", "n5", "pattern=01", "alpha=0.5"), "expected key=value, got 'n5'"),
    (("solve", "--occurrences", "n=5", "pattern=01"), "--occurrences needs alpha"),
    (("solve", "--occurrences", "n=x", "pattern=01", "alpha=0.5"),
     "n must be an integer, got 'x'"),
]


@pytest.mark.parametrize(
    "argv,message", REJECTED,
    ids=["workers", "no-model", "markov-pair", "count-no-input", "count-file-and-inline",
         "superpattern-model-alphabet", "engine-flag-before-value", "max-n",
         "superpattern-no-n", "alpha-inf", "kv-token",
         "kv-missing", "kv-n"],
)
def test_cli_rejects_bad_input(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_emitters_refuse_non_finite_floats(value):
    """The CSV writer hands over nothing of a chunk holding a non-finite
    value, so a short table refuses it before its header."""
    with pytest.raises(ValueError, match="non-finite number"):
        dump_json({"x": [1.5, value]})
    written = []
    with pytest.raises(ValueError, match="non-finite number"):
        render_csv(["x"], [[1.5], [value]], written.append)
    assert written == []


def test_render_csv_writes_in_chunks_of_about_csv_chunk():
    """A chunk closes after the row that brings it to CSV_CHUNK characters,
    and the chunks join to RFC 4180 CSV with a cell quoted where needed."""
    wide = "9" * 1000
    rows = [(i, Fraction(i, 3), i % 2 == 0, "a,b" if i == 5 else wide) for i in range(50)]
    written = []
    render_csv(["n", "value", "even", "label"], iter(rows), written.append)
    *full, last = written
    assert len(full) >= 2
    assert all(output.CSV_CHUNK <= len(chunk) < output.CSV_CHUNK + 1024 for chunk in full)
    assert 0 < len(last) < output.CSV_CHUNK
    lines = "".join(written).splitlines()
    assert lines[0] == "n,value,even,label"
    assert lines[1:3] == [f"0,0/1,true,{wide}", f"1,1/3,false,{wide}"]
    assert lines[6] == '5,5/3,false,"a,b"'
    assert len(lines) == 51


def csv_module_render(columns, rows) -> str:
    """What the csv module writes for the rows, each scalar formatted first."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(output.fmt_scalar, row) for row in rows)
    return text.getvalue()


csv_text = st.lists(st.sampled_from([",", '"', "\n", " ", "a"]), max_size=4).map("".join)
csv_cells = (
    csv_text | st.integers() | st.fractions() | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=300)
@given(st.lists(csv_text, min_size=1, max_size=3),
       st.lists(st.lists(csv_cells, min_size=1, max_size=4), max_size=5))
def test_render_csv_writes_what_the_csv_module_writes(columns, rows):
    """Quoting, doubled quotes and the lone empty cell as csv.writer has them."""
    written = []
    render_csv(columns, rows, written.append)
    assert "".join(written) == csv_module_render(columns, rows)


def test_render_csv_leaves_a_carriage_return_unquoted():
    """Only a comma, a quote or a newline quotes a cell, as Python 3.11's
    csv module does with this line terminator; count refuses such input, so
    no command prints it."""
    written = []
    render_csv(["a", "b"], [["x\ry", ""], [""]], written.append)
    assert written == ['a,b\nx\ry,\n""\n']


def test_dump_json_reads_an_iterator_once_as_a_list():
    rows = ({"i": i} for i in range(2))
    assert dump_json({"flags": iter([True, False]), "rows": rows, "none": iter(())}) == (
        '{\n  "flags": [true, false],\n  "rows": [\n    {\n      "i": 0\n    },\n'
        '    {\n      "i": 1\n    }\n  ],\n  "none": []\n}\n'
    )


def test_dump_json_atoms():
    assert dump_json(None) == "null\n"
    assert (dump_json({}), dump_json([])) == ("{}\n", "[]\n")
    assert dump_json({"a": None, "b": {}, "c": []}) == (
        '{\n  "a": null,\n  "b": {},\n  "c": []\n}\n'
    )
    with pytest.raises(TypeError):
        dump_json({1, 2})


def test_each_scalar_type_prints_one_way_in_both_formats():
    """numpy's integers print as integers, though they have a denominator,
    and CSV refuses a value that is no scalar, as JSON does."""
    import numpy as np

    cells = [np.int64(3), np.uint8(7), 10**30, Fraction(6, 4), Fraction(4, 2), False, 0.5]
    written = []
    render_csv(["a", "b", "c", "d", "e", "f", "g"], [cells], written.append)
    assert "".join(written) == f"a,b,c,d,e,f,g\n3,7,{10**30},3/2,2/1,false,0.5\n"
    assert dump_json(cells) == f'[3, 7, {10**30}, "3/2", "2/1", false, 0.5]\n'
    for value in (None, [1, 2], {1}, np.float32(1)):
        with pytest.raises(TypeError):
            render_csv(["a"], [[value]], written.append)


def _as_read_back(v):
    """What JSON reads back for ``v``: tuples as lists, Fractions as "p/q",
    keys as str."""
    if isinstance(v, dict):
        return {str(k): _as_read_back(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_as_read_back(x) for x in v]
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


json_scalars = (
    st.none() | st.booleans() | st.integers() | st.fractions() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
)
json_docs = st.recursive(
    json_scalars,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text() | st.integers(), kids)),
    max_leaves=20,
)


@settings(max_examples=200)
@given(json_docs)
def test_dump_json_round_trips(doc):
    assert json.loads(dump_json(doc)) == _as_read_back(doc)
