"""End-to-end tests for the command line interface.

Each test drives ``main(argv)`` in process and inspects stdout/stderr;
two determinism tests shell out to compare raw bytes across runs.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from subseqlab import MarkovModel, cli, exhaustive_expectation
from subseqlab.cli import ENV_SEED, main
from subseqlab.output import dump_json


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


def test_expect_closed_rejects_exact(capsys):
    code, _, err = run_cli(
        capsys, "expect", "--engine", "closed", "--alpha", "0.5", "--n", "4", "--exact"
    )
    assert code == 1
    assert "matrix" in err


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


def test_tree_row_size_guard_exit_code(capsys):
    # A one-letter row is a single string, but its walk is 5000 deep.
    for d, n in (("2", "30"), ("1", "5000")):
        code, _, err = run_cli(capsys, "tree-row", "--d", d, "--n", n)
        assert code == 2
        assert "size guard" in err
        assert "Traceback" not in err


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


def test_simulate_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "9")
    code, out, _ = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5",
        "--n", "8", "--trials", "50",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "9"


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
    assert "pass either a string or a model, not both" in err


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
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6")
    assert code == 0
    assert "all suites passed" in out


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


def test_importing_the_cli_skips_numpy():
    code = "import subseqlab.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


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
        '  "residual": -1.6209256159527285e-14,\n  "iterations": 43\n}\n',
    ),
    (
        # alpha = 1 samples only 1s, so every count is n and the row is fixed
        ("simulate", "--model", "iid", "--alpha", "1", "--n", "5", "--trials", "2",
         "--seed", "3", "--out", "json"),
        '{\n  "model": "iid(0.0,1.0)",\n  "rows": [\n    {\n      "n": 5,\n'
        '      "mean": 5,\n      "stderr": 0,\n      "trials": 2,\n      "seed": 3,\n'
        '      "log_space": false\n    }\n  ]\n}\n',
    ),
]


@pytest.mark.parametrize(
    "argv,expected", LAYOUTS,
    ids=["count-json", "expect-json", "superpattern-csv", "superpattern-json", "solve",
         "simulate-json"],
)
def test_output_layouts(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, expected)


# Each suite's fast side as ``wrong(real, *args)``, wrong on one case, and
# the text naming that case.
VERIFY_FAILURES = [
    ("counting", "count_distinct",
     lambda real, s: real(s) + (s.letters == (1, 0)), "mismatch at (1, 0)"),
    ("rows", "tree_row",
     lambda real, d, n: real(d, n) if n != 2 else (1, 2, 1, 2), "binary row 2 mismatch"),
    ("pair-structure", "check_pair_structure",
     lambda real, n: n != 5, "pair structure fails at row 5"),
    ("fekete", "check_submultiplicativity",
     lambda real, model, n, m: (n, m) != (2, 3), "fails for iid(1/2,1/2) at (2, 3)"),
    ("engines", "iid_matrix_expectation",
     lambda real, model, n: real(model, n + (model.d == 3)),
     "iid engine mismatch for uniform ternary"),
    ("superpattern", "superpattern_k",
     lambda real, s: real(s) + (s.letters == (0, 1, 1, 0)), "greedy/brute mismatch at (0, 1, 1, 0)"),
]


@pytest.mark.parametrize(
    "suite,name,wrong,detail", VERIFY_FAILURES, ids=[case[0] for case in VERIFY_FAILURES]
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


def test_malformed_seed_environment_is_rejected(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "abc")
    code, out, err = run_cli(
        capsys, "simulate", "--model", "iid", "--alpha", "0.5", "--n", "8", "--trials", "5"
    )
    assert (code, out) == (1, "")
    assert ENV_SEED in err and "Traceback" not in err


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


def test_dump_json_atoms():
    assert dump_json(None) == "null\n"
    assert (dump_json({}), dump_json([])) == ("{}\n", "[]\n")
    assert dump_json({"a": None, "b": {}, "c": []}) == (
        '{\n  "a": null,\n  "b": {},\n  "c": []\n}\n'
    )
    with pytest.raises(TypeError):
        dump_json({1, 2})
