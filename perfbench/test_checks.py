"""Self-test of the benchmark's references and checkers.

    python3 -m pytest -q perfbench/test_checks.py

The references must agree with the brute-force oracle, and every checker
must accept a real output and reject a corrupted one: a shifted mean, an
``inf``, a dropped row.
"""

import contextlib
import io
import itertools
import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import library_pass  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from subseqlab import (  # noqa: E402
    Alphabet,
    IIDModel,
    LetterString,
    MarkovModel,
    cli,
    exhaustive_expectation,
    superpattern_k,
)


def cli_out(*args: str) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(args)) == 0
    return buf.getvalue().encode()


def rejects(check, out: bytes) -> bool:
    try:
        check(out)
    except checks.CheckError:
        return True
    return False


def replace_line(out: bytes, index: int, line: str | None) -> bytes:
    lines = out.decode().splitlines()
    if line is None:
        del lines[index]
    else:
        lines[index] = line
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------- references


@pytest.mark.parametrize("d,n", [(2, 12), (3, 7), (4, 6)])
def test_uniform_reference_equals_oracle(d, n):
    want = list(exhaustive_expectation(IIDModel.uniform(d), n).values)
    assert checks.uniform_iid_exact(d, n) == want
    assert checks.uniform_iid_log(d, n) == pytest.approx([math.log(v) for v in want], rel=1e-12)


@pytest.mark.parametrize("alpha,beta", [
    (Fraction(7, 10), Fraction(3, 10)), (Fraction(1, 2), Fraction(1, 5)),
    (Fraction(3, 10), Fraction(3, 10)), (Fraction(1), Fraction(1, 2)),
    (Fraction(0), Fraction(1, 3)), (Fraction(9, 10), Fraction(1, 10)),
])
def test_markov_reference_equals_oracle(alpha, beta):
    want = list(exhaustive_expectation(MarkovModel(alpha, beta), 12).values)
    assert checks.markov_exact(alpha, beta, 12) == want
    logs = checks.markov_log(float(alpha), float(beta), 12)
    assert logs == pytest.approx([math.log(v) for v in want], rel=1e-12)


def test_markov_log_reference_matches_closed_form_at_one_half():
    logs = checks.markov_log(0.5, 0.5, 500)
    assert logs == pytest.approx([math.log(2 * 1.5**n - 2) for n in range(1, 501)], rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_rounds_mean_equals_brute_force(n):
    total = sum(superpattern_k(LetterString.from_letters(s, Alphabet(2)))
                for s in itertools.product((0, 1), repeat=n))
    assert checks.fair_rounds_mean(n) == pytest.approx(total / 2**n, rel=1e-12)


# ---------------------------------------------------------------- checkers


def test_iid_mean_check():
    check = checks.fair_iid_mean(20, 2000, 3)
    out = cli_out("simulate", "--model", "iid", "--alpha", "0.5", "--n", "20",
                  "--trials", "2000", "--seed", "3")
    assert check(out) == {}
    n, mean, stderr, trials, seed = out.decode().splitlines()[1].split(",")
    shifted = f"{n},{float(mean) + 6 * float(stderr)!r},{stderr},{trials},{seed}"
    assert rejects(check, replace_line(out, 1, shifted))
    assert rejects(check, replace_line(out, 1, None))


def test_markov_log_mean_check():
    check = checks.markov_log_mean(2000, 4)
    out = cli_out("simulate", "--model", "markov", "--markov", "0.7,0.3",
                  "--n", str(checks.MARKOV_N), "--trials", "2000", "--seed", "4", "--out", "json")
    assert check(out) == {}
    rec = json.loads(out)
    rec["rows"][0]["mean"] += 1.0
    assert rejects(check, json.dumps(rec).encode())
    rec["rows"][0]["mean"] -= 1.0
    rec["rows"][0]["log_space"] = False
    assert rejects(check, json.dumps(rec).encode())


def test_superpattern_check():
    check = checks.fair_superpattern(300, 500, 5)
    out = cli_out("superpattern", "--alpha", "0.5", "--n", "300", "--trials", "500",
                  "--seed", "5", "--out", "json")
    assert check(out) == {}
    rec = json.loads(out)
    dropped = dict(rec, histogram=dict(list(rec["histogram"].items())[1:]))
    assert rejects(check, json.dumps(dropped).encode())
    shift = 5
    moved = dict(rec, histogram={str(int(k) + shift): c for k, c in rec["histogram"].items()},
                 mean_k=rec["mean_k"] + shift, mean_ratio=(rec["mean_k"] + shift) / 300)
    assert rejects(check, json.dumps(moved).encode())


def test_float_series_check():
    n = 40
    check = checks.float_series(n, checks.uniform_iid_log(3, n))
    out = cli_out("expect", "--engine", "matrix", "--probs", "1/3,1/3,1/3", "--n", str(n))
    assert check(out) == {}
    assert rejects(check, replace_line(out, 7, "7,inf"))
    assert checks.inf_nan_tokens(replace_line(out, 7, "7,inf")) == ["inf"]
    assert rejects(check, replace_line(out, 7, None))
    value = float(out.decode().splitlines()[7].split(",")[1])
    assert rejects(check, replace_line(out, 7, f"7,{value * (1 + 1e-6)!r}"))


def test_float_series_accepts_overflow_proof_outputs():
    # ((2 - 1/d)**i - 1) / (1 - 1/d) for 26 uniform letters passes float64's
    # range at i = 1054; a fixed engine may print it as a large decimal or,
    # from some row on, in log space.
    n, d = 2000, 26
    check = checks.float_series(n, checks.uniform_iid_log(d, n))
    with localcontext() as ctx:
        ctx.prec = 30
        q, scale = Decimal(2 * d - 1) / d, Decimal(d) / (d - 1)
        values = [(q**i - 1) * scale for i in range(1, n + 1)]
        logs = [float(v.ln()) for v in values]
    decimal_out = "n,value\n" + "".join(f"{i},{v:.17e}\n" for i, v in enumerate(values, 1))
    assert decimal_out.endswith("e+585\n")  # ln E[phi_2000] = 1348
    assert check(decimal_out.encode()) == {}
    log_out = "n,value,log_space\n" + "".join(
        f"{i},{float(v)!r},false\n" if i < 1000 else f"{i},{ln!r},true\n"
        for i, (v, ln) in enumerate(zip(values, logs), 1))
    assert check(log_out.encode()) == {}

    assert rejects(check, replace_line(decimal_out.encode(), n, f"{n},Infinity"))
    assert rejects(check, replace_line(decimal_out.encode(), n, f"{n},{values[-1] * 2:.17e}"))
    assert rejects(check, replace_line(log_out.encode(), n, f"{n},{logs[-1] + 1e-6!r},true"))
    assert rejects(check, replace_line(log_out.encode(), n, f"{n},{logs[-1]!r},false"))
    assert rejects(check, replace_line(log_out.encode(), n, f"{n},{logs[-1]!r},maybe"))
    assert rejects(check, replace_line(log_out.encode(), n, None))


def test_exact_series_check():
    n = 30
    check = checks.exact_series(n, checks.markov_exact(Fraction(7, 10), Fraction(3, 10), n),
                                list(exhaustive_expectation(
                                    MarkovModel(Fraction(7, 10), Fraction(3, 10)), 8).values))
    out = cli_out("expect", "--engine", "markov", "--markov", "7/10,3/10", "--exact", "--n", str(n))
    assert check(out)["max_bits"] > 0
    assert rejects(check, replace_line(out, n, None))
    num, den = out.decode().splitlines()[n].split(",")[1].split("/")
    assert rejects(check, replace_line(out, n, f"{n},{int(num) + 1}/{den}"))


def test_verify_check():
    check = checks.verify_passed(6)
    out = cli_out("verify", "--max-n", "4")
    assert check(out) == {}
    assert rejects(check, out.replace(b"all suites passed", b"FAILURES above"))
    assert rejects(check, out.replace(b"PASS", b"FAIL", 1))


def test_tree_row_check():
    check = checks.tree_row_sum(3, 5)
    out = cli_out("tree-row", "--d", "3", "--n", "5")
    assert check(out) == {}
    values = out.decode().strip().split(",")
    assert rejects(check, (",".join(values[1:]) + "\n").encode())
    values[0], values[1] = values[1], values[0]
    assert rejects(check, (",".join(values) + "\n").encode())


def test_library_pass_check(capsys):
    ref = checks.markov_exact(*library_pass.MARKOV, library_pass.MARKOV_N)
    check = checks.library_pass(ref, library_pass.splits(), library_pass.SWEEP_D)
    library_pass.main()
    out = capsys.readouterr().out.encode()
    assert check(out) == {}
    rec = json.loads(out)
    bad = dict(rec, series=rec["series"][:-1] + ["1/1"])
    assert rejects(check, json.dumps(bad).encode())
    bad = dict(rec, sweep=[[n, m, False] for n, m, _ in rec["sweep"]])
    assert rejects(check, json.dumps(bad).encode())


def test_evaluate_flags_exit_code_inf_and_mismatched_workers():
    inv = workloads.Invocation("a", (), lambda out: {})
    twin = workloads.Invocation("b", (), lambda out: {}, same_stdout_as="a")
    good = run.Result("a", 0.1, 1.0, 0, b"1,2\n", b"")
    run.evaluate(inv, good, {})
    assert good.failure is None
    crashed = run.Result("a", 0.1, 1.0, 1, b"", b"Traceback\nOverflowError: x\n")
    run.evaluate(inv, crashed, {})
    assert "OverflowError" in crashed.failure
    nan = run.Result("a", 0.1, 1.0, 0, b"1,nan\n", b"")
    run.evaluate(inv, nan, {})
    assert nan.failure
    other = run.Result("b", 0.1, 1.0, 0, b"1,3\n", b"")
    run.evaluate(twin, other, {"a": good})
    assert other.failure


def test_known_defect_excuses_only_its_documented_failure():
    defect = workloads.KnownDefect("overflows", "prints inf")
    inv = workloads.Invocation("a", (), checks.float_series(1, [math.log(3.0)]),
                               known_defect=defect)

    def outcome(rc: int, out: bytes, err: bytes = b"") -> tuple[int, int, bool]:
        res = run.Result("a", 0.1, 1.0, rc, out, err)
        run.evaluate(inv, res, {})
        return run.tally([inv], [[res]])

    assert outcome(0, b"n,value\n1,3.0\n") == (1, 0, True)
    assert outcome(0, b"n,value\n1,inf\n") == (1, 1, True)
    assert outcome(0, b"n,value\n1,nan\n") == (1, 1, False)
    assert outcome(0, b"n,value\n1,2.5\n") == (1, 1, False)
    assert outcome(0, b"n,value\n1,3.0,true\n") == (1, 1, False)
    assert outcome(1, b"", b"Traceback\nOverflowError: x\n") == (1, 1, False)


def test_expect_known_defects_match_their_documented_failures():
    invs = {inv.name: inv for inv in workloads.expect(1)}
    outputs = {
        "iid-float-d26": (0, b"n,value\n1,1.0\n2,inf\n3,inf\n", b""),
        "markov-float": (0, b"n,value\n1,1.0\n2,inf\n3,nan\n", b""),
        "closed-a0.3": (1, b"", b"Traceback (most recent call last):\n"
                                b"OverflowError: (34, 'Numerical result out of range')\n"),
    }
    for name, (rc, out, err) in outputs.items():
        res = run.Result(name, 0.1, 1.0, rc, out, err)
        run.evaluate(invs[name], res, {})
        assert run.explained(invs[name], res), (name, res.failure)
    assert [name for name, inv in invs.items() if inv.known_defect] == list(outputs)
