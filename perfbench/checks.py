"""Independent references and output checkers for the benchmark.

Every checker compares one invocation's stdout with a reference computed
outside the timed region, never with golden bytes: Monte Carlo streams may
change on purpose, so sampled outputs are judged by statistical bounds
fixed here, and analytic outputs by exact equality or a float tolerance.

The references do not reuse the engines under test where that is cheap:

* uniform IID letters keep the engine state symmetric, which gives
  ``E[phi_n] = ((2 - 1/d)**n - 1) / (1 - 1/d)`` exactly;
* binary Markov chains (and IID binary letters, as the chain with
  alpha = beta) use the last-occurrence recurrence, in exact rationals or
  in floats rescaled every step so that no value overflows;
* the greedy superpattern statistic of fair bits is a renewal count with
  round lengths ``P(L = l) = 2**(1 - l)`` for ``l >= 2``.

A checker returns a dict of facts about the output (possibly empty) and
raises :class:`CheckError` when the output is wrong.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Context, Decimal, InvalidOperation
from fractions import Fraction

# Each sampled check allows Z standard errors. A correct program fails one
# such check with probability below 1e-6.
Z = 5.0
# Float engine rows against a reference: float64 rounding over a few
# thousand steps stays near 1e-12 relative, a corrupted row does not.
FLOAT_REL_TOL = 1e-9
# The sampled Markov check: a chain and length whose counts pass 2**53, and
# the coefficient of variation of phi(S_n) there, measured once from 100,000
# sampled strings (3.8) and rounded up. The error of ln(sample mean) is
# about CV / sqrt(trials); the log-space ``stderr`` field is the spread of
# ln-counts and does not measure it.
MARKOV_CHAIN, MARKOV_N, MARKOV_CV = (0.7, 0.3), 100, 4.0
# Renewal round length of the greedy statistic for fair bits.
ROUND_MEAN, ROUND_VAR = 3.0, 2.0
# Float rows are parsed as decimals, whose logarithm never overflows.
LN_CONTEXT = Context(prec=30)

_INF_NAN = re.compile(rb"(?<![A-Za-z])(inf|nan)(?![A-Za-z])", re.IGNORECASE)


class CheckError(Exception):
    """An invocation's output disagrees with its reference."""


def inf_nan_tokens(out: bytes) -> list[str]:
    """The distinct ``inf`` and ``nan`` words in the output, sorted."""
    return sorted({m.group(1).lower().decode() for m in _INF_NAN.finditer(out)})


# ---------------------------------------------------------------- references


def uniform_iid_exact(d: int, n: int) -> list[Fraction]:
    """E[phi_i], i = 1..n, for uniform letters over d >= 2 symbols."""
    q = Fraction(2 * d - 1, d)
    scale = Fraction(d, d - 1)
    power = Fraction(1)
    out = []
    for _ in range(n):
        power *= q
        out.append((power - 1) * scale)
    return out


def uniform_iid_log(d: int, n: int) -> list[float]:
    """ln E[phi_i], i = 1..n, for uniform letters over d >= 2 symbols."""
    lq = math.log((2 * d - 1) / d)
    lscale = math.log(d / (d - 1))
    return [i * lq + math.log1p(-math.exp(-i * lq)) + lscale for i in range(1, n + 1)]


def _markov_steps(alpha, beta, n: int, one, rescale: bool):
    """Yield (w, log_scale) per letter for a binary chain.

    ``A[c][s]`` is the expected sum of new counts since letter c last
    occurred (a phantom start counts as 1), on strings whose last letter is
    s; ``w`` is the expected new count of the next letter. With ``rescale``
    the state is divided by its largest entry each step and the running
    logarithm of the divisors is returned beside ``w``.
    """
    trans = ((one - beta, beta), (one - alpha, alpha))  # trans[s][t]
    gamma = beta / (one + beta - alpha)
    start = (one - gamma, gamma)
    acc = None  # before the first letter there is only the phantom start
    log_scale = 0.0
    for _ in range(n):
        if acc is None:
            w = list(start)
            new = [[w[t] + (t != c) * start[t] for t in (0, 1)] for c in (0, 1)]
        else:
            w = [sum(acc[c][s] * trans[s][c] for s in (0, 1)) for c in (0, 1)]
            new = [
                [
                    w[t] + (t != c) * sum(acc[c][s] * trans[s][t] for s in (0, 1))
                    for t in (0, 1)
                ]
                for c in (0, 1)
            ]
        yield w[0] + w[1], log_scale
        acc = new
        if rescale:
            peak = max(max(row) for row in acc)
            acc = [[x / peak for x in row] for row in acc]
            log_scale += math.log(peak)


def markov_exact(alpha: Fraction, beta: Fraction, n: int) -> list[Fraction]:
    """E[phi_i], i = 1..n, for a binary chain started from stationarity."""
    out, total = [], Fraction(0)
    for w, _ in _markov_steps(Fraction(alpha), Fraction(beta), n, Fraction(1), False):
        total += w
        out.append(total)
    return out


def markov_log(alpha: float, beta: float, n: int) -> list[float]:
    """ln E[phi_i], i = 1..n, in rescaled floats that never overflow."""
    out, log_total = [], -math.inf
    for w, log_scale in _markov_steps(float(alpha), float(beta), n, 1.0, True):
        term = math.log(w) + log_scale
        hi = max(log_total, term)
        log_total = hi + math.log(math.exp(log_total - hi) + math.exp(term - hi))
        out.append(log_total)
    return out


def fair_rounds_mean(n: int) -> float:
    """Exact E[k] of the greedy superpattern statistic for n fair bits."""
    # u[t] = P(a round ends at t); tail[t] = sum_{l>=2} 2**(1-l) u[t-l]
    u = [1.0] + [0.0] * n
    tail = [0.0] * (n + 1)
    for t in range(2, n + 1):
        tail[t] = 0.5 * u[t - 2] + 0.5 * tail[t - 1]
        u[t] = tail[t]
    return sum(u[1:])


# ---------------------------------------------------------------- parsing


def _text(out: bytes) -> str:
    try:
        return out.decode("ascii")
    except UnicodeDecodeError:
        raise CheckError("output is not ASCII") from None


def _csv(out: bytes, header: str) -> list[list[str]]:
    lines = _text(out).splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"expected CSV header {header!r}")
    return [line.split(",") for line in lines[1:]]


def _json(out: bytes) -> dict:
    try:
        return json.loads(_text(out))
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _series(out: bytes, n: int, headers: tuple[str, ...]) -> list[list[str]]:
    """The n rows ``i,...`` of a series CSV whose header is one of ``headers``."""
    lines = _text(out).splitlines()
    if not lines or lines[0] not in headers:
        raise CheckError(f"expected a CSV header in {headers}")
    width = lines[0].count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n:
        raise CheckError(f"expected {n} rows, got {len(rows)}")
    for i, row in enumerate(rows, start=1):
        if len(row) != width or row[0] != str(i):
            raise CheckError(f"row {i} is malformed: {','.join(row)[:60]!r}")
    return rows


def _ln_decimal(text: str) -> float:
    """ln of a positive finite decimal of any magnitude (float() stops at 1.8e308)."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise CheckError(f"{text[:40]!r} is not a number") from None
    if not (value.is_finite() and value > 0):
        raise CheckError(f"{text[:40]!r} is not a positive finite number")
    return float(value.ln(LN_CONTEXT))


def _close(name: str, got, want, tol) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{name} = {got!r}, reference {want!r}, tolerance {tol!r}")


# ---------------------------------------------------------------- checkers


def fair_iid_mean(n: int, trials: int, seed: int):
    """simulate CSV for fair bits: mean within Z standard errors of 2*1.5**n - 2."""
    truth = 2 * 1.5**n - 2

    def check(out: bytes) -> dict:
        rows = _csv(out, "n,mean,stderr,trials,seed")
        if len(rows) != 1 or len(rows[0]) != 5:
            raise CheckError("expected one 5-field row")
        row = rows[0]
        if [row[0], row[3], row[4]] != [str(n), str(trials), str(seed)]:
            raise CheckError(f"row echoes {row[0]},{row[3]},{row[4]}")
        mean, stderr = float(row[1]), float(row[2])
        if not stderr > 0:
            raise CheckError(f"stderr {stderr!r} is not positive")
        _close("mean", mean, truth, Z * stderr)
        return {}

    return check


def markov_log_mean(trials: int, seed: int):
    """simulate JSON for MARKOV_CHAIN at MARKOV_N: a log-space record whose
    mean is within Z * MARKOV_CV / sqrt(trials) of ln E[phi_n] from the engine."""
    from subseqlab import MarkovModel, markov_expectation

    n = MARKOV_N
    truth = math.log(markov_expectation(MarkovModel(*MARKOV_CHAIN), n).final())
    tol = Z * MARKOV_CV / math.sqrt(trials)

    def check(out: bytes) -> dict:
        rows = _json(out).get("rows")
        if not isinstance(rows, list) or len(rows) != 1:
            raise CheckError("expected one record")
        rec = rows[0]
        if (rec.get("n"), rec.get("trials"), rec.get("seed")) != (n, trials, seed):
            raise CheckError("record does not echo n, trials and seed")
        if rec.get("log_space") is not True:
            raise CheckError("record is not in log space")
        _close("log mean", rec.get("mean"), truth, tol)
        return {}

    return check


def fair_superpattern(n: int, trials: int, seed: int):
    """superpattern JSON for fair bits: histogram, mean_k and mean_ratio."""
    truth = fair_rounds_mean(n)
    sd_k = math.sqrt(n * ROUND_VAR / ROUND_MEAN**3)
    tol = Z * sd_k / math.sqrt(trials)

    def check(out: bytes) -> dict:
        rec = _json(out)
        if (rec.get("n"), rec.get("trials"), rec.get("seed")) != (n, trials, seed):
            raise CheckError("record does not echo n, trials and seed")
        hist = {int(k): c for k, c in rec.get("histogram", {}).items()}
        if sum(hist.values()) != trials:
            raise CheckError(f"histogram sums to {sum(hist.values())}, not {trials}")
        mean_k = sum(k * c for k, c in hist.items()) / trials
        _close("mean_k against histogram", rec.get("mean_k"), mean_k, 1e-9 * n)
        _close("mean_ratio", rec.get("mean_ratio"), mean_k / n, 1e-12)
        _close("mean_k", mean_k, truth, tol)
        return {}

    return check


def float_series(n: int, ref_log: list[float]):
    """expect CSV in floats: every row within FLOAT_REL_TOL of the reference.

    Two forms pass. ``n,value``: each value a positive finite decimal, of any
    magnitude, since the values outgrow float64 (ln E[phi_2000] is 1348 for
    26 uniform letters). ``n,value,log_space``: a row flagged ``true`` holds
    ln of its value, as a log-space ``EstimateRecord`` does, and a row
    flagged ``false`` the value itself.
    """

    def check(out: bytes) -> dict:
        rows = _series(out, n, ("n,value", "n,value,log_space"))
        for i, (row, ref) in enumerate(zip(rows, ref_log), start=1):
            if row[2:] == ["true"]:
                try:
                    ln = float(row[1])
                except ValueError:
                    raise CheckError(f"row {i} value does not parse") from None
                if not math.isfinite(ln):
                    raise CheckError(f"row {i} log value is {ln!r}")
            elif row[2:] in ([], ["false"]):
                ln = _ln_decimal(row[1])
            else:
                raise CheckError(f"row {i} log_space flag is {row[2]!r}")
            _close(f"ln row {i}", ln, ref, FLOAT_REL_TOL)
        return {}

    return check


def exact_series(n: int, ref: list[Fraction], oracle: list[Fraction]):
    """expect CSV in exact rationals: every row == the exact reference, and
    == the brute-force oracle on the rows the oracle reaches."""

    def check(out: bytes) -> dict:
        try:
            values = [Fraction(row[1]) for row in _series(out, n, ("n,value",))]
        except (ValueError, ZeroDivisionError):
            raise CheckError("a row value does not parse") from None
        for label, want in (("oracle", oracle), ("reference", ref)):
            for i, (v, w) in enumerate(zip(values, want), start=1):
                if v != w:
                    raise CheckError(f"row {i} differs from the {label}")
        bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)
        return {"max_bits": bits}

    return check


def verify_passed(suites: int):
    """verify prints one PASS line per suite and the closing verdict."""

    def check(out: bytes) -> dict:
        lines = _text(out).splitlines()
        if lines[-1:] != ["all suites passed"]:
            raise CheckError("missing 'all suites passed'")
        statuses = [line.split()[1] for line in lines[:-1]]
        if statuses != ["PASS"] * suites:
            raise CheckError(f"suite statuses {statuses}")
        return {}

    return check


def tree_row_sum(d: int, n: int):
    """tree-row: d**n entries, palindromic, summing to d**n (E_n - E_{n-1})."""
    from subseqlab import IIDModel, iid_matrix_expectation

    series = iid_matrix_expectation(IIDModel.uniform(d), n, mode="exact").values
    want = d**n * (series[n - 1] - series[n - 2])
    if want.denominator != 1:
        raise ValueError("row sum reference is not an integer")

    def check(out: bytes) -> dict:
        text = _text(out)
        if not text.endswith("\n"):
            raise CheckError("row is not newline-terminated")
        try:
            row = [int(v) for v in text[:-1].split(",")]
        except ValueError:
            raise CheckError("row does not parse") from None
        if len(row) != d**n:
            raise CheckError(f"{len(row)} entries, expected {d**n}")
        if row != row[::-1]:
            raise CheckError("row does not read the same in both directions")
        if sum(row) != want.numerator:
            raise CheckError(f"row sums to {sum(row)}, expected {want.numerator}")
        return {}

    return check


def library_pass(series_ref: list[Fraction], splits: list[tuple[int, int]], d: int):
    """library_pass.py JSON: the exhaustive series == the reference, and every
    submultiplicativity split agrees with psi = E + 1 from the uniform formula."""
    top = max(n + m for n, m in splits)
    psi = [Fraction(1)] + [v + 1 for v in uniform_iid_exact(d, top)]
    want = [[n, m, psi[n + m] <= psi[n] * psi[m]] for n, m in splits]

    def check(out: bytes) -> dict:
        rec = _json(out)
        series = rec.get("series")
        if not isinstance(series, list) or len(series) != len(series_ref):
            raise CheckError("series has the wrong length")
        for i, (got, ref) in enumerate(zip(series, series_ref), start=1):
            if Fraction(got) != ref:
                raise CheckError(f"series value {i} differs from the reference")
        if rec.get("sweep") != want:
            raise CheckError("submultiplicativity sweep differs from the reference")
        return {}

    return check
