"""Command-line interface.

Subcommands: count, expect, simulate, verify, tree-row, superpattern,
solve. count, expect, simulate and superpattern print CSV with a header,
or JSON with --out json; solve prints JSON; verify and tree-row print
plain text. Only the samplers (simulate, and superpattern with a model)
load numpy. Exit codes: 0 success, 1 invalid input or failed
verification, 2 exhaustive size-guard violation. The default master
seed comes from the SUBSEQLAB_SEED environment variable (0 when unset).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from .analysis import expected_occurrences, occurrence_threshold, solve_balance
from .expectation import closed_form_binary  # noqa: F401  (perfbench/traced.py wraps it here)
from .expectation import iid_matrix_expectation, markov_expectation
from .models import IIDModel, MarkovModel, parse_probability
from .montecarlo import (
    estimate_expected_count,
    estimate_growth_constant,
    superpattern_experiment,
    superpattern_k,
)
from .oracle import enumerate_distinct  # noqa: F401  (perfbench/traced.py wraps it here)
from .oracle import (
    SizeGuardError,
    _extend_distinct,
    check_pair_structure,
    check_submultiplicativity,
    exhaustive_expectation,
    superpattern_k_bruteforce,
    tree_row,
)
from .output import dump_json, render_csv
from .strings import Alphabet, LetterString, count_distinct, new_subseq_counts

ENV_SEED = "SUBSEQLAB_SEED"
_MODEL_FLAGS = {IIDModel: "--alpha or --probs", MarkovModel: "--markov alpha,beta"}
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class CliError(ValueError):
    """Invalid command-line input."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route through the validation exit code (1)
    def error(self, message):
        raise CliError(message)


def _resolve_seed(seed) -> int:
    if seed is not None:
        return seed
    raw = os.environ.get(ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_grid(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise CliError(f"grid must be start:stop[:step], got {text!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise CliError(f"grid must be integers, got {text!r}") from None
    if step < 1 or start < 0 or stop < start:
        raise CliError(f"grid needs 0 <= start <= stop and step >= 1, got {text!r}")
    return list(range(start, stop + 1, step))


def _parse_model(args, exact: bool, kind=None, label: str = ""):
    """The model named by --alpha, --probs or --markov; with ``kind`` set,
    a model of another kind is rejected as ``"{label} takes {flags}"``."""
    if args.alpha is not None:
        model = IIDModel.binary(parse_probability(args.alpha, exact))
    elif args.probs is not None:
        probs = tuple(parse_probability(tok, exact) for tok in args.probs.split(","))
        model = IIDModel(probs)
    elif args.markov is None:  # argparse rejects two; only superpattern allows none
        raise CliError("give exactly one of --alpha, --probs, --markov")
    else:
        toks = args.markov.split(",")
        if len(toks) != 2:
            raise CliError("--markov takes two probabilities: alpha,beta")
        model = MarkovModel(
            parse_probability(toks[0], exact), parse_probability(toks[1], exact)
        )
    if kind is not None and not isinstance(model, kind):
        raise CliError(f"{label} takes {_MODEL_FLAGS[kind]}")
    return model


def _emit(out: str, doc, columns=(), rows=()) -> None:
    """Print ``doc`` as JSON, or the named columns of each row dict as CSV
    with a list cell joined by spaces. A row whose ``log_space`` is true
    holds ln values; the CSV then gains a trailing ``log_space`` column."""
    if out == "json":
        sys.stdout.write(dump_json(doc))
        return
    if any(row.get("log_space") for row in rows):
        columns = [*columns, "log_space"]
    cells = [[row[col] for col in columns] for row in rows]
    table = [[" ".join(map(str, v)) if isinstance(v, list) else v for v in r] for r in cells]
    sys.stdout.write(render_csv(columns, table))


# ---------------------------------------------------------------- count


def cmd_count(args) -> int:
    if args.file is not None and args.strings:
        raise CliError("pass strings either inline or with --file, not both")
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                raw = [
                    (i + 1, line.strip())
                    for i, line in enumerate(fh)
                    if line.strip()
                ]
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from None
    elif args.strings:
        raw = list(enumerate(args.strings, start=1))
    else:
        raise CliError("no input: pass strings as arguments or with --file")
    alphabet = Alphabet(args.alphabet) if args.alphabet is not None else None
    rows = []
    for lineno, text in raw:
        try:
            s = LetterString.from_text(text, alphabet)
        except ValueError as exc:
            raise CliError(f"line {lineno}: {exc}") from None
        profile = new_subseq_counts(s)
        phi = sum(profile)
        row = {"input": text, "n": len(s), "phi": phi}
        if args.with_empty:
            row["phi_with_empty"] = phi + 1
        if args.profile:
            row["profile"] = list(profile)
        rows.append(row)
    columns = ["input", "n", "phi"]
    if args.with_empty:
        columns.append("phi_with_empty")
    if args.profile:
        columns.append("profile")
    _emit(args.out, {"rows": rows}, columns, rows)
    return 0


# ---------------------------------------------------------------- expect


def cmd_expect(args) -> int:
    if args.engine == "closed":
        if args.alpha is None:
            raise CliError("the closed engine takes --alpha only")
        if args.exact:
            raise CliError(
                "the closed form is floating point; use --engine matrix with --exact"
            )
    # the closed form is the binary IID case of the matrix engine
    markov = args.engine == "markov"
    kind = MarkovModel if markov else IIDModel
    model = _parse_model(args, args.exact, kind, f"the {args.engine} engine")
    engine = markov_expectation if markov else iid_matrix_expectation
    series = engine(model, args.n, mode="exact" if args.exact else "float")
    doc = {
        "engine": args.engine,
        "model": model.describe(),
        "mode": series.mode,
        "n": args.n,
        "values": list(series.values),
    }
    rows = [
        {"n": i, "value": v, "log_space": i > args.n - series.log_rows}
        for i, v in enumerate(series.values, start=1)
    ]
    if series.log_rows:  # the last log_rows values are ln(E), past the float range
        doc["log_space"] = [row["log_space"] for row in rows]
    _emit(args.out, doc, ("n", "value"), rows)
    return 0


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    kind = IIDModel if args.model == "iid" else MarkovModel
    model = _parse_model(args, False, kind, f"--model {args.model}")
    seed = _resolve_seed(args.seed)
    ns = [args.n] if args.n is not None else _parse_grid(args.grid)
    if args.fit_growth and args.out != "json":
        raise CliError("--fit-growth reports through JSON; add --out json")
    fit = None
    if args.fit_growth:
        growth = estimate_growth_constant(model, ns, args.trials, seed, workers=args.workers)
        records = list(growth.records)
        fit = {k: getattr(growth, k) for k in ("c", "slope", "intercept", "r_squared", "clamped")}
    else:
        records = [
            estimate_expected_count(model, n, args.trials, seed, workers=args.workers, stream=idx)
            for idx, n in enumerate(ns)
        ]
    rows = [asdict(r) for r in records]
    doc = {"model": model.describe(), "rows": rows}
    if fit is not None:
        doc["fit"] = fit
    _emit(args.out, doc, ("n", "mean", "stderr", "trials", "seed"), rows)
    return 0


# ---------------------------------------------------------------- verify


def _all_strings(d: int, max_n: int):
    """Every string over d letters of length 1..max_n, shortest first."""
    alphabet = Alphabet(d)
    strings = [()]
    for _ in range(max_n):
        strings = [s + (c,) for s in strings for c in range(d)]
        for letters in strings:
            yield LetterString(alphabet, letters)


def _verify_counting(max_n: int):
    """Every short string's count against its brute-force subsequence set,
    walking the prefix tree depth-first so that each set extends its
    parent's by one letter."""
    binary_limit = min(max_n, 12)
    ternary_limit = max(2, min(8, max_n - 4))
    checked = 0
    for d, limit in ((2, binary_limit), (3, ternary_limit)):
        alphabet = Alphabet(d)
        stack = [((), set())]
        while stack:
            prefix, subs = stack.pop()
            for c in range(d):
                letters, grown = prefix + (c,), _extend_distinct(subs, c)
                if count_distinct(LetterString(alphabet, letters)) != len(grown):
                    return False, f"mismatch at {letters}"
                checked += 1
                if len(letters) < limit:
                    stack.append((letters, grown))
    return True, f"binary n<={binary_limit}, ternary n<={ternary_limit}, {checked} strings"


def _verify_rows():
    binary_rows = [(0,), (1, 1), (1, 2, 2, 1), (1, 3, 3, 2, 2, 3, 3, 1)]
    for n, expected in enumerate(binary_rows):
        if tree_row(2, n) != expected:
            return False, f"binary row {n} mismatch"
    if tree_row(3, 2) != (1, 2, 2, 2, 1, 2, 2, 2, 1):
        return False, "ternary row 2 mismatch"
    return True, "4 binary rows, 1 ternary row"


def _verify_pairs(max_n: int):
    top = min(max_n, 14)
    for n in range(2, top + 1):
        if not check_pair_structure(n):
            return False, f"pair structure fails at row {n}"
    return True, f"rows 2..{top}"


def _verify_fekete(max_n: int):
    cases = [
        (IIDModel.binary(Fraction(1, 2)), min(max_n, 10)),
        (IIDModel.binary(Fraction(3, 10)), min(max_n, 10)),
        (IIDModel.uniform(3), min(max_n, 7)),
    ]
    pairs = 0
    for model, top in cases:
        for total in range(2, top + 1):
            for n in range(1, total):
                if not check_submultiplicativity(model, n, total - n):
                    return False, f"fails for {model.describe()} at ({n}, {total - n})"
                pairs += 1
    return True, f"{pairs} splits across 3 models"


def _verify_engines(max_n: int):
    top = min(max_n, 10)
    iid_cases = [IIDModel.binary(Fraction(1, 2)), IIDModel.binary(Fraction(3, 10))]
    for model in iid_cases:
        if iid_matrix_expectation(model, top).values != exhaustive_expectation(model, top).values:
            return False, f"iid engine mismatch for {model.describe()}"
    tern = IIDModel.uniform(3)
    if iid_matrix_expectation(tern, 6).values != exhaustive_expectation(tern, 6).values:
        return False, "iid engine mismatch for uniform ternary"
    markov = MarkovModel(Fraction(7, 10), Fraction(3, 10))
    if markov_expectation(markov, top).values != exhaustive_expectation(markov, top).values:
        return False, "markov engine mismatch"
    return True, f"iid d=2/d=3 and markov vs exhaustive, n<={top}"


def _verify_superpattern(max_n: int):
    top = min(max_n, 12)
    for s in _all_strings(2, top):
        if superpattern_k(s) != superpattern_k_bruteforce(s):
            return False, f"greedy/brute mismatch at {s.letters}"
    return True, f"all binary strings n<={top}"


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise CliError("--max-n must be at least 2")
    suites = [
        ("counting", lambda: _verify_counting(args.max_n)),
        ("rows", _verify_rows),
        ("pair-structure", lambda: _verify_pairs(args.max_n)),
        ("fekete", lambda: _verify_fekete(args.max_n)),
        ("engines", lambda: _verify_engines(args.max_n)),
        ("superpattern", lambda: _verify_superpattern(args.max_n)),
    ]
    all_ok = True
    lines = []
    for name, run in suites:
        ok, detail = run()
        all_ok = all_ok and ok
        lines.append((name, "PASS" if ok else "FAIL", detail))
    width = max(len(name) for name, _, _ in lines)
    for name, status, detail in lines:
        sys.stdout.write(f"{name.ljust(width)}  {status}  {detail}\n")
    sys.stdout.write(("all suites passed" if all_ok else "FAILURES above") + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------- tree-row


def cmd_tree_row(args) -> int:
    row = tree_row(args.d, args.n)
    sys.stdout.write(",".join(str(v) for v in row) + "\n")
    return 0


# ---------------------------------------------------------------- superpattern


def cmd_superpattern(args) -> int:
    if args.string is not None:
        if any(getattr(args, flag) is not None for flag in ("alpha", "probs", "markov")):
            raise CliError("pass either a string or a model, not both")
        experiment = ("n", "trials", "seed", "workers")
        given = [f"--{flag}" for flag in experiment if getattr(args, flag) is not None]
        if given:
            raise CliError(f"{', '.join(given)} only apply with a model, not with a string")
        alphabet = Alphabet(args.alphabet) if args.alphabet is not None else None
        s = LetterString.from_text(args.string, alphabet)
        doc = {"input": args.string, "d": s.alphabet.size, "n": len(s), "k": superpattern_k(s)}
        _emit(args.out, doc, list(doc), [doc])
        return 0
    if args.n is None:
        raise CliError("experiment mode needs --n (or pass a string)")
    model = _parse_model(args, exact=False)
    seed = _resolve_seed(args.seed)
    trials = 1000 if args.trials is None else args.trials
    workers = 1 if args.workers is None else args.workers
    record = superpattern_experiment(model, args.n, trials, seed, workers=workers)
    doc = {
        "model": model.describe(),
        "n": record.n,
        "trials": record.trials,
        "seed": record.seed,
        "mean_k": record.mean_k,
        "mean_ratio": record.mean_ratio,
        "histogram": {str(k): c for k, c in record.histogram},
    }
    rows = [{"k": k, "count": c} for k, c in record.histogram]
    _emit(args.out, doc, ("k", "count"), rows)
    return 0


# ---------------------------------------------------------------- solve


def _parse_kv(tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise CliError(f"expected key=value, got {tok!r}")
        if key not in keys:
            raise CliError(f"unknown key {key!r}; expected one of {', '.join(keys)}")
        if key in out:
            raise CliError(f"key {key!r} given more than once")
        out[key] = value
    return out


def cmd_solve(args) -> int:
    if args.balance is not None:
        roots = solve_balance(args.balance)
        doc = {
            "equation": "2^x * x^x * (1-x)^(1-x) = target",
            "target": args.balance,
            "lower": None if roots.lower is None else asdict(roots.lower),
            "upper": asdict(roots.upper),
        }
    elif args.threshold:
        root = occurrence_threshold()
        doc = {
            "equation": "H2(x) = x",
            "x": root.x,
            "residual": root.residual,
            "iterations": root.iterations,
        }
    else:
        kv = _parse_kv(args.occurrences, ("n", "pattern", "alpha", "log"))
        missing = {"n", "pattern", "alpha"} - set(kv)
        if missing:
            raise CliError(f"--occurrences needs {' '.join(sorted(missing))}")
        try:
            n = int(kv["n"])
        except ValueError:
            raise CliError(f"n must be an integer, got {kv['n']!r}") from None
        log_space = _BOOLEANS.get(kv.get("log", "false").lower())
        if log_space is None:
            raise CliError(f"log must be true/false/1/0/yes/no, got {kv['log']!r}")
        probs = [parse_probability(tok, exact=False) for tok in kv["alpha"].split(",")]
        model = IIDModel.binary(probs[0]) if len(probs) == 1 else IIDModel(tuple(probs))
        pattern = LetterString.from_text(kv["pattern"], Alphabet(model.d))
        value = expected_occurrences(n, pattern, model, log_space=log_space)
        doc = {
            "n": n,
            "pattern": kv["pattern"],
            "model": model.describe(),
            "log_space": log_space,
            "expected": value,
        }
    _emit("json", doc)
    return 0


# ---------------------------------------------------------------- parser


def _add_model_flags(sub, required: bool = True) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--alpha", help="binary IID model: probability of letter 1")
    group.add_argument("--probs", help="IID letter probabilities p0,p1,...")
    group.add_argument("--markov", help="two-state chain: alpha,beta")


def _add_out_flag(sub) -> None:
    sub.add_argument("--out", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subseqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_count = sub.add_parser("count", help="count distinct subsequences of given strings")
    p_count.add_argument("strings", nargs="*", help="digit strings or comma-separated letters")
    p_count.add_argument("--file", help="read one string per line from a file")
    p_count.add_argument("--alphabet", type=int, help="alphabet size (default: inferred)")
    p_count.add_argument("--with-empty", action="store_true", help="also report the empty-inclusive count")
    p_count.add_argument("--profile", action="store_true", help="include the per-letter new counts")
    _add_out_flag(p_count)
    p_count.set_defaults(func=cmd_count)

    p_expect = sub.add_parser("expect", help="expected counts from the analytic engines")
    p_expect.add_argument("--engine", choices=("closed", "matrix", "markov"), required=True)
    _add_model_flags(p_expect)
    p_expect.add_argument("--n", type=int, required=True, help="string length")
    p_expect.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    _add_out_flag(p_expect)
    p_expect.set_defaults(func=cmd_expect)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates of expected counts")
    p_sim.add_argument("--model", choices=("iid", "markov"), required=True)
    _add_model_flags(p_sim)
    lengths = p_sim.add_mutually_exclusive_group(required=True)
    lengths.add_argument("--n", type=int, help="single string length")
    lengths.add_argument("--grid", help="length grid start:stop[:step]")
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, help=f"master seed (default: ${ENV_SEED} or 0)")
    p_sim.add_argument("--workers", type=_positive_int, default=1)
    p_sim.add_argument("--fit-growth", action="store_true", help="fit the growth constant (JSON output)")
    _add_out_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the brute-force oracle suites")
    p_verify.add_argument("--max-n", type=int, default=10, help="largest length per suite")
    p_verify.set_defaults(func=cmd_verify)

    p_row = sub.add_parser("tree-row", help="one row of the new-subsequence count tree")
    p_row.add_argument("--d", type=int, required=True, help="alphabet size")
    p_row.add_argument("--n", type=int, required=True, help="row index")
    p_row.set_defaults(func=cmd_tree_row)

    p_super = sub.add_parser("superpattern", help="largest k with all length-k patterns embedded")
    p_super.add_argument("string", nargs="?", help="string to analyse")
    p_super.add_argument("--alphabet", type=int, help="alphabet size (default: inferred)")
    _add_model_flags(p_super, required=False)
    p_super.add_argument("--n", type=int, help="sampled string length (experiment mode)")
    # None marks a flag not given, which string mode rejects
    p_super.add_argument("--trials", type=int, help="sampled strings (default: 1000)")
    p_super.add_argument("--seed", type=int, help=f"master seed (default: ${ENV_SEED} or 0)")
    p_super.add_argument("--workers", type=_positive_int, help="worker processes (default: 1)")
    _add_out_flag(p_super)
    p_super.set_defaults(func=cmd_superpattern)

    p_solve = sub.add_parser("solve", help="balance and threshold equations, occurrence counts")
    task = p_solve.add_mutually_exclusive_group(required=True)
    task.add_argument("--balance", type=float, help="solve the balance equation for this target")
    task.add_argument("--threshold", action="store_true", help="solve H2(x) = x on (1/2, 1)")
    task.add_argument(
        "--occurrences",
        nargs="+",
        metavar="KEY=VALUE",
        help="expected embeddings: n=30 pattern=0110 alpha=0.5 [log=true]",
    )
    p_solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
