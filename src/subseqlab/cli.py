"""Command-line interface.

Subcommands: count, expect, simulate, verify, tree-row, superpattern,
solve. count, expect, simulate and superpattern print CSV with a header,
or JSON with --out json; solve prints JSON; verify and tree-row print
plain text. Only the samplers (simulate, and superpattern with a model)
load numpy. Exit codes: 0 success, 1 invalid input, failed verification
or a stdout reader that closed early (the output stops, with nothing on
stderr), 2 a size guard: the oracle's exhaustive guard, the expectation
engine's (``EXACT_GUARD``, ``FLOAT_GUARD``) or the samplers'
(``SAMPLE_GUARD``), checked before any of them runs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

_TAKES = {"closed": ("alpha",), "matrix": ("alpha", "probs"), "markov": ("markov",),
          "iid": ("alpha", "probs")}  # the model flags each --engine or --model value takes
_SUPER_USAGE = """%(prog)s [-h] [--alphabet ALPHABET]
                              (--alpha ALPHA | --probs PROBS |
                               --markov MARKOV | string)
                              [--n N] [--trials TRIALS] [--seed SEED]
                              [--workers WORKERS] [--out {csv,json}]"""
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class CliError(ValueError):
    """Invalid command-line input, or output that cannot be written."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route through the validation exit code (1)
    def error(self, message):
        raise CliError(message)

    # argparse drops a failed write of the help text; report it as _write does
    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _write(message)
        else:
            super()._print_message(message, file)


# A command imports only the modules it runs: _bind binds each one here
# with every name in its __all__, and a public name read from outside binds
# the modules in the package's order until one holds it (__getattr__). A
# name already set here is kept, so a wrapper set on this module is the
# function a command calls.
def _bind(*modules: str) -> None:
    """Import ``modules`` and bind each one and the names in its ``__all__``
    here, keeping any name already bound."""
    import importlib

    names = globals()
    for module in modules:
        home = importlib.import_module(f"{__package__}.{module}")
        names.setdefault(module, home)
        for name in home.__all__:
            names.setdefault(name, getattr(home, name))


def __getattr__(name: str):
    if not name.startswith("_"):  # a private or dunder probe imports nothing
        from . import _MODULES

        for module in (*_MODULES, "output"):
            _bind(module)
            if name in globals():
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_grid(text: str) -> range:
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
    return range(start, stop + 1, step)


def _parse_model(args, exact: bool, takes=("alpha", "probs", "markov"), label: str = ""):
    """The model named by --alpha, --probs or --markov, of which argparse
    lets through exactly one. A flag outside ``takes`` is rejected as
    ``"{label} takes {flags}"`` before any value is parsed."""
    if all(getattr(args, flag) is None for flag in takes):
        raise CliError(f"{label} takes {' or '.join(f'--{flag}' for flag in takes)}")
    if args.alpha is not None:
        model = IIDModel.binary(parse_probability(args.alpha, exact))
    elif args.probs is not None:
        probs = tuple(parse_probability(tok, exact) for tok in args.probs.split(","))
        model = IIDModel(probs)
    else:
        toks = args.markov.split(",")
        if len(toks) != 2:
            raise CliError("--markov takes two probabilities: alpha,beta")
        model = MarkovModel(
            parse_probability(toks[0], exact), parse_probability(toks[1], exact)
        )
    return model


def _write(text: str) -> None:
    """Hand ``text`` to stdout's file until every byte is taken, so no buffer
    holds output; a text stream with no binary layer takes it as is. A reader
    that left early re-raises BrokenPipeError; any other OSError is a CliError."""
    out = sys.stdout
    try:
        out.flush()  # text printed before this keeps its place
        if not hasattr(out, "buffer"):
            out.write(text)
            return
        file = getattr(out.buffer, "raw", out.buffer)  # a raw FileIO when unbuffered
        view = memoryview(text.encode(out.encoding, out.errors))
        while view:
            taken = file.write(view)
            if taken is None:  # a non-blocking stdout that is full
                raise BlockingIOError(errno.EAGAIN, "write could not complete without blocking")
            view = view[taken:]
    except OSError as exc:
        with open(os.devnull, "wb") as devnull:  # text still buffered cannot fail again at exit
            os.dup2(devnull.fileno(), out.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise CliError(f"cannot write output: {exc}") from None


def _emit(out: str, doc, columns=(), rows=()) -> None:
    """Print ``doc`` as JSON or ``rows`` (value sequences matching
    ``columns``) as streamed CSV; only the format printed reads its generators."""
    if out == "json":
        _write(dump_json(doc))
    else:
        render_csv(columns, rows, _write)


# ---------------------------------------------------------------- count


def cmd_count(args) -> int:
    _bind("strings", "output")
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
    else:
        raw = list(enumerate(args.strings, start=1))
    alphabet = Alphabet(args.alphabet) if args.alphabet is not None else None
    strings = []  # every line parses before the first row is counted or written
    for lineno, text in raw:
        try:
            strings.append((text, LetterString.from_text(text, alphabet)))
        except ValueError as exc:
            raise CliError(f"line {lineno}: {exc}") from None

    def rows(join: bool):  # one dict per string, its profile joined by spaces for CSV
        for text, s in strings:
            phi = count_distinct(s)  # O(n) state: a profile holds O(n**2) bits
            row = {"input": text, "n": len(s), "phi": phi}
            if args.with_empty:
                row["phi_with_empty"] = phi + 1
            if args.profile:
                profile = new_subseq_counts(s)
                row["profile"] = " ".join(map(str, profile)) if join else list(profile)
            yield row

    columns = ["input", "n", "phi"]
    if args.with_empty:
        columns.append("phi_with_empty")
    if args.profile:
        columns.append("profile")
    _emit(args.out, {"rows": rows(join=False)}, columns, (row.values() for row in rows(join=True)))
    return 0


# ---------------------------------------------------------------- expect


def cmd_expect(args) -> int:
    _bind("models", "expectation", "output")
    # the closed form is the binary IID case of the matrix engine
    model = _parse_model(args, args.exact, _TAKES[args.engine], f"the {args.engine} engine")
    engine = markov_expectation if args.engine == "markov" else iid_matrix_expectation
    series = engine(model, args.n)  # --exact parsed Fractions, so the model picks the mode
    values = series.rows  # exact rows print as their reduced pairs, with no Fraction built
    if series.mode == "float":  # the rows stream, so refuse inf or nan before the first byte
        check_finite(values)
    plain = len(values) - series.log_rows  # the rows after this hold ln(E), past the float range
    doc = {"engine": args.engine, "model": model.describe(), "mode": series.mode, "n": args.n,
           "values": values}
    columns, rows = ("n", "value"), enumerate(values, start=1)
    if series.log_rows:  # each format reads its own lazy flags
        doc["log_space"] = (i > plain for i in range(1, len(values) + 1))
        columns, rows = (*columns, "log_space"), ((i, v, i > plain) for i, v in rows)
    _emit(args.out, doc, columns, rows)
    return 0


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    from dataclasses import asdict

    _bind("models", "montecarlo", "output")
    model = _parse_model(args, False, _TAKES[args.model], f"--model {args.model}")
    ns = range(args.n, args.n + 1) if args.n is not None else _parse_grid(args.grid)
    if args.fit_growth:  # checked before sampling; grid lengths are sorted, distinct, >= 0
        if args.out != "json":
            raise CliError("--fit-growth reports through JSON; add --out json")
        if len(ns[:3]) < 3:  # a range's len() overflows past sys.maxsize
            raise CliError("growth fit needs at least 3 distinct grid lengths")
        if ns[0] < 1:
            raise CliError(
                f"growth fit takes ln of the mean count, so lengths must be at least 1; got {[ns[0]]}"
            )
    # the whole grid is priced before its first length is sampled
    montecarlo._check_run(montecarlo._count_block, model, ns, args.trials, args.seed)
    records = [
        estimate_expected_count(model, n, args.trials, args.seed, workers=args.workers, stream=idx)
        for idx, n in enumerate(ns)
    ]
    doc = {"model": model.describe(), "rows": [asdict(r) for r in records]}
    if args.fit_growth:
        doc["fit"] = asdict(fit_growth_rate(ns, [r.log_mean() for r in records]))
    columns = ("n", "mean", "stderr", "trials", "seed")
    if any(r.log_space for r in records):  # then a row's mean is ln of the mean
        columns += ("log_space",)
    _emit(args.out, doc, columns, ([getattr(r, col) for col in columns] for r in records))
    return 0


# ---------------------------------------------------------------- verify


def _verify_strings(max_n: int):
    """The counting and superpattern suites on the oracle's walk over the
    short strings, ``oracle._short_strings``, which owns the walk and its
    bitsets and hands out each string's brute-force count and superpattern
    k. Counting names its first failure in walk order, superpattern its
    shortest, then least."""
    binary_limit = min(max_n, 12)
    ternary_limit = max(2, min(8, max_n - 4))
    checked, wrong_count, wrong_k = 0, None, []
    for d, limit in ((2, binary_limit), (3, ternary_limit)):
        alphabet = Alphabet(d)
        for letters, count, k in oracle._short_strings(d, limit):
            s = LetterString(alphabet, letters)
            if wrong_count is None and count_distinct(s) != count:
                wrong_count = letters
            checked += 1
            if d == 2 and superpattern_k(s) != k:
                wrong_k.append((len(letters), letters))
    return ((wrong_count is None, f"mismatch at {wrong_count}" if wrong_count else
             f"binary n<={binary_limit}, ternary n<={ternary_limit}, {checked} strings"),
            (not wrong_k, f"greedy/brute mismatch at {min(wrong_k)[1]}" if wrong_k
             else f"all binary strings n<={binary_limit}"))


def _verify_rows(max_n: int):
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
    from fractions import Fraction

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
    from fractions import Fraction

    top = min(max_n, 10)
    cases = [  # (engine, model, length, failure text; None names the model)
        (iid_matrix_expectation, IIDModel.binary(Fraction(1, 2)), top, None),
        (iid_matrix_expectation, IIDModel.binary(Fraction(3, 10)), top, None),
        (iid_matrix_expectation, IIDModel.uniform(3), min(max_n, 6),
         "iid engine mismatch for uniform ternary"),
        (markov_expectation, MarkovModel(Fraction(7, 10), Fraction(3, 10)), top,
         "markov engine mismatch"),
    ]
    for engine, model, n, failure in cases:
        if engine(model, n).values != exhaustive_expectation(model, n).values:
            return False, failure or f"iid engine mismatch for {model.describe()}"
    return True, f"iid d=2/d=3 and markov vs exhaustive, n<={top}"


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise CliError("--max-n must be at least 2")
    _bind("strings", "models", "expectation", "oracle", "montecarlo")
    n = args.max_n
    counting, superpattern = _verify_strings(n)
    results = {"counting": counting, "rows": _verify_rows(n), "pair-structure": _verify_pairs(n),
               "fekete": _verify_fekete(n), "engines": _verify_engines(n), "superpattern": superpattern}
    width = max(map(len, results))
    for name, (ok, detail) in results.items():
        _write(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}\n")
    all_ok = all(ok for ok, _ in results.values())
    _write(("all suites passed" if all_ok else "FAILURES above") + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------- tree-row


_DECIMALS = 1024  # tree-row prints values below this from a table of their texts


def cmd_tree_row(args) -> int:
    _bind("oracle")
    decimals = []  # decimals[v] is str(v), grown on demand up to _DECIMALS entries
    sep = ""
    for run in oracle._row_runs(args.d, args.n):  # each run as it arrives, so the row is never held
        top = max(run)
        if top < _DECIMALS:
            decimals.extend(map(str, range(len(decimals), top + 1)))
            texts = map(decimals.__getitem__, run)
        else:
            texts = map(str, run)
        _write(sep + ",".join(texts))
        sep = ","
        del run  # so the next run is not built while this one is held
    _write("\n")
    return 0


# ---------------------------------------------------------------- superpattern


def cmd_superpattern(args) -> int:
    from dataclasses import asdict

    _bind("strings", "models", "montecarlo", "output")
    # argparse lets through a string or a model, never both; each rejects the other's flags
    if args.string is not None:
        foreign, where = ("n", "trials", "seed", "workers"), "with a model, not with a string"
    else:
        foreign, where = ("alphabet",), "with a string, not with a model"
    given = [f"--{flag}" for flag in foreign if getattr(args, flag) is not None]
    if given:
        raise CliError(f"{', '.join(given)} only apply {where}")
    if args.string is not None:
        alphabet = Alphabet(args.alphabet) if args.alphabet is not None else None
        s = LetterString.from_text(args.string, alphabet)
        doc = {"input": args.string, "d": s.alphabet.size, "n": len(s), "k": superpattern_k(s)}
        _emit(args.out, doc, list(doc), [doc.values()])
        return 0
    if args.n is None:
        raise CliError("experiment mode needs --n (or pass a string)")
    model = _parse_model(args, exact=False)
    seed = 0 if args.seed is None else args.seed
    trials = 1000 if args.trials is None else args.trials
    workers = 1 if args.workers is None else args.workers
    record = superpattern_experiment(model, args.n, trials, seed, workers=workers)
    doc = {"model": model.describe(), **asdict(record), "histogram": dict(record.histogram)}
    _emit(args.out, doc, ("k", "count"), record.histogram)
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
    from dataclasses import asdict

    _bind("strings", "models", "analysis", "output")
    if args.balance is not None:
        roots = solve_balance(args.balance)
        doc = {
            "equation": "2^x * x^x * (1-x)^(1-x) = target",
            "target": args.balance,
            **asdict(roots),
        }
    elif args.threshold:
        root = occurrence_threshold()
        doc = {"equation": "H2(x) = x", **asdict(root)}
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


def _add_model_flags(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="binary IID model: probability of letter 1")
    group.add_argument("--probs", help="IID letter probabilities p0,p1,...")
    group.add_argument("--markov", help="two-state chain: alpha,beta")
    return group


def _add_out_flag(sub) -> None:
    sub.add_argument("--out", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subseqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_count = sub.add_parser("count", help="count distinct subsequences of given strings")
    # default [] keeps an empty strings list from counting as given
    source = p_count.add_mutually_exclusive_group(required=True)
    source.add_argument("strings", nargs="*", default=[], help="digit strings or comma-separated letters")
    source.add_argument("--file", help="read one string per line from a file")
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
    p_sim.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
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

    # argparse prints a group as one choice only when every member is an
    # option, so the usage line holding the string positional is written out
    p_super = sub.add_parser(
        "superpattern", help="largest k with all length-k patterns embedded", usage=_SUPER_USAGE
    )
    p_super.add_argument("--alphabet", type=int, help="alphabet size (default: inferred)")
    _add_model_flags(p_super).add_argument("string", nargs="?", help="string to analyse")
    p_super.add_argument("--n", type=int, help="sampled string length (experiment mode)")
    # None marks a flag not given, which string mode rejects
    p_super.add_argument("--trials", type=int, help="sampled strings (default: 1000)")
    p_super.add_argument("--seed", type=int, help="master seed (default: 0)")
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
    if sys.stdout is None:  # started with stdout closed
        print("error: stdout is closed", file=sys.stderr)
        return 1
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7+; exact results have any length
        sys.set_int_max_str_digits(0)
    # Before numpy loads: its only BLAS call here is a 3-point polyfit, and
    # OpenBLAS's idle worker thread spins for about 120 ms of CPU time.
    # The CLI owns its process; the library leaves a caller's BLAS alone.
    os.putenv("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:  # from _write: stdout's reader left early
        return 1
    except RuntimeError as exc:  # a SizeGuardError, whose module loaded if it was raised
        guards = sys.modules.get(f"{__package__}.expectation")
        if not isinstance(exc, getattr(guards, "SizeGuardError", ())):
            raise
        print(f"size guard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
