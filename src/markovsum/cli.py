"""Command-line front end.

Verbs: ``compute`` (constants to N proven digits), ``compare``
(terms-per-digit across formulas for one constant), ``verify-pair`` and
``verify-certificate`` (exact telescoping checks), ``solve`` (stepwise
multiplier solver), ``list`` (catalog).  All rational inputs use "n/d"
syntax; decimal inputs are rejected to keep exactness explicit.

Exit codes: 0 success, 1 verification failure, 2 precision shortfall,
3 cross-formula disagreement, 64 usage error, 65 evaluation singularity.
Identical invocations with identical seeds and options produce
byte-identical output.  The environment variable MARKOVSUM_FORMAT
selects the default output format (text, json or csv); it is read on
every call of :func:`main`, and an explicit ``--format`` wins.
``--format`` and ``--output`` may go before or after the verb; after it
wins.

The argument parser is built once, when this module is imported, and
every :func:`main` call parses with it.  Parsing only reads the parser
(each call gets its own namespace and output buffer), and nothing keyed
on a request outlives the call, so :func:`main` may run in several
threads at once.  Each such call should pass ``--output``: without it
the result, like any error message, goes to the process-wide
``sys.stdout`` or ``sys.stderr``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from . import catalog
from .catalog import CatalogError
from .exact import ROUND_HALF_EVEN, ROUND_TRUNCATE, format_rational, parse_rational
from .markov import (
    SAMPLE_TUPLES,
    EvaluationError,
    ThreePhiTwo,
    certificates,
    check_pair_condition,
    green_rectangle,
    make_certificate,
    solve_multipliers_stepwise,
    verify_certificate,
)
from .markov.pairs import GridFunction, MarkovPair
from .markov.solver import FAMILIES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PRECISION = 2
EXIT_DISAGREE = 3
EXIT_USAGE = 64
EXIT_SINGULAR = 65

_FORMATS = ("text", "json", "csv")

_RATIONAL = r"\d+(/\d+)?"
_NEGATIVE_NUMBER = re.compile(rf"^-{_RATIONAL}(,-?{_RATIONAL})*$|^-\d*\.\d+$")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 64.

    A negative rational such as -1/2, or a comma-separated list of
    rationals that starts with one, is read as an option's value, as
    argparse already does for -1 and -0.5: ``--a -1/2`` means ``--a=-1/2``
    and ``--params -2,1/3,2`` means ``--params=-2,1/3,2``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(message)


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid_arg(text: str) -> tuple[int, int]:
    try:
        i, j = (int(size) for size in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 10x10, got {text!r}") from None
    if i < 0 or j < 0:
        raise argparse.ArgumentTypeError(f"grid sizes must be >= 0, got {text!r}")
    return i, j


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_output_options(parser, default):
    """--format and --output; the top-level parser and every verb take them."""
    parser.add_argument("--format", choices=_FORMATS, default=default,
                        help="output format (default from MARKOVSUM_FORMAT, else text)")
    parser.add_argument("--output", default=default,
                        help="write output to this path instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="markovsum", description=__doc__.splitlines()[0])
    _add_output_options(parser, None)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute", help="evaluate a catalog formula to N proven digits")
    p.add_argument("formula")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--a", type=_rational_arg, default=None,
                   help="parameter for markov-hurwitz / hurwitz3-direct")
    p.add_argument("--rounding", choices=(ROUND_HALF_EVEN, ROUND_TRUNCATE),
                   default=ROUND_HALF_EVEN)
    p.add_argument("--max-terms", type=int, default=2048,
                   help="term cap for entries without a geometric bound")

    p = sub.add_parser("compare", help="tabulate all formulas targeting a constant")
    p.add_argument("constant", choices=sorted(catalog.CONSTANT_GROUPS))
    p.add_argument("--digits", type=int, default=20)
    p.add_argument("--max-terms", type=int, default=2048)

    p = sub.add_parser("verify-pair", help="check the telescoping condition on a grid")
    p.add_argument("fixture", help="built-in pair family (3phi2)")
    _add_param_options(p)
    p.add_argument("--grid", type=_grid_arg, default=(20, 20))
    p.add_argument("--fuzz", action="store_true",
                   help="deliberately perturb a multiplier to demonstrate detection")

    p = sub.add_parser("verify-certificate", help="check the certificate identity on a grid")
    _add_param_options(p)
    p.add_argument("--grid", type=_grid_arg, default=(20, 20))
    p.add_argument("--random-points", type=_count_arg, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("solve", help="solve telescoping multipliers stepwise")
    p.add_argument("family", help="one of: " + ", ".join(sorted(FAMILIES)))
    p.add_argument("--form", choices=("u1", "u2", "u3"), default=None,
                   help="override the family's natural ansatz (may fail to close)")
    p.add_argument("--x-max", type=_count_arg, default=8)
    p.add_argument("--z-samples", type=int, default=None)
    p.add_argument("--params", default=None,
                   help="comma-separated n/d values replacing the family defaults")

    sub.add_parser("list", help="list catalog entries")
    # after the verb too; SUPPRESS keeps a value given before the verb unless repeated after it
    for verb in sub.choices.values():
        _add_output_options(verb, argparse.SUPPRESS)
    return parser


def _add_param_options(p):
    for name, default in zip("abcdq", SAMPLE_TUPLES[0]):
        p.add_argument(f"--{name}", type=_rational_arg, default=default)
    p.add_argument("--presets", help="JSON file of named parameter tuples")
    p.add_argument("--preset", help="tuple name to load from the presets file")


@contextmanager
def _usage_errors(prefix: str = ""):
    """Report a ValueError raised on user input as a usage error (exit 64)."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(f"{prefix}{exc}") from None


def _resolve_params(args) -> tuple[Fraction, ...]:
    if args.presets and not args.preset:
        raise _UsageError("--presets requires --preset NAME")
    if args.preset:
        if not args.presets:
            raise _UsageError("--preset requires --presets FILE")
        try:
            with open(args.presets, encoding="utf-8") as handle:
                table = json.load(handle)
        except OSError as exc:
            raise _UsageError(f"cannot read {args.presets}: {exc.strerror}") from None
        if not isinstance(table, dict) or args.preset not in table:
            raise _UsageError(f"preset {args.preset!r} not in {args.presets}")
        entry = table[args.preset]
        for k in "abcdq":
            if not isinstance(entry, dict) or not isinstance(entry.get(k), str):
                raise _UsageError(f"preset {args.preset!r} needs {k} as a string like \"1/3\"")
        return tuple(parse_rational(entry[k]) for k in "abcdq")
    return (args.a, args.b, args.c, args.d, args.q)


def _check_cap(option: str, reads: str, index: int, cap: int):
    """Refuse an option that reads ``reads`` up to ``index``, past ``cap``."""
    if index > cap:
        raise _UsageError(f"{option} reads {reads}={index}, beyond cap {cap}")


def _build_engine(args, factory):
    """The parameter tuple of the options or preset, and ``factory`` built on it."""
    with _usage_errors():
        params = _resolve_params(args)
        return params, factory(*params)


class _Out:
    def __init__(self, path: Optional[str]):
        if path and not os.path.isdir(os.path.dirname(path) or "."):  # before any work
            raise _UsageError(f"--output {path}: no such directory")
        self.path = path
        self.lines: list[str] = []

    def emit(self, text: str):
        self.lines.append(text)

    def flush(self):
        payload = "\n".join(self.lines) + ("\n" if self.lines else "")
        if not self.path:
            sys.stdout.write(payload)
            return
        try:
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise _UsageError(f"cannot write {self.path}: {exc.strerror}") from None


def _report_text(report: catalog.EvaluationReport) -> list[str]:
    lines = [
        f"entry: {report.entry_id}",
        f"constant: {report.constant}",
        f"terms used: {report.terms_used}",
        f"digits proven: {report.digits_proven}",
        f"value: {report.rendering}" if report.rendering else "value: (no certified digits)",
    ]
    if report.enclosure is not None:
        lines.append(f"enclosure width: {format_rational(report.enclosure.width)}")
    return lines


def _cmd_compute(args, out: _Out) -> int:
    try:
        entry = catalog.get_entry(args.formula, a=args.a)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    if args.digits < 1:
        raise _UsageError("--digits must be >= 1")
    shortfall_note = ""
    if entry.ratio_bound is not None:
        try:
            n_terms = catalog.terms_needed(entry, args.digits, rounding=args.rounding)
        except CatalogError as exc:
            raise _UsageError(str(exc)) from None
    else:
        n_terms = args.max_terms
        shortfall_note = (f"no geometric bound; summed {n_terms} terms "
                          f"(cap --max-terms)")
    report = catalog.evaluate(entry, n_terms, digits=args.digits, rounding=args.rounding)
    if args.format == "json":
        out.emit(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif args.format == "csv":
        out.emit(catalog.reports_to_csv([report]).rstrip("\n"))
    else:
        for line in _report_text(report):
            out.emit(line)
        if shortfall_note and report.digits_proven < args.digits:
            out.emit(f"note: {shortfall_note}")
    return EXIT_OK if report.digits_proven >= args.digits else EXIT_PRECISION


def _truncated_digits(entry: catalog.FormulaEntry, n_terms: int, digits: int):
    """Sign/integer/fraction digit strings under truncation, for comparison."""
    report = catalog.evaluate(entry, n_terms, digits=digits, rounding=ROUND_TRUNCATE)
    rendering = report.rendering
    return report, (rendering.sign, rendering.integer_part, rendering.fraction_digits)


def _cmd_compare(args, out: _Out) -> int:
    if args.digits < 0:
        raise _UsageError("--digits must be >= 0")
    reports = []
    rendered = []
    for entry_id in catalog.CONSTANT_GROUPS[args.constant]:
        entry = catalog.get_entry(entry_id)
        if entry.ratio_bound is not None:
            n_terms = catalog.terms_needed(entry, args.digits) if args.digits else 1
        else:
            n_terms = args.max_terms
        report, digit_strings = _truncated_digits(entry, n_terms, max(args.digits, 1))
        reports.append(report)
        rendered.append(digit_strings)
    # pairwise agreement on the shared proven prefix, capped at the target
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            shared = min(reports[i].digits_proven, reports[j].digits_proven, args.digits)
            si, sj = rendered[i], rendered[j]
            if shared > 0 and (si[0] != sj[0] or si[1] != sj[1]
                               or si[2][:shared] != sj[2][:shared]):
                out.emit(f"DISAGREEMENT: {reports[i].entry_id} vs {reports[j].entry_id} "
                         f"on {shared} shared digits")
                return EXIT_DISAGREE
    if args.format == "json":
        out.emit(json.dumps({"schema": "1", "constant": args.constant,
                             "reports": [r.to_json() for r in reports]},
                            indent=2, sort_keys=True))
    else:
        out.emit(catalog.reports_to_csv(reports).rstrip("\n"))
    return EXIT_OK


def _fuzzed_pair(engine: ThreePhiTwo) -> MarkovPair:
    """The certificate pair with V_{x,z} = (M_{x,z} + 1) F_{x,z} in column 0.

    On the pair's scale A_x F_{x,z} the bump adds F~/A_0 = 1 to V's reduced part.
    Only column 0 forms that part as a value; elsewhere V hands on the base
    pair's factors.
    """
    base = engine.pair()

    def v(x: int, z: int) -> Fraction | tuple:
        return base.v.reduced(x, z) + 1 if x == 0 else base.v.factors(x, z)

    return MarkovPair(base.u, GridFunction(v, "V[fuzzed]", scale=base.v.scale))


def _cmd_verify_pair(args, out: _Out) -> int:
    if args.fixture != "3phi2":
        raise _UsageError(f"unknown pair fixture {args.fixture!r}")
    i, j = args.grid
    _check_cap("--grid", "column x", i + 1, certificates.X_CAP)
    params, engine = _build_engine(args, ThreePhiTwo)
    pair = _fuzzed_pair(engine) if args.fuzz else engine.pair()
    failures = 0
    first = None
    for x in range(i + 1):
        for z in range(j + 1):
            result = check_pair_condition(pair, x, z)
            if not result.holds:
                failures += 1
                if first is None:
                    first = (x, z, result.residual)
    rect = green_rectangle(pair, max(i, 1), max(j, 1))
    payload = {
        "schema": "1",
        "fixture": "3phi2",
        "params": {k: format_rational(v) for k, v in zip("abcdq", params)},
        "grid": f"{i}x{j}",
        "residual_failures": failures,
        "boundary_lhs": format_rational(rect.lhs),
        "boundary_rhs": format_rational(rect.rhs),
        "boundary_equal": rect.equal,
    }
    if first:
        payload["first_failure"] = {"x": first[0], "z": first[1],
                                    "residual": format_rational(first[2])}
    if args.format == "json":
        out.emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            out.emit(f"{key}: {value}")
    return EXIT_OK if failures == 0 and rect.equal else EXIT_VERIFY_FAIL


def _cmd_verify_certificate(args, out: _Out) -> int:
    _check_cap("--random-points", "tuples", args.random_points, certificates.RANDOM_POINTS_CAP)
    _, cert = _build_engine(args, make_certificate)
    x_max, z_max = args.grid
    with _usage_errors():
        verdict = verify_certificate(cert, x_max, z_max, family=make_certificate,
                                     random_points=args.random_points, seed=args.seed)
    if args.format == "json":
        out.emit(json.dumps({"schema": "1", **verdict.to_json()}, indent=2, sort_keys=True))
    else:
        out.emit(f"passed: {verdict.passed}")
        out.emit(f"checks: {verdict.checks}")
        if verdict.first_failure is not None:
            out.emit(f"first failure: {verdict.first_failure.to_json()}")
    return EXIT_OK if verdict.passed else EXIT_VERIFY_FAIL


def _cmd_solve(args, out: _Out) -> int:
    if args.family not in FAMILIES:
        raise _UsageError(f"unknown family {args.family!r}")
    _check_cap("--x-max", "column x", args.x_max + 1, certificates.X_CAP)
    # sample z reads row z + 1
    _check_cap("--z-samples", "row z", args.z_samples or 0, certificates.X_CAP)
    family = FAMILIES[args.family]
    params = family.defaults
    with _usage_errors(f"bad parameters for {args.family}: "):
        if args.params:
            params = tuple(parse_rational(p) for p in args.params.split(","))
        if len(params) != len(family.defaults):
            raise ValueError(f"expected {len(family.defaults)} values, got {len(params)}")
        extension = family.build(*params)
    form = args.form or family.form
    with _usage_errors():
        result = solve_multipliers_stepwise(extension, form, args.x_max,
                                            z_samples=args.z_samples)
    if not result.ok:
        out.emit(f"failure: {result.reason}")
        return EXIT_VERIFY_FAIL
    data = result.data
    if args.format == "json":
        payload = {
            "schema": "1", "family": args.family, "form": form,
            "u_coeffs": [[format_rational(c) for c in row] for row in data.u_coeffs],
            "v_coeffs": [[format_rational(c) for c in row] for row in data.v_coeffs],
        }
        out.emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        out.emit(f"family: {args.family}  form: {form}")
        for x in range(len(data.v_coeffs)):
            u_part = ", ".join(format_rational(c) for c in data.u_coeffs[x])
            v_part = ", ".join(format_rational(c) for c in data.v_coeffs[x])
            out.emit(f"x={x}  U-multiplier: [{u_part}]  V-multiplier: [{v_part}]")
    return EXIT_OK


def _cmd_list(args, out: _Out) -> int:
    rows = catalog.list_entries()
    if args.format == "json":
        out.emit(json.dumps({"schema": "1", "entries": rows}, indent=2, sort_keys=True))
    elif args.format == "csv":
        out.emit("entry,constant,ratio_bound,slow")
        for row in rows:
            out.emit(f"{row['entry']},{row['constant']},{row['ratio_bound']},{row['slow']}")
    else:
        for row in rows:
            bound = f" ratio<={row['ratio_bound']}" if row["ratio_bound"] else ""
            slow = " [slow]" if row["slow"] else ""
            out.emit(f"{row['entry']:<18} {row['constant']:<12}{bound}{slow}  {row['description']}")
    return EXIT_OK


_HANDLERS = {
    "compute": _cmd_compute,
    "compare": _cmd_compare,
    "verify-pair": _cmd_verify_pair,
    "verify-certificate": _cmd_verify_certificate,
    "solve": _cmd_solve,
    "list": _cmd_list,
}


#: the one parser of the process; parsing reads it and never changes it
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.format is None:
            args.format = os.environ.get("MARKOVSUM_FORMAT", "text")
            if args.format not in _FORMATS:
                raise _UsageError(f"MARKOVSUM_FORMAT: invalid choice: {args.format!r} "
                                  f"(choose from {', '.join(map(repr, _FORMATS))})")
        out = _Out(args.output)
        code = _HANDLERS[args.verb](args, out)
        out.flush()
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvaluationError as exc:
        location = f" at (x={exc.x}, z={exc.z})" if exc.x is not None else ""
        print(f"evaluation singularity{location}: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
