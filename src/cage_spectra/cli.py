"""Command-line front end.

Subcommands:

    moore K G                          print the minimum order bound
    poly {G|F|H} K I                   print family-member coefficients
    verify TARGET --k --d --e          structural + exact-identity + spectral checks
    feasibility K D E                  full spectral feasibility report
    scan --k A..B --d LIST --e LIST    feasibility over a parameter grid
    catalog                            list embedded graphs

TARGET is either ``catalog:<name>`` or a path to a graph6 file (one graph
per line).  ``--format`` selects text, json, or csv output where supported.
Exit codes: 0 success, 1 verification failure, 2 usage or parameter error
(an unreadable or malformed graph6 file included).

JSON is canonical: keys sorted, floats at 12 significant digits, so a report
parsed and re-serialized is byte-identical inside binary64's normal range.
Exact integers are never printed in float form, and every format prints them
in full at any size (`format_int`); the exact gap ends and spectrum ends keep
12 significant digits outside binary64's range (`format_exact`).
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .errors import CageSpectraError, DegreeRangeError, Graph6ParseError, ParameterDomainError
from .feasibility import (
    FeasibilityReport,
    SkippedTriple,
    scan,
    spectral_feasibility,
)
from .graphs import (
    catalog,
    catalog_entry,
    catalog_names,
    moore_bound,
    parse_graph6,
    spectral_crosscheck,
    structural_check,
)
from .polynomials import dickson_family

CSV_COLUMNS = ("k", "d", "e", "n", "verdict", "gap_lo", "gap_hi", "max_integrality_deviation")


# ---------------------------------------------------------------------------
# canonical serialization

def format_float(x: float) -> str:
    return format(float(x), ".12g")


def format_int(n: int) -> str:
    """An exact integer in decimal, every digit: `str` refuses one past
    `sys.get_int_max_str_digits()` digits (n = M(k, 2d) + e passes it at
    (10^400 + 1, 13, 2)), while a `decimal.Decimal` converts at any size,
    with no process-wide setting changed."""
    return str(decimal.Decimal(n))


#: Twelve significant digits, rounded half to even, at any exponent.
_TWELVE_DIGITS = decimal.Context(
    prec=12, rounding=decimal.ROUND_HALF_EVEN, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX,
)


def format_exact(q: Fraction) -> str:
    """An exact rational at 12 significant digits, in `format_float`'s shape.

    Where q is 0 or its float is normal and finite, this is
    ``format_float(float(q))``.  Below 2^-1022 binary64 would lose digits or
    underflow to 0, and past its largest value ``float(q)`` overflows, so
    there the 12 digits are those of q itself (a correctly rounded decimal
    quotient): a positive gap end never prints as 0, and an end eigenvalue
    -k past binary64 still prints."""
    try:
        x = float(q)
    except OverflowError:
        x = math.inf
    if q == 0 or sys.float_info.min <= abs(x) < math.inf:
        return format_float(x)
    digits = _TWELVE_DIGITS.divide(q.numerator, q.denominator)
    return format(_TWELVE_DIGITS.normalize(digits), "g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, 12-significant-digit floats, compact
    separators; an exact `Fraction` is printed by `format_exact`.  Parsing
    the output and re-serializing it is byte-identical inside binary64's
    normal range: Python's `json` reads a `format_exact` token below 2^-1022
    as 0.0 or a subnormal float, which re-serializes differently."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return format_int(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, Fraction):
        return format_exact(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(key))}:{dumps_canonical(obj[key])}" for key in sorted(obj))
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _token(x) -> str:
    """A value as the text formats print it: its canonical JSON token, or
    ``n/a`` where it has none."""
    return "n/a" if x is None else dumps_canonical(x)


def _triple(item) -> str:
    """The ``(k=.., d=.., e=..)`` head of a text report or scan row."""
    return f"(k={_token(item.k)}, d={_token(item.d)}, e={_token(item.e)})"


def _report_json(report: FeasibilityReport) -> dict:
    spectrum = report.spectrum()
    gap = None
    if report.gap is not None:
        g = report.gap
        gap = {
            "applicable": True,  # every gap verdict applies; the key keeps the JSON bytes
            "verdict": g.verdict,
            "lo": g.lo,
            "hi": g.hi,
            "analytic_bound": report.analytic_gap_bound,
            "contains_integer": g.contains_integer,
            "within_unit_interval": g.within_unit_interval,
            "chain_ok": True,  # a theorem on the regime (`GapVerdict`); the key keeps the bytes
        }
    return {
        "k": report.k,
        "d": report.d,
        "e": report.e,
        "n": report.n,
        "verdict": report.final_verdict,
        "thetas": [theta for theta, _ in spectrum],
        "multiplicities": [m for _, m in spectrum],
        "all_integral": report.all_integral,
        "max_integrality_deviation": report.max_integrality_deviation,
        "roots": [
            {
                "epsilon": r.epsilon,
                "i": r.i,
                "eta": r.eta,
                "theta": r.theta,
                "phi": phi,
                "alpha": alpha,
            }
            for r, (phi, alpha) in zip(report.roots, report.angles)
        ],
        "gap": gap,
    }


def _csv_row(item) -> str:
    """The CSV line of a scan/feasibility item: a skipped triple fills only
    k, d, e and verdict, and a value that is None leaves its field empty."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(k=item.k, d=item.d, e=item.e, verdict=item.final_verdict)
    if not isinstance(item, SkippedTriple):
        gap = item.gap
        row.update(
            n=item.n,
            gap_lo=None if gap is None else gap.lo,
            gap_hi=None if gap is None else gap.hi,
            max_integrality_deviation=item.max_integrality_deviation,
        )
    cells = (v if isinstance(v, str) else "" if v is None else dumps_canonical(v)
             for v in row.values())
    return ",".join(cells) + "\n"


def _report_text(report: FeasibilityReport) -> str:
    lines = [
        f"{_triple(report)}  n = {_token(report.n)}",
        f"verdict: {report.final_verdict}",
        "spectrum (theta : multiplicity):",
    ]
    for theta, m in report.spectrum():
        lines.append(f"  {_token(theta):>18} : {_token(m)}")
    lines.append(
        f"integrality: {'all integral' if report.all_integral else 'NON-INTEGRAL multiplicities'}"
        f" (max deviation {_token(report.max_integrality_deviation)})"
    )
    if report.gap is not None:
        g = report.gap
        lines.append(
            f"gap interval for lambda_2^2 - mu_2^2: ({_token(g.lo)}, {_token(g.hi)})"
            f", analytic bound {_token(report.analytic_gap_bound)}"
            f", contains integer: {g.contains_integer}"
            ", chain ok: True"  # a theorem on the regime (`GapVerdict`)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing helpers

def _int(text: str) -> int:
    """An integer argument, read as `int` reads it and refused with argparse's
    message for `int`.  `int` refuses a numeral past
    `sys.get_int_max_str_digits()` digits, so one of digits alone, after
    surrounding space and one optional sign, goes through `decimal.Decimal`
    instead, which reads it at any size; a numeral within the limit costs
    one `int` call, as before."""
    try:
        return int(text)
    except ValueError:
        numeral = text.strip()
        if not numeral[numeral[:1] in ("+", "-"):].isdecimal():  # past one sign
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return int(decimal.Decimal(text))


def _int_list(text: str) -> list[int] | range:
    """Parse '4..20' (inclusive range) or '7,9,11' or a single integer, each
    read by `_int`.  A malformed range, a non-integer or an empty item is an
    argparse error that names the accepted forms.  A range comes back as a
    `range`: the scan loops iterate it again for every k and d, and it holds
    ends of any size, where a list of its items past ``sys.maxsize`` could
    not be built."""
    text = text.strip()
    try:
        if ".." not in text:
            return [_int(tok) for tok in text.split(",")]
        lo, hi = map(_int, text.split("..", 1))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"invalid integer list {text!r}: expected A..B, A,B,... or A"
        ) from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# subcommand drivers

def _cmd_moore(args, out) -> int:
    out.write(f"{format_int(moore_bound(args.k, args.g))}\n")
    return 0


def _cmd_poly(args, out) -> int:
    p = dickson_family(args.family.upper(), args.k, args.i)
    if args.format == "json":
        out.write(dumps_canonical({
            "family": args.family.upper(), "k": args.k, "i": args.i,
            "degree": p.degree, "coefficients": list(p.coefficients),
        }) + "\n")
    else:
        out.write(" ".join(map(format_int, p.coefficients)) + "\n")
    return 0


def _load_targets(target: str):
    if target.startswith("catalog:"):
        name = target.split(":", 1)[1]
        return [(name, catalog(name))]
    path = Path(target)
    graphs = []
    # bytes, so a non-ASCII byte reaches parse_graph6's out-of-range error
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if line.strip():
            graphs.append((f"{path.name}:{lineno}", parse_graph6(line)))
    if not graphs:
        raise Graph6ParseError(f"no graphs found in {target}")
    return graphs


def _verify_one(name, graph, k, d, e) -> dict:
    verdict = structural_check(graph, k, d, e)
    result = {
        "graph": name,
        "n": graph.n,
        "structural_ok": verdict.structure_ok,
        "regime_notes": list(verdict.regime_notes),
        "failures": list(verdict.failures),
        "girth": verdict.girth if verdict.girth != float("inf") else None,
        "diameter": verdict.diameter,
        "bipartite": verdict.bipartite,
        "antipode_count_per_vertex": (
            verdict.antipode_count_per_vertex
            if verdict.antipode_count_per_vertex is not None
            else "non-uniform"
        ),
        "clique_count": verdict.clique_count,
        "path_count_residual": None,
        "allones_residual": None,
        "crosscheck_max_deviation": None,
        "ok": False,
    }
    if not verdict.structure_ok:
        return result
    # the structure the check certified makes both identities theorems (see
    # the `graphs` module docstring): their residuals are 0, computed nowhere
    cross = spectral_crosscheck(graph, k, d, e)
    result["path_count_residual"] = result["allones_residual"] = 0
    result["crosscheck_max_deviation"] = cross.max_deviation
    result["ok"] = cross.ok
    return result


def _cmd_verify(args, out) -> int:
    if args.k < 3:  # refused before any target is read, whatever its graphs
        raise DegreeRangeError(f"degree k must be >= 3, got {format_int(args.k)}")
    results = [_verify_one(name, g, args.k, args.d, args.e) for name, g in _load_targets(args.target)]
    if args.format == "json":
        out.write(dumps_canonical(results) + "\n")
    else:
        for r in results:
            status = "PASS" if r["ok"] else "FAIL"
            out.write(f"{r['graph']}: {status}\n")
            out.write(f"  structural: {'ok' if r['structural_ok'] else 'failed: ' + ', '.join(r['failures'])}\n")
            if r["regime_notes"]:
                out.write(f"  regime notes: {', '.join(r['regime_notes'])}\n")
            if r["structural_ok"]:
                out.write(f"  path-count identity residual: {_token(r['path_count_residual'])}\n")
                out.write(f"  all-ones identity residual: {_token(r['allones_residual'])}\n")
                out.write(
                    "  eigenvalue crosscheck max deviation: "
                    f"{_token(r['crosscheck_max_deviation'])}\n"
                )
    return 0 if all(r["ok"] for r in results) else 1


def _cmd_feasibility(args, out) -> int:
    report = spectral_feasibility(args.k, args.d, args.e)
    if args.format == "json":
        out.write(dumps_canonical(_report_json(report)) + "\n")
    elif args.format == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
        out.write(_csv_row(report))
    else:
        out.write(_report_text(report) + "\n")
    return 0


def _cmd_scan(args, out) -> int:
    items = scan(args.k, args.d, args.e)
    if args.format == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
        for item in items:
            out.write(_csv_row(item))
    elif args.format == "json":
        rows = []
        try:
            for item in items:
                if isinstance(item, SkippedTriple):
                    rows.append({
                        "k": item.k, "d": item.d, "e": item.e,
                        "verdict": item.final_verdict, "note": item.reason,
                    })
                else:
                    rows.append(_report_json(item))
        finally:  # an error mid-grid still prints the items before it, as csv and text do
            out.write(dumps_canonical(rows) + "\n")
    else:
        for item in items:
            if isinstance(item, SkippedTriple):
                out.write(f"{_triple(item)} {item.final_verdict}: {item.reason}\n")
            else:
                g = item.gap
                gap = f" gap=({_token(g.lo)}, {_token(g.hi)})" if g is not None else ""
                out.write(f"{_triple(item)} n={_token(item.n)} {item.final_verdict}{gap}\n")
    return 0


def _cmd_catalog(args, out) -> int:
    for entry in map(catalog_entry, catalog_names()):
        out.write(f"{entry.name}: n={entry.n}, k={entry.k}, girth={entry.girth} - {entry.description}\n")
    return 0


# ---------------------------------------------------------------------------
# the parsers and the entry point

#: Each subcommand's `_cmd_*` function, help and arguments, the arguments as
#: ``add_argument``'s (name or flag, keywords) pairs: `_command_parser`
#: builds one subcommand's parser from its entry, `_build_parser` the tree.
_COMMANDS = {
    "moore": (_cmd_moore, "minimum order of a k-regular graph of girth g", (
        ("k", {"type": _int}),
        ("g", {"type": _int}),
    )),
    "poly": (_cmd_poly, "coefficients of a family member (constant term first)", (
        ("family", {"choices": ["G", "F", "H", "g", "f", "h"]}),
        ("k", {"type": _int}),
        ("i", {"type": _int}),
        ("--format", {"choices": ["text", "json"], "default": "text"}),
    )),
    "verify": (_cmd_verify, "structural, exact-identity, and spectral checks on a graph", (
        ("target", {"help": "catalog:<name> or a graph6 file (one graph per line)"}),
        ("--k", {"type": _int, "required": True}),
        ("--d", {"type": _int, "required": True}),
        ("--e", {"type": _int, "required": True}),
        ("--format", {"choices": ["text", "json"], "default": "text"}),
    )),
    "feasibility": (_cmd_feasibility, "full spectral feasibility report for (k, d, e)", (
        ("k", {"type": _int}),
        ("d", {"type": _int}),
        ("e", {"type": _int}),
        ("--format", {"choices": ["text", "json", "csv"], "default": "text"}),
    )),
    "scan": (_cmd_scan, "stream feasibility reports over a parameter grid", (
        ("--k", {"type": _int_list, "required": True}),
        ("--d", {"type": _int_list, "required": True}),
        ("--e", {"type": _int_list, "required": True}),
        ("--format", {"choices": ["text", "json", "csv"], "default": "text"}),
    )),
    "catalog": (_cmd_catalog, "list embedded graphs", ()),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    run, _, arguments = _COMMANDS[name]
    parser.set_defaults(run=run)
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    return parser


@lru_cache(maxsize=len(_COMMANDS))
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand `name` alone, built on the first call that
    names it and reused for the rest of the process (never at import).  Its
    ``prog`` is the one argparse gives the full parser's subparser, so its
    help, usage and errors are that subparser's, byte for byte."""
    return _add_arguments(argparse.ArgumentParser(prog=f"cage-spectra {name}"), name)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, the top level and its six subparsers, built only for
    a call that `main` cannot finish with `_command_parser` (the top-level
    help and usage errors) and reused for the rest of the process (never at
    import)."""
    parser = argparse.ArgumentParser(
        prog="cage-spectra",
        description="Spectral feasibility toolkit for regular graphs of even girth and small excess.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit
    code; argparse exits 2 on a usage error and 0 after printing help.

    A call whose first argument names a subcommand is parsed once, by that
    subcommand's own parser.  Only a call that names none, or whose
    subcommand parser leaves arguments over, is parsed by the full parser,
    which then writes the top-level help or usage error itself."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args, rest = None, None
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        args = _build_parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except (ParameterDomainError, Graph6ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CageSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
