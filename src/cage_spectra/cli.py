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
parsed and re-serialized is byte-identical.  Exact integers are never
printed in float form.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .errors import (
    CageSpectraError,
    Graph6ParseError,
    ParameterDomainError,
    StructuralRefusal,
)
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
    verify_identities,
)
from .polynomials import dickson_family

CSV_COLUMNS = ("k", "d", "e", "n", "verdict", "gap_lo", "gap_hi", "max_integrality_deviation")


# ---------------------------------------------------------------------------
# canonical serialization

def format_float(x: float) -> str:
    return format(float(x), ".12g")


def _float_or(x: float | None, absent: str) -> str:
    """``format_float(x)``, or ``absent`` where x has no float value."""
    return absent if x is None else format_float(x)


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, 12-significant-digit floats, compact
    separators.  Parsing the output and re-serializing it is byte-identical."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(key))}:{dumps_canonical(obj[key])}" for key in sorted(obj))
        return "{" + ",".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _report_json(report: FeasibilityReport) -> dict:
    spectrum = report.spectrum()
    gap = None
    if report.gap is not None:
        g = report.gap
        gap = {
            "applicable": True,  # every gap verdict applies; the key keeps the JSON bytes
            "verdict": g.verdict,
            "lo": float(g.lo),
            "hi": float(g.hi),
            "analytic_bound": g.analytic_bound,
            "contains_integer": g.contains_integer,
            "within_unit_interval": g.within_unit_interval,
            "chain_ok": g.chain_ok,
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


def _row(item) -> dict:
    """The shared CSV row for a scan/feasibility item."""
    if isinstance(item, SkippedTriple):
        return {
            "k": item.k, "d": item.d, "e": item.e, "n": "",
            "verdict": item.final_verdict, "gap_lo": "", "gap_hi": "",
            "max_integrality_deviation": "",
        }
    gap_lo = gap_hi = ""
    if item.gap is not None:
        gap_lo = format_float(item.gap.lo)
        gap_hi = format_float(item.gap.hi)
    return {
        "k": item.k, "d": item.d, "e": item.e, "n": item.n,
        "verdict": item.final_verdict, "gap_lo": gap_lo, "gap_hi": gap_hi,
        "max_integrality_deviation": _float_or(item.max_integrality_deviation, ""),
    }


def _emit_csv_row(out, row: dict) -> None:
    out.write(",".join(str(row[c]) for c in CSV_COLUMNS) + "\n")


def _report_text(report: FeasibilityReport) -> str:
    lines = [
        f"(k={report.k}, d={report.d}, e={report.e})  n = {report.n}",
        f"verdict: {report.final_verdict}",
        "spectrum (theta : multiplicity):",
    ]
    for theta, m in report.spectrum():
        shown = str(m) if isinstance(m, int) else _float_or(m, "n/a")
        lines.append(f"  {format_float(theta):>18} : {shown}")
    lines.append(
        f"integrality: {'all integral' if report.all_integral else 'NON-INTEGRAL multiplicities'}"
        f" (max deviation {_float_or(report.max_integrality_deviation, 'n/a')})"
    )
    if report.gap is not None:
        g = report.gap
        lines.append(
            f"gap interval for lambda_2^2 - mu_2^2: ({format_float(g.lo)}, {format_float(g.hi)})"
            f", analytic bound {format_float(g.analytic_bound)}"
            f", contains integer: {g.contains_integer}"
            f", chain ok: {g.chain_ok}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing helpers

def _int_list(text: str) -> list[int]:
    """Parse '4..20' (inclusive range) or '7,9,11' or a single integer."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok]


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused for the
    rest of the process (never at import)."""
    parser = argparse.ArgumentParser(
        prog="cage-spectra",
        description="Spectral feasibility toolkit for regular graphs of even girth and small excess.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moore", help="minimum order of a k-regular graph of girth g")
    p.add_argument("k", type=int)
    p.add_argument("g", type=int)

    p = sub.add_parser("poly", help="coefficients of a family member (constant term first)")
    p.add_argument("family", choices=["G", "F", "H", "g", "f", "h"])
    p.add_argument("k", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("verify", help="structural, exact-identity, and spectral checks on a graph")
    p.add_argument("target", help="catalog:<name> or a graph6 file (one graph per line)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("feasibility", help="full spectral feasibility report for (k, d, e)")
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("scan", help="stream feasibility reports over a parameter grid")
    p.add_argument("--k", type=_int_list, required=True)
    p.add_argument("--d", type=_int_list, required=True)
    p.add_argument("--e", type=_int_list, required=True)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    sub.add_parser("catalog", help="list embedded graphs")
    return parser


# ---------------------------------------------------------------------------
# subcommand drivers

def _cmd_moore(args, out) -> int:
    out.write(f"{moore_bound(args.k, args.g)}\n")
    return 0


def _cmd_poly(args, out) -> int:
    p = dickson_family(args.family.upper(), args.k, args.i)
    if args.format == "json":
        out.write(dumps_canonical({
            "family": args.family.upper(), "k": args.k, "i": args.i,
            "degree": p.degree, "coefficients": list(p.coefficients),
        }) + "\n")
    else:
        out.write(" ".join(str(c) for c in p.coefficients) + "\n")
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
    path_id, allones = verify_identities(graph, k, d, e)
    cross = spectral_crosscheck(graph, k, d, e)
    result["path_count_residual"] = path_id.residual
    result["allones_residual"] = allones.residual
    result["crosscheck_max_deviation"] = cross.max_deviation
    result["ok"] = path_id.holds and allones.holds and cross.ok
    return result


def _cmd_verify(args, out) -> int:
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
                out.write(f"  path-count identity residual: {r['path_count_residual']}\n")
                out.write(f"  all-ones identity residual: {r['allones_residual']}\n")
                out.write(
                    "  eigenvalue crosscheck max deviation: "
                    f"{format_float(r['crosscheck_max_deviation'])}\n"
                )
    return 0 if all(r["ok"] for r in results) else 1


def _cmd_feasibility(args, out) -> int:
    report = spectral_feasibility(args.k, args.d, args.e)
    if args.format == "json":
        out.write(dumps_canonical(_report_json(report)) + "\n")
    elif args.format == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
        _emit_csv_row(out, _row(report))
    else:
        out.write(_report_text(report) + "\n")
    return 0


def _cmd_scan(args, out) -> int:
    items = scan(args.k, args.d, args.e)
    if args.format == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
        for item in items:
            _emit_csv_row(out, _row(item))
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
                out.write(
                    f"(k={item.k}, d={item.d}, e={item.e}) {item.final_verdict}: {item.reason}\n"
                )
            else:
                g = item.gap
                gap = f" gap=({format_float(g.lo)}, {format_float(g.hi)})" if g is not None else ""
                out.write(
                    f"(k={item.k}, d={item.d}, e={item.e}) n={item.n} {item.final_verdict}{gap}\n"
                )
    return 0


def _cmd_catalog(args, out) -> int:
    for name in catalog_names():
        entry = catalog_entry(name)
        out.write(f"{name}: n={entry.n}, k={entry.k}, girth={entry.girth} - {entry.description}\n")
    return 0


_DRIVERS = {
    "moore": _cmd_moore,
    "poly": _cmd_poly,
    "verify": _cmd_verify,
    "feasibility": _cmd_feasibility,
    "scan": _cmd_scan,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DRIVERS[args.command](args, sys.stdout)
    except (ParameterDomainError, Graph6ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StructuralRefusal, CageSpectraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
