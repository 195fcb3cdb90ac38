"""Correctness gate: every item's output against goldens or the oracle.

Goldens live in ``perfbench/golden`` and are written by ``make_goldens.py``:

* ``paper-grid.csv``: ``scan --k 4..20 --d 7,9,11 --e 2,4,6 --format csv``.
  The header plus the per-item rows, concatenated in (k, d, e) order, must
  equal it byte for byte.
* ``deep-girth.json``: exit code, stdout and stderr of each triple.  A triple
  that failed when the golden was written may instead complete, with a
  well-formed row for the same (k, d, e, n); it cannot be checked further.
* ``verify-algebraic.json``: the ``verify --format json`` object of each
  graph.  Every field must match exactly except ``crosscheck_max_deviation``,
  an ``eigvalsh`` residual whose last bits depend on the LAPACK build, which
  must stay within the package's own 1e-8 tolerance.

Screening candidates are random, so their expected object comes from the
networkx oracle in ``inputs.screen_expectation``.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import Item, moore_bound

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CSV_HEADER = "k,d,e,n,verdict,gap_lo,gap_hi,max_integrality_deviation\n"
OUTCOME_KEYS = ("exit", "stdout", "stderr", "exception")
VERDICTS = {"spectrally-admissible", "excluded-by-integrality", "excluded-by-gap", "outside-regime"}
CROSSCHECK_TOLERANCE = 1e-8


def failed(outcome: dict) -> bool:
    """An item failed when it ended in an error instead of a verdict or a
    result: an escaped exception, an ``error:`` on stderr, or a usage exit.
    A ``verify`` rejection (exit 1, result JSON on stdout) is a result."""
    return outcome["exception"] is not None or bool(outcome["stderr"]) or outcome["exit"] not in (0, 1)


def load_goldens(workload: str) -> object:
    if workload == "paper-grid":
        return (GOLDEN_DIR / "paper-grid.csv").read_text()
    if workload in ("deep-girth", "verify-algebraic"):
        return json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    return None


def _csv_row(outcome: dict) -> str | None:
    out = outcome["stdout"]
    if outcome["exit"] != 0 or outcome["stderr"] or not out.startswith(CSV_HEADER):
        return None
    row = out[len(CSV_HEADER):]
    return row if row.count("\n") == 1 and row.endswith("\n") else None


def check_item(workload: str, item: Item, outcome: dict, golden) -> str | None:
    """None when the item's output is correct, else what is wrong with it."""
    if workload == "paper-grid":
        return None if _csv_row(outcome) is not None else "no single CSV row"
    if workload == "deep-girth":
        want = golden.get(item.key)
        if want is None:
            return "no golden"
        got = {key: outcome[key] for key in OUTCOME_KEYS}
        if got == want:
            return None
        if not failed(want):
            return f"output differs from golden: {got!r}"
        row = _csv_row(outcome)
        if row is None:
            if failed(outcome) and outcome["exception"] is None and outcome["stdout"] == CSV_HEADER:
                return None  # the same kind of failure, reworded
            return f"neither the golden failure nor a row: {got!r}"
        k, d, e = item.triple
        fields = row.rstrip("\n").split(",")
        if fields[:4] != [str(k), str(d), str(e), str(moore_bound(k, 2 * d) + e)] or fields[4] not in VERDICTS:
            return f"malformed row for a newly completed triple: {row!r}"
        return None
    want = golden.get(item.key) if workload == "verify-algebraic" else item.expected
    if want is None:
        return "no golden"
    expect_exit = 0 if want["ok"] else 1
    if outcome["exit"] != expect_exit or outcome["stderr"] or outcome["exception"]:
        return f"exit {outcome['exit']}, stderr {outcome['stderr']!r}, exception {outcome['exception']}"
    try:
        got = json.loads(outcome["stdout"])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not isinstance(got, list) or len(got) != 1:
        return "expected one result object"
    got, want = dict(got[0]), dict(want)
    if workload == "verify-algebraic":
        deviation = got.pop("crosscheck_max_deviation", None)
        want.pop("crosscheck_max_deviation")
        if not isinstance(deviation, float) or not 0 <= deviation <= CROSSCHECK_TOLERANCE:
            return f"crosscheck deviation {deviation!r} outside [0, {CROSSCHECK_TOLERANCE}]"
    return None if got == want else f"result differs: {got!r} != {want!r}"


def check_grid(items: list[Item], outcomes: list[dict], golden: str) -> str | None:
    """The paper-grid rows, concatenated in (k, d, e) order under one header,
    must equal the single-call scan golden byte for byte."""
    rows = sorted((item.triple, _csv_row(out) or "") for item, out in zip(items, outcomes))
    text = CSV_HEADER + "".join(row for _, row in rows)
    return None if text == golden else "concatenated rows differ from the paper-grid golden"


def check_pass(workload: str, items: list[Item], outcomes: list[dict], golden) -> list[str]:
    """Every mismatch of one pass, each prefixed with its item key."""
    problems = []
    for item, outcome in zip(items, outcomes):
        if outcome["key"] != item.key:
            problems.append(f"{item.key}: pass returned {outcome['key']} in its place")
            continue
        problem = check_item(workload, item, outcome, golden)
        if problem:
            problems.append(f"{item.key}: {problem}")
    if len(outcomes) != len(items):
        problems.append(f"pass returned {len(outcomes)} outcomes for {len(items)} items")
    if workload == "paper-grid":
        problem = check_grid(items, outcomes, golden)
        if problem:
            problems.append(problem)
    return problems
