"""Compare the feasibility records of two source trees, triple by triple.

    python tools/record_digest.py PARENT_SRC CHANGE_SRC

Each argument is a tree's ``src`` directory (the one holding
``cage_spectra``).  Every valid triple with 4 <= k <= 60, odd 3 <= d <= 31
and even 2 <= e <= k - 2 (12,615 of them, `TRIPLES`) runs through
``spectral_feasibility`` in a fresh interpreter per tree, with that
directory first on the import path.  Each triple's record is every root's
(epsilon, i, eta, bracket, theta), the exact gap ends, ``final_verdict``
and, for d < 7, each assessment's enclosure and integer; an error in place
of a report is recorded by its type and message.  The child reduces each
record to a SHA-256 digest, so the trees are compared digest for digest.

Prints the first differing triples with both verdicts and the number of
triples compared, and exits 1 if any triple differs; otherwise exits 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TRIPLES = tuple(
    (k, d, e) for k in range(4, 61) for d in range(3, 32, 2) for e in range(2, k - 1, 2)
)

#: The differing triples the report names before it only counts them.
SHOWN = 10

#: Run in the child: read the triples as JSON on stdin, write one
#: [verdict, digest] per triple as JSON on stdout.
RUNNER = r"""
import hashlib, json, sys
from pathlib import Path
import cage_spectra
if not Path(cage_spectra.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"imported {cage_spectra.__file__}, not the package under {sys.argv[1]}")
records = []
for k, d, e in json.load(sys.stdin):
    try:
        report = cage_spectra.spectral_feasibility(k, d, e)
        roots = [(r.epsilon, r.i, r.eta, r.bracket, r.theta) for r in report.roots]
        gap = None if report.gap is None else (report.gap.lo, report.gap.hi)
        verdict = report.final_verdict
        enclosures = [(a.enclosure, a.integer) for a in report.assessments] if d < 7 else None
        record = (roots, gap, verdict, enclosures)
    except Exception as exc:
        verdict = type(exc).__name__
        record = (verdict, str(exc))
    records.append([verdict, hashlib.sha256(repr(record).encode()).hexdigest()])
json.dump(records, sys.stdout)
"""


def run_tree(src: Path) -> list[list[str]]:
    """The [verdict, digest] of every triple in `TRIPLES`, run on the package
    under ``src`` in a fresh interpreter."""
    src = src.resolve()
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src)], input=json.dumps(TRIPLES),
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the triples on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/record_digest.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (run_tree(Path(src)) for src in argv)
    differ = [(t, old, new) for t, old, new in zip(TRIPLES, parent, change) if old != new]
    for (k, d, e), (old, _), (new, _) in differ[:SHOWN]:
        print(f"({k}, {d}, {e}): {old} -> {new}")
    print(f"{len(TRIPLES)} triples, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
