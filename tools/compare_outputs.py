"""Compare the command-line output of two source trees, call by call.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a tree's ``src`` directory (the one holding
``cage_spectra``).  One fixed list of ``cage_spectra.cli.main`` calls
(`CALLS`) runs in a fresh interpreter per tree, with that directory first on
the import path and a scratch directory of graph6 files (`GRAPH6_FILES`) as
the working directory, so both trees read the same files under the same
names.  Each call's exit code, stdout and stderr are recorded; a usage
error's `SystemExit` is caught and its code recorded.

Prints each call whose record differs between the trees, and exits 1 if any
does; otherwise prints the number of calls compared and exits 0.  In the
report, a run of more than `LONG_DIGITS` digits is abbreviated to its first
and last digits and its digit count (`abbreviate`), so an argument of
thousands of digits costs one short line per differing call.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

#: The golden triples of ``tests/test_feasibility_golden.py``.
GOLDEN_TRIPLES = ("4 3 2", "5 5 2", "8 7 4", "20 11 2", "8 21 2", "16 21 2")

#: A degree past binary64 (k > 2^1024), where the floats print as absent.
HUGE_K = str(2**1100 + 1)

#: 10^4300 + 1, a degree past Python's default int-string limit of 4,300
#: digits, written out so that no conversion of it meets that limit.
LONG_K = "1" + "0" * 4299 + "1"

#: -10^5000, a negative integer argument past the int-string limit.
LONG_NEGATIVE = "-1" + "0" * 5000

#: The longest run of digits the report prints in full.
LONG_DIGITS = 40

#: The graph6 files of the scratch directory.  ``missing.g6`` is not among
#: them, so a call that reads it finds no file.  ``pg25.g6`` and ``w3.g6`` are
#: the incidence graphs of PG(2, 5) (n = 62, girth 6) and of the generalized
#: quadrangle W(3) (n = 80, girth 8), points first: two graphs that pass,
#: at orders near the benchmark's.
GRAPH6_FILES = {
    "heawood.g6": b"MAOOHAPWCO@W_cHA?\n",
    "moebius-kantor.g6": b"O??cOaoEBO?go@?o?aA?B\n",
    "two-hexagons.g6": b"EhEG\nEhEG\n",
    "blank.g6": b"\n \n",
    "non-ascii.g6": b"\xff\n",
    "truncated-18.g6": b"~??\n",
    "truncated-36.g6": b"~~?????\n",
    "short-payload.g6": b"E??\n",
    "padding.g6": b"A`\n",
    "order-zero.g6": b"?\n",
    "one-edge.g6": b"A_\n",
    "pg25.g6": (
        b"}?????????????????????????????????????????????????????????????????????????????Fw???A"
        b"Bw???_@{??C??^??O??Bw?_???N_O`ACG?GGO`A?A@ACGO?OCGO`?@?GO`A?@CCCCC?@AAAB???___oO??GC"
        b"EAA??@?WGGG??AOGD?_??COI@?_??CGD?g???AA_OI????_SA_O???A_H?Q????H?QOC????PGAOC????Oc@"
        b"H?????GHGAO????@_CPC?????IG@CO?????cP?G_????@CPC?_????@AGaG??????\n"
    ),
    "w3.g6": (
        b"~?@O????????????????????????????????????????????????????????????????????????????????"
        b"??????????????????????????????????????????????????b_????A?@o???C???[??C????B_@HG????"
        b"?O?QO???A???QO??G????HG?IG_?????G?PC????C??@CO??@????AG_?ED???????O@A_?????_??Og????"
        b"_???AD???C?@?C?O??@??G?_O???G??_O@????O@?A?_????_@?O?_????_?_GA?????GC?C?C????A?G?H?"
        b"?????O?H?@??????__?O@?????@?C?P??????@?AG?C??????O_@??O?????CA??g???????_?g?O??????@"
        b"A??OO??????A?__?C??????A?CCC????????a?@?_???????GGC?A???????@?OGC????????AO?CG??????"
        b"??COC?@????????C@A?_???????\n"
    ),
}

#: (target, "k d e") of each ``verify`` call, made in text and in json.
VERIFY_TARGETS = (
    ("catalog:heawood", "3 3 0"),
    ("catalog:moebius_kantor", "3 3 2"),
    ("catalog:moebius_kantor", "3 3 0"),
    ("catalog:pg23_incidence", "4 3 0"),
    ("catalog:tutte_coxeter", "3 4 0"),
    ("catalog:z14_antipodal", "4 3 2"),
    ("catalog:z14_antipodal", "4 3 0"),
    ("catalog:z14_antipodal", "4 3 4"),
    ("catalog:nonesuch", "3 3 0"),
    ("heawood.g6", "3 3 0"),
    ("moebius-kantor.g6", "3 3 2"),
    ("two-hexagons.g6", "3 3 0"),
    ("blank.g6", "3 3 0"),
    ("non-ascii.g6", "3 3 0"),
    ("truncated-18.g6", "3 3 0"),
    ("truncated-36.g6", "3 3 0"),
    ("short-payload.g6", "3 3 0"),
    ("padding.g6", "3 3 0"),
    ("order-zero.g6", "3 3 0"),
    ("one-edge.g6", "3 3 0"),
    ("pg25.g6", "6 3 0"),
    ("w3.g6", "4 4 0"),
    ("missing.g6", "3 3 0"),
    ("heawood.g6", "2 3 0"),
    ("missing.g6", "2 3 0"),
)


#: The flags of a valid one-triple scan.
SCAN_FLAGS = ("--k", "4", "--d", "7", "--e", "2")

#: Command lines at the parser's edges: help and usage for the top level and
#: each subcommand, abbreviated flags, ``--``, unknown commands and flags,
#: missing and repeated arguments.  argparse writes every one of their
#: messages, so these calls compare the two trees' parsing.
PARSER_EDGES = (
    ["-h"], ["--help"], ["--he"], ["-x"], ["--frobnicate"], ["-h", "scan"],
    ["sca", *SCAN_FLAGS], ["Scan", *SCAN_FLAGS], ["--", "scan", *SCAN_FLAGS],
    *([name, "-h"] for name in ("moore", "poly", "verify", "feasibility", "scan", "catalog")),
    ["scan", "--he"], ["scan", *SCAN_FLAGS, "-h"], ["scan", *SCAN_FLAGS, "--fo", "csv"],
    ["scan", "--k=4", "--d=7", "--e=2", "--format=csv"],
    ["scan", "--k", "4..5", "--d", "7", "--e", "2", "--k", "6"],
    ["scan", *SCAN_FLAGS, "--"], ["scan", "--", *SCAN_FLAGS], ["scan", "--k", "4", "--d", "7"],
    ["scan", "--frobnicate", *SCAN_FLAGS], ["scan", *SCAN_FLAGS, "--frobnicate"],
    ["scan", *SCAN_FLAGS, "extra"], ["scan", *SCAN_FLAGS, "--format"],
    ["moore", "3", "6", "--frobnicate"], ["moore", "3", "6", "--"], ["moore", "--", "3", "6"],
    ["moore", "3", "--", "6"], ["moore", "3", "-6"], ["moore", "3"], ["moore", "3", "6", "7"],
    ["feasibility", "5", "7", "2", "--format", "xml"], ["catalog", "extra"],
    ["catalog", "--format", "json"], ["catalog", "--"],
)


def _calls() -> list[list[str]]:
    calls = [
        [], ["catalog"], ["nonesuch"], ["moore", "3", "6"], ["moore", "1", "6"],
        ["moore", HUGE_K, "14"],
        ["poly", "H", "4", "2"], ["poly", "f", "5", "3", "--format", "json"],
        ["poly", "G", HUGE_K, "3"], ["poly", "X", "4", "2"], ["poly", "H", "4", "-1"],
    ]
    for fmt in ("text", "json", "csv"):
        triples = (*GOLDEN_TRIPLES, f"{HUGE_K} 7 2", "4 4 2", "4 3 3", "4 3 4", "2 3 2")
        calls += [["feasibility", *t.split(), "--format", fmt] for t in triples]
        calls += [
            ["scan", "--k", "4..8", "--d", "3,5,7", "--e", "2,4,6", "--format", fmt],
            ["scan", "--k", "4", "--d", "7,8", "--e", "2,4", "--format", fmt],
            ["scan", "--k", HUGE_K, "--d", "7", "--e", "2", "--format", fmt],
            ["scan", "--k", "4,5", "--d", "9", "--e", "3", "--format", fmt],
        ]
    calls += [["scan", "--k", "5..", "--d", "7", "--e", "2"],
              ["scan", "--k", "9..4", "--d", "7", "--e", "2"],
              ["feasibility", LONG_K, "3", "2", "--format", "text"],
              ["feasibility", LONG_K, "3", "2", "--format", "json"],
              ["scan", "--k", LONG_K, "--d", "3", "--e", "2", "--format", "csv"],
              ["feasibility", "5", "7", LONG_NEGATIVE],
              ["verify", "catalog:heawood", "--k", LONG_NEGATIVE, "--d", "3", "--e", "0"]]
    for target, kde in VERIFY_TARGETS:
        k, d, e = kde.split()
        for fmt in ("text", "json"):
            calls.append(["verify", target, "--k", k, "--d", d, "--e", e, "--format", fmt])
    calls.append(["verify", "heawood.g6", "--k", "3", "--d", "3", "--format", "csv"])
    return calls + [list(argv) for argv in PARSER_EDGES]


CALLS = _calls()

#: Run in the child: read the calls as JSON on stdin, write the records as
#: JSON on stdout.
RUNNER = r"""
import contextlib, io, json, sys
from pathlib import Path
import cage_spectra.cli as cli
if not Path(cli.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"imported {cli.__file__}, not the package under {sys.argv[1]}")
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    records.append([code, out.getvalue(), err.getvalue()])
json.dump(records, sys.stdout)
"""


def run_tree(src: Path, workdir: Path) -> list[list]:
    """The (exit code, stdout, stderr) of every call in `CALLS`, run on the
    package under ``src`` in a fresh interpreter."""
    src = src.resolve()
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src)], input=json.dumps(CALLS), env=env,
        cwd=workdir, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the calls on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def abbreviate(text: str) -> str:
    """``text`` with each run of more than `LONG_DIGITS` digits written as
    its first and last six digits and its digit count."""
    return re.sub(
        rf"\d{{{LONG_DIGITS + 1},}}",
        lambda run: f"{run[0][:6]}...{run[0][-6:]} ({len(run[0])} digits)",
        text,
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        for name, data in GRAPH6_FILES.items():
            (workdir / name).write_bytes(data)
        parent, change = (run_tree(Path(src), workdir) for src in argv)
    differ = 0
    for call, old, new in zip(CALLS, parent, change):
        if old != new:
            differ += 1
            print(abbreviate(f"$ {' '.join(call)}"))
            for field, a, b in zip(("exit", "stdout", "stderr"), old, new):
                if a != b:
                    print(abbreviate(f"  {field}: {a!r}\n     -> {b!r}"))
    print(f"{len(CALLS)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
