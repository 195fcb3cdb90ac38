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
does; otherwise prints the number of calls compared and exits 0.
"""

from __future__ import annotations

import json
import os
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

#: The graph6 files of the scratch directory.  ``missing.g6`` is not among
#: them, so a call that reads it finds no file.
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
    ("missing.g6", "3 3 0"),
    ("heawood.g6", "2 3 0"),
    ("missing.g6", "2 3 0"),
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
              ["scan", "--k", LONG_K, "--d", "3", "--e", "2", "--format", "csv"]]
    for target, kde in VERIFY_TARGETS:
        k, d, e = kde.split()
        for fmt in ("text", "json"):
            calls.append(["verify", target, "--k", k, "--d", d, "--e", e, "--format", fmt])
    calls.append(["verify", "heawood.g6", "--k", "3", "--d", "3", "--format", "csv"])
    return calls


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
            print(f"$ {' '.join(call)}")
            for field, a, b in zip(("exit", "stdout", "stderr"), old, new):
                if a != b:
                    print(f"  {field}: {a!r}\n     -> {b!r}")
    print(f"{len(CALLS)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
