"""Time the scan's private kernels on the calls that one scan pass makes.

    python tools/kernel_replay.py SRC [--repeat N]

SRC is a tree's ``src`` directory (the one holding ``cage_spectra``).  In a
fresh interpreter with SRC first on the import path, one ``scan --format
csv`` call runs per triple of the paper grid (k = 4..20, d in {7, 9, 11},
e in {2, 4, 6}) and of the benchmark's 21 deep-girth triples, each grid in
its own interpreter, as the benchmark runs them.  Every call of the kernels
in `KERNELS` is recorded with its arguments; the recording wrappers are then
removed and each kernel's list is replayed in the same process, best of N
(default 5).  Prints one line per grid and kernel: the call count and the
best replay time in milliseconds.

`perfbench/run.py --trace 1` wraps public functions only, so it cannot time
``_newton_even`` or ``_sign_even``; this tool can, on two trees in turn.
A replay runs with the caches the pass filled (the (k, d) polynomials), so
it times the kernels alone.  ``horner`` is the binary64 Horner of the
report's closed-form kernel, two calls per closed form.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

#: (module, name) of each replayed kernel.  A name is rebound in every
#: package module that binds it, so calls through ``from .x import f``
#: copies are recorded too.
KERNELS = (
    ("feasibility", "_newton_even"),
    ("feasibility", "_sign_even"),
    ("polynomials", "dickson_family"),
    ("polynomials", "horner"),
)

PAPER_GRID = tuple(
    (k, d, e) for k in range(4, 21) for d in (7, 9, 11) for e in (2, 4, 6)
)
DEEP_GIRTH = tuple(
    (k, d, e) for k in (4, 8, 16, 32) for d in (15, 21, 27) for e in sorted({2, k - 2})
)
GRIDS = {"paper-grid": PAPER_GRID, "deep-girth": DEEP_GIRTH}

#: Run in the child: argv[1] is the src directory, stdin the JSON of
#: {"kernels", "triples", "repeat"}; writes {name: [calls, best_ms]} as JSON.
RUNNER = r"""
import contextlib, importlib, io, json, sys, time
from pathlib import Path
import cage_spectra, cage_spectra.cli as cli
if not Path(cli.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"imported {cli.__file__}, not the package under {sys.argv[1]}")
spec = json.load(sys.stdin)
modules = [cage_spectra] + [
    m for name, m in sorted(sys.modules.items()) if name.startswith("cage_spectra.")
]
calls, restore = {}, []
for module_name, name in spec["kernels"]:
    real = getattr(importlib.import_module("cage_spectra." + module_name), name)
    log = calls[name] = []
    def recorder(*args, _real=real, _log=log):
        _log.append(args)
        return _real(*args)
    for m in modules:
        if getattr(m, name, None) is real:
            setattr(m, name, recorder)
            restore.append((m, name, real))
with contextlib.redirect_stdout(io.StringIO()):
    for k, d, e in spec["triples"]:
        cli.main(["scan", "--k", str(k), "--d", str(d), "--e", str(e), "--format", "csv"])
for m, name, real in restore:
    setattr(m, name, real)
result = {}
for module_name, name in spec["kernels"]:
    kernel = getattr(importlib.import_module("cage_spectra." + module_name), name)
    best = float("inf")
    for _ in range(spec["repeat"]):
        start = time.perf_counter()
        for args in calls[name]:
            kernel(*args)
        best = min(best, time.perf_counter() - start)
    result[name] = [len(calls[name]), 1000 * best]
json.dump(result, sys.stdout)
"""


def replay(src: Path, triples, repeat: int = 5) -> dict[str, tuple[int, float]]:
    """{kernel name: (calls, best replay ms)} for one scan pass over
    ``triples`` on the package under ``src``, in a fresh interpreter."""
    src = Path(src).resolve()
    spec = {"kernels": KERNELS, "triples": [list(t) for t in triples], "repeat": repeat}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src)], input=json.dumps(spec),
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the replay on {src} failed:\n{proc.stderr}")
    return {name: (calls, ms) for name, (calls, ms) in json.loads(proc.stdout).items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kernel_replay", description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    for grid, triples in GRIDS.items():
        for name, (calls, ms) in replay(args.src, triples, args.repeat).items():
            print(f"{grid:10}  {name:24}  {calls:6} calls  {ms:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
