"""Time the stages of `verify` on each graph of a target, in-process.

    python tools/verify_stages.py SRC TARGET --k K --d D --e E [--repeat N]

SRC is a tree's ``src`` directory (the one holding ``cage_spectra``), and
TARGET and the claim are given as ``verify`` takes them: ``catalog:<name>``
or a graph6 file of one graph per line.  In a fresh interpreter with SRC
first on the import path, each graph's stages run in turn, each repeated N
times (default 5), and the best time of each is kept:

    load        the graph6 line parsed (`parse_graph6`), or the catalog
                entry's graph built from its edges
    bfs         the all-roots BFS pass (`GraphAnalysis`, which
                `Graph.analysis` builds once)
    structure   `structural_check` for the claim, which reads that pass
    crosscheck  `spectral_crosscheck`

A graph that fails the structural check stops there, as ``verify`` stops.
A graph that passes needs no identity stage: the verdict proves both
identities, and ``verify`` prints their residuals as 0.
Prints one line per graph and stage: the best time in milliseconds.

`perfbench/run.py --trace 1` reports the public functions it wraps, and
none of them is the BFS pass; this tool times every stage of a ``verify``
call, on two trees in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

STAGES = ("load", "bfs", "structure", "crosscheck")

#: Run in the child: argv[1] is the src directory, stdin the JSON of
#: {"target", "claim", "repeat"}; writes [[graph, [[stage, best_ms], ...]], ...]
#: as JSON.
RUNNER = r"""
import json, math, sys, time
from pathlib import Path
import cage_spectra.graphs as graphs
if not Path(graphs.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"imported {graphs.__file__}, not the package under {sys.argv[1]}")
spec = json.load(sys.stdin)
target, (k, d, e), repeat = spec["target"], spec["claim"], spec["repeat"]

def best(stage):
    shortest = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        stage()
        shortest = min(shortest, time.perf_counter() - start)
    return 1000 * shortest

if target.startswith("catalog:"):
    name = target.split(":", 1)[1]
    loads = [(name, graphs.catalog_entry(name).build)]
else:
    path = Path(target)
    loads = [(f"{path.name}:{lineno}", lambda line=line: graphs.parse_graph6(line))
             for lineno, line in enumerate(path.read_bytes().splitlines(), start=1)
             if line.strip()]
result = []
for name, load in loads:
    graph = load()
    times = [["load", best(load)], ["bfs", best(lambda: graphs.GraphAnalysis(graph))]]
    graph.analysis  # built untimed, so the structure stage times the verdict alone
    times.append(["structure", best(lambda: graphs.structural_check(graph, k, d, e))])
    if graphs.structural_check(graph, k, d, e).structure_ok:
        times.append(["crosscheck", best(lambda: graphs.spectral_crosscheck(graph, k, d, e))])
    result.append([name, times])
json.dump(result, sys.stdout)
"""


def stages(src: Path, target: str, k: int, d: int, e: int, repeat: int = 5):
    """[(graph name, [(stage, best ms), ...]), ...] for ``verify TARGET
    --k K --d D --e E`` on the package under ``src``, in a fresh
    interpreter."""
    src = Path(src).resolve()
    spec = {"target": target, "claim": [k, d, e], "repeat": repeat}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src)], input=json.dumps(spec),
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the stage timing on {src} failed:\n{proc.stderr}")
    return [(name, [tuple(time) for time in times]) for name, times in json.loads(proc.stdout)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="verify_stages", description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("target")
    for name in ("k", "d", "e"):
        parser.add_argument(f"--{name}", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    for name, times in stages(args.src, args.target, args.k, args.d, args.e, args.repeat):
        for stage, ms in times:
            print(f"{name:28}  {stage:10}  {ms:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
