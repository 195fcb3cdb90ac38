"""`verify` output on graph6 files, held byte for byte against a golden file:
json and text, with the exit code of each call.  The catalog golden
(`test_verify_golden.py`) covers graphs built from edge lists; these files
reach `verify` through `parse_graph6`.  The cases are seeded: relabelled
catalog graphs that pass, random bipartite regular graphs that fail, a
non-bipartite graph, a disconnected union of cycles, and orders 0, 1, 2, 62
and 63, on both sides of the graph6 header edge (a one-byte order up to 62).

Regenerate the golden file only in a change meant to alter `verify` output:

    PYTHONPATH=src python tests/test_verify_graph6_golden.py
"""

import contextlib
import io
import random
import tempfile
from pathlib import Path

import g6ref
from cage_spectra.cli import main
from cage_spectra.graphs import catalog

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-graph6.txt"


def edges(graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(graph.n) for v in graph.adjacency[u] if u < v]


def relabelled(name: str, seed: int) -> tuple[int, list[tuple[int, int]]]:
    graph = catalog(name)
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return graph.n, [(perm[u], perm[v]) for u, v in edges(graph)]


def bipartite_regular(n: int, k: int, seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A simple k-regular bipartite graph on halves {0..n/2-1}, {n/2..n-1}:
    k perfect matchings, each redrawn until it repeats no edge."""
    rng, half, chosen = random.Random(seed), n // 2, set()
    for _ in range(k):
        while True:
            perm = list(range(half, n))
            rng.shuffle(perm)
            matching = set(zip(range(half), perm))
            if not matching & chosen:
                break
        chosen |= matching
    return n, sorted(chosen)


def cycles(*lengths: int) -> tuple[int, list[tuple[int, int]]]:
    """The disjoint union of cycles of the given lengths."""
    pairs, start = [], 0
    for length in lengths:
        pairs += [(start + i, start + (i + 1) % length) for i in range(length)]
        start += length
    return start, pairs


#: (file name, (n, edges), claimed (k, d, e)).
CASES = (
    ("heawood-relabelled.g6", relabelled("heawood", 1), (3, 3, 0)),
    ("moebius-kantor-relabelled.g6", relabelled("moebius_kantor", 2), (3, 3, 2)),
    ("pg23-relabelled.g6", relabelled("pg23_incidence", 3), (4, 3, 0)),
    ("bipartite-cubic-14.g6", bipartite_regular(14, 3, 4), (3, 3, 0)),
    ("bipartite-cubic-16.g6", bipartite_regular(16, 3, 5), (3, 3, 2)),
    ("bipartite-quartic-26.g6", bipartite_regular(26, 4, 6), (4, 3, 0)),
    ("bipartite-cubic-62.g6", bipartite_regular(62, 3, 7), (3, 5, 0)),
    ("bipartite-cubic-64.g6", bipartite_regular(64, 3, 8), (3, 5, 2)),
    ("petersen.g6", (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]), (3, 3, 0)),
    ("two-hexagons.g6", cycles(6, 6), (2, 3, 0)),
    ("hexagon.g6", cycles(6), (3, 3, 0)),
    ("order-0.g6", (0, []), (3, 3, 0)),
    ("order-1.g6", (1, []), (3, 3, 0)),
    ("order-2.g6", (2, [(0, 1)]), (1, 3, 0)),
    ("cycle-62.g6", cycles(62), (3, 31, 0)),
    ("cycle-63.g6", cycles(63), (2, 31, 0)),
)


def render() -> str:
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (n, pairs), (k, d, e) in CASES:
            text = g6ref.encode_graph6(n, pairs)
            path = Path(tmp) / name
            path.write_text(text + "\n")
            blocks.append(f"# {name}: {text}\n")
            for fmt in ("json", "text"):
                claim = ["--k", str(k), "--d", str(d), "--e", str(e), "--format", fmt]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["verify", str(path), *claim])
                blocks.append(f"$ verify {name} {' '.join(claim)}\nexit {code}\n"
                              f"{out.getvalue()}{err.getvalue()}")
    return "".join(blocks)


def test_verify_graph6_output_matches_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
