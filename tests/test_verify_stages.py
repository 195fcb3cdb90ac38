"""`tools/verify_stages.py`, the per-stage timing of `verify`, on a catalog
graph that passes and on a graph6 file whose graphs pass and fail: every
stage that `verify` runs on a graph is timed, and no other; the identities,
which the structural verdict proves, are no stage."""

import importlib.util
from pathlib import Path

import g6ref
from cage_spectra.graphs import catalog

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "verify_stages.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("verify_stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stages_time_what_verify_runs(tmp_path):
    tool = load_tool()
    [(name, times)] = tool.stages(ROOT / "src", "catalog:heawood", 3, 3, 0, repeat=1)
    assert name == "heawood"
    assert [stage for stage, _ in times] == list(tool.STAGES) == [
        "load", "bfs", "structure", "crosscheck",
    ]
    assert all(ms >= 0 for _, ms in times)
    heawood = catalog("heawood")
    edges = [(u, v) for u in range(heawood.n) for v in heawood.adjacency[u] if u < v]
    path = tmp_path / "graphs.g6"
    path.write_text(f"{g6ref.encode_graph6(heawood.n, edges)}\n\n{g6ref.encode_graph6(6, [])}\n")
    result = tool.stages(ROOT / "src", str(path), 3, 3, 0, repeat=2)
    assert [(name, [stage for stage, _ in times]) for name, times in result] == [
        ("graphs.g6:1", list(tool.STAGES)),
        ("graphs.g6:3", ["load", "bfs", "structure"]),  # the check fails: verify stops
    ]
