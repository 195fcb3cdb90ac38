"""`tools/kernel_replay.py`, the per-kernel timing of a scan pass, on a
two-triple grid: every kernel's calls are recorded, counted and replayed."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_replay.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("kernel_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_counts_and_times_every_kernel():
    """(4, 7, 2) and (5, 7, 2) isolate four families of three seeded roots:
    the epsilon = 1 family of each (k, d) and the -1 family of each triple.
    Each seeded root takes two signs, each seeded pair of a triple one
    closed form, and each (k, d) two Dickson polynomials."""
    tool = load_tool()
    result = tool.replay(ROOT / "src", [(4, 7, 2), (5, 7, 2)], repeat=1)
    assert list(result) == [name for _, name in tool.KERNELS]
    calls = {name: count for name, (count, _) in result.items()}
    assert calls["_sign_even"] == 24
    assert calls["multiplicity_closed_form"] == 12
    assert calls["dickson_family"] == 4
    assert calls["_newton_even"] > 0
    assert all(ms >= 0 for _, ms in result.values())
