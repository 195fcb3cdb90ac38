"""`tools/compare_outputs.py`, the byte-identity check of the command line
between two source trees: a tree compared with itself differs nowhere, and
a tree whose `main` prints something else differs on every call."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_compared_with_itself_differs_nowhere(capsys):
    tool = load_tool()
    src = str(ROOT / "src")
    assert tool.main([src, src]) == 0
    assert capsys.readouterr().out == f"{len(tool.CALLS)} calls, 0 differ\n"


def test_a_changed_tree_is_reported_call_by_call(tmp_path, capsys):
    tool = load_tool()
    package = tmp_path / "cage_spectra"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print('changed')\n    return 0\n")
    assert tool.main([str(ROOT / "src"), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert sum(line.startswith("$ ") for line in out.splitlines()) == len(tool.CALLS)
    assert out.endswith(f"{len(tool.CALLS)} calls, {len(tool.CALLS)} differ\n")
    assert "  stdout: 'heawood: n=14" in out
