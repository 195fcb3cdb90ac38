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


def write_stub(tree, body):
    package = tree / "cage_spectra"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(body)


def test_a_long_argument_is_abbreviated_in_the_report(tmp_path, capsys):
    """Two stub trees that echo their arguments and differ only on the calls
    with an argument past 4,000 characters: the report names those calls,
    and each of their numbers of thousands of digits takes one short line,
    not the number in full."""
    tool = load_tool()
    echo = "def main(argv):\n    print(' '.join(argv){})\n    return 0\n"
    write_stub(tmp_path / "parent", echo.format(""))
    write_stub(tmp_path / "change", echo.format(" + ('!' if max(map(len, argv), default=0) > 4000 else '')"))
    assert tool.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    long_calls = [call for call in tool.CALLS if call and max(map(len, call)) > 4000]
    assert len(long_calls) == 5
    assert out.endswith(f"{len(tool.CALLS)} calls, 5 differ\n")
    assert "$ feasibility 5 7 -100000...000000 (5001 digits)\n" in out
    assert "$ feasibility 100000...000001 (4301 digits) 3 2 --format text\n" in out
    assert len(out) < 3000
