"""`tools/code_lines.py`, the code-line counter quoted for `src/`, pinned on
a small source: blank lines, comment lines and docstrings do not count;
a line of code with a comment, every line of a statement that spans several,
and a string that is not a docstring do."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    y = (x +
         1)
    s = """a string that is
    not a docstring"""
    return y, s


class C:
    """Class docstring."""

    value = 1
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code(tmp_path, capsys):
    tool = load_tool()
    assert tool.code_lines(SOURCE) == 9
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert tool.main([str(path)]) == 0
    assert capsys.readouterr().out == f"     9 {path}\n     9 total\n"


def test_code_lines_covers_every_package_module(capsys):
    tool = load_tool()
    assert tool.main([]) == 0
    *modules, total = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in modules] == sorted(
        path.relative_to(tool.ROOT).as_posix() for path in (tool.ROOT / "src").rglob("*.py"))
    assert int(total.split()[0]) == sum(int(line.split()[0]) for line in modules)
