"""`tools/line_coverage.py`, the line tracer that lists the package lines no
test runs, pinned on a small source: the executable lines are those of the
code objects below the module's own, so a function's and a class body's
statements count, and top-level statements, docstrings, comments and blank
lines do not; and a traced pytest run records the lines a test ran and
leaves out the branch it did not take."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"

SOURCE = '''"""Module docstring."""

import math

LIMIT = 1


def f(x):
    """Function docstring."""
    # a comment
    if x > LIMIT:
        return math.floor(x)
    return 0


class C:
    value = 2

    def g(self):
        return self.value
'''

#: The body lines of `f`, `C` and `C.g`; the first lines of `f` and `g`
#: are their ``def`` lines, which a code object names from Python 3.11 on.
BODIES = {11, 12, 13, 16, 17, 19, 20}


def load_tool():
    spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_executable_lines_are_the_nested_code_objects_lines():
    lines = load_tool().executable_lines(SOURCE)
    assert BODIES <= lines <= BODIES | {8}
    assert lines.isdisjoint({1, 3, 5, 9, 10})  # top level, docstring, comment


def test_a_traced_run_records_the_lines_a_test_ran(tmp_path):
    tool = load_tool()
    module = tmp_path / "line_coverage_sample.py"
    module.write_text(SOURCE)
    (tmp_path / "test_sample.py").write_text(
        "from line_coverage_sample import C, f\n\n\n"
        "def test_sample():\n"
        "    assert f(0) == 0 and C().g() == 2\n"
    )
    code, ran = tool.run_traced(["-q", "-p", "no:cacheprovider", str(tmp_path)], {str(module)})
    assert code == 0
    missed = tool.executable_lines(SOURCE, str(module)) - ran[str(module)]
    assert missed == {12}  # f(0) never takes the branch
