"""List the lines of the package that no test runs.

    python tools/line_coverage.py [PYTEST_ARGS ...]   # default: tests

Runs pytest in this process, with ``src`` first on the import path, under a
`sys.settrace` line tracer limited to the modules under ``src/cage_spectra``,
and prints each module's executable lines that no test ran, then their
total.  A module's executable lines are the line numbers its code objects'
`co_lines` tables name, the module's own code object left out: its
statements run once, at import, and say nothing about the tests.

Only this process is traced.  A test that runs the CLI in a subprocess (a
fresh interpreter, a tool run on a tree, a benchmark worker) is not seen, so
a line that only such a test runs is listed.  The tracer costs about as
much as the suite itself.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cage_spectra"


def code_objects(code: types.CodeType):
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """The line numbers the code objects of ``source`` run, those of the
    module's own code object (its top-level statements) left out."""
    module = compile(source, filename, "exec")
    lines = set()
    for code in code_objects(module):
        if code is not module:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def run_traced(pytest_args: list[str], filenames: set[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per file of ``filenames``, the lines that ran
    in a frame of that file while pytest ran ``pytest_args``."""
    import pytest

    ran: dict[str, set[int]] = {name: set() for name in filenames}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    previous = sys.gettrace()  # a traced run inside a traced run hands it back
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
    return int(code), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    code, ran = run_traced(argv or [str(ROOT / "tests")], {str(path) for path in paths})
    total = 0
    for path in paths:
        missed = sorted(executable_lines(path.read_text(), str(path)) - ran[str(path)])
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed))}")
    print(f"{total} lines not run (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
