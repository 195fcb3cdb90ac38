"""Every module under `src/` parses as the oldest Python that
`pyproject.toml` declares, 3.10, while the tests run on a newer one; and the
package reads from numpy only names that the oldest declared numpy, 1.24,
has, while the tests run on numpy 2."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
MODULES = sorted((ROOT / "src").rglob("*.py"))

#: Every numpy attribute the package reads, each present (with the keyword
#: arguments the package passes) in numpy 1.24.  A name added here must be
#: checked against that release first: `np.bitwise_count`, for one, is new
#: in numpy 2.0.
NUMPY_NAMES = {
    "abs", "arange", "argsort", "bincount", "bitwise_or", "concatenate", "cumsum", "empty_like",
    "flatnonzero", "frombuffer", "fromiter", "full", "intp", "linalg.svd", "minimum", "ndarray",
    "nonzero", "searchsorted", "uint8", "unpackbits", "zeros", "zeros_like",
}


def test_the_declared_floor_is_the_one_checked():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.MULTILINE)
    assert re.search(r'^    "numpy>=1\.24",$', text, re.MULTILINE)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def numpy_names(tree) -> set[str]:
    """The dotted attribute paths read from the module's numpy binding,
    longest only: ``np.linalg.svd`` gives "linalg.svd"."""
    bindings = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    inner, paths = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            inner.add(id(base))
            base = base.value
        if isinstance(base, ast.Name) and base.id in bindings:
            paths.add(".".join(reversed(parts)))
    return paths


def test_the_package_reads_only_pinned_numpy_names():
    used = set().union(*(numpy_names(ast.parse(path.read_text())) for path in MODULES))
    assert used == NUMPY_NAMES
