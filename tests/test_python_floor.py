"""Every module under `src/` parses as the oldest Python that
`pyproject.toml` declares, 3.10, while the tests run on a newer one."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
MODULES = sorted((ROOT / "src").rglob("*.py"))


def test_the_declared_floor_is_the_one_checked():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.MULTILINE)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
