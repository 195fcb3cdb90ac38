"""`feasibility` and `scan` output held byte for byte against golden files,
with the exit code of each call.

The JSON file holds `feasibility --format json`.  Unlike the scan CSV
goldens this pins `phi`, `alpha`, `theta` and the full spectrum of every
triple, from the cubic worked instance through the product-gap regime and
past the 2^51 multiplicity range.  `alpha` is printed from the
angular-defect equation sin(alpha) = eta s^(1-d) sin(phi), not as
i*pi - d*phi at the bracket's midpoint, which cancelled.

The text file holds `feasibility` text for the same triples, plus a small
`scan` in text whose rows are outside the regime, excluded by the gap,
excluded by integrality and admissible.

Regenerate both files only in a change meant to alter this output:

    PYTHONPATH=src python tests/test_feasibility_golden.py
"""

import contextlib
import io
from pathlib import Path

from cage_spectra.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
JSON_GOLDEN = GOLDEN_DIR / "feasibility-json.txt"
TEXT_GOLDEN = GOLDEN_DIR / "feasibility-text.txt"
TRIPLES = ((4, 3, 2), (5, 5, 2), (8, 7, 4), (20, 11, 2), (8, 21, 2), (16, 21, 2))
TEXT_SCAN = ["scan", "--k", "4..8", "--d", "3,5,7", "--e", "2,4,6"]


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}{err.getvalue()}"


def render() -> str:
    return "".join(
        _run(["feasibility", *map(str, triple), "--format", "json"]) for triple in TRIPLES
    )


def render_text() -> str:
    calls = [["feasibility", *map(str, triple)] for triple in TRIPLES]
    return "".join(_run(argv) for argv in [*calls, TEXT_SCAN])


def test_feasibility_json_matches_golden():
    assert render() == JSON_GOLDEN.read_text()


def test_feasibility_and_scan_text_match_golden():
    assert render_text() == TEXT_GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    JSON_GOLDEN.write_text(render())
    TEXT_GOLDEN.write_text(render_text())
