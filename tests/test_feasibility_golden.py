"""`feasibility --format json` output held byte for byte against a golden
file, with the exit code of each call.  Unlike the scan CSV goldens this
pins `phi`, `alpha`, `theta` and the full spectrum of every triple, from the
cubic worked instance through the product-gap regime and past the 2^51
multiplicity range.

ROADMAP item 5 changes `alpha` on purpose (an exact enclosure in place of
the midpoint's float); that change regenerates this file.  Regenerate it
only in a change meant to alter `feasibility` output:

    PYTHONPATH=src python tests/test_feasibility_golden.py
"""

import contextlib
import io
from pathlib import Path

from cage_spectra.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "feasibility-json.txt"
TRIPLES = ((4, 3, 2), (5, 5, 2), (8, 7, 4), (20, 11, 2), (8, 21, 2), (16, 21, 2))


def render() -> str:
    blocks = []
    for triple in TRIPLES:
        argv = ["feasibility", *map(str, triple), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        blocks.append(f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}{err.getvalue()}")
    return "".join(blocks)


def test_feasibility_json_matches_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
