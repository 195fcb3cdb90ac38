"""`verify` output on the catalog graphs, held byte for byte against a golden
file: json and text, under claims that pass, fail the structure or fall
outside the regime, with the exit code of each call.

Regenerate the golden file only in a change meant to alter `verify` output:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import contextlib
import io
from pathlib import Path

from cage_spectra.cli import main
from cage_spectra.graphs import catalog_names

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-catalog.txt"
CLAIMS = ((3, 3, 0), (3, 3, 2), (3, 4, 0), (4, 3, 0), (4, 3, 2))


def render() -> str:
    blocks = []
    for name in catalog_names():
        for k, d, e in CLAIMS:
            for fmt in ("json", "text"):
                argv = ["verify", f"catalog:{name}", "--k", str(k), "--d", str(d),
                        "--e", str(e), "--format", fmt]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                blocks.append(f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}"
                              f"{err.getvalue()}")
    return "".join(blocks)


def test_verify_catalog_output_matches_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
