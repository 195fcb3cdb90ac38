"""Rewrite the goldens in perfbench/golden from the program as it is now.

    python3 perfbench/make_goldens.py

Run it only in a change that means to alter the CLI's output, and review the
diff of the golden files: the benchmark's correctness gate compares against
them.  The paper-grid golden is one ``scan`` call over the whole grid, not
the per-item calls the benchmark times.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import inputs
from run import SRC, WORK_DIR
from worker import run_item


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cage_spectra.cli import main as cli_main

    gate.GOLDEN_DIR.mkdir(exist_ok=True)
    grid = run_item(cli_main, ["scan", "--k", "4..20", "--d", "7,9,11", "--e", "2,4,6", "--format", "csv"])
    if grid["exit"] != 0:
        raise SystemExit(f"paper-grid scan failed: {grid['stderr']}")
    (gate.GOLDEN_DIR / "paper-grid.csv").write_text(grid["stdout"])

    deep = {}
    for item in sorted(inputs.build("deep-girth", 0, Path(".")).items, key=lambda i: i.triple):
        outcome = run_item(cli_main, item.argv)
        deep[item.key] = {key: outcome[key] for key in gate.OUTCOME_KEYS}
    (gate.GOLDEN_DIR / "deep-girth.json").write_text(json.dumps(deep, indent=1) + "\n")

    algebraic = {}
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workload = inputs.build("verify-algebraic", 0, Path(tmp))
        for fname, data in workload.files.items():
            (Path(tmp) / fname).write_bytes(data)
        for item in sorted(workload.items, key=lambda i: i.key):
            outcome = run_item(cli_main, item.argv)
            [algebraic[item.key]] = json.loads(outcome["stdout"])
    (gate.GOLDEN_DIR / "verify-algebraic.json").write_text(json.dumps(algebraic, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
