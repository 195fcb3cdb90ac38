"""Compare two per-item result files of one workload, on the items both complete.

    python3 perfbench/compare.py BASE.json NEW.json

The files are ``.perfbench_results/<workload>-seed<n>-trace<t>.json``.  It
prints the items whose status differs, then the median over the common
completed items of NEW's median latency divided by BASE's.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(base_path: str, new_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)["items"]
    with open(new_path) as f:
        new = json.load(f)["items"]
    for key in sorted(base.keys() | new.keys()):
        before = base.get(key, {}).get("status", "absent")
        after = new.get(key, {}).get("status", "absent")
        if before != after:
            print(f"{key}: {before} -> {after}")
    common = [key for key in base.keys() & new.keys()
              if base[key]["status"] == new[key]["status"] == "completed"]
    if not common:
        print("no item completed in both files")
        return 1
    ratios = [statistics.median(new[key]["latency_ms"]) / statistics.median(base[key]["latency_ms"])
              for key in common]
    print(f"{len(common)} items completed in both; "
          f"median latency ratio new/base {statistics.median(ratios):.4f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
