"""One timed pass over a workload's items, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC holds ``src`` (the package source directory), ``items`` (``key`` and
``argv`` of each CLI call), ``trace_out`` (a span file path, or null for an
untraced pass) and ``gauge`` (whether to gauge the host's speed after each
item, see ``speed.py``).  Each item is one in-process
``cage_spectra.cli.main(argv)`` call with stdout and stderr captured.  The
last stdout line is a JSON object with the pass wall time (gauging left out),
this process's peak RSS, every item's outcome and, when traced, the
per-function aggregates.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed


def run_item(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exception = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped error is a failed item, not a crashed pass
            code, exception = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return {"latency_s": latency, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "exception": exception}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import cage_spectra.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace_out"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    start = time.perf_counter()
    gauge = speed.Gauge() if spec["gauge"] else None
    try:
        for index, item in enumerate(spec["items"]):
            if tracer is not None:
                tracer.item = index
            outcome = {"key": item["key"], **run_item(cli.main, item["argv"])}
            if gauge is not None:
                outcome["speed"] = gauge.after(outcome["latency_s"])
            results.append(outcome)
    finally:
        wall = time.perf_counter() - start - (gauge.spent_s if gauge is not None else 0.0)
        if tracer is not None:
            tracer.restore()
    report = {
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "items": results,
        "trace": None,
    }
    if tracer is not None:
        tracer.write_spans(spec["trace_out"])
        report["trace"] = {
            "wrapped": sorted(tracer.wrapped),
            "calls": tracer.calls,
            "errors": tracer.errors,
            "self_s": tracer.self_s,
            "counters": tracer.counters,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
