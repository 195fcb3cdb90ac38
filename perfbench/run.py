"""Benchmark of the cage-spectra CLI: end-to-end metrics, or per-layer ones.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Every
item is one in-process ``cage_spectra.cli.main`` call, and every pass over a
workload's items runs in a fresh interpreter with no warm-up, as a CLI user
runs it.  ``--trace 0`` measures set-up (fresh interpreters importing
``cage_spectra.cli``), then untraced passes until the next one would end
after S seconds, and reports the end-to-end metrics, with every time scaled
to a nominal host by the host speed gauged around it (``speed.py``); the
times as the clock read them go to stderr.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  Every
pass's output goes through the correctness gate (``gate.py``).  Per-item
results, keyed by ``k,d,e`` or graph name, go to ``.perfbench_results/``,
and the traced pass's spans next to them.  The last stdout line is the JSON
result.  See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import inputs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 9
#: A run must exit within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170

#: Traced functions, as <module>.<function> (``intmat`` is ``_intmat``).
TRACED = (
    "cli.main",
    "feasibility.spectral_feasibility",
    "feasibility.isolate_roots",
    "feasibility.multiplicity_closed_form",
    "feasibility.multiplicity_trig",
    "polynomials.dickson_family",
    "polynomials.derivative",
    "intervals.poly_enclosure",
    "intersection.build_bd",
    "intersection.bd_entry00",
    "graphs.parse_graph6",
    "graphs.structural_check",
    "graphs.all_distances",
    "graphs.girth",
    "graphs.is_bipartite",
    "graphs.distance_matrices",
    "graphs.verify_path_count_identity",
    "graphs.verify_allones_identity",
    "graphs.spectral_crosscheck",
    "intmat.matmul",
    "intmat.eval_poly",
)

#: Derived per-layer metrics: name -> unit.
DERIVED = {
    "intervals.poly_enclosure.calls_per_root": "calls/root",
    "polynomials.dickson_family.calls_per_triple": "calls/triple",
    "graphs.parse_graph6.bytes": "bytes",
    "graphs.structural_check.calls_per_graph": "calls/graph",
    "graphs.all_distances.calls_per_graph": "calls/graph",
    "intmat.matmul.madds": "count",
    "trace_overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.errors": "count"})
    units.update(DERIVED)
    return units


#: The times are scaled to the nominal host (see speed.py).
END_TO_END_UNITS = {
    "wall_s": "s",
    "completed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed on stderr and kept in the results file, but not in the result
#: line (see README.md): the scaled item latency percentiles, whose spread
#: from run to run on verify-algebraic (six graphs) comes too near the widest
#: bound a metric may have; the times as the clock read them, which spread
#: wider still on a shared host; and the host's gauged speed.
STDERR_UNITS = {
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "measured_wall_s": "s",
    "measured_item_p50_ms": "ms",
    "measured_item_p90_ms": "ms",
    "measured_setup_s": "s",
    "host_speed": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(deadline: float, gauge: speed.Gauge) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports cage_spectra.cli, and
    the host's speed around it."""
    probe = "import cage_spectra.cli as m; print(m.__file__)"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise BenchError(f"importing cage_spectra.cli from {SRC} failed: {proc.stderr.strip()}")
    return elapsed, gauge.after(elapsed)


def run_pass(items, workdir: Path, index: int, deadline: float, trace_out: Path | None,
             gauge: bool) -> dict:
    """One pass over ``items`` in a fresh worker process; with ``gauge``, the
    host's speed is gauged between items."""
    spec = workdir / f"pass-{index}.json"
    spec.write_text(json.dumps({
        "src": str(SRC),
        "items": [{"key": item.key, "argv": item.argv} for item in items],
        "trace_out": str(trace_out) if trace_out else None,
        "gauge": gauge,
    }))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish within the run's time limit") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["process_s"] = elapsed
    return report


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> dict[str, float]:
    """Each time is taken per pass, then the median over passes, both as the
    clock read it and scaled to the nominal host: each item's latency times
    the host speed gauged around it (speed.py).  Percentiles are taken
    within a pass: item latencies cluster by (k, d) or graph size, and
    pooling passes that ran at different speeds would smear the clusters
    into each other."""

    def times(scaled: bool) -> tuple[float, float, float]:
        walls, p50s, p90s = [], [], []
        for p in passes:
            latencies = [o["latency_s"] * (o["speed"] if scaled else 1.0) for o in p["items"]]
            done = [t * 1e3 for t, o in zip(latencies, p["items"]) if not gate.failed(o)] or [float("nan")]
            walls.append(sum(latencies))
            p50s.append(statistics.median(done))
            p90s.append(quantile(done, 90))
        return statistics.median(walls), statistics.median(p50s), statistics.median(p90s)

    attempted = sum(len(p["items"]) for p in passes)
    completed = sum(not gate.failed(o) for p in passes for o in p["items"])
    metrics = dict(zip(("wall_s", "item_p50_ms", "item_p90_ms"), times(scaled=True)))
    metrics.update(zip(("measured_wall_s", "measured_item_p50_ms", "measured_item_p90_ms"), times(scaled=False)))
    metrics.update({
        "completed_frac": completed / attempted,
        "setup_s": statistics.median(seconds * host for seconds, host in setup),
        "measured_setup_s": statistics.median(seconds for seconds, _ in setup),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in passes),
        "host_speed": statistics.median(o["speed"] for p in passes for o in p["items"]),
    })
    return metrics


def per_layer(workload: inputs.Workload, untraced: dict, traced: dict) -> dict[str, float]:
    trace = traced["trace"]
    absent = [name for name in TRACED if name not in trace["wrapped"]]
    if absent:
        print(f"note: not defined by the program, reported as 0: {', '.join(absent)}", file=sys.stderr)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = trace["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = trace["self_s"].get(name, 0.0)
        metrics[f"{name}.errors"] = trace["errors"].get(name, 0)
    counters = trace["counters"]
    triples = sum(1 for item in workload.items if item.triple and inputs.in_regime(*item.triple))
    graphs = sum(1 for item in workload.items if item.argv[0] == "verify")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics.update({
        "intervals.poly_enclosure.calls_per_root":
            ratio(metrics["intervals.poly_enclosure.calls"], counters.get("feasibility.roots", 0)),
        "polynomials.dickson_family.calls_per_triple":
            ratio(metrics["polynomials.dickson_family.calls"], triples),
        "graphs.parse_graph6.bytes": counters.get("graphs.parse_graph6.bytes", 0),
        "graphs.structural_check.calls_per_graph": ratio(metrics["graphs.structural_check.calls"], graphs),
        "graphs.all_distances.calls_per_graph": ratio(metrics["graphs.all_distances.calls"], graphs),
        "intmat.matmul.madds": counters.get("intmat.matmul.madds", 0),
        "trace_overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1,
    })
    return metrics


def write_results(workload: inputs.Workload, seed: int, trace: bool, passes: list[dict], problems,
                  metrics: dict[str, float]) -> None:
    """Per-item outcomes keyed by item, so two commits can be compared on the
    items both complete."""
    RESULTS_DIR.mkdir(exist_ok=True)
    items = {}
    for item in workload.items:
        outcomes = [o for p in passes for o in p["items"] if o["key"] == item.key]
        items[item.key] = {
            "argv": item.argv,
            "status": "failed" if any(gate.failed(o) for o in outcomes) else "completed",
            "exit": [o["exit"] for o in outcomes],
            "latency_ms": [o["latency_s"] * 1e3 for o in outcomes],
            "host_speed": [o["speed"] for o in outcomes if "speed" in o],
            "error": next((o["exception"] or o["stderr"].strip() for o in outcomes if gate.failed(o)), None),
        }
    path = RESULTS_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "trace": trace, "metrics": metrics,
        "passes": [{"wall_s": p["wall_s"], "maxrss_kb": p["maxrss_kb"], "traced": p["trace"] is not None}
                   for p in passes],
        "gate_problems": problems,
        "items": items,
    }, indent=1))


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int, int, list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = inputs.build(name, seed, workdir)
        for fname, data in workload.files.items():
            (workdir / fname).write_bytes(data)
        golden = gate.load_goldens(name)
        setup, passes, problems = [], [], []

        def timed_pass(trace_out=None):
            report = run_pass(workload.items, workdir, len(passes), deadline, trace_out, gauge=not trace)
            passes.append(report)
            problems.extend(f"pass {len(passes) - 1}: {p}"
                            for p in gate.check_pass(name, workload.items, report["items"], golden))
            return report

        if trace:
            RESULTS_DIR.mkdir(exist_ok=True)
            untraced = timed_pass()
            traced = timed_pass(RESULTS_DIR / f"{name}-seed{seed}.spans.jsonl")
            metrics = per_layer(workload, untraced, traced)
        else:
            gauge = speed.Gauge()
            setup = [measure_setup(deadline, gauge) for _ in range(SETUP_REPEATS)]
            start = time.monotonic()
            while True:
                timed_pass()
                per_pass = statistics.median(p["process_s"] for p in passes)
                if time.monotonic() - start + per_pass > seconds:
                    break
            metrics = end_to_end(passes, setup)
        write_results(workload, seed, trace, passes, problems, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p["items"]) for p in passes)
    failures = sum(gate.failed(o) for p in passes for o in p["items"])
    return metrics, attempted, failures, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "cage_spectra" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'cage_spectra'}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failures, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    if not args.trace:
        for name, unit in STDERR_UNITS.items():
            print(f"{name}: {metrics[name]} {unit}", file=sys.stderr)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
