import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import speed

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.inputs.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_end_to_end_scales_each_item_by_its_host_speed():
    passes = [{"wall_s": 2.0, "maxrss_kb": 2048, "items": [
        {"latency_s": t / 1000, "speed": 0.5, "exit": 0, "stderr": "", "exception": None} for t in range(1, 101)
    ] + [{"latency_s": 9.0, "speed": 0.5, "exit": 1, "stderr": "error: x\n", "exception": None}]}]
    metrics = run.end_to_end(passes, [(0.2, 1.0), (0.1, 0.5), (0.3, 0.5)])
    assert metrics["measured_item_p50_ms"] == 50.5 and metrics["item_p50_ms"] == 25.25
    assert abs(metrics["measured_item_p90_ms"] - 90.1) < 1e-9 and abs(metrics["item_p90_ms"] - 45.05) < 1e-9
    assert abs(metrics["measured_wall_s"] - 14.05) < 1e-9 and abs(metrics["wall_s"] - 7.025) < 1e-9
    assert metrics["completed_frac"] == 100 / 101
    assert metrics["measured_setup_s"] == 0.2 and metrics["setup_s"] == 0.15
    assert metrics["peak_rss_mb"] == 2.0 and metrics["host_speed"] == 0.5


def test_gauge_averages_the_speed_on_either_side_of_a_call():
    gauge = speed.Gauge()
    before = gauge.before
    host = gauge.after(0.0)
    assert host == (before + gauge.before) / 2 and 0.01 < host < 100
    assert gauge.spent_s >= speed.FIRST_S + speed.MIN_S
