"""Tests of the repository benchmark itself.

Run with ``python -m pytest perfbench/tests``. The smoke test runs every
workload for about a second in both modes (about a minute in total).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402


def _span(span_id, parent, start, end, name, worker=None):
    attrs = {} if worker is None else {"worker": worker}
    return {"span_id": span_id, "parent_id": parent, "start_s": start,
            "end_s": end, "name": name, "attributes": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),  # overlaps a: union is 1..6
        _span(4, 1, 9.0, 12.0, "c"),  # clipped to the parent's end
    ]
    selfs = layers.self_times(spans)
    assert selfs["root"] == [10.0 - 5.0 - 1.0]
    assert selfs["a"] == [3.0] and selfs["c"] == [3.0]


def test_self_time_keeps_worker_span_ids_apart():
    spans = [
        _span(1, None, 0.0, 4.0, "host"),
        _span(2, 1, 0.0, 1.0, "child"),
        _span(1, None, 0.0, 2.0, "hw.conv1_1", worker=0),
    ]
    selfs = layers.self_times(spans)
    assert selfs["host"] == [3.0]
    assert selfs["hw.conv1_1"] == [2.0]


def test_windowed_p99_ignores_one_slow_window():
    lat = np.full(10_000, 0.001)
    lat[:100] = 0.5  # one burst inside the first window
    assert workloads.windowed_p99_ms(lat) == 1.0
    assert workloads.windowed_p99_ms(lat[:500]) == np.percentile(lat[:500], 99) * 1e3


def test_benchmark_json_declares_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    bounds = [m["bound"] for m in spec["end_to_end"]]
    assert max(bounds) <= 0.25 and setup[0]["bound"] == max(bounds)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / RUN.name),
         "--workload", "gate", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_smoke_every_workload_reports_every_metric():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=1200,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
