#!/usr/bin/env python3
"""The repository benchmark: n-CNV at the paper's two operating points
(single gate, crowd) and behind the inference server, on the default
engine.

Run one workload, in a fresh interpreter each time::

    python3 perfbench/run.py --workload gate --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` repeats the window under a tracer and reports the
per-layer metrics instead. Metric names, units and workloads come from
``BENCHMARK.json``. Readable lines come first; the last line on stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. Run records and the traced run's span journal go to
``.perfbench_out/``.

``--smoke`` runs every workload for about a second in both modes, each
in its own interpreter, and checks that every named metric is present
and finite.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
JOURNAL_CAPACITY = 8192


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_untraced(workload, seed: int, seconds: float):
    import numpy as np

    from workloads import (
        check_correctness, end_to_end, measure, render_tiles, timed_setups,
    )

    bench, setup_s = timed_setups(workload, render_tiles(seed))
    try:
        ref = check_correctness(bench)
        result = measure(bench, ref, seconds, np.random.default_rng([seed, 1]))
        metrics = end_to_end(result, setup_s)
    finally:
        bench.close()
    return ref, result, metrics, {}


def run_traced(workload, seed: int, seconds: float):
    import numpy as np

    import layers
    from repro.telemetry import (
        SpanJournal, Tracer, activate, deactivate, summarize_spans,
    )
    from workloads import check_correctness, measure, render_tiles, setup

    bench = setup(workload, render_tiles(seed), trace_pool=True)
    try:
        ref = check_correctness(bench)
        server = bench.server
        plans_before = layers.plan_counters(bench)
        stats_before = server.stats() if server is not None else None
        journal = SpanJournal(capacity_per_thread=JOURNAL_CAPACITY)
        activate(Tracer(sample_every=1, journal=journal))
        try:
            result = measure(bench, ref, seconds, np.random.default_rng([seed, 1]))
        finally:
            deactivate()
        plans_after = layers.plan_counters(bench)
        metrics = layers.plan_metrics(plans_before, plans_after)
        metrics.update(layers.serving_metrics(
            bench, stats_before, server.stats() if server else None, result
        ))
        pool_hits = pool_misses = 0.0
        backend = layers.pool_backend(bench)
        if backend is not None:
            pool_hits = plans_after["hits"] - plans_before["hits"]
            pool_misses = plans_after["misses"] - plans_before["misses"]
            backend.drain_spans(journal)
        metrics["pool.plan_hits"] = float(pool_hits)
        metrics["pool.plan_misses"] = float(pool_misses)
        bench.close()  # the probes below run on an idle host

        acc, tiles = bench.accelerator, bench.tiles
        metrics["runtime.dispatch_overhead"] = layers.dispatch_overhead(
            acc, np.ascontiguousarray(tiles[: workload.batch])
        )
        metrics["runtime.dispatch_overhead_b1"] = layers.dispatch_overhead(
            acc, np.ascontiguousarray(tiles[:1])
        )
        metrics["plan.compile_ms_b1"] = layers.compile_ms(acc, 1)
        metrics["plan.compile_ms_b32"] = layers.compile_ms(acc, 32)
        metrics["telemetry.overhead_b1"] = layers.telemetry_overhead_b1(acc, tiles)

        spans = [s for s in journal.snapshot() if s.get("end_s") is not None]
        rows = layers.stage_rows(acc, spans)
        for row in rows:
            for key in ("self_ms", "share", "ii_cycles", "mac_ops"):
                metrics[f"hw.{row['stage']}.{key}"] = float(row[key])
        OUT.mkdir(exist_ok=True)
        journal.save(OUT / f"{workload.name}.journal.json")
        print(layers.render_stage_table(rows, summarize_spans(spans)))
    finally:
        bench.close()
    return ref, result, metrics, {"stages": rows}


def run_one(args) -> int:
    import workloads
    from workloads import percentile_ms

    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    workload = workloads.WORKLOADS[args.workload]
    host = workloads.host_record(args.seed)
    print("host: " + json.dumps(host))
    runner = run_traced if args.trace else run_untraced
    ref, result, metrics, extra = runner(workload, args.seed, args.seconds)

    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {kind}: missing "
            f"{sorted(set(declared) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(declared))}"
        )
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    for problem in ref.mismatches:
        print(f"INCORRECT: {problem}")
    correct = not ref.mismatches and result.mismatches == 0
    attempted = result.attempted + ref.checks
    failed = (
        result.attempted - result.completed + result.mismatches
        + len(ref.mismatches)
    )
    lat = result.latencies_s
    print(
        f"{workload.name} seed {args.seed}{' (traced)' if args.trace else ''}: "
        f"{result.completed}/{result.attempted} completed in "
        f"{result.window_s:.2f} s; latency p50 {percentile_ms(lat, 50):.3f} "
        f"ms, p99 {percentile_ms(lat, 99):.3f} ms over {len(lat)} samples"
        + (f"; generator late p99 {percentile_ms(result.late_s, 99):.3f} ms"
           if workload.open_loop else "")
    )
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seconds": args.seconds,
        "trace": args.trace, "host": host, "samples": len(lat),
        "correct": correct, "metrics": metrics, **extra,
    }
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0 if correct else 1


def smoke(seconds: float) -> int:
    """Every workload, both modes, ~1 s each, one interpreter per run."""
    import workloads

    spec = load_spec()
    ok = True
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", "0",
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=180, cwd=ROOT)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-800:]}")
            else:
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                names = {m["name"] for m in spec[kind]}
                if set(doc["metrics"]) != names:
                    problems.append("metric names differ from BENCHMARK.json")
                problems += [
                    f"{k} not finite" for k, v in doc["metrics"].items()
                    if not math.isfinite(v["value"])
                ]
                if not doc["correct"] or doc["attempted"] < 1:
                    problems.append(f"correct={doc['correct']} "
                                    f"attempted={doc['attempted']}")
            ok &= not problems
            print(f"smoke {workload} trace={trace}: "
                  + ("ok" if not problems else "; ".join(problems)))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload for ~1 s in both modes")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(1.0)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
