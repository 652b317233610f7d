"""Per-layer metrics of the traced run.

A traced run repeats a workload's measured window under
``activate(Tracer(sample_every=1, journal=SpanJournal()))`` and derives,
from the journal and from the counters the stack exposes, one number per
layer. Each is named for the module it measures; ``README.md`` in this
directory lists which end-to-end metric each should move, and where.
Three probes run untraced after the window: engine dispatch overhead,
plan compile time, and the batch-1 cost of tracing.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.hw.plan import ExecutionPlan
from repro.parallel import bucket_for
from repro.telemetry import SpanJournal, Tracer, activate, deactivate
from workloads import percentile_ms

# -- self times ----------------------------------------------------------------
SpanKey = Tuple[object, int]


def _key(span: Dict, field: str) -> SpanKey:
    # Pool workers number their spans independently of the parent, so a
    # span is identified by (worker, id); parent-process spans have no
    # worker attribute.
    return (span.get("attributes", {}).get("worker"), span.get(field))


def self_times(spans: List[Dict]) -> Dict[str, List[float]]:
    """Seconds of each span not covered by its children, grouped by name."""
    children: Dict[SpanKey, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent_id") is not None:
            children.setdefault(_key(span, "parent_id"), []).append(
                (span["start_s"], span["end_s"])
            )
    out: Dict[str, List[float]] = {}
    for span in spans:
        start, end = span["start_s"], span["end_s"]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(_key(span, "span_id"), [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.setdefault(span["name"], []).append(end - start - covered)
    return out


def stage_rows(accelerator, spans: List[Dict]) -> List[Dict]:
    """Measured self time and share beside the modelled II, per stage.

    ``mac_ops`` is computed from geometry (rows x fan-in x output
    vectors per image), not measured.
    """
    selfs = self_times(spans)
    intervals = dict(accelerator.stage_intervals())
    totals = {
        s.name: float(np.sum(selfs.get(f"hw.{s.name}", [0.0])))
        for s in accelerator.stages
    }
    grand = sum(totals.values()) or 1.0
    rows = []
    for stage in accelerator.stages:
        own = selfs.get(f"hw.{stage.name}", [])
        cfg = stage.mvtu.config
        rows.append({
            "stage": stage.name,
            "spans": len(own),
            "self_ms": float(np.median(own) * 1e3) if own else 0.0,
            "share": totals[stage.name] / grand,
            "ii_cycles": intervals[stage.name],
            "mac_ops": cfg.rows * cfg.cols * stage.vectors_per_image,
        })
    return rows


def render_stage_table(rows: List[Dict], summary) -> str:
    lines = [
        f"{'stage':<9} {'spans':>6} {'self ms':>9} {'share':>7} "
        f"{'II cycles':>10} {'MACs/img':>10}"
    ]
    for r in rows:
        lines.append(
            f"{r['stage']:<9} {r['spans']:>6} {r['self_ms']:>9.4f} "
            f"{r['share']:>7.1%} {r['ii_cycles']:>10} {r['mac_ops']:>10}"
        )
    lines.append(f"bottleneck (modelled, II argmax): {summary.bottleneck_modelled}")
    lines.append(f"bottleneck (measured wall time):  {summary.bottleneck_measured}")
    return "\n".join(lines)


# -- untraced probes -----------------------------------------------------------
def _per_call(fn: Callable[[], object], calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def dispatch_overhead(accelerator, batch: np.ndarray, rounds: int = 24) -> float:
    """``accelerator.run`` over ``plan.execute(out=)`` on the same cached
    plan, minus 1: the median of per-round ratios of adjacent blocks, the
    order alternating each round, so host drift cancels within a pair."""
    plan, _ = accelerator.plans.get(len(batch))
    out = np.empty((len(batch), accelerator.num_classes), dtype=np.int64)
    calls = max(4, 64 // len(batch))
    ratios = []
    for r in range(rounds):
        blocks = [lambda: accelerator.run(batch),
                  lambda: plan.execute(batch, out=out)]
        if r % 2:
            blocks.reverse()
        t = [_per_call(fn, calls) for fn in blocks]
        ratios.append(t[0] / t[1] if r % 2 == 0 else t[1] / t[0])
    return float(np.median(ratios) - 1.0)


def compile_ms(accelerator, batch_size: int, repeats: int = 5) -> float:
    """Median time to construct ``ExecutionPlan(accelerator, batch_size)``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ExecutionPlan(accelerator, batch_size)
        times.append(time.perf_counter() - t0)
    return float(np.median(times) * 1e3)


def telemetry_overhead_b1(accelerator, tiles: np.ndarray, rounds: int = 8,
                          calls: int = 150) -> float:
    """Traced gate p50 / untraced gate p50 - 1, in alternating blocks of
    batch-1 ``predict`` calls; traced calls sit in a ``bench.call`` span."""
    tracer = Tracer(sample_every=1, journal=SpanJournal())
    lat = {False: [], True: []}
    for r in range(2 * rounds):
        traced = bool(r % 2)
        if traced:
            activate(tracer)
        try:
            for i in range(calls):
                tile = tiles[i % len(tiles)]
                t0 = time.perf_counter()
                if traced:
                    with tracer.span("bench.call", kind="bench"):
                        accelerator.predict(tile)
                else:
                    accelerator.predict(tile)
                lat[traced].append(time.perf_counter() - t0)
        finally:
            deactivate()
    return float(np.median(lat[True]) / np.median(lat[False]) - 1.0)


# -- counters ------------------------------------------------------------------
def pool_backend(bench):
    """The server's process-pool backend, or None."""
    if bench.server is None:
        return None
    backend = bench.server.backends[0]
    return backend if hasattr(backend, "pool") else None


def plan_counters(bench) -> Dict[str, int]:
    """Plan-cache counters of whatever serves the workload: the workers'
    caches behind a pool backend, else the accelerator's own cache."""
    backend = pool_backend(bench)
    if backend is not None:
        return dict(backend.plan_stats()["total"])
    return bench.accelerator.plans.stats()


def plan_metrics(before: Dict, after: Dict) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "plan.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "plan.misses": float(misses),
        "plan.arena_mb": after["arena_bytes"] / 2**20,
    }


def serving_metrics(bench, before, after, result) -> Dict[str, float]:
    """Serving-layer metrics from two ``ServerStats`` snapshots and the
    loop's own handles; zero where the workload has no server."""
    names = (
        "serving.queue_wait_p50_ms", "serving.queue_wait_p99_ms",
        "serving.batch_size_mean", "serving.full_batch_share",
        "serving.padded_share", "serving.backend_busy_share",
        "loadgen.late_p99_ms", "pool.worker_restarts", "pool.requeued",
    )
    if bench.server is None:
        return dict.fromkeys(names, 0.0)
    hist = {
        size: count - before.batch_histogram.get(size, 0)
        for size, count in after.batch_histogram.items()
    }
    batches = sum(hist.values()) or 1
    images = sum(size * count for size, count in hist.items())
    backend = pool_backend(bench)
    buckets = (
        backend.pool.buckets if backend is not None
        else bench.server.config.bucket_sizes
    )
    padded = sum(
        count * (bucket_for(size, buckets) - size)
        for size, count in hist.items() if count
    ) if buckets else 0
    busy = sum(
        total - before.section_totals_s.get(name, 0.0)
        for name, total in after.section_totals_s.items()
        if name.startswith("infer.")
    )
    return {
        "serving.queue_wait_p50_ms": percentile_ms(result.queue_wait_s, 50),
        "serving.queue_wait_p99_ms": percentile_ms(result.queue_wait_s, 99),
        "serving.batch_size_mean": images / batches,
        "serving.full_batch_share":
            hist.get(bench.server.config.max_batch_size, 0) / batches,
        "serving.padded_share": padded / ((images + padded) or 1),
        "serving.backend_busy_share": busy / result.window_s,
        "loadgen.late_p99_ms": percentile_ms(result.late_s, 99),
        "pool.worker_restarts": float(
            after.worker_restarts - before.worker_restarts
        ),
        "pool.requeued": float(after.requeued - before.requeued),
    }

