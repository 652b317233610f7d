"""Serving-layer benchmarks — dynamic batching, backpressure, latency.

Demonstrates the three properties the serving layer exists for, on the
datapath it serves (the deployed accelerator, ``clf.deploy()``):

* **Batching wins throughput**: draining a saturated queue through one
  worker, coalesced batches beat batch-size-1 service by at least
  ``BATCHING_BAR`` on n-CNV (the per-call fixed costs — dispatch,
  quantisation, nine stage calls, plan lookup — amortise across the
  batch). The gate is the median of alternating drain pairs, and the
  bar is set below the worst of repeated runs on a 2-vCPU host; see
  ``CHANGES.md``;
* **Overload is explicit**: past saturation the bounded admission queue
  rejects/sheds with machine-readable reasons, the queue depth never
  exceeds its capacity, and the server drains cleanly — no deadlock, no
  unbounded growth;
* **A lone request stays fast**: the work-conserving batcher dispatches
  it as soon as a worker is free, so its p95 latency is one single-image
  inference plus dispatch — no batching window.

The models are *untrained*: serving throughput depends on the
architecture's operations, not the weight values, so skipping the
minutes of zoo training keeps this suite self-contained and fast. Every
test serves n-CNV, perfbench's model.
"""

import time

import numpy as np
import pytest

from repro.core.classifier import BinaryCoP
from repro.serving import (
    InferenceServer,
    ServingConfig,
    face_tile_pool,
    run_open_loop,
)
from repro.utils.tables import render_table

#: Offered load of the overload tests, req/s: past what two workers
#: serve on n-CNV's accelerator (3.7-3.9k req/s on a 2-vCPU host).
SATURATING_RATE = 4000.0
DISPATCH_MARGIN_S = 0.010  # queue hand-off + thread wake-up on a busy host
BATCHING_BAR = 1.4  # batch-32 over batch-1 backlog-drain QPS, one worker
DRAIN_PAIRS = 7  # alternating batch-32/batch-1 drains behind the bar


@pytest.fixture(scope="module")
def accelerator():
    return BinaryCoP("n-cnv", rng=0).deploy()


@pytest.fixture(scope="module")
def tiles() -> np.ndarray:
    return face_tile_pool(16, rng=0)


def _serve_open_loop(accelerator, tiles, rate_hz, duration_s, config):
    server = InferenceServer.from_accelerator(accelerator, config)
    with server:
        result = run_open_loop(
            server, tiles, rate_hz=rate_hz, duration_s=duration_s, rng=1
        )
        stats = server.stats()
    return result, stats


def _drain_backlog(accelerator, tiles, config, n_requests):
    """QPS draining a pre-submitted backlog (a saturated queue, no load-
    generator thread competing with the workers for the GIL during the
    measurement — the cleanest view of pure serving throughput)."""
    server = InferenceServer.from_accelerator(accelerator, config)
    handles = [
        server.submit(tiles[i % len(tiles)]) for i in range(n_requests)
    ]
    start = time.perf_counter()
    with server:  # workers start here, facing a full queue
        for h in handles:
            h.result(timeout=120.0)
        elapsed = time.perf_counter() - start
        stats = server.stats()
    return n_requests / elapsed, stats.mean_batch_size


def test_dynamic_batching_beats_batch1(accelerator, tiles, capsys):
    """Median coalesced/batch-1 QPS ratio over ``DRAIN_PAIRS`` alternating
    backlog drains >= BATCHING_BAR."""
    n = 192
    configs = {
        size: ServingConfig(
            max_batch_size=size, queue_capacity=256, num_workers=1
        )
        for size in (32, 1)
    }
    # An untimed drain of each first: it compiles the batch-32 and
    # batch-1 execution plans, a one-off set-up cost, not serving.
    for config in configs.values():
        _drain_backlog(accelerator, tiles, config, n)
    # One drain is ~0.1 s, short enough for a host hiccup to decide it:
    # alternate which config runs first and gate on the median pair.
    rows, speedups, mean_batches = [], [], []
    for pair in range(DRAIN_PAIRS):
        order = (32, 1) if pair % 2 == 0 else (1, 32)
        qps = {}
        for size in order:
            qps[size], mean_batch = _drain_backlog(
                accelerator, tiles, configs[size], n
            )
            if size == 32:
                mean_batches.append(mean_batch)
        speedups.append(qps[32] / max(qps[1], 1e-9))
        rows.append([
            str(pair), f"{qps[1]:,.0f}", f"{qps[32]:,.0f}",
            f"{mean_batches[-1]:.1f}", f"{speedups[-1]:.2f}x",
        ])
    speedup = float(np.median(speedups))
    with capsys.disabled():
        print()
        print(
            render_table(
                ["pair", "batch-1 QPS", "dynamic QPS", "mean batch", "ratio"],
                rows,
                title=(
                    f"n-CNV accelerator: draining a {n}-request backlog — "
                    f"dynamic batching median {speedup:.2f}x batch-1"
                ),
            )
        )
    assert np.median(mean_batches) > 4.0  # coalescing actually happened
    assert speedup >= BATCHING_BAR


def test_batch_size_grows_with_offered_load(accelerator, tiles, capsys):
    """The coalescing sweep: higher offered load -> bigger micro-batches."""
    config = ServingConfig(
        max_batch_size=32, queue_capacity=256, num_workers=2
    )
    rows, mean_batches = [], []
    for rate in (100.0, 800.0, SATURATING_RATE):
        result, stats = _serve_open_loop(accelerator, tiles, rate, 1.0, config)
        mean_batches.append(stats.mean_batch_size)
        p95 = (
            result.latency_percentile(95) * 1e3
            if result.latencies_s else float("nan")
        )
        rows.append(
            [
                f"{rate:,.0f}",
                f"{result.achieved_qps:,.0f}",
                f"{stats.mean_batch_size:.1f}",
                f"{p95:.1f}",
                f"{result.rejected + result.shed}",
            ]
        )
    with capsys.disabled():
        print()
        print(
            render_table(
                ["offered/s", "QPS", "mean batch", "p95 ms", "rejected+shed"],
                rows,
                title="offered-load sweep (dynamic batching)",
            )
        )
    assert mean_batches[-1] > mean_batches[0]


def test_overload_sheds_explicitly_and_stays_bounded(accelerator, tiles, capsys):
    """Bounded queue under overload -> explicit rejections, every request
    resolved, clean drain (no deadlock, no silent growth)."""
    config = ServingConfig(
        max_batch_size=32, queue_capacity=64, num_workers=2
    )
    server = InferenceServer.from_accelerator(accelerator, config)
    with server:
        result = run_open_loop(
            server, tiles, rate_hz=SATURATING_RATE, duration_s=1.0, rng=2
        )
        stats = server.stats()
    resolved = (
        result.completed + result.rejected + result.shed + result.timed_out
    )
    with capsys.disabled():
        print()
        print(
            f"overload (capacity 64, {SATURATING_RATE:,.0f} req/s): "
            f"{result.offered} offered -> {result.completed} completed, "
            f"{result.rejected} rejected, {result.shed} shed "
            f"({result.achieved_qps:,.0f} QPS served)"
        )
    assert result.rejected + result.shed > 0  # backpressure engaged
    assert resolved == result.offered  # nothing dangling
    assert server.queue_depth == 0  # drained on stop
    assert stats.completed > 0  # kept serving throughout


def test_lone_request_p95_bounded(accelerator, tiles, capsys):
    """Lone-request p95 <= one inference plus dispatch."""
    # Single-image inference cost, measured directly (after warm-up).
    accelerator.predict(tiles[:1])
    t0 = time.perf_counter()
    reps = 5
    for _ in range(reps):
        accelerator.predict(tiles[:1])
    single_infer_s = (time.perf_counter() - t0) / reps

    config = ServingConfig(
        max_batch_size=32, queue_capacity=16, num_workers=2
    )
    latencies = []
    with InferenceServer.from_accelerator(accelerator, config) as server:
        handle = server.submit(tiles[0])  # warm the worker path
        handle.result(timeout=10.0)
        for i in range(40):
            handle = server.submit(tiles[i % len(tiles)])
            handle.result(timeout=10.0)
            latencies.append(handle.latency_s)
            time.sleep(0.002)  # keep requests lone (no coalescing)
    p95 = float(np.percentile(latencies, 95))
    # One inference (2x for timing noise) plus the dispatch margin.
    budget = 2 * single_infer_s + DISPATCH_MARGIN_S
    with capsys.disabled():
        print()
        print(
            f"lone request p95 {p95 * 1e3:.1f} ms "
            f"(budget {budget * 1e3:.1f} ms = 2x {single_infer_s * 1e3:.1f} ms "
            f"inference + {DISPATCH_MARGIN_S * 1e3:.0f} ms dispatch margin)"
        )
    assert p95 <= budget


@pytest.mark.parametrize("batch_size", [1, 8, 32])
def test_backend_batch_throughput(benchmark, accelerator, tiles, batch_size):
    """Raw engine rate per batch size — the amortisation batching exploits."""
    batch = np.stack([tiles[i % len(tiles)] for i in range(batch_size)])
    labels = benchmark(accelerator.predict, batch)
    assert labels.shape == (batch_size,)
