"""Tests for ``repro.serving``: queue, batcher, workers, server, metrics.

Component tests run against stub backends (deterministic, no model), so
coalescing/backpressure/timeout semantics are exercised without numpy
inference noise; the end-to-end smoke test serves the deployed
accelerator of the session-scoped trained tiny classifier and checks
served labels against direct ``predict`` calls on it.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
import re
import sys
import threading
import time
import typing
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.serving import (
    AcceleratorBackend,
    AdmissionQueue,
    InferenceRequest,
    InferenceServer,
    MicroBatcher,
    MetricsRegistry,
    RejectionReason,
    RequestNotCompleted,
    RequestStatus,
    ServingConfig,
    WorkerPool,
    face_tile_pool,
    folding_concurrency,
    run_open_loop,
)
from repro.core.architectures import table1_folding
from repro.hw.compiler import FoldingConfig, InputContract, compile_model
from repro.runtime import ExecutionConfig
from repro.testing import grid_images, make_tiny_bnn, randomize_bn_stats
from repro.utils.clock import FakeClock
from repro.utils.profiling import Stopwatch

pytestmark = pytest.mark.serving


def make_request(value: float = 0.5, **kwargs) -> InferenceRequest:
    return InferenceRequest(
        np.full((4, 4, 3), value, dtype=np.float32), **kwargs
    )


class StubBackend:
    """Deterministic backend: label = round(mean * 1000) % 4, optional
    delay; ``fail`` raises, ``short`` answers one label too few."""

    input_contract = InputContract((4, 4, 3))

    def __init__(
        self, name="stub", delay_s=0.0, fail=False, short=False,
        max_concurrency=2,
    ):
        self.name = name
        self.delay_s = delay_s
        self.fail = fail
        self.short = short
        self.max_concurrency = max_concurrency
        self.calls = 0
        self.batch_sizes = []

    def infer(self, images):
        self.calls += 1
        self.batch_sizes.append(len(images))
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("stub backend configured to fail")
        labels = (np.round(images.mean(axis=(1, 2, 3)) * 1000).astype(int)) % 4
        return labels[:-1] if self.short else labels


# ---------------------------------------------------------------------------
# admission queue
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_fifo_within_priority(self):
        q = AdmissionQueue(capacity=8)
        first, second = make_request(0.1), make_request(0.2)
        assert q.offer(first) and q.offer(second)
        assert q.pop_many(1, 0.1) == [first]
        assert q.pop_many(1, 0.1) == [second]

    def test_priority_order(self):
        # One pop_many takes the batch priority first, FIFO within a level.
        q = AdmissionQueue(capacity=8)
        low1, low2 = make_request(priority=0), make_request(priority=0)
        high1, high2 = make_request(priority=5), make_request(priority=5)
        mid = make_request(priority=2)
        for r in (low1, high1, mid, low2, high2):
            q.offer(r)
        assert q.pop_many(4, 0.1) == [high1, high2, mid, low1]
        assert q.pop_many(4, 0.1) == [low2]
        assert q.depth() == 0

    def test_concurrent_pop_many_hands_out_each_request_once(self):
        # More consumers than cores and a short switch interval: a lost
        # update in pop_many would duplicate or drop a request.
        n_producers, per_producer, n_consumers = 4, 300, 4
        q = AdmissionQueue(capacity=n_producers * per_producer)
        offered = [
            [make_request() for _ in range(per_producer)]
            for _ in range(n_producers)
        ]
        popped = [[] for _ in range(n_consumers)]
        done = threading.Event()

        def produce(requests):
            for r in requests:
                assert q.offer(r)

        def consume(out):
            while not (done.is_set() and q.depth() == 0):
                out.extend(q.pop_many(7, timeout=0.01))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumers = [
                threading.Thread(target=consume, args=(out,)) for out in popped
            ]
            producers = [
                threading.Thread(target=produce, args=(rs,)) for rs in offered
            ]
            for t in consumers + producers:
                t.start()
            for t in producers:
                t.join(timeout=30.0)
            done.set()
            for t in consumers:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in consumers + producers)
        got = [r.request_id for out in popped for r in out]
        want = [r.request_id for rs in offered for r in rs]
        assert sorted(got) == sorted(want)

    def test_full_queue_rejects_with_reason(self):
        q = AdmissionQueue(capacity=2)
        assert q.offer(make_request())
        assert q.offer(make_request())
        admission = q.offer(make_request())
        assert not admission.accepted
        assert admission.reason is RejectionReason.QUEUE_FULL
        assert q.depth() == 2  # hard bound holds

    def test_overload_sheds_lowest_priority_first(self):
        q = AdmissionQueue(capacity=2)
        low = make_request(priority=0)
        mid = make_request(priority=1)
        q.offer(low)
        q.offer(mid)
        vip = make_request(priority=9)
        admission = q.offer(vip)
        assert admission.accepted
        assert admission.shed is low
        assert low.status is RequestStatus.SHED
        assert "shed" in low.detail
        assert q.depth() == 2

    def test_equal_priority_never_shed(self):
        q = AdmissionQueue(capacity=1)
        q.offer(make_request(priority=3))
        admission = q.offer(make_request(priority=3))
        assert not admission.accepted
        assert admission.reason is RejectionReason.QUEUE_FULL

    def test_shedding_can_be_disabled(self):
        q = AdmissionQueue(capacity=1, allow_shedding=False)
        q.offer(make_request(priority=0))
        assert not q.offer(make_request(priority=9)).accepted

    def test_close_returns_leftovers_and_rejects_new(self):
        q = AdmissionQueue(capacity=4)
        r = make_request()
        q.offer(r)
        leftovers = q.close()
        assert leftovers == [r]
        assert q.offer(make_request()).reason is RejectionReason.SHUTTING_DOWN
        assert q.pop_many(4, 0.01) == []

    def test_validates_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionQueue(capacity=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_heap_queue_on_random_traffic(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(1, 6)
        shedding = rng.random() < 0.75
        q = AdmissionQueue(capacity, allow_shedding=shedding)
        ref = HeapAdmissionQueue(capacity, allow_shedding=shedding)
        for _ in range(300):
            if rng.random() < 0.6:
                r = make_request(priority=rng.randint(0, 3))
                got, want = q.offer(r), ref.offer(r)
                assert (got.accepted, got.reason, got.shed) == want
            else:
                n = rng.randint(1, 5)
                assert q.pop_many(n, timeout=0.0) == ref.pop_many(n)
            assert q.depth() == len(ref.heap)
        assert q.close() == ref.close()
        assert q.offer(make_request()).reason is RejectionReason.SHUTTING_DOWN
        assert q.pop_many(4, 0.01) == []


class HeapAdmissionQueue:
    """Reference semantics of :class:`AdmissionQueue`: the heap queue it
    replaced, whose shed victim is a scan for the lowest-priority,
    newest entry. Single-threaded, so no lock and no blocking."""

    def __init__(self, capacity, allow_shedding=True):
        self.capacity = capacity
        self.allow_shedding = allow_shedding
        self.heap = []  # (-priority, seq, request)
        self.seq = itertools.count()

    def offer(self, request):
        shed = None
        if len(self.heap) >= self.capacity:
            victim = None
            if self.allow_shedding:
                victim = max(
                    range(len(self.heap)), key=lambda i: self.heap[i][:2]
                )
                if -self.heap[victim][0] >= request.priority:
                    victim = None
            if victim is None:
                return False, RejectionReason.QUEUE_FULL, None
            shed = self.heap.pop(victim)[2]
            heapq.heapify(self.heap)
        heapq.heappush(self.heap, (-request.priority, next(self.seq), request))
        return True, None, shed

    def pop_many(self, max_n):
        n = min(max_n, len(self.heap))
        return [heapq.heappop(self.heap)[2] for _ in range(n)]

    def close(self):
        leftovers = [entry[2] for entry in sorted(self.heap)]
        self.heap.clear()
        return leftovers


# ---------------------------------------------------------------------------
# micro-batcher
# ---------------------------------------------------------------------------
class RecordingQueue(AdmissionQueue):
    """An admission queue that records every ``pop_many`` timeout."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timeouts = []

    def pop_many(self, max_n, timeout=None):
        self.timeouts.append(timeout)
        return super().pop_many(max_n, timeout)


class TestMicroBatcher:
    def test_size_trigger_returns_immediately(self):
        q = AdmissionQueue(capacity=16)
        batcher = MicroBatcher(q, max_batch_size=4)
        for _ in range(6):
            q.offer(make_request())
        start = time.monotonic()
        assert len(batcher.next_batch(poll_timeout_s=10.0)) == 4
        assert len(batcher.next_batch(poll_timeout_s=10.0)) == 2
        # Both batches came from what was queued; neither waited for more.
        assert time.monotonic() - start < 1.0

    def test_lone_request_returns_without_waiting(self):
        q = RecordingQueue(capacity=16)
        batcher = MicroBatcher(q, max_batch_size=64)
        r = make_request()
        q.offer(r)
        start = time.monotonic()
        batch = batcher.next_batch(poll_timeout_s=10.0)
        assert batch == [r]
        assert time.monotonic() - start < 1.0
        # Only the pop for the first request may block; once it arrived
        # the batcher looks for company without waiting for it.
        assert q.timeouts[0] == 10.0
        assert all(t == 0.0 for t in q.timeouts[1:])

    def test_idle_poll_returns_empty(self):
        q = AdmissionQueue(capacity=4)
        batcher = MicroBatcher(q, max_batch_size=4)
        assert batcher.next_batch(poll_timeout_s=0.01) == []

    def test_expired_requests_resolved_not_batched(self):
        # A fake clock makes the expiry deterministic: no real sleep, no
        # flaking when the host stalls between offer and collection.
        clock = FakeClock()
        q = AdmissionQueue(capacity=4)
        timeouts = []
        batcher = MicroBatcher(
            q, max_batch_size=4, on_timeout=timeouts.append, clock=clock,
        )
        dead = make_request(timeout_s=0.01, now=clock.monotonic())
        live = make_request(now=clock.monotonic())
        q.offer(dead)
        q.offer(live)
        clock.advance(0.03)  # the deadline expires while queued
        batch = batcher.next_batch()
        assert batch == [live]
        assert dead.status is RequestStatus.TIMED_OUT
        assert timeouts == [dead]

    def test_dead_requests_do_not_take_batch_slots(self):
        q = AdmissionQueue(capacity=8)
        batcher = MicroBatcher(q, max_batch_size=2)
        cancelled, live = make_request(), [make_request(), make_request()]
        for r in [cancelled] + live:
            q.offer(r)
        assert cancelled.cancel()
        # The first pop takes the cancelled request and live[0]; the
        # freed slot refills from the queue in the same call.
        assert batcher.next_batch(poll_timeout_s=10.0) == live
        assert q.depth() == 0

    def test_cancelled_requests_skipped(self):
        q = AdmissionQueue(capacity=4)
        batcher = MicroBatcher(q, max_batch_size=4)
        r = make_request()
        q.offer(r)
        assert r.cancel()
        assert batcher.next_batch(poll_timeout_s=0.01) == []
        assert r.status is RequestStatus.CANCELLED

    def test_validates_config(self):
        q = AdmissionQueue(capacity=4)
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(q, max_batch_size=0)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------
class TestBackends:
    def test_folding_concurrency_from_table1(self):
        assert folding_concurrency(table1_folding("n-cnv")) == 3  # 9 MVTUs
        assert folding_concurrency(table1_folding("u-cnv")) == 2  # 8 MVTUs
        tiny = FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1))
        assert folding_concurrency(tiny) == 1

    def test_accelerator_backend_matches_direct_predict(self, tiny_bnn):
        folding = FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1))
        acc = compile_model(tiny_bnn, folding)
        backend = AcceleratorBackend(acc, chunk_size=3)
        images = grid_images(7, hw=8)
        np.testing.assert_array_equal(backend.infer(images), acc.predict(images))
        assert backend.max_concurrency == 1
        assert backend.modelled_batch_seconds(8) > backend.modelled_batch_seconds(1)

    def test_running_server_keeps_the_cores(self, tiny_bnn, monkeypatch):
        # While a server's workers own the cores, a large batch run from
        # another thread stays on that thread: one new plan, no shards.
        from repro.runtime import shards

        monkeypatch.setattr(shards, "host_cores", lambda: 2)
        folding = FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1))
        acc = compile_model(tiny_bnn, folding)
        images = grid_images(32, hw=8)
        expected = acc.run(images, ExecutionConfig(use_plan=False))
        compiled = []
        get = acc.plans.get

        def spy(batch_size):
            plan, hit = get(batch_size)
            if not hit:
                compiled.append((batch_size, threading.get_ident()))
            return plan, hit

        monkeypatch.setattr(acc.plans, "get", spy)
        with InferenceServer.from_accelerator(acc):
            np.testing.assert_array_equal(acc.run(images), expected)
        assert compiled == [(32, threading.get_ident())]
        compiled.clear()
        acc.run(images)  # the cores are free again: one plan per shard
        assert sorted(n for n, _ in compiled) == [16, 16]
        assert len({ident for _, ident in compiled}) == 2


# ---------------------------------------------------------------------------
# worker pool (stub backends)
# ---------------------------------------------------------------------------
def serve_with(backend, config=None, n=8, **submit_kwargs):
    """Spin up a server on a stub backend, push n requests, return handles."""
    server = InferenceServer(backend, config or ServingConfig(
        max_batch_size=4, queue_capacity=64, num_workers=2
    ))
    rng = np.random.default_rng(0)
    with server:
        handles = [
            server.submit(
                rng.random((4, 4, 3)).astype(np.float32), **submit_kwargs
            )
            for _ in range(n)
        ]
        statuses = [h.wait(timeout=10.0) for h in handles]
    return server, handles, statuses


class TestWorkerPoolAndServer:
    def test_all_requests_complete(self):
        stub = StubBackend()
        server, handles, statuses = serve_with(stub)
        assert statuses == [RequestStatus.COMPLETED] * len(handles)
        assert all(0 <= h.result() <= 3 for h in handles)
        assert all(h.backend_name == "stub" for h in handles)
        assert server.stats().completed == len(handles)

    def test_all_backends_failing_resolves_failed(self):
        # The one backend raising, or answering with the wrong number of
        # labels, fails every request of its batch with the reason; the
        # worker threads survive and keep taking batches.
        for stub, reason in (
            (StubBackend(name="bad", fail=True),
             "stub backend configured to fail"),
            (StubBackend(name="short", short=True),
             "returned 3 labels for a batch of 4"),
        ):
            server = InferenceServer(stub, ServingConfig(
                max_batch_size=4, queue_capacity=64, num_workers=2
            ))
            img = np.zeros((4, 4, 3), dtype=np.float32)
            handles = [server.submit(img) for _ in range(8)]
            with server:
                statuses = [h.wait(timeout=10.0) for h in handles]
                workers = next(
                    p for p in server.health().probes if p.name == "workers"
                )
                assert workers.detail == "2/2 worker threads alive"
                after = server.submit(img)
                assert after.wait(timeout=10.0) is RequestStatus.FAILED
            assert statuses == [RequestStatus.FAILED] * len(handles)
            for handle in handles:
                with pytest.raises(
                    RequestNotCompleted,
                    match=f"backend '{stub.name}' failed: {reason}",
                ):
                    handle.result()
            stats = server.stats()
            assert stats.failed == len(handles) + 1
            assert stats.completed == 0
            assert stats.counters["backend_errors"] >= 1

    def test_per_request_timeout_fires(self):
        # One slow worker thread: the first batch occupies it long enough
        # for the second submission's 30 ms deadline to expire in-queue.
        slow = StubBackend(delay_s=0.2, max_concurrency=1)
        config = ServingConfig(
            max_batch_size=1, queue_capacity=8, num_workers=1
        )
        server = InferenceServer(slow, config)
        img = np.zeros((4, 4, 3), dtype=np.float32)
        with server:
            blocker = server.submit(img)
            doomed = server.submit(img, timeout_s=0.03)
            assert blocker.wait(timeout=5.0) is RequestStatus.COMPLETED
            assert doomed.wait(timeout=5.0) is RequestStatus.TIMED_OUT
        with pytest.raises(RequestNotCompleted, match="deadline"):
            doomed.result()
        assert server.stats().timed_out == 1

    def test_queue_full_rejects_explicitly(self):
        slow = StubBackend(delay_s=0.3, max_concurrency=1)
        config = ServingConfig(
            max_batch_size=1, queue_capacity=2,
            num_workers=1, allow_shedding=False,
        )
        server = InferenceServer(slow, config)
        img = np.zeros((4, 4, 3), dtype=np.float32)
        with server:
            handles = [server.submit(img) for _ in range(8)]
            rejected = [
                h for h in handles if h.status is RequestStatus.REJECTED
            ]
            assert rejected, "overflow submissions must be rejected immediately"
            assert all("queue_full" in h.detail for h in rejected)
            for h in handles:
                h.wait(timeout=10.0)
        stats = server.stats()
        assert stats.rejected == len(rejected)
        assert stats.completed == len(handles) - len(rejected)

    def test_priority_shedding_under_overload(self):
        slow = StubBackend(delay_s=0.3, max_concurrency=1)
        config = ServingConfig(
            max_batch_size=1, queue_capacity=2, num_workers=1
        )
        server = InferenceServer(slow, config)
        img = np.zeros((4, 4, 3), dtype=np.float32)
        with server:
            blocker = server.submit(img)  # occupies the worker
            deadline = time.monotonic() + 5.0
            while (
                blocker.status is RequestStatus.PENDING
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)  # wait until the worker holds the blocker
            low = [server.submit(img, priority=0) for _ in range(2)]
            vip = server.submit(img, priority=9)
            assert vip.status is not RequestStatus.REJECTED
            shed = [h for h in low if h.wait(timeout=10.0) is RequestStatus.SHED]
            assert len(shed) == 1
            assert vip.wait(timeout=10.0) is RequestStatus.COMPLETED
        assert server.stats().shed == 1

    def test_batch_histogram_and_wait_metrics(self):
        stub = StubBackend()
        server, handles, _ = serve_with(stub, n=12)
        stats = server.stats()
        assert sum(size * n for size, n in stats.batch_histogram.items()) == 12
        assert stats.mean_batch_size >= 1.0
        assert "p95" in stats.latency_ms and "p50" in stats.queue_wait_ms
        assert stats.qps > 0
        report = stats.report()
        assert "12 submitted" in report and "batches" in report

    def test_distribution_empty_and_single_windows(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        stats = registry.snapshot()
        # Empty windows render no percentiles at all, not zeros.
        assert stats.latency_ms == {} and stats.queue_wait_ms == {}
        registry.observe_completion(0.004)
        registry.observe_queue_wait(0.002)
        stats = registry.snapshot()
        # One observation: every percentile collapses onto that value.
        for key in ("p50", "p95", "p99", "mean"):
            assert stats.latency_ms[key] == pytest.approx(4.0)
            assert stats.queue_wait_ms[key] == pytest.approx(2.0)

    def test_report_with_zero_completions(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        registry.increment("submitted", 3)
        registry.increment("rejected", 3)
        clock.advance(2.0)
        stats = registry.snapshot(queue_depth=1)
        assert stats.qps == 0.0
        assert stats.uptime_s == pytest.approx(2.0)
        assert stats.mean_batch_size == 0.0
        report = stats.report()
        assert "3 submitted" in report and "0 completed" in report
        # no latency/batch lines without observations
        assert "latency ms" not in report and "batches" not in report

    def test_qps_over_wrapped_window(self):
        # More completions than the window holds: QPS must reflect the
        # surviving (most recent) marks, not the lifetime count.
        clock = FakeClock()
        registry = MetricsRegistry(window=4, clock=clock)
        for _ in range(10):
            clock.advance(1.0)
            registry.observe_completion(0.001)
        stats = registry.snapshot()
        # 4 retained marks spanning 3 seconds -> 1 completion/s.
        assert stats.qps == pytest.approx(1.0)
        assert stats.completed == 10  # the counter, unlike the window, is lifetime

    def test_qps_single_completion_uses_uptime(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        clock.advance(4.0)
        registry.observe_completion(0.001)
        stats = registry.snapshot()
        assert stats.qps == pytest.approx(1.0 / 4.0)

    def test_sync_predict_roundtrip(self):
        stub = StubBackend()
        server = InferenceServer(stub, ServingConfig(
            max_batch_size=8, queue_capacity=32
        ))
        images = np.random.default_rng(3).random((5, 4, 4, 3)).astype(np.float32)
        with server:
            labels = server.predict(images)
        expected = (np.round(images.mean(axis=(1, 2, 3)) * 1000).astype(int)) % 4
        np.testing.assert_array_equal(labels, expected)

    def test_stop_rejects_undrained_requests(self):
        stub = StubBackend(delay_s=0.05, max_concurrency=1)
        server = InferenceServer(stub, ServingConfig(
            max_batch_size=1, queue_capacity=64, num_workers=1
        ))
        img = np.zeros((4, 4, 3), dtype=np.float32)
        server.start()
        handles = [server.submit(img) for _ in range(20)]
        server.stop(drain=False, timeout=5.0)
        statuses = {h.wait(timeout=5.0) for h in handles}
        assert statuses <= {RequestStatus.COMPLETED, RequestStatus.REJECTED}
        assert RequestStatus.REJECTED in statuses  # undrained tail rejected
        # no handle left unresolved
        assert all(h.done for h in handles)

    def test_submit_after_stop_is_rejected(self):
        server, _, _ = serve_with(StubBackend(), n=1)
        handle = server.submit(np.zeros((4, 4, 3), dtype=np.float32))
        assert handle.status is RequestStatus.REJECTED
        assert "shutting_down" in handle.detail

    def test_invalid_image_raises_eagerly(self):
        # "Eagerly" is at submit: the handle comes back already REJECTED
        # with the contract's reason instead of submit raising.
        server = InferenceServer(StubBackend())
        for bad, reason in (
            (np.zeros((4, 4), np.float32), "must be one"),
            (np.zeros((2, 4, 4, 3), np.float32), "one image, got 2"),
            (np.full((4, 4, 3), 2, np.float64), r"\[0, 1\]"),
            (np.zeros((4, 4, 3), np.complex64), "neither integer"),
        ):
            handle = server.submit(bad)
            assert handle.status is RequestStatus.REJECTED
            assert RejectionReason.INVALID_INPUT.value in handle.detail
            assert re.search(reason, handle.detail)
        assert server.stats().rejected == 4

    def test_malformed_image_fails_its_batch_not_the_worker(self):
        # A wrong-shape tile is rejected at submit, so it never reaches
        # np.stack: its batch-mates complete and the workers survive.
        config = ServingConfig(max_batch_size=32, num_workers=2)
        server = InferenceServer(StubBackend(), config)
        good = np.zeros((4, 4, 3), dtype=np.float32)
        # Queued before start, so the first worker takes all 17 at once.
        handles = [server.submit(good) for _ in range(16)]
        handles.append(server.submit(np.zeros((2, 2, 3), dtype=np.float32)))
        with server:
            handles[-1].wait(timeout=10.0)
            statuses = [h.wait(timeout=1.0) for h in handles]
            assert RequestStatus.RUNNING not in statuses
            assert RequestStatus.PENDING not in statuses
            assert statuses[-1] is RequestStatus.REJECTED
            assert "does not match" in handles[-1].detail
            assert statuses[:-1] == [RequestStatus.COMPLETED] * 16
            workers = next(p for p in server.health().probes if p.name == "workers")
            assert workers.detail == "2/2 worker threads alive"
            after = server.submit(good)
            assert after.wait(timeout=10.0) is RequestStatus.COMPLETED
        assert server.stats().failed == 0

    def test_config_type_hints_resolve(self):
        hints = typing.get_type_hints(ServingConfig)
        assert hints["bucket_sizes"] == Optional[Tuple[int, ...]]
        assert len(dataclasses.fields(ServingConfig)) == 6
        assert "bucket_sizes" in typing.get_type_hints(ExecutionConfig)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServingConfig(max_batch_size=0)
        with pytest.raises(ValueError, match="queue_capacity"):
            ServingConfig(queue_capacity=-1)
        with pytest.raises(ValueError, match="default_timeout_s"):
            ServingConfig(default_timeout_s=0.0)


# ---------------------------------------------------------------------------
# thread-safety of the shared Stopwatch (serving metrics share one)
# ---------------------------------------------------------------------------
class TestStopwatchThreadSafety:
    def test_concurrent_sections_lose_no_counts(self):
        sw = Stopwatch()
        n_threads, n_iter = 8, 200

        def hammer():
            for _ in range(n_iter):
                with sw.section("shared"):
                    pass
                sw.add("manual", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sw.counts["shared"] == n_threads * n_iter
        assert sw.counts["manual"] == n_threads * n_iter
        assert sw.totals["manual"] == pytest.approx(n_threads * n_iter * 0.001)

    def test_add_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Stopwatch().add("x", -1.0)

    def test_snapshot_is_a_copy(self):
        sw = Stopwatch()
        sw.add("a", 1.0)
        totals, counts = sw.snapshot()
        totals["a"] = 99.0
        assert sw.totals["a"] == 1.0
        assert counts == {"a": 1}


# ---------------------------------------------------------------------------
# chunked prediction (the serving worker relies on it)
# ---------------------------------------------------------------------------
class TestChunkedPrediction:
    def test_classifier_chunked_matches_unchunked(self, trained_tiny_classifier, tiny_splits):
        images = tiny_splits.test.images[:17]
        np.testing.assert_array_equal(
            trained_tiny_classifier.predict(images, chunk_size=4),
            trained_tiny_classifier.predict(images, chunk_size=1024),
        )

    def test_accelerator_chunked_matches_unchunked(self, tiny_bnn):
        folding = FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1))
        acc = compile_model(tiny_bnn, folding)
        images = grid_images(9, hw=8)
        np.testing.assert_array_equal(
            acc.predict(images, chunk_size=2), acc.predict(images)
        )
        np.testing.assert_array_equal(
            acc.run(images, ExecutionConfig(chunk_size=4)), acc.run(images)
        )

    def test_accelerator_chunk_validation(self, tiny_bnn):
        folding = FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1))
        acc = compile_model(tiny_bnn, folding)
        images = grid_images(3, hw=8)
        with pytest.raises(ValueError, match="chunk_size"):
            acc.predict(images, chunk_size=0)
        with pytest.raises(ValueError, match="return_bits"):
            acc.run(images, ExecutionConfig(chunk_size=2), return_bits=True)


# ---------------------------------------------------------------------------
# end-to-end smoke with a trained model
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_served_labels_match_direct_predict(self, trained_tiny_classifier):
        acc = trained_tiny_classifier.deploy()
        tiles = face_tile_pool(6, rng=11)
        expected = acc.predict(tiles)
        config = ServingConfig(
            max_batch_size=8, queue_capacity=32, num_workers=2
        )
        with InferenceServer.from_accelerator(acc, config) as server:
            labels = server.predict(tiles, timeout=60.0)
            stats = server.stats()
        np.testing.assert_array_equal(labels, expected)
        assert server.backends[0].name == f"accelerator:{acc.name}"
        assert stats.completed == len(tiles)
        assert stats.rejected == 0

    def test_open_loop_run_is_deterministically_seeded(self, trained_tiny_classifier):
        acc = trained_tiny_classifier.deploy()
        tiles = face_tile_pool(4, rng=11)
        served_classes = set(acc.predict(tiles).tolist())
        config = ServingConfig(
            max_batch_size=8, queue_capacity=64, num_workers=2
        )
        offered = []
        for _ in range(2):
            with InferenceServer.from_accelerator(acc, config) as server:
                result = run_open_loop(
                    server, tiles, rate_hz=150.0, duration_s=0.4, rng=5
                )
            offered.append(result.offered)
            assert result.completed == result.offered
            assert set(result.labels) <= served_classes
        assert offered[0] == offered[1]  # arrival process is seed-determined


# ---------------------------------------------------------------------------
# one poisoned request among good ones, on the thread and process backends
# ---------------------------------------------------------------------------
#: Each bad image and a fragment of the contract's reason for it.
POISON_CASES = {
    "nan": "finite",
    "inf": "finite",
    "-inf": "finite",
    "1.5": r"\[0, 1\]",
    "-0.01": r"\[0, 1\]",
    "shape": "does not match",
    "rank": "must be one",
}


def poisoned(case: str, tile: np.ndarray) -> np.ndarray:
    if case == "shape":
        return np.zeros((16, 16, 3), np.float32)
    if case == "rank":
        return np.zeros((32, 32), np.float32)
    bad = tile.copy()
    bad[3, 5, 1] = float(case)
    return bad


@pytest.fixture(scope="module")
def poison_setup():
    model = make_tiny_bnn(input_hw=32, seed=5)
    randomize_bn_stats(model, seed=5)
    model.eval()
    acc = compile_model(model, FoldingConfig(pe=(1,) * 4, simd=(1,) * 4))
    tiles = face_tile_pool(16, rng=7)
    return acc, tiles, acc.predict(tiles)


@pytest.mark.parametrize("backend", [
    "thread", pytest.param("process", marks=pytest.mark.parallel),
])
@pytest.mark.parametrize("case", sorted(POISON_CASES))
def test_poisoned_request_is_rejected_alone(poison_setup, backend, case):
    acc, tiles, expected = poison_setup
    execution = (
        ExecutionConfig(isolation="process", workers=1)
        if backend == "process" else None
    )
    server = InferenceServer.from_accelerator(
        acc, ServingConfig(max_batch_size=32, num_workers=2),
        execution=execution,
    )
    # Queued before start, so the first worker takes the good 16 at once.
    handles = [server.submit(t) for t in tiles]
    bad = server.submit(poisoned(case, tiles[0]))
    assert bad.status is RequestStatus.REJECTED
    assert bad.detail.startswith(RejectionReason.INVALID_INPUT.value)
    assert re.search(POISON_CASES[case], bad.detail)

    def workers_alive():
        return next(
            p.detail for p in server.health().probes if p.name == "workers"
        )

    with server:
        alive = workers_alive()
        assert [h.wait(timeout=60.0) for h in handles] == (
            [RequestStatus.COMPLETED] * len(tiles)
        )
        assert [h.result() for h in handles] == expected.tolist()
        assert workers_alive() == alive == "2/2 worker threads alive"
        if backend == "process":
            assert server.backends[0].pool.alive_workers() == 1
    stats = server.stats()
    assert (stats.rejected, stats.completed, stats.failed) == (1, 16, 0)


# ---------------------------------------------------------------------------
# soak (excluded from tier-1 via the `slow` marker)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestSoak:
    def test_sustained_overload_stays_bounded(self):
        """Minutes-scale invariant, compressed: under 4x-saturation open-loop
        traffic the queue depth never exceeds its capacity, every request
        reaches a terminal state, and the server shuts down cleanly."""
        stub = StubBackend(delay_s=0.002, max_concurrency=2)
        config = ServingConfig(
            max_batch_size=8, queue_capacity=16, num_workers=2
        )
        server = InferenceServer(stub, config)
        rng = np.random.default_rng(0)
        images = rng.random((8, 4, 4, 3)).astype(np.float32)
        handles, max_depth = [], 0
        with server:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                handles.append(server.submit(images[len(handles) % 8]))
                max_depth = max(max_depth, server.queue_depth)
                time.sleep(0.0005)  # ~2000 req/s offered
            for h in handles:
                h.wait(timeout=30.0)
        assert max_depth <= config.queue_capacity
        assert all(h.done for h in handles)
        stats = server.stats()
        outcomes = stats.completed + stats.rejected + stats.shed
        assert outcomes == len(handles)
        assert stats.completed > 0
