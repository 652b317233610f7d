"""Process-parallel planned inference (PR 9).

Locks the tentpole's contract:

1. batch-shape bucketing is sound — ``bucket_for`` only ever answers a
   configured geometry (hypothesis property), padding never changes the
   valid rows' logits, and bucketed traffic keeps the per-worker plan
   LRU from ever evicting;
2. the multi-process pool is bit-exact against the single-process
   planned path for every Table I prototype — logits (the PR3 golden
   capture), labels and ``return_bits`` traces — also when forked after
   the planned engine sharded a batch over helper threads;
3. a SIGKILLed worker loses no accepted request: orphaned slots are
   requeued to a respawned worker and the pool reports healthy again;
4. the per-worker zero-allocation steady state survives the move into
   worker processes (``alloc_check`` runs the tracemalloc gate *inside*
   each worker);
5. ``compare_to_best`` refuses to gate throughput across runs recorded
   on hosts with different CPU counts.
"""

import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import build_architecture, table1_folding
from repro.hw.compiler import FoldingConfig, compile_model
from repro.hw.plan import PlanCache
from repro.parallel import (
    ProcessPool,
    RingSpec,
    SharedArena,
    ShmRing,
    bucket_for,
    default_buckets,
    host_info,
    logical_cpu_count,
    pad_to_bucket,
    physical_cpu_count,
    recommended_workers,
    validate_buckets,
)
from repro.serving import (
    InferenceServer,
    ProcessPoolBackend,
    ServingConfig,
)
from repro.runtime import ExecutionConfig
from repro.testing import (
    make_tiny_bnn,
    randomize_bn_stats,
    transient_budget_bytes,
)

REFERENCE = ExecutionConfig(use_plan=False)

PROTOTYPES = ("cnv", "n-cnv", "u-cnv")

# Same golden capture as test_hw_plan / test_hw_packed_datapath (seed
# batch below): the pool must not move a logit either.
GOLDEN_LOGITS = {
    "cnv": [[-54, 28, -8, 26], [-8, 34, 22, 16], [0, -2, -30, 0], [8, 30, -18, 4]],
    "n-cnv": [[-8, -6, 2, 30], [-2, -8, -8, -8], [-10, 12, -4, -16], [-4, -6, -2, 6]],
    "u-cnv": [[-20, 6, 4, -4], [-8, -2, 4, -4], [-24, -14, -8, 0], [-6, 4, 2, -10]],
}


def build_zoo_accelerator(name: str):
    model = build_architecture(name, rng=0)
    randomize_bn_stats(model)
    model.eval()
    return compile_model(model, table1_folding(name), name=name)


def build_tiny_accelerator():
    model = make_tiny_bnn(seed=3)
    randomize_bn_stats(model, seed=4)
    model.eval()
    return compile_model(
        model, FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1)), name="tiny"
    )


@pytest.fixture(scope="module")
def tiny_acc():
    return build_tiny_accelerator()


@pytest.fixture(scope="module")
def tiny_pool(tiny_acc):
    pool = ProcessPool(tiny_acc, num_workers=2, max_batch=8, buckets=(2, 4, 8))
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def seed_batch():
    return np.random.default_rng(1234).random((4, 32, 32, 3)).astype(np.float32)


@pytest.fixture(scope="module")
def tiny_batch():
    return np.random.default_rng(7).random((5, 8, 8, 3)).astype(np.float32)


# ---------------------------------------------------------------------------
# bucketing
# ---------------------------------------------------------------------------
class TestBucketing:
    def test_default_buckets_are_powers_of_two_plus_max(self):
        assert default_buckets(32) == (1, 2, 4, 8, 16, 32)
        assert default_buckets(12) == (1, 2, 4, 8, 12)
        assert default_buckets(1) == (1,)

    def test_validate_normalises_and_checks_coverage(self):
        assert validate_buckets([8, 2, 2, 4], 8) == (2, 4, 8)
        with pytest.raises(ValueError, match="does not cover"):
            validate_buckets([2, 4], 8)
        with pytest.raises(ValueError, match="positive"):
            validate_buckets([0, 4], 4)
        with pytest.raises(ValueError, match="empty"):
            validate_buckets([], 4)

    def test_bucket_for_picks_smallest_cover(self):
        assert bucket_for(3, (2, 4, 8)) == 4
        assert bucket_for(4, (2, 4, 8)) == 4
        assert bucket_for(5, (2, 4, 8)) == 8
        with pytest.raises(ValueError, match="no bucket"):
            bucket_for(9, (2, 4, 8))

    def test_pad_to_bucket_zero_pads_and_skips_copy_on_boundary(self):
        images = np.ones((3, 4, 4, 3), dtype=np.float32)
        padded, n_valid = pad_to_bucket(images, (4, 8))
        assert padded.shape[0] == 4 and n_valid == 3
        assert np.all(padded[3] == 0) and np.array_equal(padded[:3], images)
        on_boundary, n = pad_to_bucket(padded, (4, 8))
        assert on_boundary is padded and n == 4  # no copy

    @given(
        n=st.integers(min_value=1, max_value=64),
        raw=st.lists(
            st.integers(min_value=1, max_value=64), min_size=1, max_size=8
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_batcher_only_requests_configured_geometries(self, n, raw):
        """The bucketed batcher's advertised geometry is always one of
        the configured buckets — the property the plan caches rely on."""
        from repro.serving.batcher import MicroBatcher
        from repro.serving.admission import AdmissionQueue

        max_batch = 64
        buckets = validate_buckets(raw + [max_batch], max_batch)
        batcher = MicroBatcher(
            AdmissionQueue(capacity=4), max_batch_size=max_batch,
            buckets=buckets,
        )
        bucket = batcher.bucket_for(n)
        assert bucket in buckets
        assert bucket >= n
        # minimality: no configured bucket between n and the answer
        assert all(b < n or b >= bucket for b in buckets)

    def test_unbucketed_batcher_advertises_nothing(self):
        from repro.serving.batcher import MicroBatcher
        from repro.serving.admission import AdmissionQueue

        batcher = MicroBatcher(AdmissionQueue(capacity=4), max_batch_size=8)
        assert batcher.bucket_for(3) is None

    def test_padding_does_not_change_valid_logits(self, tiny_acc, tiny_batch):
        plan5, _ = tiny_acc.plans.get(5)
        ref = plan5.execute(tiny_batch)
        padded, n_valid = pad_to_bucket(tiny_batch, (8,))
        plan8, _ = tiny_acc.plans.get(8)
        assert np.array_equal(plan8.execute(padded)[:n_valid], ref)


# ---------------------------------------------------------------------------
# plan-cache LRU under mixed batch shapes
# ---------------------------------------------------------------------------
class TestPlanCacheLRU:
    def test_mixed_shapes_churn_a_small_cache(self, tiny_acc):
        cache = PlanCache(tiny_acc, capacity=2)
        for size in (2, 4, 6):
            _, hit = cache.get(size)
            assert not hit
        # 2 was evicted by 6 (LRU, capacity 2): re-requesting recompiles.
        _, hit = cache.get(2)
        assert not hit
        stats = cache.stats()
        assert stats["misses"] == 4 and stats["plans"] == 2

    def test_bucketing_collapses_shapes_below_capacity(self, tiny_acc):
        buckets = (2, 4, 8)
        cache = PlanCache(tiny_acc, capacity=len(buckets))
        sizes = [1, 2, 3, 4, 5, 6, 7, 8, 3, 5, 1, 8]
        for size in sizes:
            cache.get(bucket_for(size, buckets))
        stats = cache.stats()
        # every shape after the three warm-up compiles is a hit — no
        # eviction ever happens with bucketed traffic
        assert stats["plans"] == len(buckets)
        assert stats["misses"] == len(buckets)
        assert stats["hits"] == len(sizes) - len(buckets)

    def test_prewarm_compiles_each_bucket_once(self, tiny_acc):
        cache = PlanCache(tiny_acc, capacity=4)
        cache.prewarm((2, 4, 8))
        stats = cache.stats()
        assert stats["plans"] == 3 and stats["misses"] == 3
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(tiny_acc, capacity=2).prewarm((1, 2, 4))


# ---------------------------------------------------------------------------
# host introspection
# ---------------------------------------------------------------------------
class TestHost:
    def test_counts_are_sane(self):
        logical = logical_cpu_count()
        assert logical >= 1
        physical = physical_cpu_count()
        assert physical is None or 1 <= physical <= logical
        assert 1 <= recommended_workers() <= 4
        assert recommended_workers(cap=2) <= 2

    def test_host_info_shape(self):
        info = host_info()
        assert set(info) == {"cpu_count", "logical_cpus", "physical_cores"}
        assert info["logical_cpus"] >= 1


# ---------------------------------------------------------------------------
# shared-memory primitives
# ---------------------------------------------------------------------------
class TestSharedMemory:
    def test_arena_views_are_aligned_and_shared(self):
        arena = SharedArena(1 << 16)
        try:
            a = arena.get("t", "a", (100,), np.float64)
            b = arena.get("t", "b", (10, 10), np.int64)
            assert a.ctypes.data % 64 == 0
            assert b.ctypes.data % 64 == 0
            a[:] = np.arange(100, dtype=np.float64)
            # a second attachment over the same segment sees the data
            other = SharedArena(0, name=arena.name, create=False)
            try:
                twin = other.get("t", "a", (100,), np.float64)
                assert np.array_equal(twin, a)
            finally:
                del twin
                other.close()
        finally:
            del a, b
            arena.close(unlink=True)

    def test_arena_overflow_falls_back_to_heap(self):
        arena = SharedArena(1 << 10)
        try:
            arena.get("t", "fits", (8,), np.float64)
            big = arena.get("t", "big", (1 << 12,), np.float64)
            big[:] = 1.0  # writable heap fallback
            assert arena.overflow_bytes >= (1 << 12) * 8
        finally:
            del big
            arena.close(unlink=True)

    def test_ring_regions_are_disjoint_and_aligned(self):
        spec = RingSpec(
            slots=3, max_batch=4, input_shape=(8, 8, 3), num_classes=4
        )
        assert spec.input_region % 64 == 0
        assert spec.stride % 64 == 0
        assert spec.total_bytes == spec.slots * spec.stride
        ring = ShmRing(spec)
        try:
            views = []
            for slot in range(spec.slots):
                inp = ring.input_view(slot, 4, "float32")
                out = ring.output_view(slot, 4)
                inp[:] = float(slot)
                out[:] = slot
                views.append((inp, out))
            for slot, (inp, out) in enumerate(views):
                assert np.all(inp == float(slot))
                assert np.all(out == slot)
        finally:
            del views, inp, out
            ring.close(unlink=True)


# ---------------------------------------------------------------------------
# the pool: bit-exactness (acceptance criterion)
# ---------------------------------------------------------------------------
@pytest.mark.parallel
class TestPoolBitExact:
    @pytest.mark.parametrize("arch", PROTOTYPES)
    def test_zoo_logits_labels_and_bits_match_single_process(
        self, arch, seed_batch
    ):
        acc = build_zoo_accelerator(arch)
        plan, _ = acc.plans.get(4)
        ref_logits, ref_bits = plan.execute(seed_batch, return_bits=True)
        assert np.array_equal(ref_logits, np.array(GOLDEN_LOGITS[arch]))
        with ProcessPool(acc, num_workers=1, max_batch=4, buckets=(4,)) as pool:
            task = pool.submit(seed_batch, return_bits=True)
            assert np.array_equal(task.result(timeout=120.0), ref_logits)
            bits = task.bits()
            assert len(bits) == len(ref_bits)
            for got, want in zip(bits, ref_bits):
                assert np.array_equal(got, want)
            assert np.array_equal(
                pool.predict(seed_batch), ref_logits.argmax(axis=1)
            )

    def test_uint8_and_ragged_batches_round_trip(self, tiny_acc, tiny_pool):
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, size=(13, 8, 8, 3), dtype=np.uint8)
        # 13 images chunk as 8 + 5 -> buckets 8 and 8-padded
        assert np.array_equal(
            tiny_pool.execute(images), tiny_acc.run(images, REFERENCE)
        )

    def test_pool_forked_after_a_sharded_run_is_bit_exact(
        self, tiny_acc, monkeypatch
    ):
        # The workers fork from a parent whose shard team has a helper
        # thread; they must neither inherit it nor hang on it.
        from repro.runtime import shards

        monkeypatch.setattr(shards, "host_cores", lambda: 2)
        rng = np.random.default_rng(17)
        images = rng.random((16, 8, 8, 3)).astype(np.float32)
        ref = tiny_acc.run(images, REFERENCE)
        assert shards.shard_count(len(images)) == 2
        assert np.array_equal(tiny_acc.run(images), ref)
        with ProcessPool(tiny_acc, num_workers=1, max_batch=16,
                         buckets=(16,)) as pool:
            assert np.array_equal(pool.execute(images), ref)

    def test_accelerator_predict_process_mode(self, tiny_acc):
        rng = np.random.default_rng(13)
        images = rng.random((6, 8, 8, 3)).astype(np.float32)
        ref = tiny_acc.predict(images)
        try:
            got = tiny_acc.predict(
                images,
                execution=ExecutionConfig(isolation="process", workers=1),
            )
            assert np.array_equal(got, ref)
        finally:
            tiny_acc.close_pool()


# ---------------------------------------------------------------------------
# the pool: telemetry, stats, allocation gate
# ---------------------------------------------------------------------------
@pytest.mark.parallel
class TestPoolObservability:
    def test_plan_stats_aggregate_per_worker(self, tiny_pool, tiny_batch):
        tiny_pool.execute(tiny_batch)
        stats = tiny_pool.plan_stats()
        assert set(stats) == {"workers", "total", "pool"}
        assert len(stats["workers"]) == 2
        assert stats["total"]["plans"] == sum(
            w["plans"] for w in stats["workers"].values()
        )
        # every worker prewarmed all three buckets at startup
        for w in stats["workers"].values():
            assert w["plans"] == 3
            assert w["arena_overflow_bytes"] == 0

    def test_render_pool_bill(self, tiny_pool):
        from repro.hw.buffers import render_pool_bill

        text = render_pool_bill(tiny_pool.plan_stats())
        assert "worker 0" in text and "worker 1" in text
        assert "OVERFLOW" not in text

    def test_spans_are_tagged_by_worker(self, tiny_acc, tiny_batch):
        from repro.telemetry import SpanJournal

        with ProcessPool(
            tiny_acc, num_workers=1, max_batch=8, buckets=(8,), trace_sample=1
        ) as pool:
            pool.execute(tiny_batch)
            journal = SpanJournal()
            spans = pool.drain_spans(journal)
        assert spans, "tracing pool produced no spans"
        assert all(s["attributes"].get("worker") == 0 for s in spans)
        assert len(journal.snapshot()) == len(spans)

    def test_workers_allocate_nothing_in_steady_state(self, tiny_pool):
        reports = tiny_pool.alloc_check(batch=4, iters=10)
        assert len(reports) == 2
        for wid, report in reports.items():
            assert report.get("error") is None, report
            assert report["per_call_blocks"] == 0, (
                f"worker {wid} allocates in steady state: {report}"
            )
            transient = report["peak_transient_bytes"]
            assert transient <= transient_budget_bytes(), (
                f"worker {wid} allocates per-call temporaries: {report}"
            )


# ---------------------------------------------------------------------------
# the pool: fault tolerance (acceptance criterion)
# ---------------------------------------------------------------------------
@pytest.mark.parallel
class TestPoolFaults:
    def test_sigkilled_worker_loses_no_accepted_request(self, tiny_acc):
        rng = np.random.default_rng(23)
        images = rng.random((4, 8, 8, 3)).astype(np.float32)
        plan, _ = tiny_acc.plans.get(4)
        ref = plan.execute(images)
        events = []
        pool = ProcessPool(
            tiny_acc, num_workers=2, max_batch=4, buckets=(4,),
            on_event=lambda name, n: events.append(name),
        )
        try:
            tasks = [pool.submit(images) for _ in range(8)]
            # murder one worker while its tasks are in flight
            victim = pool._procs[0]
            victim.kill()
            for task in tasks:
                assert np.array_equal(task.result(timeout=120.0), ref)
            # restart detection is asynchronous (collector heartbeat), so
            # results can all drain before the reaper notices the corpse —
            # wait for the counter rather than sampling it immediately
            deadline = time.monotonic() + 30.0
            while (
                pool.counters["worker_restarts"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert pool.counters["worker_restarts"] >= 1
            assert "pool_worker_restarts" in events
            # recovery within the probe window: both workers alive again
            while not pool.healthy() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.healthy()
            # and the respawned worker serves correctly
            assert np.array_equal(pool.submit(images).result(timeout=120.0), ref)
        finally:
            pool.close()

    def test_submit_after_close_raises(self, tiny_acc):
        pool = ProcessPool(tiny_acc, num_workers=1, max_batch=2, buckets=(2,))
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(np.zeros((2, 8, 8, 3), np.float32))

    def test_oversize_batch_is_rejected(self, tiny_pool):
        with pytest.raises(ValueError):
            tiny_pool.submit(np.zeros((9, 8, 8, 3), np.float32))

    def test_malformed_batch_does_not_leak_a_ring_slot(self, tiny_pool):
        # The engine checks the input contract; a direct caller's wrong
        # shape fails the copy into the slot, which must come back.
        free = len(tiny_pool._free_slots)
        for _ in range(free + 1):
            with pytest.raises(ValueError):
                tiny_pool.submit(np.zeros((2, 5, 5, 3), np.float32))
        assert len(tiny_pool._free_slots) == free


# ---------------------------------------------------------------------------
# serving integration
# ---------------------------------------------------------------------------
@pytest.mark.parallel
@pytest.mark.serving
class TestServingIntegration:
    def test_process_mode_server_pads_and_matches_reference(self, tiny_acc):
        config = ServingConfig(
            max_batch_size=8, num_workers=1,
            bucket_sizes=(4, 8),
        )
        server = InferenceServer.from_accelerator(
            tiny_acc, config, execution=ExecutionConfig(isolation="process")
        )
        rng = np.random.default_rng(31)
        images = rng.random((11, 8, 8, 3)).astype(np.float32)
        ref = tiny_acc.predict(images)
        with server:
            labels = server.predict(images, timeout=120.0)
        assert np.array_equal(np.asarray(labels), ref)
        stats = server.stats()
        assert stats.completed == 11
        # some batch closed off-boundary and was padded up
        assert stats.padded_images > 0

    def test_injected_pool_backend_reports_concurrency(self, tiny_acc):
        pool = ProcessPool(tiny_acc, num_workers=2, max_batch=4, buckets=(4,))
        try:
            backend = ProcessPoolBackend(tiny_acc, pool=pool)
            assert backend.max_concurrency == 2
            assert backend.name == "pool:tiny"
            assert backend.modelled_batch_seconds(4) > 0
        finally:
            pool.close()

    def test_config_rejects_uncovering_buckets(self):
        with pytest.raises(ValueError, match="does not cover"):
            ServingConfig(max_batch_size=16, bucket_sizes=(2, 4))


# ---------------------------------------------------------------------------
# spawn portability: the accelerator pickles without its runtime state
# ---------------------------------------------------------------------------
class TestPickling:
    def test_accelerator_pickles_without_cache_or_pool(self, tiny_acc, tiny_batch):
        ref = tiny_acc.run(tiny_batch, REFERENCE)
        tiny_acc.plans.get(5)  # warm the cache so there is state to drop
        clone = pickle.loads(pickle.dumps(tiny_acc))
        assert clone._plan_cache is None and clone._engines == {}
        assert np.array_equal(clone.run(tiny_batch, REFERENCE), ref)
