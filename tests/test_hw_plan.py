"""Execution plans (PR 8): allocation-free precompiled inference.

Locks the tentpole's contract:

1. a compiled :class:`ExecutionPlan` is bit-exact against the
   interpreted datapath — logits *and* ``return_bits`` traces — for
   every Table I prototype under both input dtypes, and the PR3 golden
   logits still come out identical through the planned ``run``;
2. plan-cache keys invalidate on folding-config or batch-shape change,
   and a stale plan (arena cleared underneath it) is never reused;
3. steady-state planned execution performs zero heap allocations
   (tracemalloc gate over every Table I prototype);
4. the ``hw_plan`` telemetry span behaves.
"""

import copy
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import build_architecture, table1_folding
from repro.hw.compiler import FoldingConfig, compile_model
from repro.hw.plan import (
    ExecutionPlan,
    PlanCache,
    blas_exact_bound,
    measure_steady_state,
    plan_key,
    plan_unsupported_reason,
)
from repro.nn.arena import BufferArena
from repro.runtime import ExecutionConfig
from repro.testing import randomize_bn_stats

REFERENCE = ExecutionConfig(use_plan=False)

PROTOTYPES = ("cnv", "n-cnv", "u-cnv")

# Same golden capture as test_hw_packed_datapath (pre-PR3 boolean
# datapath, seed batch below): the planned path must not move a logit.
GOLDEN_LOGITS = {
    "cnv": [[-54, 28, -8, 26], [-8, 34, 22, 16], [0, -2, -30, 0], [8, 30, -18, 4]],
    "n-cnv": [[-8, -6, 2, 30], [-2, -8, -8, -8], [-10, 12, -4, -16], [-4, -6, -2, 6]],
    "u-cnv": [[-20, 6, 4, -4], [-8, -2, 4, -4], [-24, -14, -8, 0], [-6, 4, 2, -10]],
}


def build_accelerator(name: str):
    model = build_architecture(name, rng=0)
    randomize_bn_stats(model)
    model.eval()
    return compile_model(model, table1_folding(name), name=name)


@pytest.fixture(scope="module")
def accelerators():
    return {name: build_accelerator(name) for name in PROTOTYPES}


@pytest.fixture(scope="module")
def seed_batch():
    return np.random.default_rng(1234).random((4, 32, 32, 3)).astype(np.float32)


class TestBitExactness:
    @pytest.mark.parametrize("arch", PROTOTYPES)
    def test_logits_match_interpreted(self, accelerators, seed_batch, arch):
        acc = accelerators[arch]
        plan = ExecutionPlan(acc, seed_batch.shape[0])
        np.testing.assert_array_equal(
            plan.execute(seed_batch), acc.run(seed_batch, REFERENCE)
        )

    @pytest.mark.parametrize("arch", PROTOTYPES)
    def test_return_bits_traces_match(self, accelerators, seed_batch, arch):
        acc = accelerators[arch]
        plan = ExecutionPlan(acc, seed_batch.shape[0])
        ref_logits, ref_trace = acc.run(
            seed_batch, REFERENCE, return_bits=True
        )
        logits, trace = plan.execute(seed_batch, return_bits=True)
        np.testing.assert_array_equal(logits, ref_logits)
        assert len(trace) == len(ref_trace)
        for got, want in zip(trace, ref_trace):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("arch", PROTOTYPES)
    def test_integer_input_matches_interpreted(
        self, accelerators, seed_batch, arch
    ):
        acc = accelerators[arch]
        pixels = np.rint(seed_batch.astype(np.float64) * 255).astype(np.uint8)
        plan = ExecutionPlan(acc, pixels.shape[0])
        np.testing.assert_array_equal(
            plan.execute(pixels), acc.run(pixels, REFERENCE)
        )

    @pytest.mark.parametrize("arch", PROTOTYPES)
    def test_golden_logits_through_planned_predict(
        self, accelerators, seed_batch, arch
    ):
        acc = accelerators[arch]
        np.testing.assert_array_equal(
            acc.run(seed_batch),
            np.array(GOLDEN_LOGITS[arch], dtype=np.int64),
        )
        np.testing.assert_array_equal(
            acc.predict(seed_batch),
            np.argmax(GOLDEN_LOGITS[arch], axis=1),
        )

    def test_out_parameter_is_honoured(self, accelerators, seed_batch):
        acc = accelerators["u-cnv"]
        plan, _ = acc.plans.get(seed_batch.shape[0])
        ref = plan.execute(seed_batch)
        out = np.empty_like(ref)
        result = plan.execute(seed_batch, out=out)
        assert result is out
        np.testing.assert_array_equal(out, ref)
        with pytest.raises(ValueError, match="out must be"):
            plan.execute(seed_batch, out=np.empty_like(ref, dtype=np.int32))

    def test_fusion_covers_every_pooled_stage(self, accelerators, seed_batch):
        for arch, acc in accelerators.items():
            plan = ExecutionPlan(acc, 2)
            pooled = sum(1 for s in acc.stages if s.pool is not None)
            assert plan.fused_stages == pooled > 0, arch

    def test_exact_bound_stays_in_float32_range(self, accelerators):
        for acc in accelerators.values():
            for stage in acc.stages:
                assert blas_exact_bound(stage) < 2 ** 24


class TestPlanKey:
    @settings(max_examples=20, deadline=None)
    @given(b1=st.integers(1, 64), b2=st.integers(1, 64))
    def test_key_separates_batch_shapes(self, shared_accelerator, b1, b2):
        k1 = plan_key(shared_accelerator, b1)
        k2 = plan_key(shared_accelerator, b2)
        assert (k1 == k2) == (b1 == b2)

    def test_key_changes_with_folding(self):
        base = build_accelerator("u-cnv")
        folding = table1_folding("u-cnv")
        refolded = FoldingConfig(
            pe=tuple(max(1, p // 2) for p in folding.pe),
            simd=folding.simd,
        )
        assert refolded != folding
        model = build_architecture("u-cnv", rng=0)
        randomize_bn_stats(model)
        model.eval()
        other = compile_model(model, refolded, name="u-cnv-refolded")
        assert plan_key(base, 4) != plan_key(other, 4)
        # ... and the refolded design still plans bit-exactly.
        batch = np.random.default_rng(7).random((4, 32, 32, 3)).astype(
            np.float32
        )
        np.testing.assert_array_equal(
            ExecutionPlan(other, 4).execute(batch),
            other.run(batch, REFERENCE),
        )

    def test_key_is_deterministic(self, shared_accelerator):
        assert plan_key(shared_accelerator, 4) == plan_key(
            shared_accelerator, 4
        )


@pytest.fixture(scope="module")
def shared_accelerator():
    return build_accelerator("u-cnv")


class TestStaleness:
    def test_stale_plan_refuses_to_run(self, seed_batch):
        acc = build_accelerator("u-cnv")
        plan = ExecutionPlan(acc, 4)
        plan.execute(seed_batch)
        plan.arena.clear()
        assert plan.stale
        with pytest.raises(RuntimeError, match="stale execution plan"):
            plan.execute(seed_batch)

    def test_cache_never_reuses_a_stale_plan(self):
        acc = build_accelerator("u-cnv")
        cache = PlanCache(acc)
        plan, hit = cache.get(2)
        assert not hit
        again, hit = cache.get(2)
        assert hit and again is plan
        plan.arena.clear()
        fresh, hit = cache.get(2)
        assert not hit
        assert fresh is not plan
        assert not fresh.stale

    def test_set_arena_rebinds_and_revives(self, seed_batch):
        acc = build_accelerator("u-cnv")
        plan = ExecutionPlan(acc, 4)
        ref = plan.execute(seed_batch)
        plan.arena.clear()
        plan.set_arena(BufferArena())
        assert not plan.stale
        np.testing.assert_array_equal(plan.execute(seed_batch), ref)

    def test_set_arena_rejects_none(self):
        acc = build_accelerator("u-cnv")
        plan = ExecutionPlan(acc, 2)
        with pytest.raises(ValueError, match="arena-less"):
            plan.set_arena(None)

    def test_batch_shape_mismatch_is_rejected(self, seed_batch):
        acc = build_accelerator("u-cnv")
        plan = ExecutionPlan(acc, 2)
        with pytest.raises(ValueError, match="compiled for batch"):
            plan.execute(seed_batch)  # plan is for batch 2, batch has 4


class TestPlanCache:
    def test_lru_eviction_respects_capacity(self):
        acc = build_accelerator("u-cnv")
        cache = PlanCache(acc, capacity=2)
        for batch in (1, 2, 3):
            cache.get(batch)
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["misses"] == 3 and stats["plans"] == 2

    def test_thread_identity_partitions_plans(self):
        acc = build_accelerator("u-cnv")
        cache = PlanCache(acc)
        mine, _ = cache.get(1)
        theirs = {}

        def worker():
            theirs["plan"], theirs["hit"] = cache.get(1)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert not theirs["hit"]
        assert theirs["plan"] is not mine

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(build_accelerator("u-cnv"), capacity=0)

    def test_accelerator_deepcopy_resets_the_cache(self, seed_batch):
        acc = build_accelerator("u-cnv")
        acc.run(seed_batch)  # populate the plan cache
        assert acc.plans.stats()["plans"] == 1
        clone = copy.deepcopy(acc)
        assert clone.plans.stats() == {
            **acc.plans.stats(), "plans": 0, "hits": 0, "misses": 0,
            "arena_bytes": 0,
        }
        np.testing.assert_array_equal(
            clone.run(seed_batch), acc.run(seed_batch)
        )


class TestUnsupportedShapes:
    class _Stage:
        def __init__(self, kind, input_bits, thresholds):
            cfg = type("Cfg", (), {"input_bits": input_bits})()
            self.kind = kind
            self.name = f"{kind}-stub"
            self.mvtu = type(
                "Mvtu", (), {"config": cfg, "thresholds": thresholds}
            )()

    def _acc(self, stages):
        return type("Acc", (), {"stages": stages, "name": "stub"})()

    def test_rejects_non_8bit_entry(self):
        acc = self._acc([self._Stage("conv", 1, object())])
        assert "8-bit conv" in plan_unsupported_reason(acc)

    def test_rejects_unthresholded_middle_stage(self):
        acc = self._acc(
            [
                self._Stage("conv", 8, object()),
                self._Stage("conv", 1, None),
                self._Stage("fc", 1, None),
            ]
        )
        assert "no thresholds" in plan_unsupported_reason(acc)

    def test_rejects_thresholded_final_stage(self):
        acc = self._acc(
            [
                self._Stage("conv", 8, object()),
                self._Stage("fc", 1, object()),
            ]
        )
        assert "un-thresholded fc" in plan_unsupported_reason(acc)

    def test_zoo_is_fully_supported(self, accelerators):
        for acc in accelerators.values():
            assert plan_unsupported_reason(acc) is None


class TestTelemetry:
    def test_hw_plan_span_carries_cache_counters(self, seed_batch):
        from repro.telemetry import SpanJournal, Tracer, activate, deactivate

        acc = build_accelerator("u-cnv")
        journal = SpanJournal()
        activate(Tracer(journal=journal))
        try:
            acc.run(seed_batch)
            acc.run(seed_batch)
        finally:
            deactivate()
        plans = [
            s for s in journal.snapshot() if s.get("kind") == "hw_plan"
        ]
        assert [s["attributes"]["cache_hit"] for s in plans] == [False, True]
        assert plans[-1]["attributes"]["plan_hits"] >= 1
        assert plans[-1]["attributes"]["arena_kib"] > 0
        stage_spans = [
            s for s in journal.snapshot() if s.get("kind") == "hw_stage"
        ]
        assert any(s["attributes"].get("fused") for s in stage_spans)

    def test_summary_aggregates_plan_spans(self, seed_batch):
        from repro.telemetry import SpanJournal, Tracer, activate, deactivate
        from repro.telemetry.summary import summarize_spans

        acc = build_accelerator("u-cnv")
        journal = SpanJournal()
        activate(Tracer(journal=journal))
        try:
            acc.run(seed_batch)
            acc.run(seed_batch)
        finally:
            deactivate()
        summary = summarize_spans(journal.snapshot())
        assert summary.plan is not None
        assert summary.plan.spans == 2
        assert summary.plan.cache_hits == 1
        assert summary.plan.cache_misses == 1
        assert "execution plans: 2 planned batches" in summary.render()

    def test_summary_without_plan_spans_stays_none(self):
        from repro.telemetry.summary import summarize_spans

        summary = summarize_spans([])
        assert summary.plan is None
        assert "execution plans" not in summary.render()


class TestAllocationMeasurement:
    def test_accumulating_function_reports_allocations(self):
        sink = []
        report = measure_steady_state(
            lambda: sink.append(np.empty(4096)), iters=8, warmup=4
        )
        assert report.per_call_blocks >= 1
        assert report.growth_bytes > 0

    @pytest.mark.parametrize("arch", PROTOTYPES)
    def test_steady_state_inference_allocates_nothing(self, arch, seed_batch):
        acc = build_accelerator(arch)
        plan, _ = acc.plans.get(seed_batch.shape[0])
        out = np.empty_like(plan.execute(seed_batch))
        report = measure_steady_state(
            lambda: plan.execute(seed_batch, out=out)
        )
        assert report.per_call_blocks == 0, report
