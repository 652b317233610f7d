"""The runtime engine registry: one config, three engines.

Locks the contract:

1. :class:`ExecutionConfig` is the single validated value naming an
   inference target — bad enums, non-positive sizes and contradictory
   combinations (``workers`` without process isolation) are rejected at
   construction;
2. the registry's resolution rules map every config to exactly one
   registered engine, and ``engine_table`` declares each engine's
   capability flags;
3. a model outside the float32-exact bound is unplannable: the default
   config falls back to the interpreted reference, and the planned and
   process engines refuse it with the reason;
4. ``ServingConfig.bucket_sizes`` rejects unsorted, duplicate and
   non-positive bucket lists eagerly;
5. ``repro engines`` lists every engine with its flags, in table and
   JSON form;
6. the planned engine's shard team is safe to lose a shard on: a
   helper's error reaches the caller after the caller's own shard
   finished, the BLAS hold is released, the team serves the next call,
   concurrent callers stay bit-exact, and a forked child gets a team of
   its own.
"""

import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.hw.compiler import FoldingConfig, compile_model
from repro.runtime import (
    EngineCapabilities,
    EngineSpec,
    ExecutionConfig,
    create_engine,
    engine_names,
    engine_spec,
    engine_table,
    register_engine,
    resolve_engine_name,
    shards,
)
from repro.runtime.engines import Engine, PlannedEngine
from repro.serving import ServingConfig
from repro.testing import make_tiny_bnn, randomize_bn_stats
from repro.utils import blas

ENGINES = ("interpreted", "planned-blas", "process")


def build_tiny_accelerator():
    model = make_tiny_bnn(seed=3)
    randomize_bn_stats(model, seed=4)
    model.eval()
    folding = FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1))
    return compile_model(model, folding, name="tiny")


@pytest.fixture(scope="module")
def tiny_acc():
    return build_tiny_accelerator()


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(42)
    return rng.random((6, 8, 8, 3)).astype(np.float32)


# -- ExecutionConfig validation --------------------------------------------


class TestExecutionConfig:
    def test_defaults_are_valid_and_frozen(self):
        cfg = ExecutionConfig()
        assert cfg.use_plan and cfg.isolation == "none"
        with pytest.raises(AttributeError):
            cfg.use_plan = False
        assert hash(cfg) == hash(ExecutionConfig())

    @pytest.mark.parametrize("kwargs", [
        {"workers": 2},
        {"isolation": "fiber"},
        {"workers": 0},
        {"workers": -2},
        {"chunk_size": 0},
        {"max_batch": -1},
        {"max_batch": 0},
        {"trace_sample": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionConfig(**kwargs)

    def test_rejects_contradictory_process_configs(self):
        with pytest.raises(ValueError, match="use_plan=False"):
            ExecutionConfig(isolation="process", use_plan=False)

    def test_workers_need_process_isolation(self):
        for workers in (1, 2):
            with pytest.raises(ValueError, match="isolation='process'"):
                ExecutionConfig(workers=workers)
        with pytest.raises(ValueError, match="isolation='process'"):
            ExecutionConfig().merged(workers=2)
        assert ExecutionConfig(isolation="process", workers=2).workers == 2

    def test_has_seven_fields(self):
        assert list(ExecutionConfig().describe()) == [
            "use_plan", "isolation", "workers", "chunk_size",
            "bucket_sizes", "max_batch", "trace_sample",
        ]

    def test_bucket_sizes_coerced_to_int_tuple(self):
        cfg = ExecutionConfig(bucket_sizes=[2, 4, 8])
        assert cfg.bucket_sizes == (2, 4, 8)
        assert all(isinstance(b, int) for b in cfg.bucket_sizes)

    def test_merged_applies_only_non_none(self):
        cfg = ExecutionConfig(chunk_size=16)
        merged = cfg.merged(max_batch=4, chunk_size=None)
        assert merged.max_batch == 4 and merged.chunk_size == 16
        assert cfg.merged() is cfg

    def test_describe_is_json_ready(self):
        desc = ExecutionConfig(bucket_sizes=(2, 4)).describe()
        assert desc["bucket_sizes"] == [2, 4]
        json.dumps(desc)  # must not raise


# -- registry + resolution rules -------------------------------------------


class TestRegistry:
    def test_all_three_engines_registered_in_order(self):
        assert engine_names() == ENGINES

    def test_capability_flags(self):
        table = {row["name"]: row["capabilities"] for row in engine_table()}
        assert all(table[name]["bit_exact"] for name in ENGINES)
        assert table["planned-blas"]["zero_alloc"]
        assert not table["interpreted"]["zero_alloc"]
        assert table["process"] == {
            "bit_exact": True,
            "zero_alloc": True,
            "zero_copy_ipc": True,
            "process_isolated": True,
        }

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            engine_spec("warp")

    def test_duplicate_registration_rejected(self):
        spec = engine_spec("interpreted")
        with pytest.raises(ValueError, match="already registered"):
            register_engine(spec)
        assert register_engine(spec, replace=True) is spec

    def test_resolution_rules(self, tiny_acc):
        resolve = resolve_engine_name
        # 1. process isolation
        assert resolve(ExecutionConfig(isolation="process")) == "process"
        assert resolve(
            ExecutionConfig(isolation="process", workers=4), tiny_acc
        ) == "process"
        # 2. the interpreted reference path
        assert resolve(ExecutionConfig(use_plan=False)) == "interpreted"
        assert resolve(
            ExecutionConfig(use_plan=False), tiny_acc
        ) == "interpreted"
        # 3. unplannable models: see TestFloat32ExactBound
        # 4. the planned fast path
        assert resolve(ExecutionConfig()) == "planned-blas"
        assert resolve(ExecutionConfig(), tiny_acc) == "planned-blas"

    def test_create_engine_returns_prepared_protocol_instance(self, tiny_acc):
        engine = create_engine(tiny_acc, ExecutionConfig(use_plan=False))
        assert isinstance(engine, Engine)
        assert engine.name == "interpreted"
        assert engine.capabilities().bit_exact
        assert engine.stats()["engine"] == "interpreted"

    def test_engine_for_caches_per_config(self, tiny_acc):
        a = tiny_acc.engine_for(ExecutionConfig(use_plan=False))
        b = tiny_acc.engine_for(ExecutionConfig(use_plan=False))
        c = tiny_acc.engine_for(ExecutionConfig())
        assert a is b and a is not c
        tiny_acc.close_pool()
        assert tiny_acc.engine_for(ExecutionConfig(use_plan=False)) is not a


# -- the float32-exact boundary --------------------------------------------


@pytest.fixture
def narrow_float32(monkeypatch):
    """Pretend float32 holds integers exactly only below 8: every zoo
    stage's GEMM bound exceeds that, so no zoo model is plannable."""
    import repro.hw.plan as plan

    monkeypatch.setattr(plan, "_F32_EXACT", 8)


@pytest.fixture(scope="module")
def ucnv_acc():
    from repro.core.architectures import build_architecture, table1_folding

    model = build_architecture("u-cnv", rng=0)
    randomize_bn_stats(model)
    model.eval()
    return compile_model(model, table1_folding("u-cnv"), name="u-cnv")


class TestFloat32ExactBound:
    def test_default_config_falls_back_to_interpreted(
        self, ucnv_acc, narrow_float32
    ):
        rng = np.random.default_rng(0)
        images = rng.random((3, 32, 32, 3)).astype(np.float32)
        assert resolve_engine_name(ExecutionConfig(), ucnv_acc) == "interpreted"
        engine = create_engine(ucnv_acc, ExecutionConfig())
        assert engine.name == "interpreted"
        reference = create_engine(ucnv_acc, ExecutionConfig(use_plan=False))
        np.testing.assert_array_equal(
            engine.run(images), reference.run(images)
        )

    def test_planned_engine_refuses_with_the_reason(
        self, ucnv_acc, narrow_float32
    ):
        engine = engine_spec("planned-blas").factory(
            ucnv_acc, ExecutionConfig()
        )
        with pytest.raises(ValueError, match="float32-exact"):
            engine.prepare()

    def test_process_engine_refuses_with_the_reason(
        self, ucnv_acc, narrow_float32
    ):
        with pytest.raises(ValueError, match="float32-exact"):
            create_engine(ucnv_acc, ExecutionConfig(isolation="process"))


# -- ServingConfig bucket validation ---------------------------------------


@pytest.mark.serving
class TestServingBuckets:
    def test_accepts_strictly_increasing_buckets(self):
        cfg = ServingConfig(max_batch_size=8, bucket_sizes=[2, 4, 8])
        assert cfg.bucket_sizes == (2, 4, 8)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ServingConfig(max_batch_size=8, bucket_sizes=(4, 2, 8))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ServingConfig(max_batch_size=8, bucket_sizes=(2, 2, 8))

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="positive"):
            ServingConfig(max_batch_size=8, bucket_sizes=(bad, 8))

    def test_coverage_check_still_applies(self):
        with pytest.raises(ValueError, match="does not cover"):
            ServingConfig(max_batch_size=16, bucket_sizes=(2, 4))


# -- the `repro engines` CLI verb ------------------------------------------


class TestEnginesCli:
    def test_table_lists_every_engine(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ENGINES:
            assert name in out

    def test_json_schema(self, capsys):
        assert main(["engines", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in payload["engines"]] == list(ENGINES)
        for row in payload["engines"]:
            assert set(row) == {"name", "capabilities", "summary"}
            assert set(row["capabilities"]) == {
                "bit_exact", "zero_alloc", "zero_copy_ipc", "process_isolated",
            }
        assert payload["default_config"]["use_plan"] is True
        assert len(payload["resolution"]) == 4


# -- sharded planned runs --------------------------------------------------
REFERENCE = ExecutionConfig(use_plan=False)


@pytest.fixture
def two_cores(monkeypatch):
    """Shard over two cores whatever the runner has; BLAS starts at 2."""
    monkeypatch.setattr(shards, "host_cores", lambda: 2)
    previous = blas.blas_threads()
    if previous is not None:
        blas.set_blas_threads(2)
    yield
    if previous is not None:
        blas.set_blas_threads(previous)


@pytest.fixture(scope="module")
def crowd():
    """32 images (two 16-image shards) and their reference logits."""
    acc = build_tiny_accelerator()
    images = np.random.default_rng(5).random((32, 8, 8, 3)).astype(np.float32)
    return acc, images, acc.run(images, REFERENCE)


def _run_sharded_in_child(acc, images, golden):
    assert shards.shard_count(len(images)) == 2
    np.testing.assert_array_equal(acc.run(images), golden)


class TestSharding:
    def test_helper_error_reaches_caller_after_its_own_shard(
        self, two_cores, crowd, monkeypatch
    ):
        acc, images, golden = crowd
        threads_before = blas.blas_threads()
        execute = PlannedEngine._execute
        finished = []

        def flaky(self, batch, return_bits, out=None, shard=None):
            if shard == 1:
                raise RuntimeError("helper shard failed")
            result = execute(self, batch, return_bits, out=out, shard=shard)
            finished.append((shard, threading.get_ident()))
            return result

        monkeypatch.setattr(PlannedEngine, "_execute", flaky)
        with pytest.raises(RuntimeError, match="helper shard failed"):
            acc.run(images)
        assert finished == [(0, threading.get_ident())]
        assert not blas.held()
        assert blas.blas_threads() == threads_before
        monkeypatch.setattr(PlannedEngine, "_execute", execute)
        np.testing.assert_array_equal(acc.run(images), golden)

    def test_concurrent_callers_stay_bit_exact(self, two_cores, crowd):
        # More callers than cores, switching threads often: every caller
        # gets its own logits and the last one out restores BLAS.
        acc, images, golden = crowd
        threads_before = blas.blas_threads()
        start = threading.Barrier(4)
        results = {}

        def caller(name):
            start.wait()
            results[name] = [acc.run(images) for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for logits in sum(results.values(), []):
            np.testing.assert_array_equal(logits, golden)
        assert not blas.held()
        assert blas.blas_threads() == threads_before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_a_working_team(self, two_cores, crowd):
        acc, images, golden = crowd
        np.testing.assert_array_equal(acc.run(images), golden)
        helpers = [t.name for t in threading.enumerate()]
        assert any(name.startswith("repro-shard") for name in helpers)
        child = multiprocessing.get_context("fork").Process(
            target=_run_sharded_in_child, args=(acc, images, golden)
        )
        child.start()
        child.join(timeout=60.0)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("forked child hung on the parent's shard team")
        assert child.exitcode == 0
