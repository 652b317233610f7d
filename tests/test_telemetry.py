"""Tests for ``repro.telemetry``: spans, journal, exporters, probes, CLI.

The tracing tests pin the subsystem's core contracts: span trees stay
connected across the serving thread hops, sampling drops whole trees
(never fragments), a disabled tracer records nothing, and the trace
summary's modelled bottleneck agrees with ``analyze_pipeline``'s
analytic II argmax.
"""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.core.architectures import build_architecture, table1_folding
from repro.hw.compiler import FoldingConfig, InputContract, compile_model
from repro.hw.pipeline import analyze_pipeline
from repro.serving import InferenceServer, ServingConfig
from repro.telemetry import (
    NOOP_SPAN,
    NULL_TRACER,
    TELEMETRY_SCHEMA,
    TRACE_SCHEMA,
    HealthReport,
    ProbeResult,
    ProbeStatus,
    SpanJournal,
    TelemetryExporter,
    Tracer,
    activate,
    deactivate,
    escape_label_value,
    get_tracer,
    probe_backend_smoke,
    probe_queue,
    probe_workers,
    summarize_spans,
    validate_telemetry_doc,
)
from repro.telemetry.export import render_prometheus, span_families
from repro.testing import grid_images, make_tiny_bnn, randomize_bn_stats
from repro.utils.clock import MONOTONIC, FakeClock, MonotonicClock

pytestmark = pytest.mark.telemetry


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Every test starts and ends with tracing deactivated."""
    deactivate()
    yield
    deactivate()


def make_tracer(**kwargs):
    journal = SpanJournal()
    return Tracer(journal=journal, **kwargs), journal


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------
class TestClocks:
    def test_monotonic_clock_advances(self):
        clock = MonotonicClock()
        a = clock.monotonic()
        clock.sleep(0.001)
        assert clock.monotonic() > a

    def test_monotonic_sleep_ignores_nonpositive(self):
        MONOTONIC.sleep(0.0)
        MONOTONIC.sleep(-1.0)  # must not raise

    def test_fake_clock_advances_only_when_told(self):
        clock = FakeClock(start=10.0)
        assert clock.monotonic() == 10.0
        clock.advance(2.5)
        assert clock.monotonic() == 12.5
        clock.sleep(0.5)  # sleep advances fake time, never blocks
        assert clock.monotonic() == 13.0

    def test_fake_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError, match="backwards"):
            FakeClock().advance(-1.0)


# ---------------------------------------------------------------------------
# spans and tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_form_one_tree(self):
        tracer, journal = make_tracer()
        with tracer.span("root", kind="request") as root:
            with tracer.span("mid", kind="batch") as mid:
                with tracer.span("leaf", kind="backend") as leaf:
                    assert tracer.current_span() is leaf
        spans = {s["name"]: s for s in journal.snapshot()}
        assert set(spans) == {"root", "mid", "leaf"}
        assert spans["mid"]["parent_id"] == spans["root"]["span_id"]
        assert spans["leaf"]["parent_id"] == spans["mid"]["span_id"]
        # one trace id across the tree, rooted at the root span
        assert (
            spans["root"]["trace_id"]
            == spans["mid"]["trace_id"]
            == spans["leaf"]["trace_id"]
            == spans["root"]["span_id"]
        )
        assert spans["root"]["parent_id"] is None

    def test_current_span_restored_after_exit(self):
        tracer, _ = make_tracer()
        assert tracer.current_span() is None
        with tracer.span("a"):
            assert tracer.current_span() is not None
        assert tracer.current_span() is None

    def test_exception_recorded_and_propagated(self):
        tracer, journal = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (span,) = journal.snapshot()
        assert span["attributes"]["error"] == "RuntimeError"
        assert span["end_s"] is not None

    def test_manual_span_finish_is_write_once(self):
        tracer, journal = make_tracer(clock=FakeClock())
        span = tracer.start_span("req", kind="request", parent=None)
        tracer.clock.advance(1.0)
        span.finish()
        first_end = span.end_s
        tracer.clock.advance(1.0)
        span.finish()  # second finish is a no-op
        assert span.end_s == first_end
        assert len(journal.snapshot()) == 1

    def test_record_externally_timed_span(self):
        tracer, journal = make_tracer()
        tracer.record("hw.fc1", kind="hw_stage", start_s=1.0, end_s=3.5,
                      parent=None, attributes={"cycles": 2048})
        (span,) = journal.snapshot()
        assert span["end_s"] - span["start_s"] == pytest.approx(2.5)
        assert span["attributes"]["cycles"] == 2048

    def test_durations_use_injected_clock(self):
        clock = FakeClock()
        tracer, journal = make_tracer(clock=clock)
        with tracer.span("timed"):
            clock.advance(0.25)
        (span,) = journal.snapshot()
        assert span["end_s"] - span["start_s"] == pytest.approx(0.25)

    def test_rejects_nonpositive_sample_every(self):
        with pytest.raises(ValueError, match="sample_every"):
            Tracer(sample_every=0)


class TestSampling:
    def test_sample_every_n_keeps_every_nth_root(self):
        tracer, journal = make_tracer(sample_every=2)
        for i in range(6):
            with tracer.span(f"root{i}", kind="request"):
                pass
        names = {s["name"] for s in journal.snapshot()}
        assert names == {"root0", "root2", "root4"}

    def test_sampled_out_root_drops_its_whole_subtree(self):
        tracer, journal = make_tracer(sample_every=2)
        for i in range(2):
            with tracer.span(f"root{i}") as root:
                with tracer.span(f"child{i}"):
                    pass
                if i == 1:
                    assert root is NOOP_SPAN
        names = {s["name"] for s in journal.snapshot()}
        assert names == {"root0", "child0"}  # trees, never fragments

    def test_children_of_recording_parents_always_record(self):
        tracer, journal = make_tracer(sample_every=3)
        with tracer.span("root"):
            for i in range(5):
                with tracer.span(f"child{i}"):
                    pass
        assert len(journal.snapshot()) == 6  # root + all five children


class TestDisabledAndAmbient:
    def test_disabled_tracer_records_nothing(self):
        tracer, journal = make_tracer(enabled=False)
        with tracer.span("invisible") as span:
            assert span is NOOP_SPAN
            assert tracer.current_span() is None  # contextvar untouched
        assert tracer.start_span("also-invisible") is NOOP_SPAN
        tracer.record("x", kind="y", start_s=0.0, end_s=1.0)
        assert journal.snapshot() == []

    def test_null_tracer_is_ambient_default(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_activate_and_deactivate(self):
        tracer, journal = make_tracer()
        assert activate(tracer) is tracer
        assert get_tracer() is tracer
        with get_tracer().span("via-ambient"):
            pass
        deactivate()
        assert get_tracer() is NULL_TRACER
        assert [s["name"] for s in journal.snapshot()] == ["via-ambient"]

    def test_noop_span_is_inert(self):
        NOOP_SPAN.set_attribute("k", "v")
        NOOP_SPAN.finish()
        assert NOOP_SPAN.duration_s == 0.0
        assert not NOOP_SPAN.recording


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_capacity_bounds_retained_spans(self):
        journal = SpanJournal(capacity_per_thread=4)
        for i in range(10):
            journal.record({"span_id": i, "start_s": float(i)})
        retained = [s["span_id"] for s in journal.snapshot()]
        assert retained == [6, 7, 8, 9]  # ring buffer keeps the newest

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity_per_thread"):
            SpanJournal(capacity_per_thread=0)

    def test_concurrent_recording_from_many_threads(self):
        journal = SpanJournal()
        per_thread = 200

        def record(tid):
            for i in range(per_thread):
                journal.record(
                    {"span_id": tid * per_thread + i, "start_s": float(i)}
                )

        threads = [
            threading.Thread(target=record, args=(tid,)) for tid in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(journal) == 8 * per_thread

    def test_clear(self):
        journal = SpanJournal()
        journal.record({"span_id": 1, "start_s": 0.0})
        journal.clear()
        assert len(journal) == 0

    def test_save_load_roundtrip(self, tmp_path):
        tracer, journal = make_tracer()
        with tracer.span("a"):
            pass
        path = journal.save(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == TRACE_SCHEMA
        spans = SpanJournal.load(path)
        assert [s["name"] for s in spans] == ["a"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "other/v9", "spans": []}))
        with pytest.raises(ValueError, match="not a trace journal"):
            SpanJournal.load(path)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
PROM_METRIC_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? '
    r'[0-9.eE+-]+(?:nan|inf)?$'
)


def assert_valid_prometheus(text: str) -> None:
    """Mini-parser for the Prometheus text exposition format."""
    current_name = None
    typed = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            current_name = line.split()[2]
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[2] == current_name, "TYPE must follow its HELP"
            assert parts[3] in ("counter", "gauge")
            typed.add(parts[2])
            continue
        assert PROM_METRIC_LINE.match(line), f"malformed sample line: {line!r}"
        name = re.split(r"[{ ]", line, 1)[0]
        assert name in typed, f"sample {name!r} before its TYPE line"
    assert text.endswith("\n")


class TestExport:
    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_span_families_prometheus_validity(self):
        tracer, journal = make_tracer()
        with tracer.span('odd"name\\', kind="request"):
            with tracer.span("child", kind="batch"):
                pass
        exporter = TelemetryExporter(journal=journal)
        assert_valid_prometheus(exporter.to_prometheus())

    def test_json_document_schema(self):
        tracer, journal = make_tracer()
        with tracer.span("a", kind="request"):
            pass
        doc = json.loads(TelemetryExporter(journal=journal).to_json())
        validate_telemetry_doc(doc)
        assert doc["schema"] == TELEMETRY_SCHEMA
        names = {m["name"] for m in doc["metrics"]}
        assert names == {"repro_span_total", "repro_span_seconds"}
        counts = doc["metrics"][0]["samples"]
        assert counts[0]["labels"] == {"span": "a", "kind": "request"}
        assert counts[0]["value"] == 1.0

    def test_span_families_skip_unfinished(self):
        families = span_families([
            {"name": "open", "kind": "x", "start_s": 0.0, "end_s": None},
        ])
        assert families == []

    def test_validate_rejects_bad_documents(self):
        good = {"schema": TELEMETRY_SCHEMA, "metrics": []}
        validate_telemetry_doc(good)
        for bad, match in (
            ({"schema": "nope", "metrics": []}, "schema mismatch"),
            ({"schema": TELEMETRY_SCHEMA}, "no metric list"),
            (
                {
                    "schema": TELEMETRY_SCHEMA,
                    "metrics": [{"name": "1bad", "type": "gauge",
                                 "help": "", "samples": []}],
                },
                "invalid metric name",
            ),
            (
                {
                    "schema": TELEMETRY_SCHEMA,
                    "metrics": [{"name": "m", "type": "histogram",
                                 "help": "", "samples": []}],
                },
                "invalid metric type",
            ),
            (
                {
                    "schema": TELEMETRY_SCHEMA,
                    "metrics": [{"name": "m", "type": "gauge", "help": "",
                                 "samples": [{"labels": {"bad-label": "x"},
                                              "value": 1.0}]}],
                },
                "invalid label name",
            ),
            (
                {
                    "schema": TELEMETRY_SCHEMA,
                    "metrics": [{"name": "m", "type": "gauge", "help": "",
                                 "samples": [{"labels": {},
                                              "value": float("nan")}]}],
                },
                "not finite",
            ),
        ):
            with pytest.raises(ValueError, match=match):
                validate_telemetry_doc(bad)

    def test_server_stats_exported(self):
        backend = _StubBackend()
        server = InferenceServer(backend, ServingConfig(
            max_batch_size=4, queue_capacity=16,
            num_workers=1,
        ))
        images = np.zeros((3, 4, 4, 3), dtype=np.float32)
        with server:
            server.predict(images)
        exporter = TelemetryExporter(stats_source=server.stats)
        text = exporter.to_prometheus()
        assert_valid_prometheus(text)
        assert 'repro_serving_requests_total{outcome="completed"} 3' in text
        assert "repro_serving_qps" in text
        assert "repro_serving_latency_ms" in text


# ---------------------------------------------------------------------------
# health probes
# ---------------------------------------------------------------------------
class _StubBackend:
    name = "stub"
    max_concurrency = 2
    input_contract = InputContract((4, 4, 3))

    def infer(self, images):
        return np.zeros(len(images), dtype=int)


class _BrokenBackend:
    name = "broken"
    max_concurrency = 1
    input_contract = InputContract((4, 4, 3))

    def infer(self, images):
        raise RuntimeError("dead silicon")


class _ShortBackend:
    name = "short"
    max_concurrency = 1
    input_contract = InputContract((4, 4, 3))

    def infer(self, images):
        return np.zeros(max(0, len(images) - 1), dtype=int)


class TestHealthProbes:
    def test_queue_thresholds(self):
        assert probe_queue(0, 10).status is ProbeStatus.OK
        assert probe_queue(8, 10).status is ProbeStatus.DEGRADED
        assert probe_queue(10, 10).status is ProbeStatus.FAILING
        assert probe_queue(0, 10, closed=True).status is ProbeStatus.FAILING

    def test_worker_liveness(self):
        assert probe_workers(2, 2, running=True).status is ProbeStatus.OK
        assert probe_workers(1, 2, running=True).status is ProbeStatus.DEGRADED
        assert probe_workers(0, 2, running=True).status is ProbeStatus.FAILING
        assert probe_workers(2, 2, running=False).status is ProbeStatus.FAILING

    def test_backend_smoke_ok_and_failing(self):
        ok = probe_backend_smoke(_StubBackend())
        assert ok.status is ProbeStatus.OK
        assert "label 0" in ok.detail
        broken = probe_backend_smoke(_BrokenBackend())
        assert broken.status is ProbeStatus.FAILING
        assert "dead silicon" in broken.detail
        short = probe_backend_smoke(_ShortBackend())
        assert short.status is ProbeStatus.FAILING
        assert "0 labels" in short.detail

    def test_report_aggregates_worst_status(self):
        report = HealthReport(probes=(
            ProbeResult("a", ProbeStatus.OK),
            ProbeResult("b", ProbeStatus.DEGRADED, "meh"),
        ))
        assert report.status is ProbeStatus.DEGRADED
        assert report.ok  # degraded still serves
        assert "DEGRADED" in report.render()
        failing = HealthReport(probes=(
            ProbeResult("a", ProbeStatus.FAILING, "x"),
        ))
        assert not failing.ok
        assert failing.to_dict()["status"] == "failing"

    def test_server_health_and_ready(self):
        server = InferenceServer(_StubBackend(), ServingConfig(
            max_batch_size=4, queue_capacity=16,
            num_workers=2,
        ))
        assert not server.ready()  # not started yet
        with server:
            report = server.health(smoke=True)
            assert report.status is ProbeStatus.OK
            assert {p.name for p in report.probes} == {
                "queue", "workers", "backend:stub",
            }
            assert server.ready()
        assert not server.ready()


# ---------------------------------------------------------------------------
# instrumented subsystems
# ---------------------------------------------------------------------------
class TestServingTraces:
    def test_request_tree_connected_through_server(self):
        tracer, journal = make_tracer()
        activate(tracer)
        server = InferenceServer(_StubBackend(), ServingConfig(
            max_batch_size=4, queue_capacity=16,
            num_workers=1,
        ))
        images = np.zeros((4, 4, 4, 3), dtype=np.float32)
        with server:
            server.predict(images)
        deactivate()
        spans = journal.snapshot()
        by_kind = {}
        for s in spans:
            by_kind.setdefault(s["kind"], []).append(s)
        assert set(by_kind) == {"request", "batch"}
        assert len(by_kind["request"]) == 4
        ids = {s["span_id"]: s for s in spans}
        for batch in by_kind["batch"]:
            parent = ids[batch["parent_id"]]
            assert parent["kind"] == "request"
            # requests beyond the first are linked, not re-parented
            covered = {parent["span_id"], *batch["links"]}
            assert covered <= {r["span_id"] for r in by_kind["request"]}
            assert batch["attributes"]["backend"] == "stub"
        for req in by_kind["request"]:
            assert req["attributes"]["status"] == "completed"

    def test_engine_spans_nest_directly_under_the_batch(self):
        model = make_tiny_bnn()
        randomize_bn_stats(model)
        model.eval()
        acc = compile_model(model, FoldingConfig(pe=(1,) * 4, simd=(1,) * 4))
        tracer, journal = make_tracer()
        activate(tracer)
        server = InferenceServer.from_accelerator(acc, ServingConfig(
            max_batch_size=4, num_workers=1,
        ))
        with server:
            server.predict(grid_images(3, hw=8))
        deactivate()
        spans = journal.snapshot()
        parent = {
            s["span_id"]: next(
                (p["name"] for p in spans if p["span_id"] == s["parent_id"]),
                None,
            )
            for s in spans
        }
        runtime = [s for s in spans if s["name"].startswith("runtime.")]
        plans = [s for s in spans if s["kind"] == "hw_plan"]
        stages = [s for s in spans if s["kind"] == "hw_stage"]
        assert runtime and plans and stages
        assert {parent[s["span_id"]] for s in runtime} == {"serving.batch"}
        assert {parent[s["span_id"]] for s in plans} == {"runtime.planned-blas"}
        assert {parent[s["span_id"]] for s in stages} == {"hw.plan"}

    def test_untraced_server_records_nothing(self):
        server = InferenceServer(_StubBackend(), ServingConfig(
            max_batch_size=4, queue_capacity=16,
            num_workers=1,
        ))
        images = np.zeros((2, 4, 4, 3), dtype=np.float32)
        with server:
            server.predict(images)
        # no ambient tracer: requests carry no span
        assert get_tracer() is NULL_TRACER


class TestHwTraces:
    @pytest.fixture(scope="class")
    def cnv_accelerator(self):
        model = build_architecture("cnv", rng=0)
        randomize_bn_stats(model, seed=1)
        model.eval()
        return compile_model(model, table1_folding("cnv"), name="cnv")

    def test_stage_spans_and_modelled_bottleneck_match_analytic(
        self, cnv_accelerator
    ):
        tracer, journal = make_tracer()
        activate(tracer)
        image = np.random.default_rng(0).random((1, 32, 32, 3)).astype(
            np.float32
        )
        cnv_accelerator.predict(image)
        deactivate()
        summary = summarize_spans(journal.snapshot())
        stage_names = [row.name for row in summary.hw_stages]
        analytic = analyze_pipeline(cnv_accelerator)
        assert stage_names == [n for n, _ in analytic.stage_intervals]
        # the modelled bottleneck is the analytic II argmax, exactly
        assert summary.bottleneck_modelled == analytic.bottleneck[0]
        for row, (name, ii) in zip(
            summary.hw_stages, analytic.stage_intervals
        ):
            assert row.cycles == ii
        # one hw root above the stages
        roots = [
            s for s in journal.snapshot() if s["parent_id"] is None
        ]
        assert len(roots) == 1 and roots[0]["kind"] == "hw"

    def test_stage_spans_nest_under_existing_parent(self, cnv_accelerator):
        tracer, journal = make_tracer()
        activate(tracer)
        image = np.zeros((1, 32, 32, 3), dtype=np.float32)
        with tracer.span("outer", kind="request"):
            cnv_accelerator.predict(image)
        deactivate()
        spans = journal.snapshot()
        roots = [s for s in spans if s["parent_id"] is None]
        # the execute call must not open its own root under a live span
        assert [r["name"] for r in roots] == ["outer"]
        assert not any(s["name"] == "hw.execute" for s in spans)


class TestTrainDatagenTraces:
    def test_trainer_emits_epoch_and_step_spans(self):
        from repro.nn import Adam, Trainer

        tracer, journal = make_tracer()
        activate(tracer)
        model = build_architecture("u-cnv", rng=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01))
        gen = np.random.default_rng(0)
        x = gen.normal(size=(16, 32, 32, 3)).astype(np.float32)
        y = gen.integers(0, 4, size=16).astype(np.int64)
        trainer.fit(x, y, epochs=1, batch_size=8, rng=0)
        deactivate()
        spans = journal.snapshot()
        kinds = {s["kind"] for s in spans}
        assert kinds == {"train_epoch", "train_step"}
        steps = [s for s in spans if s["kind"] == "train_step"]
        assert len(steps) == 2  # 16 samples / batch 8
        epoch = next(s for s in spans if s["kind"] == "train_epoch")
        assert all(s["parent_id"] == epoch["span_id"] for s in steps)

    def test_generator_emits_datagen_span(self):
        from repro.data.generator import FaceSampleGenerator

        tracer, journal = make_tracer()
        activate(tracer)
        FaceSampleGenerator().generate_batch(2, np.random.default_rng(0))
        deactivate()
        (span,) = journal.snapshot()
        assert span["kind"] == "datagen"
        assert span["attributes"]["samples"] == 2


# ---------------------------------------------------------------------------
# trace summary
# ---------------------------------------------------------------------------
class TestSummary:
    def test_critical_path_prefers_request_roots(self):
        spans = [
            {"trace_id": 1, "span_id": 1, "parent_id": None, "name": "hw",
             "kind": "hw", "start_s": 0.0, "end_s": 9.0, "attributes": {}},
            {"trace_id": 2, "span_id": 2, "parent_id": None, "name": "req",
             "kind": "request", "start_s": 0.0, "end_s": 2.0,
             "attributes": {}},
            {"trace_id": 2, "span_id": 3, "parent_id": 2, "name": "fast",
             "kind": "batch", "start_s": 0.0, "end_s": 0.5, "attributes": {}},
            {"trace_id": 2, "span_id": 4, "parent_id": 2, "name": "slow",
             "kind": "batch", "start_s": 0.5, "end_s": 2.0, "attributes": {}},
        ]
        summary = summarize_spans(spans)
        path = [s["name"] for s in summary.critical_path]
        assert path == ["req", "slow"]  # request root wins despite shorter

    def test_modelled_bottleneck_first_wins_tie_break(self):
        def stage(i, name, cycles, dur):
            return {
                "trace_id": 1, "span_id": i, "parent_id": None,
                "name": f"hw.{name}", "kind": "hw_stage",
                "start_s": 0.0, "end_s": dur,
                "attributes": {"cycles": cycles},
            }

        summary = summarize_spans([
            stage(1, "conv1", 500, 0.1),
            stage(2, "fc1", 500, 0.9),  # ties on cycles, slower wall time
            stage(3, "fc2", 100, 0.2),
        ])
        assert summary.bottleneck_modelled == "conv1"  # first maximum wins
        assert summary.bottleneck_measured == "fc1"

    def test_unfinished_spans_excluded(self):
        summary = summarize_spans([
            {"trace_id": 1, "span_id": 1, "parent_id": None, "name": "open",
             "kind": "request", "start_s": 0.0, "end_s": None,
             "attributes": {}},
        ])
        assert summary.span_count == 0
        assert summary.trace_count == 0

    def test_render_is_printable(self):
        tracer, journal = make_tracer()
        with tracer.span("r", kind="request"):
            pass
        text = summarize_spans(journal.snapshot()).render()
        assert "1 spans across 1 traces" in text
        assert "per-span-kind latency" in text


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def saved_journal(self, tmp_path):
        tracer, journal = make_tracer()
        with tracer.span("serving.request", kind="request"):
            with tracer.span("serving.batch", kind="batch"):
                tracer.record("hw.fc1", kind="hw_stage", start_s=0.0,
                              end_s=0.5, attributes={"cycles": 2048})
        return journal.save(tmp_path / "trace.json")

    def test_trace_verb(self, saved_journal, capsys):
        assert main(["trace", str(saved_journal)]) == 0
        out = capsys.readouterr().out
        assert "3 spans across 1 traces" in out
        assert "bottleneck (modelled, II argmax): fc1" in out
        assert "critical path" in out

    def test_trace_verb_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_trace_verb_empty_journal(self, tmp_path, capsys):
        path = SpanJournal().save(tmp_path / "empty.json")
        assert main(["trace", str(path)]) == 0
        assert "empty journal" in capsys.readouterr().out

    def test_metrics_verb_prometheus(self, saved_journal, capsys):
        assert main(["metrics", "--journal", str(saved_journal)]) == 0
        out = capsys.readouterr().out
        assert_valid_prometheus(out)
        assert "repro_span_total" in out

    def test_metrics_verb_json(self, saved_journal, capsys):
        assert main([
            "metrics", "--journal", str(saved_journal), "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_telemetry_doc(doc)

    def test_metrics_verb_without_journal(self, capsys):
        assert main(["metrics"]) == 0
        doc_text = capsys.readouterr().out
        assert doc_text == "\n" or doc_text.strip() == ""
