"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main workflows for shell users:

* ``train``    — build the synthetic dataset and train a prototype;
* ``evaluate`` — confusion matrix + accuracy of a checkpoint;
* ``deploy``   — compile a checkpoint and print the full hardware
  profile (timing, resources, buffers, power, device fit);
* ``report``   — the complete markdown reproduction report;
* ``info``     — architecture catalog (Table I facts);
* ``serve``    — run the dynamic-batching inference server on the
  deployed accelerator against a synthetic open-loop gate-camera
  arrival process (``--telemetry`` / ``--trace-out`` record a span
  journal);
* ``trace``    — summarize a saved span journal: critical path,
  per-span-kind percentiles, slowest-stage table with modelled vs
  measured bottleneck;
* ``metrics``  — one-shot metrics dump (Prometheus text exposition or
  JSON) from a saved span journal;
* ``lint``     — static analysis (per-file AST rules plus the
  whole-program concurrency and arena-aliasing passes, selectable via
  ``--passes``) with a justified suppression baseline and
  text/JSON/SARIF output;
* ``lockgraph`` — dump the whole-program lock-acquisition-order graph
  (DOT or JSON); exits non-zero when the graph has a cycle;
* ``verify-model`` — static model-graph verification of the registered
  architectures against their Table I foldings.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint import PASSES as LINT_PASSES
from repro.core.architectures import ARCHITECTURES, architecture_summary
from repro.core.classifier import BinaryCoP, TrainingBudget
from repro.data.dataset import build_masked_face_dataset
from repro.hw.buffers import plan_buffers
from repro.hw.devices import fit_report
from repro.hw.pipeline import analyze_pipeline
from repro.hw.power import PowerModel
from repro.hw.resources import estimate_resources

__all__ = ["main", "build_parser"]

BINARY_ARCHS = ("cnv", "n-cnv", "u-cnv")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BinaryCoP reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a prototype on synthetic data")
    p_train.add_argument("--arch", default="n-cnv", choices=sorted(ARCHITECTURES))
    p_train.add_argument("--raw-size", type=int, default=4000)
    p_train.add_argument("--epochs", type=int, default=30)
    p_train.add_argument("--lr", type=float, default=3e-3)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--save", type=Path, required=True,
                         help="checkpoint output path (.npz)")
    p_train.add_argument("--quiet", action="store_true")
    p_train.add_argument("--num-workers", type=int, default=1,
                         help="render worker processes for dataset generation "
                              "(bit-identical to serial at any count)")
    p_train.add_argument("--data-cache", type=Path, default=None,
                         help="directory for the on-disk dataset cache; "
                              "repeat runs with the same config load from it")

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p_eval.add_argument("--model", type=Path, required=True)
    p_eval.add_argument("--raw-size", type=int, default=2000)
    p_eval.add_argument("--seed", type=int, default=0)

    p_deploy = sub.add_parser("deploy", help="hardware profile of a checkpoint")
    p_deploy.add_argument("--model", type=Path, required=True)
    p_deploy.add_argument("--clock-mhz", type=float, default=100.0)
    p_deploy.add_argument("--dsp-offload", action="store_true")

    p_report = sub.add_parser("report", help="full markdown reproduction report")
    p_report.add_argument("--out", type=Path, default=Path("report.md"))
    p_report.add_argument("--archs", nargs="+", default=list(BINARY_ARCHS),
                          choices=sorted(ARCHITECTURES))

    p_info = sub.add_parser("info", help="architecture catalog (Table I)")
    p_info.add_argument("--arch", default=None, choices=BINARY_ARCHS)

    p_serve = sub.add_parser(
        "serve", help="dynamic-batching server on synthetic gate traffic"
    )
    p_serve.add_argument("--model", type=Path, required=True,
                         help="trained checkpoint (.npz) of a binary "
                              "prototype; the server runs its deployed "
                              "accelerator")
    p_serve.add_argument("--backend", default="accelerator",
                         choices=("accelerator", "process"),
                         help="'accelerator' runs the engine in the server's "
                              "worker threads; 'process' fans planned "
                              "batches across a multi-process pool")
    p_serve.add_argument("--max-batch", type=int, default=32)
    p_serve.add_argument("--buckets", type=int, nargs="+", default=None,
                         metavar="N",
                         help="pad micro-batches up to these sizes so "
                              "shape-keyed backends compile a fixed plan set "
                              "(largest must cover --max-batch)")
    p_serve.add_argument("--pool-workers", type=int, default=None,
                         help="process-pool worker count (default: one per "
                              "physical core, capped at 4)")
    p_serve.add_argument("--queue-capacity", type=int, default=256)
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--timeout-ms", type=float, default=None,
                         help="per-request deadline (default: none)")
    p_serve.add_argument("--tile-pool", type=int, default=24,
                         help="pre-rendered gate-camera face tiles to replay")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--telemetry", action="store_true",
                         help="activate trace spans and print a trace "
                              "summary after the run")
    p_serve.add_argument("--trace-sample", type=int, default=1, metavar="N",
                         help="record every Nth request trace (default: "
                              "all)")
    p_serve.add_argument("--trace-out", type=Path, default=None,
                         metavar="FILE",
                         help="save the span journal as JSON (implies "
                              "--telemetry)")
    p_serve.add_argument("--rate", type=float, default=200.0,
                         help="offered load, requests/second")
    p_serve.add_argument("--duration", type=float, default=2.0,
                         help="seconds of open-loop traffic")
    p_serve.add_argument("--report-every", type=float, default=1.0,
                         help="periodic stats interval (0 disables)")

    p_trace = sub.add_parser(
        "trace", help="summarize a saved trace journal (from --trace-out)"
    )
    p_trace.add_argument("journal", type=Path,
                         help="span journal JSON written by --trace-out")
    p_trace.add_argument("--top", type=int, default=10,
                         help="rows in the slowest-stage table")

    p_metrics = sub.add_parser(
        "metrics",
        help="one-shot metrics dump (Prometheus or JSON) from a journal",
    )
    p_metrics.add_argument("--journal", type=Path, default=None,
                           help="span journal JSON to derive metrics from")
    p_metrics.add_argument("--format", default="prometheus",
                           choices=("prometheus", "json"),
                           help="output format (default: prometheus)")

    p_lint = sub.add_parser(
        "lint", help="static AST lint over a source tree (default: repro)"
    )
    p_lint.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint "
                             "(default: the installed repro package)")
    p_lint.add_argument("--baseline", type=Path, default=None,
                        help="suppression file (default: search for "
                             ".repro-lint-baseline upward from the first "
                             "path)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    p_lint.add_argument("--write-baseline", type=Path, default=None,
                        metavar="FILE",
                        help="accept current findings into FILE and exit 0")
    p_lint.add_argument("--rules", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.add_argument("--passes", default=",".join(LINT_PASSES),
                        metavar="P1,P2",
                        help="comma-separated analysis passes to run "
                             f"(default: {','.join(LINT_PASSES)})")
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (default: text)")
    p_lint.add_argument("--prune-baseline", action="store_true",
                        help="rewrite the baseline file without stale "
                             "entries (justifications preserved verbatim)")

    p_lockgraph = sub.add_parser(
        "lockgraph",
        help="dump the whole-program lock-acquisition-order graph",
    )
    p_lockgraph.add_argument("paths", nargs="*", type=Path,
                             help="files/directories to analyze "
                                  "(default: the installed repro package)")
    p_lockgraph.add_argument("--format", default="dot",
                             choices=("dot", "json"),
                             help="graph output format (default: dot)")
    p_lockgraph.add_argument("--out", type=Path, default=None,
                             help="write to FILE instead of stdout")

    p_verify = sub.add_parser(
        "verify-model",
        help="static model-graph verification (shape/dtype + BNN/FINN rules)",
    )
    p_verify.add_argument("--arch", default="all",
                          choices=BINARY_ARCHS + ("all",),
                          help="architecture to verify against its Table I "
                               "folding (default: all)")

    p_engines = sub.add_parser(
        "engines",
        help="list the registered runtime engines and their capabilities",
    )
    p_engines.add_argument("--format", default="table",
                           choices=("table", "json"),
                           help="output format (default: table)")
    return parser


def _cmd_train(args) -> int:
    print(f"generating dataset (raw_size={args.raw_size}, seed={args.seed}) ...")
    splits = build_masked_face_dataset(
        raw_size=args.raw_size,
        rng=args.seed,
        num_workers=args.num_workers,
        cache_dir=args.data_cache,
    )
    print(splits.summary())
    clf = BinaryCoP(args.arch, rng=args.seed)
    budget = TrainingBudget(epochs=args.epochs, learning_rate=args.lr)
    print(f"training {args.arch} for up to {args.epochs} epochs ...")
    start = time.perf_counter()
    history = clf.fit(splits, budget, verbose=not args.quiet)
    print(f"trained {history.epochs} epochs in {time.perf_counter() - start:.0f}s")
    metrics = clf.evaluate(splits.test)
    print(f"test accuracy: {metrics['accuracy']:.4f}")
    path = clf.save(args.save)
    print(f"saved checkpoint to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    clf = BinaryCoP.load(args.model)
    print(f"loaded {clf.architecture} from {args.model}")
    splits = build_masked_face_dataset(raw_size=args.raw_size, rng=args.seed)
    cm = clf.confusion(splits.test)
    print(cm.render())
    print(f"accuracy: {cm.overall_accuracy():.4f}")
    for name, recall in cm.per_class_recall().items():
        print(f"  recall[{name}] = {recall:.4f}")
    return 0


def _load_deployable(path) -> Optional[BinaryCoP]:
    """The checkpoint's classifier, or None (error printed) when it is
    the FP32 baseline, which does not compile to the accelerator."""
    clf = BinaryCoP.load(path)
    if not clf.is_binary:
        print("error: the FP32 baseline is not deployable", file=sys.stderr)
        return None
    return clf


def _cmd_deploy(args) -> int:
    clf = _load_deployable(args.model)
    if clf is None:
        return 2
    accelerator = clf.deploy()
    print(analyze_pipeline(accelerator, args.clock_mhz).report())
    resources = estimate_resources(accelerator, dsp_offload=args.dsp_offload)
    print(f"resources: {resources.report()}")
    print(plan_buffers(accelerator).report())
    power = PowerModel().estimate(resources, clock_mhz=args.clock_mhz)
    print(f"power: {power.report()}")
    for line in fit_report(resources.lut, resources.bram36, resources.dsp):
        print(f"  {line}")
    return 0


def _cmd_report(args) -> int:
    from repro.core.reporting import build_report
    from repro.core.zoo import dataset_cached, trained_classifier

    splits = dataset_cached()
    classifiers = {}
    for arch in args.archs:
        print(f"loading (or training) {arch} ...")
        classifiers[arch] = trained_classifier(
            arch, splits=splits, dataset_key={"default_dataset": True}
        )
    report = build_report(classifiers, splits)
    path = report.save(args.out)
    print(f"wrote {path}")
    return 0


def _cmd_info(args) -> int:
    archs = (args.arch,) if args.arch else BINARY_ARCHS
    for name in archs:
        summary = architecture_summary(name)
        print(f"{name}: {len(summary['layers'])} MVTU layers, "
              f"{summary['weight_bits']:,} weight bits "
              f"({summary['weight_bits'] / 8192:.1f} KiB packed)")
        for lname, c_in, c_out in summary["layers"]:
            print(f"  {lname:<10s} [{c_in}, {c_out}]")
        folding = summary["folding"]
        print(f"  PE:   {', '.join(map(str, folding.pe))}")
        print(f"  SIMD: {', '.join(map(str, folding.simd))}")
    return 0


def _build_server(args, clf):
    """A server over ``clf.deploy()``, in process or across a pool."""
    from repro.runtime import ExecutionConfig
    from repro.serving import InferenceServer, ServingConfig

    config = ServingConfig(
        max_batch_size=args.max_batch,
        queue_capacity=args.queue_capacity,
        num_workers=args.workers,
        default_timeout_s=(
            None if args.timeout_ms is None else args.timeout_ms / 1e3
        ),
        bucket_sizes=tuple(args.buckets) if args.buckets else None,
    )
    execution = None
    if args.backend == "process":
        execution = ExecutionConfig(
            isolation="process",
            workers=args.pool_workers,
            trace_sample=(
                args.trace_sample
                if (args.telemetry or args.trace_out is not None)
                else None
            ),
        )
    server = InferenceServer.from_accelerator(
        clf.deploy(), config, execution=execution
    )
    backend = server.backends[0]
    print(f"backend: {backend.name} (x{backend.max_concurrency})")
    return server


def _start_telemetry(args):
    """Activate tracing for serve when requested.

    Returns the journal (or None). ``--trace-out`` implies telemetry.
    """
    from repro.telemetry import SpanJournal, Tracer, activate

    if not (args.telemetry or args.trace_out is not None):
        return None
    if args.trace_sample <= 0:
        raise SystemExit(
            f"--trace-sample must be positive, got {args.trace_sample}"
        )
    journal = SpanJournal()
    activate(Tracer(sample_every=args.trace_sample, journal=journal))
    print(
        f"telemetry on (sampling every "
        f"{args.trace_sample} request trace(s))"
    )
    return journal


def _finish_telemetry(args, journal) -> None:
    from repro.telemetry import deactivate, summarize_spans

    if journal is None:
        return
    deactivate()
    spans = journal.snapshot()
    print(summarize_spans(spans).render())
    if args.trace_out is not None:
        path = journal.save(args.trace_out)
        print(f"wrote {len(spans)} spans to {path}")


def _cmd_serve(args) -> int:
    import signal

    from repro.serving import StatsReporter, face_tile_pool, run_open_loop

    clf = _load_deployable(args.model)
    if clf is None:
        return 2
    print(f"loaded {clf.architecture} from {args.model}")
    journal = _start_telemetry(args)
    server = _build_server(args, clf)
    bind = getattr(server.backends[0], "bind_journal", None)
    if journal is not None and bind is not None:
        bind(journal)
    print(f"rendering {args.tile_pool} gate-camera tiles ...")
    tiles = face_tile_pool(args.tile_pool, rng=args.seed)
    reporter = None
    result = None
    interrupted = False

    # SIGTERM (systemd, docker stop, CI timeouts) gets the same graceful
    # drain Ctrl-C does: convert it to KeyboardInterrupt so the handler
    # below runs and the context manager drains the admission queue.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        with server:
            print(server.health(smoke=True).render())
            if args.report_every > 0:
                reporter = server.reporter(interval_s=args.report_every).start()
            print(
                f"offering {args.rate:,.0f} req/s for {args.duration:.1f}s "
                f"(open loop) ..."
            )
            try:
                result = run_open_loop(
                    server, tiles, rate_hz=args.rate,
                    duration_s=args.duration, rng=args.seed + 1,
                )
            except KeyboardInterrupt:
                interrupted = True
                print(
                    "\nsignal received - draining admission queue and "
                    "stopping workers ..."
                )
            if reporter is not None:
                reporter.stop()
            if result is not None:
                print(result.report())
            if not interrupted:
                print(server.stats().report())
                print(server.health().render())
        if interrupted:
            # Final snapshot *after* the drain so the counters include
            # every request the shutdown worked off.
            print(server.stats().report())
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        _finish_telemetry(args, journal)
    if interrupted:
        return 0
    return 0 if result.completed else 1


def _cmd_trace(args) -> int:
    from repro.telemetry import SpanJournal, summarize_spans

    try:
        spans = SpanJournal.load(args.journal)
    except (OSError, ValueError) as exc:
        print(f"error: {args.journal}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"{args.journal}: empty journal (no spans recorded)")
        return 0
    print(summarize_spans(spans).render(top=args.top))
    return 0


def _cmd_metrics(args) -> int:
    from repro.telemetry import SpanJournal, TelemetryExporter

    journal = None
    if args.journal is not None:
        try:
            spans = SpanJournal.load(args.journal)
        except (OSError, ValueError) as exc:
            print(f"error: {args.journal}: {exc}", file=sys.stderr)
            return 1
        journal = SpanJournal()
        for span in spans:
            journal.record(span)
    exporter = TelemetryExporter(journal=journal)
    if args.format == "json":
        print(exporter.to_json())
    else:
        print(exporter.to_prometheus(), end="")
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.analysis import Baseline, lint_paths, rules_table
    from repro.analysis.lint import prune_baseline

    if args.rules:
        print(rules_table())
        return 0
    import repro as _repro

    passes = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    try:
        paths = args.paths or [Path(_repro.__file__).parent]
        if args.no_baseline:
            report = lint_paths(paths, baseline=Baseline(), passes=passes)
        elif args.baseline is not None:
            try:
                baseline = Baseline.load(args.baseline)
            except ValueError as exc:
                print(f"error: {args.baseline}: {exc}", file=sys.stderr)
                return 2
            report = lint_paths(paths, baseline=baseline, passes=passes)
        else:
            report = lint_paths(paths, passes=passes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline is not None:
        baseline = Baseline.from_diagnostics(report.diagnostics)
        path = baseline.save(args.write_baseline)
        print(f"wrote {len(baseline)} suppression(s) to {path}")
        return 0
    if args.prune_baseline:
        pruned = prune_baseline(report)
        if pruned is None or pruned.path is None:
            print("error: --prune-baseline needs a baseline file",
                  file=sys.stderr)
            return 2
        dropped = len(report.stale_entries)
        pruned.save(pruned.path)
        print(f"pruned {dropped} stale entrie(s) from {pruned.path}")
        return 0
    for entry in report.stale_entries:
        print(
            f"warning: stale baseline entry (matches no current finding): "
            f"{entry.render()}",
            file=sys.stderr,
        )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        print(json.dumps(report.to_sarif(), indent=2))
    else:
        print(report.render())
    return report.exit_code()


def _cmd_lockgraph(args) -> int:
    import ast as _ast

    from repro.analysis.concurrency import build_lock_graph
    from repro.analysis.lint import collect_sources

    import repro as _repro

    paths = args.paths or [Path(_repro.__file__).parent]
    sources = []
    for path in collect_sources(paths):
        try:
            sources.append(
                (path, _ast.parse(path.read_text(), filename=str(path)))
            )
        except SyntaxError as exc:
            print(f"warning: skipping {path}: {exc.msg}", file=sys.stderr)
    graph = build_lock_graph(sources)
    text = graph.render_json() if args.format == "json" else graph.to_dot()
    if args.out is not None:
        args.out.write_text(text + "\n")
        print(
            f"wrote {len(graph.nodes)} node(s), {len(graph.edges)} edge(s) "
            f"to {args.out}"
        )
    else:
        print(text)
    # a cycle in the lock graph is a finding, mirror lint's exit semantics
    return 1 if graph.cycles() else 0


def _cmd_verify_model(args) -> int:
    from repro.core.zoo import verify_zoo

    archs = None if args.arch == "all" else (args.arch,)
    reports = verify_zoo(archs)
    worst = 0
    for name, report in reports.items():
        print(report.render())
        worst = max(worst, report.exit_code())
    return worst


def _cmd_engines(args) -> int:
    """List the registered runtime engines with their capability flags."""
    import json

    from repro.runtime import ExecutionConfig, engine_table

    table = engine_table()
    default = ExecutionConfig()
    if args.format == "json":
        print(json.dumps(
            {
                "engines": table,
                "default_config": default.describe(),
                "resolution": [
                    "isolation='process' -> process",
                    "use_plan=False -> interpreted",
                    "unplannable model (incl. float32-exact bound) -> "
                    "interpreted",
                    "otherwise -> planned-blas",
                ],
            },
            indent=2,
        ))
        return 0
    flags = ("bit_exact", "zero_alloc", "zero_copy_ipc", "process_isolated")
    header = ["engine"] + list(flags) + ["summary"]
    rows = [
        [row["name"]]
        + [("yes" if row["capabilities"][f] else "-") for f in flags]
        + [row["summary"]]
        for row in table
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    for line in (header, *rows):
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    print()
    print("resolution: isolation='process' -> process; use_plan=False or "
          "unplannable model -> interpreted; otherwise planned-blas")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "deploy": _cmd_deploy,
    "report": _cmd_report,
    "info": _cmd_info,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "lint": _cmd_lint,
    "lockgraph": _cmd_lockgraph,
    "verify-model": _cmd_verify_model,
    "engines": _cmd_engines,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
