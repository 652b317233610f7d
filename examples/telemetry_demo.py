#!/usr/bin/env python
"""Telemetry demo: trace a served workload end to end, then read it back.

Walks the whole `repro.telemetry` surface in one sitting:

* activate a `Tracer` over a `SpanJournal` and serve gate-camera
  traffic — every request produces a connected span tree
  (`serving.request → serving.batch → runtime.<engine> → hw.plan →
  hw.<stage>` when the accelerator backend runs);
* print the trace summary: per-kind latency percentiles, the
  slowest-stage table with the *modelled* (II-cycles argmax, what the
  board would bottleneck on) next to the *measured* (simulator wall
  time) bottleneck, and the critical path of the slowest request;
* export the same observations as Prometheus text and JSON metrics;
* run the health/readiness probes the server exposes for orchestration.

Usage:
    python examples/telemetry_demo.py [--rate 200] [--duration 2.0]
                                      [--sample-every 1] [--out trace.json]
"""

import argparse
from pathlib import Path

from repro.core.zoo import dataset_cached, trained_classifier
from repro.serving import (
    AcceleratorBackend,
    InferenceServer,
    ServingConfig,
    face_tile_pool,
    run_open_loop,
)
from repro.telemetry import (
    SpanJournal,
    TelemetryExporter,
    Tracer,
    activate,
    deactivate,
    summarize_spans,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=200.0,
                        help="offered load, requests/second")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="seconds of open-loop traffic")
    parser.add_argument("--sample-every", type=int, default=1,
                        help="record every Nth request trace")
    parser.add_argument("--out", type=Path, default=None,
                        help="save the journal for `repro trace <out>`")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("loading (or training) n-CNV from the model zoo ...")
    clf = trained_classifier("n-cnv", splits=dataset_cached(),
                             dataset_key={"default_dataset": True})
    backend = AcceleratorBackend(clf.deploy())
    config = ServingConfig(max_batch_size=16, queue_capacity=128,
                           num_workers=2)
    tiles = face_tile_pool(16, rng=args.seed)

    # 1. Activate tracing. Everything downstream — server, workers, the
    # accelerator datapath — picks the tracer up ambiently.
    journal = SpanJournal()
    activate(Tracer(sample_every=args.sample_every, journal=journal))

    server = InferenceServer(backend, config)
    with server:
        # 2. Health probes: what an orchestrator would poll.
        print(server.health(smoke=True).render())
        print(f"\noffering {args.rate:,.0f} req/s for {args.duration:.1f}s ...")
        result = run_open_loop(server, tiles, rate_hz=args.rate,
                               duration_s=args.duration, rng=args.seed + 1)
        print(result.report())
        stats_source = server.stats

    deactivate()

    # 3. The trace summary: percentiles per span kind, the hardware
    # stage table (modelled vs measured bottleneck), the critical path.
    spans = journal.snapshot()
    print()
    print(summarize_spans(spans).render())

    # 4. The same observations as scrape-able metrics.
    exporter = TelemetryExporter(stats_source=stats_source, journal=journal)
    print("\n--- Prometheus exposition (first 12 lines) " + "-" * 20)
    print("\n".join(exporter.to_prometheus().splitlines()[:12]))

    if args.out is not None:
        path = journal.save(args.out)
        print(f"\nwrote {len(spans)} spans to {path} "
              f"(inspect with: python -m repro trace {path})")


if __name__ == "__main__":
    main()
