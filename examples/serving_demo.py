#!/usr/bin/env python
"""Serving demo: work-conserving micro-batching under open-loop traffic.

The paper's deployment story — entrances serving crowds at up to
~6400 FPS — needs a request path, not just `predict()`. This example
stands up `repro.serving.InferenceServer` over a trained classifier's
deployed accelerator (`clf.deploy()`, the integer datapath the board runs),
replays synthetic gate-camera traffic (Poisson arrivals of face tiles
from `repro.data.stream`) at increasing offered loads, and prints what
the serving layer is for:

* a lone request answers in one inference: a free worker dispatches it
  at once, with no window held open for company;
* throughput scales with offered load because requests that queue while
  every worker is busy ride the next batch (watch the mean batch size
  grow with the rate);
* past saturation the bounded queue *sheds load explicitly* instead of
  growing without bound — every rejection is counted, nothing blocks.

Usage:
    python examples/serving_demo.py [--rates 100 500 2000] [--duration 2.0]
"""

import argparse
import time

from repro.core.zoo import dataset_cached, trained_classifier
from repro.serving import InferenceServer, ServingConfig, face_tile_pool, run_open_loop


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[100.0, 500.0, 2000.0],
                        help="offered loads to sweep, requests/second")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="seconds of traffic per offered load")
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--queue-capacity", type=int, default=128)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("loading (or training) n-CNV from the model zoo ...")
    clf = trained_classifier("n-cnv", splits=dataset_cached(),
                             dataset_key={"default_dataset": True})
    accelerator = clf.deploy()
    config = ServingConfig(
        max_batch_size=args.max_batch,
        queue_capacity=args.queue_capacity,
        num_workers=2,
    )
    print(f"rendering a pool of gate-camera face tiles (seed {args.seed}) ...")
    tiles = face_tile_pool(24, rng=args.seed)

    # A lone request: a free worker takes it at once, so it pays one
    # inference plus dispatch.
    with InferenceServer.from_accelerator(accelerator, config) as server:
        time.sleep(0.1)  # let workers reach their idle poll
        handle = server.submit(tiles[0])
        label = handle.result(timeout=5.0)
        print(f"\nlone request -> class {label} in {handle.latency_s * 1e3:.1f} ms "
              "(one inference plus dispatch; no batching window)")

    print("\nopen-loop sweep (Poisson arrivals, server may shed past saturation):")
    for rate in args.rates:
        with InferenceServer.from_accelerator(accelerator, config) as server:
            result = run_open_loop(server, tiles, rate_hz=rate,
                                   duration_s=args.duration, rng=args.seed + 1)
            stats = server.stats()
        print(f"\n--- offered {rate:,.0f} req/s " + "-" * 30)
        print(result.report())
        print(f"mean batch size: {stats.mean_batch_size:.1f}")

    print("\nsame saturating load, batching disabled (max_batch_size=1):")
    config1 = ServingConfig(
        max_batch_size=1,
        queue_capacity=args.queue_capacity, num_workers=2,
    )
    with InferenceServer.from_accelerator(accelerator, config1) as server:
        result1 = run_open_loop(server, tiles, rate_hz=max(args.rates),
                                duration_s=args.duration, rng=args.seed + 1)
    print(result1.report())
    print("\ndynamic batching vs batch-1 at saturation: "
          f"{result1.achieved_qps:,.0f} -> {result.achieved_qps:,.0f} QPS "
          f"({result.achieved_qps / max(result1.achieved_qps, 1e-9):.1f}x)")


if __name__ == "__main__":
    main()
