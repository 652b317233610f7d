"""Perf-regression harness: kernel, stage, and end-to-end throughput.

The paper's efficiency claim is only checkable if the simulator's speed
is *tracked*: this module times the bit-pack kernels, the XNOR+popcount
GEMM, the per-stage datapath, and end-to-end classification FPS for the
Table I prototypes, and records the results as a machine-readable
trajectory in ``BENCH_throughput.json``. Every ``repro bench`` run
appends one entry and compares it against the previous run with a
configurable tolerance, so a datapath change that silently regresses
throughput fails loudly instead of rotting.

The harness deliberately uses *untrained* models with randomised
batch-norm statistics (:func:`repro.testing.randomize_bn_stats`):
datapath throughput does not depend on the weight values, and skipping
training keeps the bench runnable in seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.architectures import build_architecture, table1_folding
from repro.hw.bitpack import pack_bits, unpack_bits
from repro.hw.compiler import FinnAccelerator, compile_model
from repro.hw.xnor_kernels import xnor_matmul_popcount
from repro.testing import randomize_bn_stats

__all__ = [
    "SCHEMA",
    "BENCH_ARCHS",
    "BENCH_SECTIONS",
    "GEMM_SHAPES",
    "run_bench",
    "load_doc",
    "append_run",
    "save_doc",
    "validate_run",
    "validate_doc",
    "compare_runs",
    "compare_to_best",
    "render_run",
    "render_comparison",
]

#: Version tag written into (and required from) ``BENCH_throughput.json``.
SCHEMA = "repro-bench-throughput/v1"

#: Architectures benchmarked by a full run, in Table I order.
BENCH_ARCHS: Tuple[str, ...] = ("cnv", "n-cnv", "u-cnv")

#: Selectable benchmark sections (``repro bench --sections``), in the
#: order a full run records them. ``stages`` and ``e2e`` share the
#: compiled accelerators, but each can be requested alone.
BENCH_SECTIONS: Tuple[str, ...] = (
    "kernels",
    "stages",
    "e2e",
    "plan",
    "parallel",
    "telemetry",
    "generation",
    "training",
)

#: XNOR GEMM operand shapes: (name, vectors, fan_in, neurons). conv2_2
#: and fc1 of CNV (the bench_xnor_kernels shapes) plus conv1_2 at a
#: realistic batch — the widest and the most vector-heavy layers.
GEMM_SHAPES: Tuple[Tuple[str, int, int, int], ...] = (
    ("cnv-conv1_2", 900, 576, 64),
    ("cnv-conv2_2", 144, 1152, 128),
    ("cnv-fc1", 64, 256, 512),
)

#: Bit tensor shape for the pack/unpack kernel bench (CNV conv2_2 rows).
BITPACK_SHAPE: Tuple[int, int] = (4096, 1152)

#: Training benchmark config: CNV at the paper's 32x32 input resolution.
TRAIN_BENCH: Dict = {"arch": "cnv", "batch_size": 32, "steps": 8}

#: Generation benchmark sizing (samples rendered, raw size for the cache
#: round-trip). Worker count is ``min(4, cpu_count)`` at run time.
GEN_BENCH: Dict = {"samples": 48, "cache_raw_size": 200}

#: Telemetry-overhead benchmark config: the arch whose datapath is timed
#: under each tracing mode, and the sparse sampling rate measured.
TELEMETRY_BENCH: Dict = {"arch": "u-cnv", "sample_every": 64}

#: Process-pool benchmark config: worker cap (actual count is
#: ``min(max_workers, host cores)``) and how many batches are kept in
#: flight per worker while timing.
PARALLEL_BENCH: Dict = {"arch": "u-cnv", "max_workers": 4, "inflight_per_worker": 2}


def _best_seconds(fn, repeats: int, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` after ``warmup`` calls."""
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_bitpack(rng: np.ndarray, shape: Tuple[int, int], repeats: int) -> Dict:
    bits = rng.random(shape) < 0.5
    packed = pack_bits(bits)
    pack_s = _best_seconds(lambda: pack_bits(bits), repeats)
    unpack_s = _best_seconds(lambda: unpack_bits(packed), repeats)
    nbits = float(np.prod(shape))
    return {
        "pack_bits": {
            "shape": list(shape),
            "seconds": pack_s,
            "gbits_per_s": nbits / pack_s / 1e9,
        },
        "unpack_bits": {
            "shape": list(shape),
            "seconds": unpack_s,
            "gbits_per_s": nbits / unpack_s / 1e9,
        },
    }


def _bench_gemm(
    rng, shapes: Sequence[Tuple[str, int, int, int]], repeats: int
) -> Dict:
    out = {}
    for name, vectors, fan_in, neurons in shapes:
        a = pack_bits(rng.random((vectors, fan_in)) < 0.5)
        w = pack_bits(rng.random((neurons, fan_in)) < 0.5)
        seconds = _best_seconds(lambda: xnor_matmul_popcount(a, w), repeats)
        ops = 2.0 * vectors * fan_in * neurons  # XNOR + accumulate
        out[name] = {
            "vectors": vectors,
            "fan_in": fan_in,
            "neurons": neurons,
            "seconds": seconds,
            "gops_per_s": ops / seconds / 1e9,
        }
    return out


def _bench_accelerator(
    accelerator: FinnAccelerator, images: np.ndarray, repeats: int
) -> Tuple[List[Dict], Dict]:
    """(per-stage timings, end-to-end summary) for one compiled design,
    both on the default engine. Stage times come from the ``hw.<stage>``
    spans of one traced call collected in an in-memory journal."""
    from repro.telemetry import SpanJournal, Tracer, activate, deactivate

    n = images.shape[0]
    e2e_s = _best_seconds(lambda: accelerator.run(images), repeats)
    journal = SpanJournal()
    activate(Tracer(journal=journal))
    try:
        accelerator.run(images)
    finally:
        deactivate()
    stages = [
        {"name": span["name"][len("hw."):],
         "seconds": span["end_s"] - span["start_s"]}
        for span in journal.snapshot()
        if span["kind"] == "hw_stage"
    ]
    e2e = {"images": n, "seconds": e2e_s, "fps": n / e2e_s}
    return stages, e2e


def _bench_generation(seed: int, samples: int, cache_raw_size: int) -> Dict:
    """Dataset-generation throughput: serial vs pooled render, cold vs
    warm cache round-trip through :func:`build_masked_face_dataset`."""
    import tempfile

    from repro.data.dataset import build_masked_face_dataset
    from repro.data.generator import FaceSampleGenerator

    workers = min(4, os.cpu_count() or 1)
    generator = FaceSampleGenerator()

    start = time.perf_counter()
    generator.generate_batch(samples, np.random.default_rng(seed))
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    generator.generate_batch(samples, np.random.default_rng(seed), num_workers=workers)
    parallel_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        start = time.perf_counter()
        build_masked_face_dataset(raw_size=cache_raw_size, rng=seed, cache_dir=tmp)
        cold_s = time.perf_counter() - start
        # Warm load is a few ms of filesystem work — single-shot numbers
        # drift with page-cache state, so take best-of-3 like the other
        # timed sections.
        warm_s = _best_seconds(
            lambda: build_masked_face_dataset(
                raw_size=cache_raw_size, rng=seed, cache_dir=tmp
            ),
            repeats=3,
            warmup=1,
        )

    return {
        "samples": samples,
        "serial": {"seconds": serial_s, "samples_per_s": samples / serial_s},
        "parallel": {
            "workers": workers,
            "seconds": parallel_s,
            "samples_per_s": samples / parallel_s,
            "speedup_vs_serial": serial_s / parallel_s,
        },
        "cache": {
            "raw_size": cache_raw_size,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "warm_speedup": cold_s / warm_s,
        },
    }


def _bench_training(seed: int, arch: str, batch_size: int, steps: int) -> Dict:
    """Training-step throughput, with and without the buffer arena.

    The two configurations are bit-identical in their numerics (pinned by
    tests), so ``arena_speedup`` isolates exactly what buffer reuse buys.
    """
    from repro.nn import Adam, Trainer

    n = batch_size * steps
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 32, 32, 3)).astype(np.float32)
    y = gen.integers(0, 4, size=n).astype(np.int64)

    result: Dict = {"arch": arch, "batch_size": batch_size, "steps": steps}
    for key, use_arena in (("baseline", False), ("arena", True)):
        model = build_architecture(arch, rng=seed)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), use_arena=use_arena
        )
        epoch_rng = np.random.default_rng(seed + 1)
        warm = min(n, 2 * batch_size)
        trainer.train_epoch(x[:warm], y[:warm], batch_size, epoch_rng)
        start = time.perf_counter()
        trainer.train_epoch(x, y, batch_size, epoch_rng)
        epoch_s = time.perf_counter() - start
        result[key] = {
            "epoch_seconds": epoch_s,
            "steps_per_s": steps / epoch_s,
            "samples_per_s": n / epoch_s,
        }
    result["arena_speedup"] = (
        result["arena"]["steps_per_s"] / result["baseline"]["steps_per_s"]
    )
    return result


def _bench_telemetry(
    accelerator: FinnAccelerator,
    images: np.ndarray,
    repeats: int,
    sample_every: int,
) -> Dict:
    """Default-engine throughput under each tracing mode: off / sampled /
    full.

    ``baseline`` and ``off`` are both measured with no tracer active —
    their gap is pure run-to-run noise, which is exactly the claim being
    pinned: instrumented-but-disabled code costs nothing beyond noise.
    ``sampled`` and ``full`` then quantify what turning tracing on buys
    you into.
    """
    from repro.telemetry import SpanJournal, Tracer, activate, deactivate

    n = images.shape[0]
    # One mode run is a single ~tens-of-ms execute; a couple of repeats
    # is pure noise at the 2-5% resolution this section pins down.
    repeats = max(repeats, 10)
    deactivate()  # make sure no ambient tracer leaks into the baseline
    baseline_s = _best_seconds(lambda: accelerator.run(images), repeats)
    off_s = _best_seconds(lambda: accelerator.run(images), repeats)
    result: Dict = {
        "arch": accelerator.name,
        "images": n,
        "baseline": {"seconds": baseline_s, "fps": n / baseline_s},
        "off": {
            "seconds": off_s,
            "fps": n / off_s,
            "overhead_vs_baseline": off_s / baseline_s - 1.0,
        },
    }
    for key, every in (("sampled", sample_every), ("full", 1)):
        journal = SpanJournal()
        activate(Tracer(sample_every=every, journal=journal))
        try:
            mode_s = _best_seconds(lambda: accelerator.run(images), repeats)
        finally:
            deactivate()
        result[key] = {
            "sample_every": every,
            "seconds": mode_s,
            "fps": n / mode_s,
            "overhead_vs_off": mode_s / off_s - 1.0,
            "spans": len(journal),
        }
    return result


def _bench_plan(
    accelerator: FinnAccelerator, images: np.ndarray, repeats: int
) -> Dict:
    """Planned vs interpreted datapath for one compiled design.

    ``steady_state_alloc_blocks`` is the tracemalloc-measured heap
    allocation count per planned call after warm-up — the tentpole's
    zero-allocation claim, recorded in the trajectory so it gates.

    Both timings dispatch through the :mod:`repro.runtime` registry, so
    the trajectory comparison (``compare_to_best``) also gates the
    registry's dispatch overhead: planned FPS through ``run()`` must
    stay within tolerance of the raw-plan runs recorded before the
    runtime layer existed. ``raw_plan`` keeps the no-dispatch kernel
    time so the overhead itself is visible in the record.
    """
    from repro.hw.plan import measure_steady_state, plan_unsupported_reason
    from repro.runtime import ExecutionConfig

    reason = plan_unsupported_reason(accelerator)
    if reason is not None:
        return {"supported": False, "reason": reason}
    n = images.shape[0]
    interpreted = ExecutionConfig(use_plan=False)
    planned = ExecutionConfig()
    unplanned_s = _best_seconds(
        lambda: accelerator.run(images, interpreted), repeats
    )
    plan, _ = accelerator.plans.get(n)
    out = np.empty_like(plan.execute(images))
    raw_s = _best_seconds(lambda: plan.execute(images, out=out), repeats)
    planned_s = _best_seconds(
        lambda: accelerator.run(images, planned), repeats
    )
    report = measure_steady_state(lambda: plan.execute(images, out=out))
    return {
        "supported": True,
        "images": n,
        "unplanned": {"seconds": unplanned_s, "fps": n / unplanned_s},
        "planned": {"seconds": planned_s, "fps": n / planned_s},
        "raw_plan": {
            "seconds": raw_s,
            "fps": n / raw_s,
            "dispatch_overhead": planned_s / raw_s - 1.0,
        },
        "speedup": unplanned_s / planned_s,
        "steady_state_alloc_blocks": report.per_call_blocks,
        "arena_kib": round(plan.arena_nbytes / 1024, 3),
        "fused_stages": plan.fused_stages,
    }


def _bench_parallel(
    accelerator: FinnAccelerator,
    images: np.ndarray,
    repeats: int,
    max_workers: int,
    inflight_per_worker: int,
) -> Dict:
    """Single-process planned FPS vs. the multi-process pool.

    The pool is timed with ``inflight_per_worker`` batches in flight per
    worker (an open-loop feed, so slot hand-off overlaps compute — how
    the serving layer drives it). Logits are checked bit-exact against
    the single-process plan before any timing is trusted. On a 1-core
    host the section still records (workers degrade to 1) but
    ``compare_to_best`` only gates it between runs on identical hosts.
    """
    from repro.hw.plan import plan_unsupported_reason
    from repro.parallel import logical_cpu_count
    from repro.runtime import ExecutionConfig, create_engine

    reason = plan_unsupported_reason(accelerator)
    if reason is not None:
        return {"supported": False, "reason": reason}
    n = images.shape[0]
    workers = max(1, min(max_workers, logical_cpu_count()))
    inflight = workers * inflight_per_worker

    plan, _ = accelerator.plans.get(n)
    ref = plan.execute(images)
    out = np.empty_like(ref)
    single_s = _best_seconds(lambda: plan.execute(images, out=out), repeats)

    engine = create_engine(
        accelerator,
        ExecutionConfig(
            isolation="process", workers=workers, max_batch=n,
            bucket_sizes=(n,), slots=inflight,
        ),
    )
    try:
        pool = engine.pool
        if not np.array_equal(pool.submit(images).result(timeout=120.0), ref):
            raise RuntimeError(
                "process pool logits diverge from the single-process plan"
            )

        def feed() -> None:
            tasks = [pool.submit(images) for _ in range(inflight)]
            for task in tasks:
                task.result(timeout=120.0)

        pool_s = _best_seconds(feed, repeats)
    finally:
        engine.close()
    return {
        "supported": True,
        "images": n,
        "workers": workers,
        "inflight": inflight,
        "single": {"seconds": single_s, "fps": n / single_s},
        "pool": {
            "seconds": pool_s,
            "fps": n * inflight / pool_s,
        },
        "speedup_vs_single": single_s * inflight / pool_s,
        "bit_exact": True,
    }


def run_bench(
    archs: Sequence[str] = BENCH_ARCHS,
    images: int = 16,
    repeats: int = 2,
    seed: int = 0,
    smoke: bool = False,
    sections: Optional[Sequence[str]] = None,
) -> Dict:
    """One benchmark run; returns the run record (see :data:`SCHEMA`).

    ``smoke`` shrinks every workload to sanity-gate scale (one small
    architecture, two images, single repeat) — fast enough for CI, still
    exercising every timed code path. ``sections`` restricts the run to a
    subset of :data:`BENCH_SECTIONS` (default: all); unknown names raise
    ``ValueError``. Partial runs are for iterating on one section — the
    CLI refuses to append them to the trajectory.
    """
    if images <= 0:
        raise ValueError(f"images must be positive, got {images}")
    if sections is None:
        selected = set(BENCH_SECTIONS)
    else:
        selected = set(sections)
        unknown = selected - set(BENCH_SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown bench section(s) {sorted(unknown)!r}; "
                f"known: {', '.join(BENCH_SECTIONS)}"
            )
        if not selected:
            raise ValueError("sections must name at least one section")
    if smoke:
        archs = ("u-cnv",)
        images = min(images, 2)
        repeats = 1
        gemm_shapes = (("smoke-fc", 8, 256, 32),)
        bitpack_shape = (64, 256)
        gen_cfg = {"samples": 6, "cache_raw_size": 40}
        train_cfg = {"arch": "u-cnv", "batch_size": 8, "steps": 2}
    else:
        gemm_shapes = GEMM_SHAPES
        bitpack_shape = BITPACK_SHAPE
        gen_cfg = dict(GEN_BENCH)
        train_cfg = dict(TRAIN_BENCH)
    for arch in archs:
        if arch not in BENCH_ARCHS:
            raise ValueError(f"unknown bench architecture {arch!r}")

    rng = np.random.default_rng(seed)
    run: Dict = {
        "timestamp": time.time(),
        "label": "smoke" if smoke else "full",
        "sections": [s for s in BENCH_SECTIONS if s in selected],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    from repro.parallel import host_info

    run["host"] = host_info()
    if "kernels" in selected:
        run["kernels"] = _bench_bitpack(rng, bitpack_shape, repeats)
        run["kernels"]["xnor_gemm"] = _bench_gemm(rng, gemm_shapes, repeats)

    batch = rng.random((images, 32, 32, 3)).astype(np.float32)
    datapath = selected & {"stages", "e2e", "plan"}
    if datapath:
        if "stages" in selected:
            run["stages"] = {}
        if "e2e" in selected:
            run["e2e"] = {}
        if "plan" in selected:
            run["plan"] = {}
        for arch in archs:
            model = build_architecture(arch, rng=seed)
            randomize_bn_stats(model, seed=seed + 1)
            model.eval()
            accelerator = compile_model(model, table1_folding(arch), name=arch)
            if selected & {"stages", "e2e"}:
                stages, e2e = _bench_accelerator(accelerator, batch, repeats)
                if "stages" in selected:
                    run["stages"][arch] = stages
                if "e2e" in selected:
                    run["e2e"][arch] = e2e
            if "plan" in selected:
                run["plan"][arch] = _bench_plan(accelerator, batch, repeats)

    if "parallel" in selected:
        par_cfg = dict(PARALLEL_BENCH)
        par_arch = par_cfg.pop("arch")
        model = build_architecture(par_arch, rng=seed)
        randomize_bn_stats(model, seed=seed + 1)
        model.eval()
        par_acc = compile_model(model, table1_folding(par_arch), name=par_arch)
        run["parallel"] = _bench_parallel(par_acc, batch, repeats, **par_cfg)

    if "telemetry" in selected:
        tel_cfg = dict(TELEMETRY_BENCH)
        tel_arch = tel_cfg.pop("arch")
        model = build_architecture(tel_arch, rng=seed)
        randomize_bn_stats(model, seed=seed + 1)
        model.eval()
        tel_acc = compile_model(model, table1_folding(tel_arch), name=tel_arch)
        run["telemetry"] = _bench_telemetry(tel_acc, batch, repeats, **tel_cfg)

    if "generation" in selected:
        run["generation"] = _bench_generation(seed, **gen_cfg)
    if "training" in selected:
        run["training"] = _bench_training(seed, **train_cfg)
    validate_run(run)
    return run


# -- schema ------------------------------------------------------------------
def validate_run(run: Dict) -> None:
    """Raise ``ValueError`` unless ``run`` has the expected shape.

    Runs without a ``sections`` list (trajectory entries predating
    section selection) must carry the classic kernels/stages/e2e core;
    sectioned runs must carry exactly what their ``sections`` name, and
    every present section is validated either way.
    """
    if not isinstance(run, dict):
        raise ValueError("run must be a mapping")
    required = ("timestamp", "label")
    if "sections" in run:
        if not isinstance(run["sections"], list) or not run["sections"]:
            raise ValueError("run.sections must be a non-empty list")
        unknown = set(run["sections"]) - set(BENCH_SECTIONS)
        if unknown:
            raise ValueError(f"run.sections has unknown names {sorted(unknown)!r}")
        required += tuple(run["sections"])
    else:
        required += ("kernels", "stages", "e2e")
    for key in required:
        if key not in run:
            raise ValueError(f"run is missing {key!r}")
    if "kernels" in run:
        for kernel in ("pack_bits", "unpack_bits", "xnor_gemm"):
            if kernel not in run["kernels"]:
                raise ValueError(f"run.kernels is missing {kernel!r}")
        for name in ("pack_bits", "unpack_bits"):
            if not run["kernels"][name].get("seconds", 0) > 0:
                raise ValueError(f"kernel {name!r} has no positive 'seconds'")
        for name, entry in run["kernels"]["xnor_gemm"].items():
            if not entry.get("seconds", 0) > 0:
                raise ValueError(f"xnor_gemm {name!r} has no positive 'seconds'")
    if "e2e" in run:
        if not run["e2e"]:
            raise ValueError("run.e2e is empty")
        for arch, entry in run["e2e"].items():
            for key in ("images", "seconds", "fps"):
                if key not in entry:
                    raise ValueError(f"e2e[{arch!r}] is missing {key!r}")
            if not entry["fps"] > 0:
                raise ValueError(f"e2e[{arch!r}].fps must be positive")
            if "stages" in run and arch not in run["stages"]:
                raise ValueError(f"run.stages is missing {arch!r}")
    if "stages" in run:
        for arch, stages in run["stages"].items():
            for stage in stages:
                if "name" not in stage or not stage.get("seconds", -1) >= 0:
                    raise ValueError(f"malformed stage entry in {arch!r}")
    if "plan" in run:
        if not run["plan"]:
            raise ValueError("run.plan is empty")
        for arch, entry in run["plan"].items():
            if not entry.get("supported", False):
                if "reason" not in entry:
                    raise ValueError(f"plan[{arch!r}] unsupported without reason")
                continue
            for section in ("planned", "unplanned"):
                if not entry.get(section, {}).get("fps", 0) > 0:
                    raise ValueError(
                        f"plan[{arch!r}].{section} has no positive 'fps'"
                    )
            if "steady_state_alloc_blocks" not in entry:
                raise ValueError(
                    f"plan[{arch!r}] is missing 'steady_state_alloc_blocks'"
                )
    if "parallel" in run:
        par = run["parallel"]
        if not par.get("supported", False):
            if "reason" not in par:
                raise ValueError("run.parallel unsupported without reason")
        else:
            for section in ("single", "pool"):
                if not par.get(section, {}).get("fps", 0) > 0:
                    raise ValueError(
                        f"parallel.{section} has no positive 'fps'"
                    )
            if not par.get("workers", 0) > 0:
                raise ValueError("parallel has no positive 'workers'")
            if par.get("bit_exact") is not True:
                raise ValueError(
                    "parallel.bit_exact must be True — the pool FPS of a "
                    "diverging datapath is meaningless"
                )
    # Generation/training sections are optional (older trajectory entries
    # predate them) but validated whenever present.
    if "generation" in run:
        gen = run["generation"]
        for section in ("serial", "parallel"):
            if not gen.get(section, {}).get("samples_per_s", 0) > 0:
                raise ValueError(
                    f"generation.{section} has no positive 'samples_per_s'"
                )
        cache = gen.get("cache", {})
        for key in ("cold_seconds", "warm_seconds"):
            if not cache.get(key, 0) > 0:
                raise ValueError(f"generation.cache has no positive {key!r}")
    if "training" in run:
        train = run["training"]
        for section in ("baseline", "arena"):
            if not train.get(section, {}).get("steps_per_s", 0) > 0:
                raise ValueError(
                    f"training.{section} has no positive 'steps_per_s'"
                )
    if "telemetry" in run:
        tel = run["telemetry"]
        for section in ("baseline", "off", "sampled", "full"):
            if not tel.get(section, {}).get("fps", 0) > 0:
                raise ValueError(
                    f"telemetry.{section} has no positive 'fps'"
                )
        for section in ("sampled", "full"):
            if "overhead_vs_off" not in tel[section]:
                raise ValueError(
                    f"telemetry.{section} is missing 'overhead_vs_off'"
                )


def validate_doc(doc: Dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid trajectory file."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a mapping")
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"schema mismatch: expected {SCHEMA!r}, got {doc.get('schema')!r}"
        )
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ValueError("document has no runs")
    for run in runs:
        validate_run(run)


def load_doc(path: Path) -> Optional[Dict]:
    """The existing trajectory at ``path`` (validated), or ``None``."""
    path = Path(path)
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    validate_doc(doc)
    return doc


def append_run(doc: Optional[Dict], run: Dict) -> Dict:
    """Append ``run`` to ``doc`` (creating a fresh trajectory if None)."""
    validate_run(run)
    if doc is None:
        doc = {"schema": SCHEMA, "runs": []}
    doc["runs"].append(run)
    return doc


def save_doc(doc: Dict, path: Path) -> Path:
    validate_doc(doc)
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


# -- comparison --------------------------------------------------------------
def compare_runs(prev: Dict, cur: Dict, tolerance: float = 0.25) -> List[Dict]:
    """Metric-by-metric comparison of two runs.

    Returns one record per shared metric with the speedup ratio
    (``> 1`` means the current run is faster) and a ``regressed`` flag
    set when the current run is more than ``tolerance`` slower (for
    timed kernels) or lower-throughput (for end-to-end FPS).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    out: List[Dict] = []

    def add(metric: str, prev_val: float, cur_val: float, higher_is_better: bool):
        ratio = (cur_val / prev_val) if higher_is_better else (prev_val / cur_val)
        out.append(
            {
                "metric": metric,
                "previous": prev_val,
                "current": cur_val,
                "speedup": ratio,
                "regressed": ratio < 1.0 - tolerance,
            }
        )

    prev_kernels = prev.get("kernels", {})
    cur_kernels = cur.get("kernels", {})
    for name in ("pack_bits", "unpack_bits"):
        if name in prev_kernels and name in cur_kernels:
            add(
                f"kernel.{name}.seconds",
                prev_kernels[name]["seconds"],
                cur_kernels[name]["seconds"],
                higher_is_better=False,
            )
    prev_gemm = prev_kernels.get("xnor_gemm", {})
    cur_gemm = cur_kernels.get("xnor_gemm", {})
    for name in sorted(set(prev_gemm) & set(cur_gemm)):
        add(
            f"kernel.xnor_gemm.{name}.seconds",
            prev_gemm[name]["seconds"],
            cur_gemm[name]["seconds"],
            higher_is_better=False,
        )
    for arch in sorted(set(prev.get("e2e", {})) & set(cur.get("e2e", {}))):
        add(
            f"e2e.{arch}.fps",
            prev["e2e"][arch]["fps"],
            cur["e2e"][arch]["fps"],
            higher_is_better=True,
        )
    prev_plan, cur_plan = prev.get("plan", {}), cur.get("plan", {})
    for arch in sorted(set(prev_plan) & set(cur_plan)):
        p, c = prev_plan[arch], cur_plan[arch]
        if p.get("supported") and c.get("supported"):
            add(
                f"plan.{arch}.planned.fps",
                p["planned"]["fps"],
                c["planned"]["fps"],
                higher_is_better=True,
            )
    prev_par, cur_par = prev.get("parallel"), cur.get("parallel")
    if (
        prev_par
        and cur_par
        and prev_par.get("supported")
        and cur_par.get("supported")
        # Pool FPS only compares like-for-like: the same worker count on
        # the same host class (compare_to_best additionally refuses
        # cross-core-count gating at the run level).
        and prev_par.get("workers") == cur_par.get("workers")
    ):
        add(
            "parallel.pool.fps",
            prev_par["pool"]["fps"],
            cur_par["pool"]["fps"],
            higher_is_better=True,
        )
        add(
            "parallel.single.fps",
            prev_par["single"]["fps"],
            cur_par["single"]["fps"],
            higher_is_better=True,
        )
    prev_gen, cur_gen = prev.get("generation"), cur.get("generation")
    if prev_gen and cur_gen:
        for section in ("serial", "parallel"):
            add(
                f"generation.{section}.samples_per_s",
                prev_gen[section]["samples_per_s"],
                cur_gen[section]["samples_per_s"],
                higher_is_better=True,
            )
        add(
            "generation.cache.warm_seconds",
            prev_gen["cache"]["warm_seconds"],
            cur_gen["cache"]["warm_seconds"],
            higher_is_better=False,
        )
    prev_train, cur_train = prev.get("training"), cur.get("training")
    if prev_train and cur_train and prev_train.get("arch") == cur_train.get("arch"):
        for section in ("baseline", "arena"):
            add(
                f"training.{section}.steps_per_s",
                prev_train[section]["steps_per_s"],
                cur_train[section]["steps_per_s"],
                higher_is_better=True,
            )
    prev_tel, cur_tel = prev.get("telemetry"), cur.get("telemetry")
    if prev_tel and cur_tel and prev_tel.get("arch") == cur_tel.get("arch"):
        for section in ("off", "sampled", "full"):
            add(
                f"telemetry.{section}.fps",
                prev_tel[section]["fps"],
                cur_tel[section]["fps"],
                higher_is_better=True,
            )
    return out


def compare_to_best(
    prior_runs: Sequence[Dict], cur: Dict, tolerance: float = 0.25
) -> List[Dict]:
    """Compare ``cur`` against the *best* prior value of each metric.

    Only prior runs with the same ``label`` as ``cur`` are considered —
    a full run must never be gated against a smoke run's tiny workloads
    (or vice versa), which is exactly the bug the old last-run comparison
    had after a smoke run landed in the trajectory. For every metric the
    record kept is the one with the lowest speedup, i.e. the toughest
    prior run wins, so a slow outlier run can never mask a regression.

    Prior runs from a host with a *different CPU count* are likewise
    refused wholesale: every throughput number in a run (not just the
    pool section) reflects the host's core budget, so gating a 1-core
    run against a 4-core best — or vice versa — would manufacture
    regressions out of hardware differences. A run with no recorded
    ``cpu_count`` never gates a run that has one.
    """
    label = cur.get("label")
    cores = cur.get("cpu_count")
    peers = [
        r
        for r in prior_runs
        if r.get("label") == label
        and r.get("cpu_count") == cores
        and r is not cur
    ]
    best: Dict[str, Dict] = {}
    order: List[str] = []
    for prev in peers:
        for rec in compare_runs(prev, cur, tolerance):
            key = rec["metric"]
            if key not in best:
                order.append(key)
                best[key] = rec
            elif rec["speedup"] < best[key]["speedup"]:
                best[key] = rec
    return [best[key] for key in order]


def render_run(run: Dict) -> str:
    """Human-readable summary of one run."""
    lines = [f"bench run ({run['label']}, numpy {run.get('numpy', '?')})"]
    kernels = run.get("kernels")
    if kernels:
        for name in ("pack_bits", "unpack_bits"):
            entry = kernels[name]
            lines.append(
                f"  {name:<24s} {entry['seconds'] * 1e3:8.2f} ms "
                f"({entry['gbits_per_s']:.2f} Gbit/s)"
            )
        for name, entry in kernels["xnor_gemm"].items():
            lines.append(
                f"  xnor_gemm {name:<14s} {entry['seconds'] * 1e3:8.2f} ms "
                f"({entry['gops_per_s']:.2f} Gop/s)"
            )
    for arch, entry in run.get("e2e", {}).items():
        line = (
            f"  e2e {arch:<8s} {entry['fps']:8.1f} FPS "
            f"({entry['images']} images in {entry['seconds'] * 1e3:.1f} ms"
        )
        if arch in run.get("stages", {}):
            slowest = max(run["stages"][arch], key=lambda s: s["seconds"])
            line += (
                f"; slowest stage {slowest['name']} "
                f"{slowest['seconds'] * 1e3:.1f} ms"
            )
        lines.append(line + ")")
    for arch, entry in run.get("plan", {}).items():
        if not entry.get("supported"):
            lines.append(f"  plan {arch:<7s} unsupported: {entry.get('reason')}")
            continue
        lines.append(
            f"  plan {arch:<7s} {entry['planned']['fps']:8.1f} FPS "
            f"(x{entry['speedup']:.2f} vs interpreted "
            f"{entry['unplanned']['fps']:.1f} FPS; "
            f"{entry['steady_state_alloc_blocks']} allocs/call, "
            f"arena {entry['arena_kib']:.0f} KiB, "
            f"{entry['fused_stages']} fused stages)"
        )
    par = run.get("parallel")
    if par:
        if not par.get("supported"):
            lines.append(f"  parallel unsupported: {par.get('reason')}")
        else:
            host = run.get("host", {})
            lines.append(
                f"  parallel single      {par['single']['fps']:8.1f} FPS "
                f"(planned, batch {par['images']})"
            )
            lines.append(
                f"  parallel pool        {par['pool']['fps']:8.1f} FPS "
                f"({par['workers']} workers on "
                f"{host.get('cpu_count', '?')} CPUs, "
                f"{par['inflight']} in flight, "
                f"x{par['speedup_vs_single']:.2f} vs single, bit-exact)"
            )
    gen = run.get("generation")
    if gen:
        lines.append(
            f"  generation serial    {gen['serial']['samples_per_s']:8.1f} "
            f"samples/s ({gen['samples']} samples)"
        )
        lines.append(
            f"  generation parallel  {gen['parallel']['samples_per_s']:8.1f} "
            f"samples/s ({gen['parallel']['workers']} workers, "
            f"x{gen['parallel']['speedup_vs_serial']:.2f} vs serial)"
        )
        cache = gen["cache"]
        lines.append(
            f"  dataset cache        cold {cache['cold_seconds']:.2f} s, "
            f"warm {cache['warm_seconds'] * 1e3:.1f} ms "
            f"(x{cache['warm_speedup']:.0f} warm speedup, "
            f"raw_size {cache['raw_size']})"
        )
    train = run.get("training")
    if train:
        for section in ("baseline", "arena"):
            entry = train[section]
            lines.append(
                f"  train {section:<14s} {entry['steps_per_s']:8.2f} steps/s "
                f"({train['arch']}, batch {train['batch_size']}, "
                f"epoch {entry['epoch_seconds']:.2f} s)"
            )
        lines.append(f"  train arena_speedup  x{train['arena_speedup']:.2f}")
    tel = run.get("telemetry")
    if tel:
        lines.append(
            f"  telemetry off        {tel['off']['fps']:8.1f} FPS "
            f"({tel['arch']}, {tel['off']['overhead_vs_baseline']:+.1%} "
            f"vs baseline)"
        )
        for section in ("sampled", "full"):
            entry = tel[section]
            lines.append(
                f"  telemetry {section:<10s} {entry['fps']:8.1f} FPS "
                f"(1/{entry['sample_every']} traces, "
                f"{entry['overhead_vs_off']:+.1%} vs off, "
                f"{entry['spans']} spans)"
            )
    return "\n".join(lines)


def render_comparison(records: Sequence[Dict]) -> str:
    """Human-readable comparison table (from :func:`compare_runs` or
    :func:`compare_to_best`)."""
    if not records:
        return "no previous run to compare against"
    lines = ["comparison vs best prior same-label run (speedup > 1 is faster):"]
    for rec in records:
        flag = "  REGRESSED" if rec["regressed"] else ""
        lines.append(
            f"  {rec['metric']:<34s} x{rec['speedup']:.2f}{flag}"
        )
    return "\n".join(lines)
