"""Set-up, correctness checks and measured loops of the benchmark workloads.

Every workload runs n-CNV at its Table I folding on the default engine
(``ExecutionConfig()``, which resolves to ``planned-blas``). The model is
the same for every seed, because it is the program under test; the face
tiles, the call order and the arrival schedule come from the workload
seed. The stack is driven from outside, through its public calls only.

=============  ==============================================================
workload       load
=============  ==============================================================
``gate``       closed loop, one caller, ``accelerator.predict(tile)``, batch 1
``crowd``      closed loop, one caller, ``accelerator.run(batch)``, batch 16
``serve``      open loop, Poisson arrivals at 500/s, ``InferenceServer``
``serve_pool`` open loop, Poisson at 400/s, server over the process pool
=============  ==============================================================
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.architectures import build_architecture, table1_folding
from repro.hw.compiler import compile_model
from repro.parallel import recommended_workers
from repro.runtime import ExecutionConfig
from repro.serving import InferenceServer, RequestStatus, face_tile_pool
from repro.telemetry import get_tracer
from repro.testing import randomize_bn_stats

MODEL = "n-cnv"
MODEL_SEED = 0
N_TILES = 64
SETUP_REPEATS = 5
WARMUP_CALLS = 20
SLO_S = 0.050
WINDOW_S = 0.5
GRACE_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``rate_hz`` set makes it an open loop through the inference server;
    otherwise one caller runs ``batch`` images per call. For open loops
    ``batch`` is the nominal coalesced batch the dispatch probe uses.
    """

    name: str
    batch: int
    rate_hz: Optional[float] = None
    isolation: str = "none"

    @property
    def open_loop(self) -> bool:
        return self.rate_hz is not None


WORKLOADS: Dict[str, Workload] = {
    "gate": Workload("gate", batch=1),
    "crowd": Workload("crowd", batch=16),
    # About a third of the ~1.5k req/s saturation of the threaded server
    # on a 2-core host: batches still coalesce and miss the plan cache,
    # but a slow phase of a shared host does not tip the server into a
    # backlog (at 800/s p99 swung 25-150 ms between runs). The pool pays
    # IPC per batch, hence 400/s.
    "serve": Workload("serve", batch=8, rate_hz=500.0),
    "serve_pool": Workload(
        "serve_pool", batch=8, rate_hz=400.0, isolation="process"
    ),
}


@dataclass
class Bench:
    """Everything one set-up builds; ``server`` only for open loops."""

    workload: Workload
    accelerator: object
    tiles: np.ndarray
    server: Optional[InferenceServer] = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def build_accelerator():
    model = build_architecture(MODEL, rng=MODEL_SEED)
    randomize_bn_stats(model, seed=MODEL_SEED + 1)
    model.eval()
    return compile_model(model, table1_folding(MODEL), name=MODEL)


def setup(workload: Workload, tiles: np.ndarray,
          trace_pool: bool = False) -> Bench:
    """Model build, compile, warm-up and server start.

    ``trace_pool`` makes pool workers trace every task, so a traced run
    sees the stage spans of the worker processes too.
    """
    accelerator = build_accelerator()
    bench = Bench(workload, accelerator, tiles)
    if not workload.open_loop:
        for _ in range(WARMUP_CALLS):
            accelerator.run(tiles[: workload.batch])
        return bench
    execution = ExecutionConfig(
        isolation=workload.isolation,
        trace_sample=1 if trace_pool and workload.isolation == "process"
        else None,
    )
    bench.server = InferenceServer.from_accelerator(
        accelerator, execution=execution
    ).start()
    for handle in [bench.server.submit(t) for t in tiles]:
        handle.wait(timeout=GRACE_S)
    return bench


def timed_setups(workload: Workload, tiles: np.ndarray):
    """(last bench, median set-up seconds) over ``SETUP_REPEATS`` set-ups.

    Tile rendering is input generation, done once before: at ~1 s it
    would swamp the system's own set-up cost.
    """
    times = []
    bench = None
    for _ in range(SETUP_REPEATS):
        if bench is not None:
            bench.close()
        t0 = time.perf_counter()
        bench = setup(workload, tiles)
        times.append(time.perf_counter() - t0)
    return bench, float(np.median(times))


def render_tiles(seed: int) -> np.ndarray:
    return face_tile_pool(N_TILES, rng=seed)


# -- correctness ---------------------------------------------------------------
@dataclass
class Reference:
    """Interpreted-reference logits of the tile pool, and probe outcomes."""

    logits: np.ndarray
    checks: int = 0
    mismatches: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.labels = self.logits.argmax(axis=1)


def check_correctness(bench: Bench) -> Reference:
    """Pre-timing checks: default engine == interpreted reference, bit for
    bit, and (open loops) served labels == direct ``predict`` labels."""
    acc, tiles = bench.accelerator, bench.tiles
    ref = Reference(acc.run(tiles, ExecutionConfig(use_plan=False)))
    ref.checks += 1
    if not np.array_equal(acc.run(tiles), ref.logits):
        ref.mismatches.append("default-engine logits differ from interpreted")
    if bench.server is not None:
        ref.checks += 1
        direct = acc.predict(tiles)
        served = [
            h.label if h.wait(timeout=GRACE_S) is RequestStatus.COMPLETED
            else None
            for h in [bench.server.submit(t) for t in tiles]
        ]
        if served != direct.tolist():
            ref.mismatches.append("served labels differ from predict labels")
    return ref


# -- measured loops ------------------------------------------------------------
@dataclass
class LoopResult:
    """Raw outcome of one measured window."""

    attempted: int
    completed: int
    mismatches: int
    images: int
    window_s: float
    latencies_s: np.ndarray  # per call, or per completed request from due
    done_at_s: np.ndarray  # completion times from the window start
    in_slo: int
    late_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    queue_wait_s: np.ndarray = field(default_factory=lambda: np.zeros(0))


def closed_loop(bench: Bench, ref: Reference, seconds: float,
                rng: np.random.Generator) -> LoopResult:
    """One caller, back to back, for ``seconds``; each call in a
    ``bench.call`` span (free when no tracer is active)."""
    acc, batch = bench.accelerator, bench.workload.batch
    order = rng.integers(0, N_TILES, size=(256, batch))
    inputs = [np.ascontiguousarray(bench.tiles[idx]) for idx in order]
    if batch == 1:
        call, inputs = acc.predict, [x[0] for x in inputs]
        expected = [ref.labels[idx] for idx in order]
    else:
        call, expected = acc.run, [ref.logits[idx] for idx in order]
    tracer = get_tracer()
    latencies: List[float] = []
    done_at: List[float] = []
    mismatches = 0
    start = time.perf_counter()
    end = start + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        if t0 >= end:
            break
        k = i % len(inputs)
        with tracer.span("bench.call", kind="bench", attributes={"images": batch}):
            out = call(inputs[k])
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        done_at.append(t1 - start)
        mismatches += not np.array_equal(out, expected[k])
        i += 1
    window = time.perf_counter() - start
    lat = np.asarray(latencies)
    return LoopResult(
        attempted=i,
        completed=i,
        mismatches=mismatches,
        images=i * batch,
        window_s=window,
        latencies_s=lat,
        done_at_s=np.asarray(done_at),
        in_slo=int((lat <= SLO_S).sum()),
    )


def arrival_schedule(rate_hz: float, seconds: float,
                     rng: np.random.Generator):
    """(due offsets in s, tile indices) of a seeded Poisson process."""
    gaps = rng.exponential(1.0 / rate_hz, size=int(rate_hz * seconds * 1.5) + 64)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    return offsets, rng.integers(0, N_TILES, size=len(offsets))


def open_loop(bench: Bench, ref: Reference, seconds: float,
              rng: np.random.Generator) -> LoopResult:
    """Submit on a seeded Poisson schedule regardless of how the server
    copes; latency counts from each request's due time."""
    offsets, idx = arrival_schedule(bench.workload.rate_hz, seconds, rng)
    server, tiles = bench.server, bench.tiles
    n = len(offsets)
    sent = np.empty(n)
    handles = []
    start = time.monotonic() + 0.01
    due = start + offsets
    for k in range(n):
        delay = due[k] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent[k] = time.monotonic()
        handles.append(server.submit(tiles[idx[k]]))
    # Wait for every request before the bookkeeping below: run while the
    # last requests are in flight, it would hold the GIL against the
    # server threads and inflate their latency.
    deadline = time.monotonic() + GRACE_S
    for handle in handles:
        handle.wait(timeout=max(0.0, deadline - time.monotonic()))
    completed_at = np.full(n, np.nan)
    waits = []
    mismatches = 0
    tracer = get_tracer()
    for k, handle in enumerate(handles):
        if handle.status is not RequestStatus.COMPLETED:
            continue
        completed_at[k] = sent[k] + handle.latency_s
        waits.append(handle.queue_wait_s)
        mismatches += handle.label != ref.labels[idx[k]]
        tracer.record(
            "bench.request", kind="bench", start_s=due[k],
            end_s=completed_at[k], parent=None,
            attributes={"request_id": handle.request_id},
        )
    done = ~np.isnan(completed_at)
    lat = completed_at[done] - due[done]
    last = np.nanmax(completed_at) if done.any() else time.monotonic()
    return LoopResult(
        attempted=n,
        completed=int(done.sum()),
        mismatches=int(mismatches),
        images=int(done.sum()),
        window_s=float(last - start),
        latencies_s=lat,
        done_at_s=completed_at[done] - start,
        in_slo=int((lat <= SLO_S).sum()),
        late_s=sent - due,
        queue_wait_s=np.asarray(waits),
    )


def measure(bench: Bench, ref: Reference, seconds: float,
            rng: np.random.Generator) -> LoopResult:
    loop = open_loop if bench.workload.open_loop else closed_loop
    return loop(bench, ref, seconds, rng)


# -- reporting -----------------------------------------------------------------
def percentile_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if len(values) else 0.0


def windowed_p99_ms(latencies: np.ndarray, min_samples: int = 1000,
                    max_windows: int = 20) -> float:
    """p99 of consecutive windows of at least ``min_samples``, median over
    the windows: one slow episode (a backlog after a burst, a host stall)
    moves one window's p99 rather than the whole run's."""
    k = max(1, min(max_windows, len(latencies) // min_samples))
    return float(np.median([
        np.percentile(w, 99) for w in np.array_split(latencies, k)
    ]) * 1e3)


def windowed_rate(result: LoopResult) -> float:
    """Completions per second within each whole ``WINDOW_S`` window of
    completion time (first to last completion), median over the windows;
    the plain mean when the run is shorter than two windows."""
    rates = []
    for w in range(int(result.window_s // WINDOW_S)):
        t = np.sort(result.done_at_s[
            (result.done_at_s >= w * WINDOW_S)
            & (result.done_at_s < (w + 1) * WINDOW_S)
        ])
        if len(t) >= 2:
            rates.append((len(t) - 1) / (t[-1] - t[0]))
    if len(rates) < 2:
        return result.completed / result.window_s
    return float(np.median(rates))


def end_to_end(result: LoopResult, setup_s: float) -> Dict[str, float]:
    """The user-visible metrics of one untraced window."""
    rate = windowed_rate(result)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": percentile_ms(result.latencies_s, 50),
        "latency_p99_ms": windowed_p99_ms(result.latencies_s),
        "images_per_s": rate * result.images / max(result.completed, 1),
        "goodput_rps": rate,
        "slo_attainment": result.in_slo / result.attempted,
        "completed_share": result.completed / result.attempted,
        "rss_peak_mb": rss_peak_mb(),
    }


def _proc_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the child exited between listing and reading
    return 0


def _child_pids() -> List[int]:
    pids: List[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def rss_peak_mb() -> float:
    """Peak resident set of this process plus its live children (the pool
    workers), from ``VmHWM``; forked pages shared with the parent count in
    both."""
    kb = _proc_hwm_kb("self") + sum(_proc_hwm_kb(p) for p in _child_pids())
    return kb / 1024.0


def host_record(seed: int) -> Dict:
    """Host facts stored beside every run, so host drift is not read as a
    regression: CPUs, versions, pool size and a fixed sgemm speed probe."""
    gen = np.random.default_rng(1234)
    a = gen.standard_normal((384, 384), dtype=np.float32)
    b = gen.standard_normal((384, 384), dtype=np.float32)
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pool_workers": recommended_workers(),
        "sgemm_gflops": 2 * 384**3 / float(np.median(times)) / 1e9,
        "seed": seed,
        "argv": sys.argv[1:],
    }
