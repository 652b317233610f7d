"""The pool worker process: a pre-warmed plan cache over shared slots.

One worker = one process = one :class:`~repro.hw.plan.PlanCache` bound
to one :class:`~repro.parallel.shm.SharedArena`. At startup the worker
attaches the parent-created segments, sets BLAS to one thread (the
processes are the parallelism), pre-compiles a plan per configured
bucket size (so the first real request never pays a compile), then loops
on its private task queue:

``("run", task_id, slot, batch, dtype, return_bits)``
    Execute the plan for ``batch`` over the slot's input view, writing
    logits straight into the slot's output view — no array crosses the
    queue. ``return_bits`` additionally ships the per-stage boolean
    traces back pickled (debug mode; allocates by design).
``("stats", req_id)`` / ``("spans", req_id)`` / ``("alloccheck", req_id,
batch, iters)``
    Control plane: plan-cache counters + arena occupancy, the worker's
    span journal (tagged by worker id on the parent side), and an
    in-worker :func:`~repro.hw.plan.measure_steady_state` run — the
    allocation gate (no growth across calls, per-call temporaries)
    executed where it actually matters.
``("stop",)``
    Clean exit (views dropped, segments detached).

Replies go over the worker's own result pipe (``results``, the write
end of a one-way ``multiprocessing.Pipe``; no lock is shared with other
workers) and all carry ``worker_id`` so the parent can merge telemetry
and track in-flight work per worker for requeue-on-death.
"""

from __future__ import annotations

import os
import signal
from typing import Optional, Sequence, Tuple

from repro.parallel.shm import RingSpec, SharedArena, ShmRing

__all__ = ["worker_main"]


def worker_main(
    worker_id: int,
    accelerator,
    ring_spec: RingSpec,
    ring_name: str,
    arena_name: str,
    buckets: Sequence[int],
    task_queue,
    results,
    trace_sample: Optional[int] = None,
) -> None:
    """Entry point run inside each pool process (see module docstring)."""
    # The parent owns SIGINT (Ctrl-C must drain the pool, not massacre
    # it); workers exit via the "stop" message or SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.hw.plan import PlanCache, measure_steady_state
    from repro.telemetry import SpanJournal, Tracer
    from repro.utils.blas import set_blas_threads

    # The pool's processes are its parallelism: BLAS helper threads in
    # every worker would oversubscribe the cores.
    set_blas_threads(1)

    arena = SharedArena(0, name=arena_name, create=False)
    ring = ShmRing(ring_spec, name=ring_name, create=False)
    journal = SpanJournal()
    tracer = Tracer(journal=journal) if trace_sample else None
    plans = PlanCache(accelerator, capacity=len(buckets) + 2, arena=arena)
    try:
        plans.prewarm(buckets)
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        results.send(("fatal", worker_id, repr(exc)))
        ring.close()
        arena.close()
        return
    results.send(("started", worker_id, os.getpid()))
    tasks_seen = 0

    # Slot views and plans live only inside these helpers: worker_main's
    # own frame must hold no shared-memory views when the finally block
    # detaches the segments, or close() cannot release the mappings.
    def handle_run(msg: Tuple) -> None:
        _, task_id, slot, batch, dtype_name, return_bits = msg
        sampled = tracer is not None and tasks_seen % trace_sample == 0
        try:
            plan, _ = plans.get(batch)
            in_view = ring.input_view(slot, batch, dtype_name)
            out_view = ring.output_view(slot, batch)
            if return_bits:
                _, bits = plan.execute(
                    in_view,
                    out=out_view,
                    return_bits=True,
                    tracer=tracer if sampled else None,
                )
                payload = bits
            else:
                plan.execute(
                    in_view, out=out_view, tracer=tracer if sampled else None
                )
                payload = None
            results.send(("ok", worker_id, task_id, slot, payload))
        except Exception as exc:  # noqa: BLE001 - reported per task
            results.send(("err", worker_id, task_id, slot, repr(exc)))

    def handle_stats(req_id: int) -> None:
        stats = plans.stats()
        stats["worker_pid"] = os.getpid()
        stats["tasks"] = tasks_seen
        stats["arena_carved_bytes"] = arena.carved_bytes
        stats["arena_overflow_bytes"] = arena.overflow_bytes
        stats["arena_capacity"] = arena.capacity
        results.send(("stats", worker_id, req_id, stats))

    def handle_alloccheck(req_id: int, batch: int, iters: int) -> None:
        try:
            plan, _ = plans.get(batch)
            in_view = ring.input_view(0, batch, "float32")
            in_view[:] = 0.0
            out_view = ring.output_view(0, batch)
            report = measure_steady_state(
                lambda: plan.execute(in_view, out=out_view), iters=iters
            )
            results.send((
                "alloc",
                worker_id,
                req_id,
                {
                    "per_call_blocks": report.per_call_blocks,
                    "net_blocks": report.net_blocks,
                    "growth_blocks": report.growth_blocks,
                    "peak_transient_bytes": report.peak_transient_bytes,
                },
            ))
        except Exception as exc:  # noqa: BLE001 - reported
            results.send(("alloc", worker_id, req_id, {"error": repr(exc)}))

    try:
        while True:
            msg: Tuple = task_queue.get()
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "run":
                tasks_seen += 1
                handle_run(msg)
            elif kind == "stats":
                handle_stats(msg[1])
            elif kind == "spans":
                results.send(
                    ("spans", worker_id, msg[1], journal.snapshot())
                )
            elif kind == "alloccheck":
                handle_alloccheck(msg[1], msg[2], msg[3])
            # Unknown kinds are ignored: a newer parent may speak a
            # superset, and a worker must never die over a control frame.
    finally:
        # Compiled plans pin arena views (and cached ring views pin the
        # ring); drop them before detaching or close() cannot release
        # the mappings and the interpreter nags at exit.
        del plans, handle_run, handle_stats, handle_alloccheck
        import gc

        gc.collect()
        ring.close()
        arena.close()
