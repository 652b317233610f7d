"""The process pool: parent-side orchestration of planned inference.

:class:`ProcessPool` owns the shared segments (one slot ring, one arena
per worker), spawns the workers, and exposes a future-based submit API:

* :meth:`submit` pads a batch to its bucket, writes it into a free ring
  slot, and enqueues a tiny task tuple to the least-loaded worker —
  arrays never cross a pipe (``return_bits`` traces are the deliberate
  pickled exception).
* A collector thread drains the workers' result pipes, copies logits
  out of the slot (sliced back to the valid rows), frees the slot, and
  resolves the future. Each worker writes to a pipe of its own: a
  SIGKILLed worker must not die holding a lock that its peers need to
  report results (a shared ``multiprocessing.Queue`` has one).
* Worker death is detected by the collector, on its pipe's EOF or its
  idle heartbeat: the dead worker is respawned with a fresh task queue
  and result pipe, and every task that was in flight on it is
  re-dispatched — inputs still sit untouched in their ring slots, and
  planned inference is deterministic, so a re-run after a partial
  completion is safe. The task queue buffers the re-sent work while the
  replacement prewarms its plans. Restarts and requeues are counted and
  surfaced to ``on_event`` (the serving backend forwards them into the
  server's metrics registry).

The pool is bit-exact vs the single-process planned path by
construction: workers run the *same* ``ExecutionPlan`` code over the
same bytes, and padding only appends rows the batch-axis-row-wise
datapath never mixes into the first ``n_valid`` logits.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.bucketing import (
    bucket_for,
    default_buckets,
    validate_buckets,
)
from repro.parallel.host import recommended_workers
from repro.parallel.shm import RingSpec, SharedArena, ShmRing
from repro.parallel.worker import worker_main

__all__ = ["ProcessPool", "PoolTask"]

#: Default shared-arena capacity per worker; the carved working set of a
#: CNV batch-32 plan is a few MiB, and untouched tmpfs pages are free.
DEFAULT_ARENA_BYTES = 64 * 1024 * 1024

_START_TIMEOUT_S = 120.0

#: A task is failed rather than requeued forever after this many resends.
_MAX_RESENDS = 3


class PoolTask:
    """A submitted batch: future-style handle resolved by the collector."""

    def __init__(self, task_id: int, slot: int, batch: int, n_valid: int,
                 dtype: np.dtype, return_bits: bool) -> None:
        self.task_id = task_id
        self.slot = slot
        self.batch = batch
        self.n_valid = n_valid
        self.dtype = np.dtype(dtype)
        self.return_bits = return_bits
        self.worker_id: Optional[int] = None
        self.resends = 0
        self._done = threading.Event()
        self._logits: Optional[np.ndarray] = None
        self._bits = None
        self._error: Optional[BaseException] = None

    def _resolve(self, logits: np.ndarray, bits=None) -> None:
        self._logits = logits
        self._bits = bits
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Valid-row logits ``(n_valid, classes)``; raises on task failure."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"pool task {self.task_id} not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._logits

    def bits(self, timeout: Optional[float] = None):
        """Per-stage boolean traces (``return_bits`` submissions only)."""
        self.result(timeout)
        return self._bits


class ProcessPool:
    """``num_workers`` plan-running processes over shared-memory slots."""

    def __init__(
        self,
        accelerator,
        num_workers: Optional[int] = None,
        buckets: Optional[Sequence[int]] = None,
        max_batch: int = 32,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        trace_sample: Optional[int] = None,
        start_method: Optional[str] = None,
        on_event: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        from repro.hw.plan import plan_unsupported_reason

        # Validate eagerly: an unplannable model should fail here, not
        # as a "fatal" handshake from every spawned worker.
        reason = plan_unsupported_reason(accelerator)
        if reason is not None:
            raise ValueError(f"{accelerator.name}: {reason}")
        if num_workers is None:
            num_workers = recommended_workers()
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.accelerator = accelerator
        self.num_workers = int(num_workers)
        self.max_batch = int(max_batch)
        self.buckets = validate_buckets(
            buckets if buckets is not None else default_buckets(max_batch),
            max_batch,
        )
        self.trace_sample = trace_sample
        self._on_event = on_event
        spec = RingSpec(
            slots=2 * self.num_workers,
            max_batch=self.buckets[-1],
            input_shape=tuple(accelerator.input_shape),
            num_classes=int(accelerator.num_classes),
        )
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._ring = ShmRing(spec)
        self._arenas: List[SharedArena] = [
            SharedArena(arena_bytes) for _ in range(self.num_workers)
        ]
        self._results: List = [None] * self.num_workers  # read ends
        self._task_qs: List = [None] * self.num_workers
        self._procs: List = [None] * self.num_workers
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._free_slots = list(range(spec.slots))
        self._pending: Dict[int, PoolTask] = {}
        self._control: Dict[int, Tuple[Dict, threading.Event]] = {}
        self._next_task = 0
        self._next_req = 0
        self._closed = False
        self.counters: Dict[str, int] = {
            "tasks": 0, "worker_restarts": 0, "requeued": 0, "errors": 0,
        }
        for wid in range(self.num_workers):
            self._spawn(wid)
        self._await_started(range(self.num_workers))
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True
        )
        self._collector.start()

    # -- worker lifecycle ----------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        """(Re)start worker ``worker_id`` with a fresh task queue and
        result pipe."""
        q = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            name=f"pool-worker-{worker_id}",
            args=(
                worker_id,
                self.accelerator,
                self._ring.spec,
                self._ring.name,
                self._arenas[worker_id].name,
                self.buckets,
                q,
                writer,
                self.trace_sample,
            ),
            daemon=True,
        )
        proc.start()
        writer.close()  # the worker's copy is the last: its death is EOF
        if self._results[worker_id] is not None:
            self._results[worker_id].close()
        self._results[worker_id] = reader
        self._task_qs[worker_id] = q
        self._procs[worker_id] = proc

    def _await_started(self, worker_ids) -> None:
        """Block until every listed worker handshakes (startup only —
        once the collector runs, it consumes the handshakes itself)."""
        waiting = set(worker_ids)
        deadline = time.monotonic() + _START_TIMEOUT_S
        while waiting:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                self.close()
                raise RuntimeError(
                    f"pool workers {sorted(waiting)} failed to start within "
                    f"{_START_TIMEOUT_S:.0f}s"
                )
            readers = {self._results[w]: w for w in waiting}
            for reader in mp_connection.wait(
                list(readers), timeout=min(timeout, 0.5)
            ):
                try:
                    msg = reader.recv()
                except (EOFError, OSError):
                    msg = ("fatal", readers[reader], "exited before starting")
                if msg[0] == "started":
                    waiting.discard(msg[1])
                elif msg[0] == "fatal":
                    self.close()
                    raise RuntimeError(
                        f"pool worker {msg[1]} failed to initialise: {msg[2]}"
                    )

    def alive_workers(self) -> int:
        """How many worker processes are currently alive."""
        return sum(1 for p in self._procs if p is not None and p.is_alive())

    def healthy(self) -> bool:
        return not self._closed and self.alive_workers() == self.num_workers

    # -- submission ----------------------------------------------------------
    def _acquire_slot(self) -> int:
        with self._slot_free:
            while not self._free_slots:
                if self._closed:
                    raise RuntimeError("pool is closed")
                self._slot_free.wait(timeout=0.1)
            return self._free_slots.pop()

    def _release_slot(self, slot: int) -> None:
        with self._slot_free:
            self._free_slots.append(slot)
            self._slot_free.notify()

    def _pick_worker_locked(self) -> int:
        """Least-loaded live worker (ties by id); callers hold the lock."""
        load = [0] * self.num_workers
        for task in self._pending.values():
            if task.worker_id is not None:
                load[task.worker_id] += 1
        return min(
            range(self.num_workers),
            key=lambda w: (not self._procs[w].is_alive(), load[w], w),
        )

    def submit(self, images: np.ndarray, return_bits: bool = False) -> PoolTask:
        """Dispatch one batch (≤ largest bucket) to a worker; returns a task.

        ``images`` is an ``(N,) + input_shape`` batch that satisfies the
        accelerator's ``input_contract`` (the engine checks it). The
        batch is padded up to its bucket inside the ring slot; the
        returned task resolves to the valid rows only.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        images = np.asarray(images)
        n = images.shape[0]
        bucket = bucket_for(n, self.buckets)
        slot = self._acquire_slot()
        try:
            view = self._ring.input_view(slot, bucket, images.dtype)
            view[:n] = images
        except BaseException:
            self._release_slot(slot)  # a malformed batch must not leak it
            raise
        if bucket > n:
            view[n:] = 0
        with self._lock:
            task = PoolTask(
                self._next_task, slot, bucket, n, images.dtype, return_bits
            )
            self._next_task += 1
            self._pending[task.task_id] = task
            self.counters["tasks"] += 1
            task.worker_id = self._pick_worker_locked()
        self._task_qs[task.worker_id].put(
            ("run", task.task_id, slot, bucket, images.dtype.name, return_bits)
        )
        return task

    def execute(self, images: np.ndarray, timeout: Optional[float] = 120.0
                ) -> np.ndarray:
        """Integer logits for an arbitrary-size batch, chunked over workers."""
        chunk = self.buckets[-1]
        tasks = [
            self.submit(images[start:start + chunk])
            for start in range(0, len(images), chunk)
        ]
        return np.concatenate([t.result(timeout=timeout) for t in tasks])

    def predict(self, images: np.ndarray, timeout: Optional[float] = 120.0
                ) -> np.ndarray:
        """Argmax class labels for an arbitrary-size batch."""
        return self.execute(images, timeout=timeout).argmax(axis=1)

    # -- collector -----------------------------------------------------------
    def _collect(self) -> None:
        while not self._closed:
            ready = mp_connection.wait(
                [r for r in self._results if r is not None], timeout=0.05
            )
            if not ready:
                self._reap_dead()
            for reader in ready:
                try:
                    msg = reader.recv()
                except (EOFError, OSError):  # its worker died
                    self._reap_dead()
                    continue
                self._handle(msg)

    def _handle(self, msg: Tuple) -> None:
        kind = msg[0]
        if kind == "ok":
            _, worker_id, task_id, slot, payload = msg
            with self._lock:
                task = self._pending.pop(task_id, None)
            if task is None:
                return  # completed by a pre-respawn duplicate
            out = self._ring.output_view(slot, task.batch)
            logits = out[: task.n_valid].copy()
            bits = None
            if task.return_bits and payload is not None:
                bits = [stage[: task.n_valid] for stage in payload]
            self._release_slot(slot)
            task._resolve(logits, bits)
        elif kind == "err":
            _, worker_id, task_id, slot, detail = msg
            with self._lock:
                task = self._pending.pop(task_id, None)
            if task is None:
                return
            self.counters["errors"] += 1
            self._emit("pool_task_errors", 1)
            self._release_slot(slot)
            task._fail(RuntimeError(
                f"pool worker {worker_id} failed task {task_id}: {detail}"
            ))
        elif kind in ("stats", "spans", "alloc"):
            _, worker_id, req_id, payload = msg
            with self._lock:
                entry = self._control.get(req_id)
            if entry is not None:
                box, event = entry
                box[worker_id] = payload
                event.set()
        # "started" handshakes after a respawn need no action; a
        # "fatal" respawn failure leaves the process dead and the
        # next _reap_dead pass handles (or gives up on) it.

    def _reap_dead(self) -> None:
        """Respawn dead workers and re-dispatch their in-flight tasks."""
        for wid, proc in enumerate(self._procs):
            if self._closed or proc is None or proc.is_alive():
                continue
            proc.join(timeout=0)
            with self._lock:
                orphans = [
                    t for t in self._pending.values() if t.worker_id == wid
                ]
            self.counters["worker_restarts"] += 1
            self._emit("pool_worker_restarts", 1)
            # A fresh worker prewarms before serving, but its queue
            # buffers the re-sent tasks meanwhile — no handshake wait
            # here (this thread must keep draining results).
            self._spawn(wid)
            for task in orphans:
                # The inputs still sit in the task's ring slot; planned
                # inference is deterministic, so re-running a task the
                # dead worker may have half-finished is safe.
                if task.resends >= _MAX_RESENDS:
                    with self._lock:
                        self._pending.pop(task.task_id, None)
                    self._release_slot(task.slot)
                    task._fail(RuntimeError(
                        f"task {task.task_id} requeued {task.resends} times "
                        "without completing"
                    ))
                    continue
                task.resends += 1
                with self._lock:
                    task.worker_id = self._pick_worker_locked()
                self.counters["requeued"] += 1
                self._emit("pool_requeued", 1)
                self._task_qs[task.worker_id].put((
                    "run", task.task_id, task.slot, task.batch,
                    task.dtype.name, task.return_bits,
                ))

    def _emit(self, event: str, n: int) -> None:
        if self._on_event is not None:
            try:
                self._on_event(event, n)
            except Exception:  # noqa: BLE001 - observers must not kill the pool
                pass

    def on_event(self, callback: Optional[Callable[[str, int], None]]) -> None:
        """Install the restart/requeue/error observer (e.g. server metrics)."""
        self._on_event = callback

    # -- control plane -------------------------------------------------------
    def _broadcast(self, command: str, timeout: float = 30.0,
                   extra: Tuple = ()) -> Dict[int, Dict]:
        """Send a control command to every live worker, gather replies."""
        box: Dict[int, Dict] = {}
        event = threading.Event()
        with self._lock:
            req_id = self._next_req
            self._next_req += 1
            self._control[req_id] = (box, event)
            live = [
                wid for wid, p in enumerate(self._procs)
                if p is not None and p.is_alive()
            ]
        try:
            for wid in live:
                self._task_qs[wid].put((command, req_id) + extra)
            deadline = time.monotonic() + timeout
            while len(box) < len(live) and time.monotonic() < deadline:
                event.wait(timeout=0.05)
                event.clear()
        finally:
            with self._lock:
                self._control.pop(req_id, None)
        return dict(box)

    def plan_stats(self) -> Dict:
        """Aggregated plan-cache counters with a per-worker breakdown."""
        per_worker = self._broadcast("stats")
        total = {"hits": 0, "misses": 0, "plans": 0, "arena_bytes": 0}
        for stats in per_worker.values():
            for key in total:
                total[key] += stats.get(key, 0)
        return {
            "workers": {int(k): v for k, v in per_worker.items()},
            "total": total,
            "pool": dict(self.counters),
        }

    def drain_spans(self, journal=None) -> List[Dict]:
        """Every worker's spans, tagged with its worker id.

        With ``journal`` given the spans are also recorded into it, so a
        serve run's trace file interleaves worker-side ``hw_stage`` spans
        with the parent's serving spans.
        """
        per_worker = self._broadcast("spans")
        merged: List[Dict] = []
        for wid, spans in sorted(per_worker.items()):
            for span in spans:
                span = dict(span)
                attrs = dict(span.get("attributes") or {})
                attrs["worker"] = int(wid)
                span["attributes"] = attrs
                merged.append(span)
                if journal is not None:
                    journal.record(span)
        return merged

    def alloc_check(self, batch: Optional[int] = None, iters: int = 10
                    ) -> Dict[int, Dict]:
        """Run the steady-state allocation gate *inside* each worker."""
        bucket = bucket_for(batch or self.buckets[0], self.buckets)
        return self._broadcast(
            "alloccheck", timeout=120.0, extra=(bucket, iters)
        )

    # -- shutdown ------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop workers, fail leftover tasks, release every shared segment."""
        if self._closed:
            return
        self._closed = True
        for wid, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():
                try:
                    self._task_qs[wid].put(("stop",))
                except Exception:  # noqa: BLE001 - queue may be broken
                    pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=timeout)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
        collector = getattr(self, "_collector", None)
        if collector is not None and collector.is_alive():
            collector.join(timeout=2.0)
        for reader in self._results:
            if reader is not None:
                reader.close()
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for task in leftovers:
            task._fail(RuntimeError("pool closed with task in flight"))
        with self._slot_free:
            self._slot_free.notify_all()
        self._ring.close(unlink=True)
        for arena in self._arenas:
            arena.close(unlink=True)

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
