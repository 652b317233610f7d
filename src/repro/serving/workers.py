"""Worker pool: micro-batches -> the backend -> resolved requests.

Each worker loops on the batcher, stacks the batch's images and runs
them on the pool's one backend. A :class:`threading.BoundedSemaphore`
enforces the concurrency limit the backend derives from its Table I
folding.

The worker threads are the server's parallelism, so while the pool runs
BLAS runs on one thread inside them (:mod:`repro.utils.blas`): OpenBLAS
helper threads on top of the workers would oversubscribe the cores.

Every request the pool touches leaves in a terminal state: COMPLETED
with a label, TIMED_OUT if its deadline fired in the queue, or FAILED
with the reason if its batch could not be stacked, the backend raised,
or the backend returned the wrong number of labels. No batch can kill a
worker thread.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from repro.serving.backends import InferenceBackend
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import InferenceRequest, RequestStatus
from repro.telemetry.tracing import NOOP_SPAN, get_tracer
from repro.utils import blas

__all__ = ["WorkerPool"]

#: How long an idle worker blocks for a first request before it
#: rechecks the stop flag.
_POLL_S = 0.02


class WorkerPool:
    """``num_workers`` threads pulling micro-batches and running a backend."""

    def __init__(
        self,
        batcher: MicroBatcher,
        backend: InferenceBackend,
        metrics: MetricsRegistry,
        num_workers: int = 2,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.batcher = batcher
        self.backend = backend
        self.metrics = metrics
        self.num_workers = int(num_workers)
        self._slots = threading.BoundedSemaphore(backend.max_concurrency)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._threads) and not self._stop.is_set()

    @property
    def workers_alive(self) -> int:
        """How many worker threads are actually alive (health probe)."""
        return sum(1 for t in self._threads if t.is_alive())

    def start(self) -> None:
        """Start the workers; BLAS runs single-threaded until :meth:`stop`."""
        if self._threads:
            raise RuntimeError("worker pool already started")
        self._stop.clear()
        blas.hold_single_thread()
        for i in range(self.num_workers):
            t = threading.Thread(
                target=self._loop, name=f"serving-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Signal workers to exit after their current batch and join them.

        Releases this pool's hold on single-threaded BLAS; the last pool
        to stop restores the thread count found at the first start.
        """
        self._stop.set()
        for t in self._threads:
            t.join(timeout=timeout)
        if self._threads:
            blas.release_single_thread()
        self._threads = []

    # -- the work ------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            batch = self.batcher.next_batch(poll_timeout_s=_POLL_S)
            if batch:
                self._execute(batch)

    def _execute(self, batch: List[InferenceRequest]) -> None:
        # The batcher dispatches what it collects at once, so its expiry
        # check stands for this one; begin() drops requests cancelled
        # since.
        now_batch: List[InferenceRequest] = []
        for request in batch:
            if request.begin():
                self.metrics.observe_queue_wait(request.queue_wait_s)
                now_batch.append(request)
        if not now_batch:
            return

        # The batch span parents under the first traced request and
        # *links* to the rest — a micro-batch belongs to one trace tree
        # but serves many requests, and links keep the others findable.
        # It is current while the backend runs, so the engine's runtime
        # and per-stage spans nest directly under it.
        tracer = get_tracer()
        traced = [
            r.trace_span
            for r in now_batch
            if r.trace_span is not None and r.trace_span.recording
        ] if tracer.enabled else []
        with tracer.span(
            "serving.batch",
            kind="batch",
            parent=traced[0] if traced else NOOP_SPAN,
            links=[s.span_id for s in traced[1:]],
            attributes={"size": len(now_batch)},
        ) as batch_span:
            failure = self._run_batch(now_batch, batch_span)
        if failure is None:
            return
        error, detail = failure
        for request in now_batch:
            if request.resolve(RequestStatus.FAILED, error=error, detail=detail):
                self.metrics.increment("failed")

    def _run_batch(self, now_batch: List[InferenceRequest], batch_span):
        """Complete the batch on the backend, or return the
        ``(error, detail)`` to fail it with."""
        backend = self.backend
        try:
            # Stacking and padding stay inside the try as safety code
            # (submit already checked every image against the input
            # contract): a batch that cannot be stacked fails with the
            # reason, never the worker thread.
            images = np.stack([r.image for r in now_batch])
            bucket = self.batcher.bucket_for(len(now_batch))
            if bucket is not None and bucket > len(now_batch):
                # Pad up to the bucket geometry so shape-keyed backends
                # (the plan caches) see a fixed set of batch shapes; the
                # pad rows' labels are sliced off below.
                pad = np.zeros(
                    (bucket - len(now_batch),) + images.shape[1:], images.dtype
                )
                images = np.concatenate([images, pad])
                self.metrics.increment("padded_images", bucket - len(now_batch))
            self.metrics.observe_batch(len(now_batch))
            batch_span.set_attribute("backend", backend.name)
            with self._slots:
                try:
                    with self.metrics.stopwatch.section(f"infer.{backend.name}"):
                        labels = np.asarray(backend.infer(images))
                    if len(labels) != len(images):
                        raise RuntimeError(
                            f"returned {len(labels)} labels for a batch "
                            f"of {len(images)}"
                        )
                except Exception as exc:  # noqa: BLE001 — reported below
                    self.metrics.increment("backend_errors")
                    return exc, f"backend {backend.name!r} failed: {exc}"
            self._complete(now_batch, labels[: len(now_batch)], backend.name)
        except Exception as exc:  # noqa: BLE001 — fail the batch, keep the worker
            return exc, f"batch could not be run: {exc}"
        return None

    def _complete(
        self, batch: List[InferenceRequest], labels: np.ndarray, backend_name: str
    ) -> None:
        for request, label in zip(batch, labels):
            request.batch_size = len(batch)
            request.backend_name = backend_name
            if request.expired():
                # Deadline fired mid-inference: still deliver the label,
                # but count the lateness so operators can see it.
                self.metrics.increment("late_completions")
            if request.resolve(RequestStatus.COMPLETED, label=int(label)):
                self.metrics.observe_completion(request.latency_s)
