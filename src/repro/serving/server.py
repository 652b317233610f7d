"""The inference server: queue + micro-batcher + worker pool + metrics.

:class:`InferenceServer` is the paper's deployment story turned into a
request path: gate cameras (or any caller) submit single face tiles,
admission control applies explicit backpressure, the work-conserving
micro-batcher dispatches as soon as a worker is free (taking whatever has
queued meanwhile, so batch size follows load), and every outcome is
observable through :meth:`InferenceServer.stats`.

The server runs the deployed datapath: a compiled
:class:`~repro.hw.compiler.FinnAccelerator` (``clf.deploy()``) behind
one backend. Typical use::

    from repro.serving import InferenceServer, ServingConfig

    server = InferenceServer.from_accelerator(clf.deploy(), ServingConfig(
        max_batch_size=32, queue_capacity=256))
    with server:                       # starts workers, stops on exit
        handle = server.submit(image)  # never blocks; may be rejected
        label = handle.result(timeout=1.0)
        print(server.stats().report())
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.serving.admission import AdmissionQueue
from repro.serving.backends import AcceleratorBackend, InferenceBackend
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import MetricsRegistry, ServerStats, StatsReporter
from repro.serving.request import (
    InferenceRequest,
    RejectionReason,
    RequestStatus,
    ResultHandle,
)
from repro.serving.workers import WorkerPool
from repro.telemetry.health import (
    HealthReport,
    probe_backend_smoke,
    probe_queue,
    probe_workers,
)
from repro.telemetry.tracing import get_tracer

__all__ = ["ServingConfig", "InferenceServer"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer (validated eagerly).

    * ``max_batch_size`` — the largest batch a free worker takes from
      the queue. The batcher never waits to fill it: a lone request is
      dispatched at once, and requests that queue while every worker is
      busy are coalesced up to this size.
    * ``queue_capacity`` — the admission bound; arrivals beyond it are
      rejected (or shed lower-priority work when ``allow_shedding``).
    * ``num_workers`` — batcher/backend driver threads. They are the
      server's parallelism: BLAS runs on one thread inside them while
      the server is up.
    * ``default_timeout_s`` — per-request deadline applied when
      ``submit`` does not specify one (``None`` = no deadline).
    * ``bucket_sizes`` — optional batch-shape buckets: formed batches
      are padded up to the nearest listed size so shape-keyed backends
      (plan caches, the process pool) see a small fixed set of batch
      geometries. The list must be strictly increasing positive sizes
      and the largest bucket must cover ``max_batch_size`` — rejected
      here rather than surfacing as padding errors deep in the batcher.
    """

    max_batch_size: int = 32
    queue_capacity: int = 256
    num_workers: int = 2
    default_timeout_s: Optional[float] = None
    allow_shedding: bool = True
    bucket_sizes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.queue_capacity <= 0:
            raise ValueError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.num_workers <= 0:
            raise ValueError(
                f"num_workers must be positive, got {self.num_workers}"
            )
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError(
                f"default_timeout_s must be positive, got {self.default_timeout_s}"
            )
        if self.bucket_sizes is not None:
            from repro.parallel.bucketing import validate_buckets

            buckets = tuple(int(b) for b in self.bucket_sizes)
            for b in buckets:
                if b <= 0:
                    raise ValueError(
                        f"bucket_sizes must be positive, got {b} in {buckets}"
                    )
            if any(a >= b for a, b in zip(buckets, buckets[1:])):
                raise ValueError(
                    "bucket_sizes must be strictly increasing (sorted, no "
                    f"duplicates), got {buckets}"
                )
            object.__setattr__(
                self,
                "bucket_sizes",
                validate_buckets(buckets, self.max_batch_size),
            )


class InferenceServer:
    """Dynamically-batched, backpressured serving over one backend.

    Use :meth:`from_accelerator` to serve a compiled accelerator; a
    batch the backend fails resolves FAILED with the reason.
    """

    def __init__(
        self,
        backend: InferenceBackend,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.config = config or ServingConfig()
        self._input_contract = backend.input_contract
        self.metrics = MetricsRegistry()
        self._queue = AdmissionQueue(
            self.config.queue_capacity, allow_shedding=self.config.allow_shedding
        )
        self._batcher = MicroBatcher(
            self._queue,
            max_batch_size=self.config.max_batch_size,
            on_timeout=lambda _req: self.metrics.increment("timed_out"),
            buckets=self.config.bucket_sizes,
        )
        self._workers = WorkerPool(
            self._batcher,
            backend,
            self.metrics,
            num_workers=self.config.num_workers,
        )
        self._started = False
        self._stopped = False

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_accelerator(
        cls,
        accelerator,
        config: Optional[ServingConfig] = None,
        execution=None,
    ) -> "InferenceServer":
        """Serve a compiled ``FinnAccelerator``.

        ``execution`` (an :class:`~repro.runtime.ExecutionConfig`) picks
        the runtime engine: process isolation serves through a
        :class:`~repro.serving.backends.ProcessPoolBackend` — one plan
        cache per worker *process*, multi-core throughput (closed with
        the server) — anything else through an
        :class:`~repro.serving.backends.AcceleratorBackend`.
        """
        from repro.runtime import ExecutionConfig

        if execution is None:
            execution = ExecutionConfig()
        config = config or ServingConfig()
        if execution.isolation == "process":
            from repro.serving.backends import ProcessPoolBackend

            backend: InferenceBackend = ProcessPoolBackend(
                accelerator,
                buckets=config.bucket_sizes,
                max_batch=config.max_batch_size,
                execution=execution,
            )
        else:
            backend = AcceleratorBackend(accelerator, execution=execution)
        return cls(backend, config)

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    def start(self) -> "InferenceServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        bind = getattr(self._workers.backend, "bind_metrics", None)
        if bind is not None:
            bind(self.metrics)
        self._workers.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop serving. With ``drain`` the queue is worked off first.

        Any request still queued at the cutoff resolves as REJECTED
        (SHUTTING_DOWN) — no handle is ever left dangling.
        """
        if self._stopped:
            return
        self._stopped = True
        if drain and self._started:
            deadline = time.monotonic() + timeout
            while self._queue.depth() and time.monotonic() < deadline:
                time.sleep(0.01)
        leftovers = self._queue.close()
        for request in leftovers:
            if request.resolve(
                RequestStatus.REJECTED, detail="server shutting down"
            ):
                self.metrics.increment("rejected")
        if self._started:
            self._workers.stop(timeout=timeout)
        close = getattr(self._workers.backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- request path --------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        priority: int = 0,
        timeout_s: Optional[float] = None,
    ) -> ResultHandle:
        """Submit one ``(H, W, C)`` image; never blocks or raises on it.

        Refusal is explicit: the returned handle is already resolved as
        REJECTED (with a reason in ``handle.detail``) when the image
        breaks the backend's ``input_contract`` (so it never
        fails its batch-mates) or admission control refuses it —
        inspect ``handle.status`` or let ``handle.result()`` raise.
        ``priority`` orders service (higher first) and governs shedding
        under overload; ``timeout_s`` (default: config's
        ``default_timeout_s``) is the per-request deadline after which a
        queued request is dropped as TIMED_OUT.
        """
        image = np.asarray(image)
        refused = None
        try:
            batch = self._input_contract.check(image)
            if len(batch) != 1:
                raise ValueError(f"submit takes one image, got {len(batch)}")
            image = batch[0]
        except ValueError as exc:
            refused = f"{RejectionReason.INVALID_INPUT.value}: {exc}"
        request = InferenceRequest(
            image,
            priority=priority,
            timeout_s=(
                self.config.default_timeout_s if timeout_s is None else timeout_s
            ),
        )
        tracer = get_tracer()
        if tracer.enabled:
            # The trace root: starts here on the submit thread, finishes
            # wherever the request resolves (worker, batcher, shutdown).
            request.trace_span = tracer.start_span(
                "serving.request",
                kind="request",
                parent=None,
                attributes={
                    "request_id": request.request_id, "priority": int(priority)
                },
            )
        self.metrics.increment("submitted")
        if refused is None:
            admission = self._queue.offer(request)
            if admission.shed is not None:
                self.metrics.increment("shed")
            if not admission.accepted:
                refused = f"admission refused: {admission.reason.value}"
        if refused is not None:
            request.resolve(RequestStatus.REJECTED, detail=refused)
            self.metrics.increment("rejected")
        return ResultHandle(request)

    def predict(
        self,
        images: np.ndarray,
        timeout: Optional[float] = 30.0,
        priority: int = 0,
    ) -> np.ndarray:
        """Synchronous convenience: submit a batch, wait, return labels.

        Submission is windowed to ``queue_capacity`` in-flight requests,
        so a caller's batch can exceed the admission bound without
        rejecting itself. Raises
        :class:`~repro.serving.request.RequestNotCompleted` if any
        request was rejected (e.g. by competing traffic), shed, timed
        out or failed — use :meth:`submit` directly for graceful
        handling.
        """
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        labels: List[int] = []
        window = self.config.queue_capacity
        for start in range(0, len(images), window):
            handles = [
                self.submit(img, priority=priority)
                for img in images[start : start + window]
            ]
            labels.extend(h.result(timeout=timeout) for h in handles)
        return np.asarray(labels)

    # -- health --------------------------------------------------------------
    def health(self, smoke: bool = False) -> HealthReport:
        """Probe the server: queue saturation, worker liveness, backend.

        ``smoke`` additionally pushes one zero image straight through
        the backend (bypassing the queue) — the expensive, conclusive
        readiness check. The report never raises; a failing backend
        shows up as a FAILING probe.
        """
        probes = [
            probe_queue(
                self._queue.depth(),
                self.config.queue_capacity,
                closed=self._queue.closed,
            ),
            probe_workers(
                self._workers.workers_alive,
                self.config.num_workers,
                running=self.running,
            ),
        ]
        if smoke:
            probes.append(probe_backend_smoke(self._workers.backend))
        return HealthReport(probes=tuple(probes))

    def ready(self) -> bool:
        """Readiness: running, healthy, and the backend smoke-predicts."""
        return self.running and self.health(smoke=True).ok

    # -- observability -------------------------------------------------------
    @property
    def backends(self):
        """The served backend, as a one-element list."""
        return [self._workers.backend]

    def stats(self) -> ServerStats:
        """Snapshot of service statistics (see :class:`ServerStats`)."""
        return self.metrics.snapshot(queue_depth=self._queue.depth())

    def reporter(
        self, interval_s: float = 1.0, sink=print
    ) -> StatsReporter:
        """A (not yet started) periodic stats reporter bound to this server."""
        return StatsReporter(self.stats, interval_s=interval_s, sink=sink)

    @property
    def queue_depth(self) -> int:
        return self._queue.depth()
