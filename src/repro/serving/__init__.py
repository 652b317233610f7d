"""``repro.serving`` — dynamically-batched, backpressured inference serving.

The request path the paper's deployment scenarios imply but never
specify: gate cameras submit single face tiles, a bounded admission
queue applies explicit backpressure (reject-with-reason, priority
shedding under overload), a work-conserving micro-batcher hands a free
worker everything already queued (up to ``max_batch_size``) without
holding a batch open, and a worker pool executes batches on the
deployed datapath — a compiled ``FinnAccelerator``, in process or
across a process pool — with concurrency derived from the Table I
folding and BLAS single-threaded inside the workers. Every outcome —
completion, rejection, shed, timeout, failure — is explicit and counted
by the metrics registry.

Entry points: :class:`InferenceServer` (Python API), ``repro serve``
(CLI), :mod:`repro.serving.loadgen` (synthetic open-loop traffic for
demos and benchmarks).
"""

from repro.serving.admission import Admission, AdmissionQueue
from repro.serving.backends import (
    AcceleratorBackend,
    InferenceBackend,
    ProcessPoolBackend,
    folding_concurrency,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.loadgen import OpenLoopReport, face_tile_pool, run_open_loop
from repro.serving.metrics import MetricsRegistry, ServerStats, StatsReporter
from repro.serving.request import (
    InferenceRequest,
    RejectionReason,
    RequestNotCompleted,
    RequestStatus,
    ResultHandle,
    ServingError,
)
from repro.serving.server import InferenceServer, ServingConfig
from repro.serving.workers import WorkerPool

__all__ = [
    "Admission",
    "AdmissionQueue",
    "AcceleratorBackend",
    "InferenceBackend",
    "ProcessPoolBackend",
    "folding_concurrency",
    "MicroBatcher",
    "OpenLoopReport",
    "face_tile_pool",
    "run_open_loop",
    "MetricsRegistry",
    "ServerStats",
    "StatsReporter",
    "InferenceRequest",
    "RejectionReason",
    "RequestNotCompleted",
    "RequestStatus",
    "ResultHandle",
    "ServingError",
    "InferenceServer",
    "ServingConfig",
    "WorkerPool",
]
