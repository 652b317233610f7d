"""Process-parallel planned inference (see ARCHITECTURE.md).

The GIL caps the thread-parallel datapath at roughly one core of XNOR
compute; this package runs :class:`~repro.hw.plan.ExecutionPlan`
inference across *processes* instead. Each worker owns a pre-warmed
:class:`~repro.hw.plan.PlanCache` bound to a shared-memory
:class:`~repro.parallel.shm.SharedArena`; batches and logits move
through shared-memory ring slots, so the hot path pickles nothing
bigger than a task tuple.

Entry points: :class:`~repro.parallel.pool.ProcessPool` directly,
``FinnAccelerator.predict(..., execution=ExecutionConfig(isolation="process"))``
through the :mod:`repro.runtime` registry, or the serving layer's
``ProcessPoolBackend``.
"""

from repro.parallel.bucketing import (
    bucket_for,
    default_buckets,
    pad_to_bucket,
    validate_buckets,
)
from repro.parallel.host import (
    host_info,
    logical_cpu_count,
    physical_cpu_count,
    recommended_workers,
)
from repro.parallel.pool import ProcessPool, PoolTask
from repro.parallel.shm import RingSpec, SharedArena, ShmRing

__all__ = [
    "ProcessPool",
    "PoolTask",
    "SharedArena",
    "ShmRing",
    "RingSpec",
    "bucket_for",
    "default_buckets",
    "pad_to_bucket",
    "validate_buckets",
    "host_info",
    "logical_cpu_count",
    "physical_cpu_count",
    "recommended_workers",
]
