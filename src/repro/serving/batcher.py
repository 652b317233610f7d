"""Work-conserving micro-batching: batch size follows the queue.

FINN-style streaming accelerators (and, less dramatically, numpy GEMMs)
reach their rated throughput only on full batches, but a gate camera
submits one face at a time. The micro-batcher never holds a batch open
to wait for more traffic: a free worker blocks for the first request,
then takes everything already queued (up to ``max_batch_size``) and
dispatches at once. A lone request therefore pays one inference, not a
wait window; under load requests queue while every worker is busy, so
the next free worker takes a larger batch. This is the batch-when-busy
policy of adaptive batching (Crankshaw et al., *Clipper*, NSDI 2017).

Requests whose per-request deadline expires while queued are resolved as
TIMED_OUT here, at collection time — they never occupy a batch slot.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.parallel.bucketing import bucket_for, validate_buckets
from repro.serving.admission import AdmissionQueue
from repro.serving.request import InferenceRequest, RequestStatus
from repro.utils.clock import MONOTONIC, Clock

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Pulls from the admission queue, emits coalesced micro-batches.

    Multiple workers may call :meth:`next_batch` concurrently — the
    underlying queue hands each popped request to exactly one caller, so
    batches never share requests.

    With ``buckets`` configured, the batcher advertises a fixed set of
    batch geometries via :meth:`bucket_for`: the worker pool pads every
    stacked batch up to its bucket before inference, so plan-cache-keyed
    backends see at most ``len(buckets)`` distinct shapes no matter how
    traffic coalesces (see :mod:`repro.parallel.bucketing` for why
    padding cannot change the valid rows' results).
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        max_batch_size: int = 32,
        on_timeout: Optional[Callable[[InferenceRequest], None]] = None,
        clock: Clock = MONOTONIC,
        buckets: Optional[Sequence[int]] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {max_batch_size}"
            )
        self.queue = queue
        self.max_batch_size = int(max_batch_size)
        self.buckets: Optional[Tuple[int, ...]] = (
            validate_buckets(buckets, self.max_batch_size)
            if buckets is not None
            else None
        )
        self._on_timeout = on_timeout
        self._clock = clock

    def bucket_for(self, n: int) -> Optional[int]:
        """The geometry a batch of ``n`` should be padded to (None: off)."""
        if self.buckets is None:
            return None
        return bucket_for(n, self.buckets)

    def _admit(self, request: InferenceRequest, batch: List[InferenceRequest]) -> None:
        """Add a live request to the batch; expire/skip dead ones."""
        if request.status is not RequestStatus.PENDING:
            return  # cancelled while queued
        if request.expired(now=self._clock.monotonic()):
            if request.resolve(
                RequestStatus.TIMED_OUT, detail="deadline expired while queued"
            ):
                if self._on_timeout is not None:
                    self._on_timeout(request)
            return
        batch.append(request)

    def next_batch(
        self, poll_timeout_s: float = 0.05
    ) -> List[InferenceRequest]:
        """The next micro-batch (empty if the queue stayed idle).

        Blocks up to ``poll_timeout_s`` for the first request, then takes
        what is already queued, up to ``max_batch_size``, and returns
        without waiting for more. Dead requests (expired, cancelled) are
        filtered and their slots refilled from the queue, never waited
        for.
        """
        batch: List[InferenceRequest] = []
        while len(batch) < self.max_batch_size:
            requests = self.queue.pop_many(
                self.max_batch_size - len(batch),
                timeout=0.0 if batch else poll_timeout_s,
            )
            if not requests:
                break
            for request in requests:
                self._admit(request, batch)
        return batch
