"""Bounded admission queue with explicit backpressure.

The front door of the server. Capacity is a hard bound: when the queue
is full an arriving request is either **rejected** with a machine-
readable reason (the default backpressure signal — callers always learn
immediately, nothing blocks) or, under the degraded-mode policy, a
**lower-priority queued request is shed** to make room. Silent
unbounded growth — the classic way a "6400 FPS" demo falls over at an
airport gate — is impossible by construction.

Ordering is priority-first (higher ``priority`` wins), FIFO within a
priority level.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import List, Optional

from repro.serving.request import (
    InferenceRequest,
    RejectionReason,
    RequestStatus,
)

__all__ = ["Admission", "AdmissionQueue"]


@dataclass(frozen=True)
class Admission:
    """Outcome of one ``offer``: accepted, or rejected with a reason.

    ``shed`` names the lower-priority request that was evicted to make
    room (already resolved as SHED by the queue) so the caller can count
    it.
    """

    accepted: bool
    reason: Optional[RejectionReason] = None
    shed: Optional[InferenceRequest] = None

    def __bool__(self) -> bool:
        return self.accepted


class AdmissionQueue:
    """Bounded priority queue feeding the micro-batcher.

    ``offer`` never blocks; ``pop_many`` blocks up to a timeout. ``close``
    wakes every popper and makes further offers fail with
    ``SHUTTING_DOWN``.
    """

    def __init__(self, capacity: int, allow_shedding: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.allow_shedding = bool(allow_shedding)
        self._heap: List[tuple] = []  # (-priority, seq, request)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    # -- producer side -------------------------------------------------------
    def offer(self, request: InferenceRequest) -> Admission:
        """Try to admit ``request``; never blocks.

        Full-queue policy: if shedding is enabled and the lowest-priority
        queued request ranks strictly below the newcomer, that request is
        evicted (resolved as SHED) and the newcomer admitted; otherwise
        the newcomer is rejected with ``QUEUE_FULL``.
        """
        shed_request = None
        with self._lock:
            if self._closed:
                return Admission(False, RejectionReason.SHUTTING_DOWN)
            if len(self._heap) >= self.capacity:
                victim_idx = self._shed_candidate(request.priority)
                if victim_idx is None:
                    return Admission(False, RejectionReason.QUEUE_FULL)
                shed_request = self._heap.pop(victim_idx)[2]
                heapq.heapify(self._heap)
            heapq.heappush(
                self._heap, (-request.priority, next(self._seq), request)
            )
            self._not_empty.notify()
        if shed_request is not None:
            shed_request.resolve(
                RequestStatus.SHED,
                detail=(
                    f"shed for priority-{request.priority} arrival "
                    f"under overload"
                ),
            )
        return Admission(True, shed=shed_request)

    def _shed_candidate(self, incoming_priority: int) -> Optional[int]:
        """Index of the entry to evict for ``incoming_priority``, if any.

        The victim is the lowest-priority, most-recently-enqueued entry,
        and only qualifies if it ranks strictly below the newcomer —
        equal-priority traffic is never reordered by shedding.
        """
        if not self.allow_shedding or not self._heap:
            return None
        victim_idx = max(
            range(len(self._heap)),
            key=lambda i: (self._heap[i][0], self._heap[i][1]),
        )
        neg_priority, _, _ = self._heap[victim_idx]
        if -neg_priority >= incoming_priority:
            return None
        return victim_idx

    # -- consumer side -------------------------------------------------------
    def pop_many(
        self, max_n: int, timeout: Optional[float] = None
    ) -> List[InferenceRequest]:
        """Up to ``max_n`` requests in priority-then-FIFO order.

        Blocks up to ``timeout`` seconds only while the queue is empty,
        then takes everything already queued (at most ``max_n``) under
        one acquisition of the lock. Returns ``[]`` on timeout or when
        the queue is closed and drained.
        """
        with self._not_empty:
            if not self._heap and not self._closed:
                self._not_empty.wait(timeout)
            n = min(max_n, len(self._heap))
            return [heapq.heappop(self._heap)[2] for _ in range(n)]

    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    # -- lifecycle -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> List[InferenceRequest]:
        """Stop admissions and return any still-queued requests.

        The caller decides what to do with the leftovers (the server
        rejects them as SHUTTING_DOWN). All blocked poppers wake up.
        """
        with self._lock:
            self._closed = True
            leftovers = [entry[2] for entry in sorted(self._heap)]
            self._heap.clear()
            self._not_empty.notify_all()
        return leftovers
