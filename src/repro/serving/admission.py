"""Bounded admission queue with explicit backpressure.

The front door of the server. Capacity is a hard bound: when the queue
is full an arriving request is either **rejected** with a machine-
readable reason (the default backpressure signal — callers always learn
immediately, nothing blocks) or, under the degraded-mode policy, a
**lower-priority queued request is shed** to make room. Silent
unbounded growth — the classic way a "6400 FPS" demo falls over at an
airport gate — is impossible by construction.

Ordering is priority-first (higher ``priority`` wins), FIFO within a
priority level: one FIFO deque per priority, so admitting, rejecting
and shedding cost the same however deep the queue is.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

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
        self._levels: Dict[int, Deque[InferenceRequest]] = {}  # non-empty only
        self._depth = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    # -- producer side -------------------------------------------------------
    def offer(self, request: InferenceRequest) -> Admission:
        """Try to admit ``request``; never blocks.

        Full-queue policy: if shedding is enabled and the lowest queued
        priority ranks strictly below the newcomer, that level's newest
        request is evicted (resolved as SHED) and the newcomer admitted
        — equal-priority traffic is never reordered by shedding;
        otherwise the newcomer is rejected with ``QUEUE_FULL``.
        """
        shed_request = None
        with self._lock:
            if self._closed:
                return Admission(False, RejectionReason.SHUTTING_DOWN)
            if self._depth >= self.capacity:
                lowest = min(self._levels) if self.allow_shedding else None
                if lowest is None or lowest >= request.priority:
                    return Admission(False, RejectionReason.QUEUE_FULL)
                shed_request = self._levels[lowest].pop()
                self._drop_if_empty(lowest)
                self._depth -= 1
            level = self._levels.get(request.priority)
            if level is None:
                level = self._levels[request.priority] = deque()
            level.append(request)
            self._depth += 1
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

    def _drop_if_empty(self, priority: int) -> None:
        """Forget an emptied level, so ``_levels`` holds non-empty ones.
        Caller holds the lock."""
        if not self._levels[priority]:
            del self._levels[priority]

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
            if not self._depth and not self._closed:
                self._not_empty.wait(timeout)
            taken: List[InferenceRequest] = []
            while len(taken) < max_n and self._levels:
                top = max(self._levels)
                level = self._levels[top]
                while level and len(taken) < max_n:
                    taken.append(level.popleft())
                self._drop_if_empty(top)
            self._depth -= len(taken)
            return taken

    def depth(self) -> int:
        with self._lock:
            return self._depth

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
            leftovers = [
                request
                for priority in sorted(self._levels, reverse=True)
                for request in self._levels[priority]
            ]
            self._levels.clear()
            self._depth = 0
            self._not_empty.notify_all()
        return leftovers
