"""Request/result primitives for the inference serving layer.

A submitted image becomes an :class:`InferenceRequest` — the server-side
record that flows through queue, batcher and worker — and the caller
keeps a :class:`ResultHandle`, a future-like view that resolves exactly
once to a terminal :class:`RequestStatus`. Every way a request can leave
the system is an explicit status (completed, rejected, shed, timed out,
cancelled, failed); nothing is dropped silently.
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from typing import Optional

import numpy as np

__all__ = [
    "RequestStatus",
    "RejectionReason",
    "ServingError",
    "RequestNotCompleted",
    "InferenceRequest",
    "ResultHandle",
]


class RequestStatus(enum.Enum):
    """Lifecycle of a request; everything except the first two is terminal."""

    PENDING = "pending"  # queued, waiting for a batch slot
    RUNNING = "running"  # inside a worker's micro-batch
    COMPLETED = "completed"  # classified; label available
    REJECTED = "rejected"  # refused at submit (invalid input, backpressure)
    SHED = "shed"  # evicted from a full queue for a higher-priority arrival
    TIMED_OUT = "timed_out"  # deadline expired before a worker reached it
    CANCELLED = "cancelled"  # caller cancelled while still pending
    FAILED = "failed"  # every backend raised

    @property
    def terminal(self) -> bool:
        return self not in (RequestStatus.PENDING, RequestStatus.RUNNING)


class RejectionReason(enum.Enum):
    """Why a request was refused at submit (returned, never raised)."""

    QUEUE_FULL = "queue_full"
    SHUTTING_DOWN = "shutting_down"
    INVALID_INPUT = "invalid_input"  # violates the backend's InputContract


class ServingError(RuntimeError):
    """Base class for serving-layer errors."""


class RequestNotCompleted(ServingError):
    """``result()`` was called on a request that did not complete."""

    def __init__(self, status: RequestStatus, detail: str = "") -> None:
        self.status = status
        self.detail = detail
        msg = f"request ended {status.value}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


_REQUEST_IDS = itertools.count()


class InferenceRequest:
    """One image awaiting classification (server-side record).

    Thread-safety: the status transition happens under ``_lock`` and is
    write-once — the first thread to resolve a terminal status wins,
    later attempts are no-ops returning ``False``. Waiters block on an
    event that fires at resolution.
    """

    __slots__ = (
        "request_id",
        "image",
        "priority",
        "submitted_at",
        "deadline",
        "label",
        "error",
        "detail",
        "batch_size",
        "backend_name",
        "completed_at",
        "started_at",
        "trace_span",
        "_status",
        "_lock",
        "_done",
    )

    def __init__(
        self,
        image: np.ndarray,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        now = time.monotonic() if now is None else now
        self.request_id = next(_REQUEST_IDS)
        self.image = image
        self.priority = int(priority)
        self.submitted_at = now
        self.deadline = None if timeout_s is None else now + timeout_s
        self.label: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.detail: str = ""
        self.batch_size: Optional[int] = None  # size of the batch that ran it
        self.backend_name: Optional[str] = None
        self.completed_at: Optional[float] = None
        self.started_at: Optional[float] = None
        # Set by the server when telemetry is active: the request's
        # trace span, finished here at resolution (duck-typed — a
        # tracing Span or the shared no-op; None when telemetry is off).
        self.trace_span = None
        self._status = RequestStatus.PENDING
        self._lock = threading.Lock()
        self._done = threading.Event()

    # -- state machine -------------------------------------------------------
    @property
    def status(self) -> RequestStatus:
        with self._lock:
            return self._status

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the per-request deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def begin(self, now: Optional[float] = None) -> bool:
        """PENDING -> RUNNING; False if the request already left the system."""
        with self._lock:
            if self._status is not RequestStatus.PENDING:
                return False
            self._status = RequestStatus.RUNNING
            self.started_at = time.monotonic() if now is None else now
            return True

    def resolve(
        self,
        status: RequestStatus,
        label: Optional[int] = None,
        error: Optional[BaseException] = None,
        detail: str = "",
    ) -> bool:
        """Move to a terminal status (write-once); wakes all waiters."""
        if not status.terminal:
            raise ValueError(f"{status} is not a terminal status")
        with self._lock:
            if self._status.terminal:
                return False
            self._status = status
            self.label = label
            self.error = error
            self.detail = detail
            self.completed_at = time.monotonic()
        self._done.set()
        span = self.trace_span
        if span is not None:
            span.set_attribute("status", status.value)
            span.finish()
        return True

    def cancel(self) -> bool:
        """PENDING -> CANCELLED; False once running or terminal."""
        with self._lock:
            if self._status is not RequestStatus.PENDING:
                return False
            self._status = RequestStatus.CANCELLED
            self.detail = "cancelled by caller"
            self.completed_at = time.monotonic()
        self._done.set()
        span = self.trace_span
        if span is not None:
            span.set_attribute("status", RequestStatus.CANCELLED.value)
            span.finish()
        return True

    # -- derived timings -----------------------------------------------------
    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-resolution wall time (None while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Time spent queued before a worker picked the request up."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


class ResultHandle:
    """Caller-facing future for one submitted request.

    ``wait`` blocks until the request resolves; ``result`` additionally
    unwraps the label or raises :class:`RequestNotCompleted` describing
    the terminal status (rejection reason, timeout, backend error).
    """

    __slots__ = ("_request",)

    def __init__(self, request: InferenceRequest) -> None:
        self._request = request

    @property
    def request_id(self) -> int:
        return self._request.request_id

    @property
    def status(self) -> RequestStatus:
        return self._request.status

    @property
    def done(self) -> bool:
        return self._request.status.terminal

    @property
    def label(self) -> Optional[int]:
        """The predicted class (None unless COMPLETED)."""
        return self._request.label

    @property
    def detail(self) -> str:
        """Human-readable disposition (rejection reason, error, ...)."""
        return self._request.detail

    @property
    def latency_s(self) -> Optional[float]:
        return self._request.latency_s

    @property
    def queue_wait_s(self) -> Optional[float]:
        return self._request.queue_wait_s

    @property
    def batch_size(self) -> Optional[int]:
        return self._request.batch_size

    @property
    def backend_name(self) -> Optional[str]:
        return self._request.backend_name

    def wait(self, timeout: Optional[float] = None) -> RequestStatus:
        """Block until resolution (or ``timeout``); returns current status."""
        self._request._done.wait(timeout)
        return self._request.status

    def result(self, timeout: Optional[float] = None) -> int:
        """The predicted class label; raises if the request did not complete."""
        if not self._request._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still {self.status.value} "
                f"after {timeout}s"
            )
        if self._request.status is RequestStatus.COMPLETED:
            return int(self._request.label)
        if self._request.error is not None:
            raise RequestNotCompleted(
                self._request.status, self._request.detail
            ) from self._request.error
        raise RequestNotCompleted(self._request.status, self._request.detail)

    def cancel(self) -> bool:
        """Cancel if still pending; False once running or terminal."""
        return self._request.cancel()
