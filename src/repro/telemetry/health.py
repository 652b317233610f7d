"""Health and readiness probes for the inference server.

Three probes cover the three ways a serving process degrades in
practice:

* **queue saturation** — a queue holding near its capacity means
  admission control is about to reject (DEGRADED at
  :data:`QUEUE_DEGRADED_FRACTION`, FAILING when full);
* **worker liveness** — dead worker threads silently halve throughput
  long before anything errors (DEGRADED when some died, FAILING when
  none survive);
* **backend smoke-predict** — a one-image inference through each
  backend proves the whole compute path still answers (readiness, in
  orchestration terms).

Everything is duck-typed against the server/backends (no
``repro.serving`` import) so the telemetry layer sits *below* serving
in the dependency order.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ProbeStatus",
    "ProbeResult",
    "HealthReport",
    "QUEUE_DEGRADED_FRACTION",
    "probe_queue",
    "probe_workers",
    "probe_backend_smoke",
]

#: Queue fill fraction at which saturation is reported as DEGRADED.
QUEUE_DEGRADED_FRACTION = 0.8


class ProbeStatus(enum.Enum):
    """Outcome of one probe, ordered by severity."""

    OK = "ok"
    DEGRADED = "degraded"
    FAILING = "failing"

    @property
    def severity(self) -> int:
        return ("ok", "degraded", "failing").index(self.value)


@dataclass(frozen=True)
class ProbeResult:
    """One probe's verdict with a human-readable detail line."""

    name: str
    status: ProbeStatus
    detail: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {"name": self.name, "status": self.status.value, "detail": self.detail}


@dataclass(frozen=True)
class HealthReport:
    """Aggregated probe results; overall status is the worst probe."""

    probes: Tuple[ProbeResult, ...]

    @property
    def status(self) -> ProbeStatus:
        if not self.probes:
            return ProbeStatus.OK
        return max((p.status for p in self.probes), key=lambda s: s.severity)

    @property
    def ok(self) -> bool:
        return self.status is not ProbeStatus.FAILING

    def to_dict(self) -> Dict:
        return {
            "status": self.status.value,
            "probes": [p.to_dict() for p in self.probes],
        }

    def render(self) -> str:
        lines = [f"health: {self.status.value.upper()}"]
        for probe in self.probes:
            lines.append(
                f"  [{probe.status.value:>8s}] {probe.name}: {probe.detail}"
            )
        return "\n".join(lines)


def probe_queue(depth: int, capacity: int, closed: bool = False) -> ProbeResult:
    """Admission-queue saturation probe."""
    if closed:
        return ProbeResult(
            "queue", ProbeStatus.FAILING, "admission queue is closed"
        )
    fraction = depth / capacity if capacity > 0 else 1.0
    detail = f"{depth}/{capacity} slots used ({fraction:.0%})"
    if depth >= capacity:
        return ProbeResult("queue", ProbeStatus.FAILING, "queue full: " + detail)
    if fraction >= QUEUE_DEGRADED_FRACTION:
        return ProbeResult(
            "queue", ProbeStatus.DEGRADED, "nearing capacity: " + detail
        )
    return ProbeResult("queue", ProbeStatus.OK, detail)


def probe_workers(alive: int, expected: int, running: bool) -> ProbeResult:
    """Worker-pool liveness probe."""
    detail = f"{alive}/{expected} worker threads alive"
    if not running:
        return ProbeResult(
            "workers", ProbeStatus.FAILING, "worker pool is not running"
        )
    if alive == 0:
        return ProbeResult("workers", ProbeStatus.FAILING, detail)
    if alive < expected:
        return ProbeResult("workers", ProbeStatus.DEGRADED, detail)
    return ProbeResult("workers", ProbeStatus.OK, detail)


def probe_backend_smoke(
    backend, image: Optional[np.ndarray] = None
) -> ProbeResult:
    """Readiness probe: one-image inference straight through ``backend``.

    Bypasses the queue/batcher deliberately — it answers "can this
    backend still compute", not "is the queue healthy". The default
    smoke image is all zeros in the shape of the backend's
    ``input_contract``.
    """
    name = f"backend:{getattr(backend, 'name', backend.__class__.__name__)}"
    if image is None:
        image = np.zeros(backend.input_contract.shape, dtype=np.float32)
    batch = np.asarray(image)
    if batch.ndim == 3:
        batch = batch[None]
    start = time.perf_counter()
    try:
        labels = np.asarray(backend.infer(batch))
    except Exception as exc:  # noqa: BLE001 — a probe reports, never raises
        return ProbeResult(
            name, ProbeStatus.FAILING, f"smoke inference raised: {exc!r}"
        )
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if labels.shape[0] != batch.shape[0]:
        return ProbeResult(
            name,
            ProbeStatus.FAILING,
            f"smoke inference returned {labels.shape[0]} labels for "
            f"{batch.shape[0]} images",
        )
    return ProbeResult(
        name,
        ProbeStatus.OK,
        f"smoke predict -> label {int(labels[0])} in {elapsed_ms:.1f} ms",
    )


def collect_probes(results: List[ProbeResult]) -> HealthReport:
    """Bundle probe results into a report (helper for server.health)."""
    return HealthReport(probes=tuple(results))
