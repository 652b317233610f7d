"""The one configuration object behind every inference path.

The repo runs the compiled BNN three ways: the interpreted reference
loop (the golden semantics), a precompiled float32-exact plan (the fast
path), and planned batches fanned over a shared-memory process pool.
FINN's lesson is that one compiled representation should feed every
deployment target; :class:`ExecutionConfig` is the single frozen value
that names a target, and :mod:`repro.runtime.registry` maps it to an
engine.

The dataclass is frozen and hashable on purpose: accelerators cache one
engine instance per distinct config, so repeated ``predict`` calls with
the same config reuse plan caches, arenas and worker pools.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

__all__ = ["ExecutionConfig"]

_ISOLATIONS = ("none", "process")


@dataclass(frozen=True)
class ExecutionConfig:
    """Every knob of the inference runtime, in one frozen value.

    * ``use_plan`` — route fixed-shape batches through precompiled
      :class:`~repro.hw.plan.ExecutionPlan` objects (default on);
      ``False`` keeps the interpreted reference datapath.
    * ``isolation`` / ``workers`` — ``"process"`` fans batches over a
      shared-memory :class:`~repro.parallel.ProcessPool` of ``workers``
      processes. ``workers`` means pool processes, so setting it without
      process isolation is rejected.
    * ``chunk_size`` — bound how many images flow through the datapath
      at once (memory ceiling for coalesced serving batches).
    * ``bucket_sizes`` / ``max_batch`` — batch-shape buckets and the
      largest batch for the process pool (its ring keeps two slots per
      worker).
    * ``trace_sample`` — telemetry binding: sample every Nth pool task
      into the worker span journals (``None`` = tracing off in workers).
    """

    use_plan: bool = True
    isolation: str = "none"
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    bucket_sizes: Optional[Tuple[int, ...]] = None
    max_batch: int = 32
    trace_sample: Optional[int] = None

    def __post_init__(self) -> None:
        if self.isolation not in _ISOLATIONS:
            raise ValueError(
                f"isolation must be one of {_ISOLATIONS}, "
                f"got {self.isolation!r}"
            )
        for name in ("workers", "chunk_size", "max_batch", "trace_sample"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.bucket_sizes is not None:
            object.__setattr__(
                self, "bucket_sizes", tuple(int(b) for b in self.bucket_sizes)
            )
        if self.workers is not None and self.isolation != "process":
            raise ValueError(
                "workers sizes the process pool; set isolation='process' "
                "to use it"
            )
        if self.isolation == "process" and not self.use_plan:
            raise ValueError(
                "process isolation runs precompiled plans; "
                "use_plan=False is contradictory"
            )

    def merged(self, **overrides) -> "ExecutionConfig":
        """A copy with the non-``None`` overrides applied."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates) if updates else self

    def describe(self) -> dict:
        """JSON-ready field dump (for ``repro engines`` and logs)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out
