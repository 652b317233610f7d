"""The built-in engines: three datapaths, one protocol.

Each engine wraps one of the repo's inference paths behind the
:class:`Engine` protocol — ``prepare`` validates the bound
accelerator, ``run`` executes a batch, ``capabilities`` declares the
guarantees, ``stats`` surfaces the engine's counters. Every ``run``
opens a ``runtime.<engine>`` telemetry span so traces name the engine
uniformly regardless of which path served the batch.

=================  =========================================================
engine             datapath
=================  =========================================================
``interpreted``    stage-by-stage reference loop (XNOR+popcount on packed
                   rows; the golden semantics)
``planned-blas``   precompiled plan, one float32-exact sgemm per stage
``process``        planned buckets over the shared-memory process pool
=================  =========================================================

All three are bit-exact against the interpreted reference — the
cross-engine contract test in ``tests/test_runtime_contract.py`` holds
every registered engine to that, ``return_bits`` traces included.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.runtime.config import ExecutionConfig
from repro.runtime.registry import (
    EngineCapabilities,
    EngineSpec,
    register_engine,
)
from repro.telemetry import get_tracer

__all__ = [
    "Engine",
    "InterpretedEngine",
    "PlannedEngine",
    "ProcessEngine",
]


@runtime_checkable
class Engine(Protocol):
    """What the registry requires of an engine."""

    name: str

    def prepare(self) -> "Engine":
        """Validate the bound accelerator and return self."""
        ...

    def run(self, batch, *, return_bits: bool = False) -> np.ndarray:
        """Integer logits ``(N, classes)`` (plus per-stage bit traces
        with ``return_bits``) for a stacked image batch."""
        ...

    def capabilities(self) -> EngineCapabilities:
        ...

    def stats(self) -> dict:
        ...


def _normalize(batch) -> np.ndarray:
    batch = np.asarray(batch)
    if batch.ndim == 3:
        batch = batch[None]
    return batch


class _BaseEngine:
    """Shared prepare/run/telemetry plumbing for the built-in engines.

    ``run`` owns the chunk loop and the ``runtime.<engine>`` span;
    subclasses supply ``_run_one`` for a single (unchunked) batch.
    """

    name = "base"

    def __init__(self, accelerator, config: ExecutionConfig) -> None:
        self.config = config
        self.accelerator = accelerator

    def prepare(self):
        self._bind()
        return self

    def _bind(self) -> None:
        """Engine-specific validation/warm-up hook."""

    def _require_plannable(self) -> None:
        from repro.hw.plan import plan_unsupported_reason

        reason = plan_unsupported_reason(self.accelerator)
        if reason is not None:
            raise ValueError(
                f"engine {self.name!r} cannot plan this accelerator: "
                f"{reason}"
            )

    def capabilities(self) -> EngineCapabilities:
        from repro.runtime.registry import engine_spec

        return engine_spec(self.name).capabilities

    def stats(self) -> dict:
        return {"engine": self.name}

    def _span(self, tracer, n: int):
        """The uniform ``runtime.<engine>`` span around one run."""
        return tracer.span(
            f"runtime.{self.name}",
            kind="hw",
            attributes={
                "accelerator": self.accelerator.name,
                "images": n,
                "engine": self.name,
            },
        )

    def run(self, batch, *, return_bits: bool = False):
        batch = _normalize(batch)
        n = batch.shape[0]
        chunk = self.config.chunk_size
        if chunk is not None and return_bits:
            raise ValueError("chunk_size cannot be combined with return_bits")
        with self._span(get_tracer(), n):
            if chunk is not None and n > chunk:
                return np.concatenate([
                    self._run_one(batch[start : start + chunk], False)
                    for start in range(0, n, chunk)
                ])
            return self._run_one(batch, return_bits)

    def _run_one(self, batch, return_bits):
        raise NotImplementedError


class InterpretedEngine(_BaseEngine):
    """The stage-by-stage reference datapath (optionally chunked)."""

    name = "interpreted"

    def _run_one(self, batch, return_bits):
        return self.accelerator._run_interpreted(
            batch, return_bits=return_bits
        )


class PlannedEngine(_BaseEngine):
    """Precompiled allocation-free plans from the accelerator's cache.

    Plans come from the accelerator's shared
    :class:`~repro.hw.plan.PlanCache`, so cache counters aggregate
    across engines and serving dashboards.
    """

    name = "planned-blas"

    def _bind(self) -> None:
        self._require_plannable()

    def stats(self) -> dict:
        return {"engine": self.name, **self.accelerator.plans.stats()}

    def _run_one(self, batch, return_bits):
        acc = self.accelerator
        n = batch.shape[0]
        if batch.shape[1:] != acc.input_shape:
            raise ValueError(
                f"input {batch.shape[1:]} does not match accelerator "
                f"input {acc.input_shape}"
            )
        if n == 0:
            logits = np.zeros((0, acc.num_classes), dtype=np.int64)
            return (logits, []) if return_bits else logits
        plan, cache_hit = acc.plans.get(n)
        tracer = get_tracer()
        parent = tracer.current_span() if tracer.enabled else None
        recording = parent is not None and parent.recording
        plan_span = None
        if recording:
            stats = acc.plans.stats()
            plan_span = tracer.start_span(
                "hw.plan",
                kind="hw_plan",
                parent=parent,
                attributes={
                    "accelerator": acc.name,
                    "images": n,
                    "cache_hit": cache_hit,
                    "plan_hits": stats["hits"],
                    "plan_misses": stats["misses"],
                    "arena_kib": round(plan.arena_nbytes / 1024, 3),
                    "fused_stages": plan.fused_stages,
                },
            )
        try:
            return plan.execute(
                batch,
                return_bits=return_bits,
                tracer=tracer if recording else None,
                parent=plan_span,
            )
        finally:
            if plan_span is not None:
                plan_span.finish()


class ProcessEngine(_BaseEngine):
    """Planned buckets over the shared-memory process pool.

    The pool is created lazily on first run (so resolving or listing
    engines never spawns workers) unless one is injected — the serving
    layer's :class:`~repro.serving.backends.ProcessPoolBackend` passes
    its own so the server owns the worker lifecycle.
    """

    name = "process"

    def __init__(self, accelerator, config: ExecutionConfig,
                 pool=None) -> None:
        super().__init__(accelerator, config)
        self._pool = pool

    @property
    def pool(self):
        if self._pool is None or not self._pool.healthy():
            from repro.parallel import ProcessPool

            cfg = self.config
            self._pool = ProcessPool(
                self.accelerator,
                num_workers=cfg.workers,
                buckets=cfg.bucket_sizes,
                max_batch=cfg.max_batch,
                slots=cfg.slots,
                trace_sample=cfg.trace_sample,
            )
        return self._pool

    def _bind(self) -> None:
        self._require_plannable()

    def stats(self) -> dict:
        if self._pool is None:
            return {"engine": self.name, "pool": None}
        return {"engine": self.name, **self._pool.plan_stats()}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def run(self, batch, *, return_bits: bool = False):
        batch = _normalize(batch)
        tracer = get_tracer()
        with self._span(tracer, batch.shape[0]):
            if return_bits:
                task = self.pool.submit(batch, return_bits=True)
                logits = task.result(timeout=300.0)
                return logits, task.bits()
            return self.pool.execute(batch)


register_engine(EngineSpec(
    name="interpreted",
    factory=InterpretedEngine,
    capabilities=EngineCapabilities(bit_exact=True),
    summary="stage-by-stage reference datapath (the golden semantics)",
))
register_engine(EngineSpec(
    name="planned-blas",
    factory=PlannedEngine,
    capabilities=EngineCapabilities(bit_exact=True, zero_alloc=True),
    summary="precompiled plans, one float32-exact sgemm per stage",
))
register_engine(EngineSpec(
    name="process",
    factory=ProcessEngine,
    capabilities=EngineCapabilities(
        bit_exact=True, zero_alloc=True, zero_copy_ipc=True,
        process_isolated=True,
    ),
    summary="planned buckets over the shared-memory process pool",
))
