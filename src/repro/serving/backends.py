"""Inference backends behind one protocol.

A backend is anything that turns a stacked image batch into class
labels. The worker pool runs every batch on its one backend and
respects the backend's ``max_concurrency`` (how many micro-batches may
run on it at once).

Both concrete backends serve a compiled
:class:`~repro.hw.compiler.FinnAccelerator` — the deployed integer
datapath, never the float training model:

* :class:`AcceleratorBackend` — the accelerator's runtime engine in the
  server's own process; it also reports the *hardware-modelled* batch
  time from the pipeline cycle model so serving stats can be read
  against board-like rates;
* :class:`ProcessPoolBackend` — the same planned datapath fanned across
  a multi-process pool.

Concurrency limits derive from the Table I folding dimensioning via
:func:`folding_concurrency`.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.hw.compiler import FinnAccelerator, FoldingConfig, InputContract
from repro.hw.pipeline import analyze_pipeline

__all__ = [
    "InferenceBackend",
    "AcceleratorBackend",
    "ProcessPoolBackend",
    "folding_concurrency",
]


@runtime_checkable
class InferenceBackend(Protocol):
    """What the worker pool requires of a backend (the server checks
    each submitted image against its ``input_contract``)."""

    name: str
    max_concurrency: int
    input_contract: InputContract

    def infer(self, images: np.ndarray) -> np.ndarray:
        """Class labels ``(N,)`` for a stacked image batch ``(N, H, W, C)``."""
        ...


def folding_concurrency(folding: FoldingConfig, cap: int = 4) -> int:
    """Worker concurrency implied by a Table I folding dimensioning.

    A folding with ``D`` MVTUs describes a ``D``-deep streaming pipeline
    — up to ``D`` images genuinely in flight on the board. The software
    simulator cannot pipeline stages across threads (they contend for
    the same BLAS/popcount kernels instead), so we admit roughly one
    concurrent micro-batch per three pipeline stages, capped: n-CNV's
    9-MVTU folding yields 3, µ-CNV's 8 yields 2, a 4-stage toy yields 1.
    """
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    return max(1, min(cap, len(folding) // 3))


class AcceleratorBackend:
    """The compiled integer datapath of a ``FinnAccelerator``.

    Besides functional inference, exposes :meth:`modelled_batch_seconds`
    — what the same micro-batch would cost on the board according to the
    calibrated pipeline cycle model — so benchmarks can contrast
    simulator wall time with hardware-equivalent time.

    ``execution`` (an :class:`~repro.runtime.ExecutionConfig`, default:
    planned single-process inference) picks the runtime engine requests
    dispatch through; repeated micro-batches of the same shape reuse one
    persistent arena per worker thread and allocate nothing.
    :meth:`plan_stats` surfaces the plan-cache counters for serving
    dashboards.
    """

    def __init__(
        self,
        accelerator: FinnAccelerator,
        name: Optional[str] = None,
        chunk_size: int = 64,
        max_concurrency: Optional[int] = None,
        clock_mhz: float = 100.0,
        execution=None,
    ) -> None:
        from repro.runtime import ExecutionConfig

        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.accelerator = accelerator
        self.input_contract = accelerator.input_contract
        self.chunk_size = int(chunk_size)
        self.execution = (
            execution if execution is not None else ExecutionConfig()
        ).merged(chunk_size=self.chunk_size)
        self.name = name or f"accelerator:{accelerator.name}"
        self.timing = analyze_pipeline(accelerator, clock_mhz)
        if max_concurrency is None:
            max_concurrency = folding_concurrency(accelerator.folding())
        if max_concurrency <= 0:
            raise ValueError(
                f"max_concurrency must be positive, got {max_concurrency}"
            )
        self.max_concurrency = int(max_concurrency)

    def infer(self, images: np.ndarray) -> np.ndarray:
        return np.asarray(
            self.accelerator.predict(images, execution=self.execution)
        )

    def plan_stats(self) -> dict:
        """Plan-cache counters (hits/misses/plans/arena bytes) for this
        backend's accelerator — zeros until the first planned batch."""
        return self.accelerator.plans.stats()

    def modelled_batch_seconds(self, batch_size: int) -> float:
        """Hardware-modelled (calibrated) time for one micro-batch."""
        return self.timing.batch_seconds(batch_size)


class ProcessPoolBackend:
    """Planned inference fanned across a multi-process pool.

    Wraps a :class:`~repro.parallel.ProcessPool`: each worker process
    owns a pre-warmed plan cache over a shared-memory arena, and batches
    move through shared-memory slots (see :mod:`repro.parallel`). This
    is the only backend whose ``max_concurrency`` exceeds the GIL —
    one concurrency slot per worker process, each a genuine core of
    XNOR compute.

    The server calls :meth:`bind_metrics` at start so pool fault events
    (worker restarts, requeued slots, task errors) surface as serving
    counters, and :meth:`close` at stop so the workers and shared
    segments never outlive the server.
    """

    def __init__(
        self,
        accelerator: FinnAccelerator,
        name: Optional[str] = None,
        num_workers: Optional[int] = None,
        buckets=None,
        max_batch: int = 32,
        trace_sample: Optional[int] = None,
        clock_mhz: float = 100.0,
        pool=None,
        execution=None,
    ) -> None:
        from repro.runtime import ExecutionConfig, create_engine

        if execution is None:
            execution = ExecutionConfig(isolation="process")
        elif execution.isolation != "process":
            raise ValueError(
                "ProcessPoolBackend needs isolation='process', got "
                f"{execution.isolation!r}"
            )
        execution = execution.merged(
            workers=num_workers,
            bucket_sizes=tuple(buckets) if buckets is not None else None,
            max_batch=max_batch,
            trace_sample=trace_sample,
        )
        # The registry resolves this config to the process engine; the
        # server owns the worker lifecycle, so the engine is built
        # standalone (not cached on the accelerator) and an existing
        # pool can be injected through the ``pool=`` seam.
        self.engine = create_engine(accelerator, execution, pool=pool)
        self.execution = execution
        self.accelerator = accelerator
        self.input_contract = accelerator.input_contract
        self.name = name or f"pool:{accelerator.name}"
        self.max_concurrency = int(self.engine.pool.num_workers)
        self.timing = analyze_pipeline(accelerator, clock_mhz)
        self._journal = None

    @property
    def pool(self):
        return self.engine.pool

    def infer(self, images: np.ndarray) -> np.ndarray:
        return np.asarray(self.engine.run(images).argmax(axis=1))

    def plan_stats(self) -> dict:
        """Aggregated per-worker plan-cache counters plus pool counters."""
        return self.pool.plan_stats()

    def modelled_batch_seconds(self, batch_size: int) -> float:
        """Hardware-modelled (calibrated) time for one micro-batch."""
        return self.timing.batch_seconds(batch_size)

    def bind_metrics(self, metrics) -> None:
        """Forward pool fault events into a serving metrics registry."""
        self.pool.on_event(metrics.increment)

    def bind_journal(self, journal) -> None:
        """Journal to receive the workers' spans when the pool closes.

        Worker spans live in the worker processes until drained; binding
        a journal here makes :meth:`close` (which the server calls while
        the workers are still alive) flush them into it first.
        """
        self._journal = journal

    def drain_spans(self, journal=None):
        """Merge worker span journals (tagged by worker id)."""
        return self.pool.drain_spans(journal)

    def close(self) -> None:
        if self._journal is not None and self.pool.healthy():
            try:
                self.pool.drain_spans(self._journal)
            except Exception:  # noqa: BLE001 - shutdown must proceed
                pass
        self.pool.close()
