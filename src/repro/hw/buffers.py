"""On-chip activation buffering: SWU line buffers and inter-stage FIFOs.

The streaming pipeline of §III-B keeps *all* intermediate activations on
chip. Two kinds of storage make that possible:

* **line buffers** inside each sliding-window unit — a KxK window over a
  raster-scanned map needs the last ``K-1`` full rows plus ``K`` pixels
  resident (the classical line-buffer bound);
* **inter-stage FIFOs** that decouple a producer finishing its image
  early from a consumer still draining the previous one. A FIFO deep
  enough to hold one output *row* of the producer absorbs the rate
  mismatch within a line; the depth is scaled up when the consumer is
  slower (back-pressure accumulates proportionally to the II ratio).

This module sizes both from a compiled accelerator and reports the
storage bill in bits/BRAMs — the part of the on-chip memory budget that
Table II's weight-centric model leaves implicit. Its software twin is
:func:`render_arena_bill`, which itemises the persistent simulator-side
arena an :class:`~repro.hw.plan.ExecutionPlan` binds per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional

from repro.hw.compiler import FinnAccelerator

__all__ = [
    "BufferPlan",
    "StageBuffer",
    "plan_buffers",
    "render_arena_bill",
    "render_pool_bill",
]

#: One 18 Kb block RAM, the granularity buffers map to.
BRAM_BLOCK_BITS = 18_432

#: Buffers below this size stay in LUTRAM/registers.
LUTRAM_THRESHOLD_BITS = 1_024


@dataclass(frozen=True)
class StageBuffer:
    """Buffer bill for one pipeline stage."""

    stage: str
    line_buffer_bits: int
    fifo_bits: int
    fifo_depth_words: int
    word_bits: int

    @property
    def total_bits(self) -> int:
        return self.line_buffer_bits + self.fifo_bits

    def bram_blocks(self) -> int:
        """18Kb BRAMs consumed (0 when the buffer fits LUTRAM)."""
        blocks = 0
        for bits in (self.line_buffer_bits, self.fifo_bits):
            if bits > LUTRAM_THRESHOLD_BITS:
                blocks += ceil(bits / BRAM_BLOCK_BITS)
        return blocks


@dataclass
class BufferPlan:
    """The accelerator-wide activation-buffer bill."""

    buffers: List[StageBuffer]

    def total_bits(self) -> int:
        return sum(b.total_bits for b in self.buffers)

    def total_bram_blocks(self) -> int:
        return sum(b.bram_blocks() for b in self.buffers)

    def report(self) -> str:
        lines = ["activation buffers (line buffers + inter-stage FIFOs):"]
        for b in self.buffers:
            lines.append(
                f"  {b.stage:<12s} line={b.line_buffer_bits:>8d} b  "
                f"fifo={b.fifo_bits:>8d} b ({b.fifo_depth_words} x "
                f"{b.word_bits} b)  -> {b.bram_blocks()} BRAM18"
            )
        lines.append(
            f"  total: {self.total_bits():,} bits "
            f"({self.total_bits() / 8192:.1f} KiB), "
            f"{self.total_bram_blocks()} BRAM18 blocks"
        )
        return "\n".join(lines)


def render_arena_bill(plan) -> str:
    """Itemised persistent-arena footprint of one execution plan.

    The hardware bill (:meth:`BufferPlan.report`) sizes on-chip line
    buffers and FIFOs; this renders the simulator-side equivalent — the
    :class:`~repro.nn.arena.BufferArena` bytes each planned stage binds
    once at compile time (``ExecutionPlan.stage_arena_bytes``), i.e. the
    fixed working set of the allocation-free inference path.
    """
    total = sum(plan.stage_arena_bytes.values())
    lines = [
        f"inference arena ({plan.accelerator.name}, "
        f"batch {plan.batch_size}):"
    ]
    for stage, nbytes in plan.stage_arena_bytes.items():
        share = nbytes / total if total else 0.0
        lines.append(
            f"  {stage:<12s} {nbytes / 1024:>10.1f} KiB  ({share:6.1%})"
        )
    lines.append(
        f"  total: {total / 1024:,.1f} KiB persistent across calls"
    )
    return "\n".join(lines)


def render_pool_bill(pool_stats: dict) -> str:
    """Per-worker shared-arena occupancy of a process pool.

    Takes the dict :meth:`~repro.parallel.ProcessPool.plan_stats`
    returns and itemises each worker's shared-memory arena: bytes carved
    for plan buffers vs. segment capacity, plus any heap *overflow* (a
    non-zero overflow means the arena was undersized and that worker is
    silently allocating — the number to watch on a dashboard).
    """
    workers = pool_stats.get("workers", {})
    lines = ["process-pool shared arenas (per worker):"]
    for wid in sorted(workers):
        w = workers[wid]
        carved = w.get("arena_carved_bytes", 0)
        cap = w.get("arena_capacity", 0)
        overflow = w.get("arena_overflow_bytes", 0)
        share = carved / cap if cap else 0.0
        line = (
            f"  worker {wid} (pid {w.get('worker_pid', '?')}): "
            f"{carved / 1024:>10.1f} / {cap / 1024:,.1f} KiB carved "
            f"({share:6.1%}), {w.get('plans', 0)} plans, "
            f"{w.get('tasks', 0)} tasks"
        )
        if overflow:
            line += f"  [OVERFLOW {overflow / 1024:,.1f} KiB on heap]"
        lines.append(line)
    total = pool_stats.get("total", {})
    pool = pool_stats.get("pool", {})
    lines.append(
        f"  total: {total.get('plans', 0)} plans, "
        f"{total.get('hits', 0)} hits / {total.get('misses', 0)} misses, "
        f"{pool.get('worker_restarts', 0)} worker restarts"
    )
    return "\n".join(lines)


def plan_buffers(accelerator: FinnAccelerator) -> BufferPlan:
    """Size line buffers and FIFOs for every stage of ``accelerator``.

    The FIFO between stage ``l`` and ``l+1`` holds stage ``l``'s output
    words; its depth is one output row of the producer, multiplied by the
    consumer/producer initiation-interval ratio when the consumer is the
    slower side (it then backs up by that factor before the pipeline
    steady-state absorbs it). Depth is floored at 2 (ping-pong minimum).
    """
    buffers: List[StageBuffer] = []
    stages = accelerator.stages
    for idx, stage in enumerate(stages):
        cfg = stage.mvtu.config
        # -- line buffer (conv stages only) --------------------------------
        if stage.swu is not None:
            swu = stage.swu.config
            kh, kw = swu.kernel
            h, w = swu.in_hw
            pixels_resident = (kh - 1) * w + kw
            bits_per_pixel = swu.channels * (8 if cfg.input_bits == 8 else 1)
            line_bits = pixels_resident * bits_per_pixel
        else:
            line_bits = 0
        # -- inter-stage FIFO (towards the next stage) ----------------------
        if idx + 1 < len(stages):
            out_bits_per_word = cfg.rows  # one output pixel/vector, 1b each
            if stage.kind == "conv":
                out_w = (
                    stage.pool.config.out_hw[1]
                    if stage.pool is not None
                    else stage.swu.config.out_hw[1]
                )
                depth = out_w
            else:
                depth = 1
            ii_producer = stage.initiation_interval()
            ii_consumer = stages[idx + 1].initiation_interval()
            if ii_consumer > ii_producer:
                depth = ceil(depth * ii_consumer / ii_producer)
            depth = max(2, depth)
            fifo_bits = depth * out_bits_per_word
        else:
            depth = 0
            out_bits_per_word = cfg.rows
            fifo_bits = 0
        buffers.append(
            StageBuffer(
                stage=stage.name,
                line_buffer_bits=int(line_bits),
                fifo_bits=int(fifo_bits),
                fifo_depth_words=int(depth),
                word_bits=int(out_bits_per_word),
            )
        )
    return BufferPlan(buffers=buffers)
