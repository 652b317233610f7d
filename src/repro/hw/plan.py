"""Precompiled allocation-free inference execution plans.

The FINN execution model compiles a network once into a fixed pipeline
with statically-sized inter-stage buffers; the interpreted reference
datapath (:meth:`repro.hw.compiler.FinnAccelerator._run_interpreted`)
re-derives that structure every call — im2col geometry, intermediate allocation, pack
scratch. An :class:`ExecutionPlan` is the software analogue of the
synthesised bitstream: compiled once per (model, folding config, batch
geometry), it

* lowers every stage to float32 ``sgemm`` calls over views: a conv
  copies its windows out of one strided view of its input, a chunk of
  whole images at a time, and runs one product per chunk, unless its
  product is too narrow to pay for the copy
  (:data:`WINDOW_BYTES_PER_CHANNEL`; one shifted matmul per kernel cell
  then); FC stages run one product each,
* binds every intermediate to a persistent
  :class:`~repro.nn.arena.BufferArena` view, so steady-state execution
  keeps no heap allocation across calls and frees within each call at
  most one numpy iterator buffer of temporaries (``out=``-form kernels
  end to end; both checked by :func:`measure_steady_state` in a tier-1
  test), and
* **fuses** each MVTU→threshold→maxpool chain into one super-stage:
  every channel is compiled to a ``>=`` comparison (below), and
  OR-pooling thresholded bits commutes with it (``OR(acc_i >= t) ==
  max(acc_i) >= t``), so the plan max-pools the accumulators pairwise
  — rows, then columns — and thresholds once at pool resolution. The
  boolean pooling stage disappears.

Thresholding straight into the next operand
-------------------------------------------

Each thresholded stage ends in one ``np.greater_equal(pooled, thr,
out=act)`` that writes the next stage's float32 operand, one whole
image per row against thresholds tiled to the pooled map: activations
travel as ``b ∈ {0, 1}``. A binary MVTU's bipolar accumulator over
such an operand is ``W·(2b − 1) = 2·W·b − S``, with ``S = ΣW`` per
output channel (stride 1 and no padding, so every window sees all of
``W``). A channel that fires on ``2·W·b − S >= t`` fires on ``W·b >=
ceil((t + S) / 2)``; a flipped channel (``<= t``) gets its weight
column negated and fires on ``−W·b >= −floor((t + S) / 2)``. The logits
stage multiplies by ``2W`` and subtracts ``S``. These operands depend
on neither the batch nor the plan:
:meth:`~repro.hw.mvtu.MVTU.blas_operands` computes them once per
(weights, thresholds) and every plan shares them.

Float32-exact GEMMs
-------------------

Every operand is an integer (pixels ≤ 255, weights ±1 or ±2,
activations 0/1), every partial sum is bounded by
:func:`blas_exact_bound`, and every rebased threshold is checked too —
all far below ``2**24``, the largest range where float32 holds
consecutive integers — so the float products and comparisons are
**bit-exact**, not approximate. A model outside that bound is not
plannable (:func:`plan_unsupported_reason` says why) and runs on the
interpreted XNOR+popcount reference instead. Logits and
``return_bits`` traces match the reference exactly;
``tests/test_runtime_contract.py`` pins that across the zoo.

Plans are **not** thread-safe (they own their buffers); the
:class:`PlanCache` keys plans by thread identity so concurrent serving
workers each get a private arena. A plan binds the arena's ``epoch`` at
compile time and refuses to run if the arena was cleared underneath it
(the runtime form of the AL003 use-after-reset rule); a stale cached
plan is recompiled on the next lookup, never reused.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.hw.compiler import INPUT_SCALE
from repro.nn.arena import BufferArena

__all__ = [
    "ExecutionPlan",
    "PlanCache",
    "plan_key",
    "plan_unsupported_reason",
    "blas_exact_bound",
    "AllocationReport",
    "measure_steady_state",
]

#: Largest magnitude at which float32 still represents every integer.
_F32_EXACT = 2 ** 24

#: A conv copies its windows (then one sgemm per chunk) only when each
#: output channel shares at most this many bytes of one image's windows
#: (``oh·ow·K·4 / R``): the sgemm does R MACs per copied value, and a
#: narrow one does not pay for the copy. Else it runs shifted matmuls.
WINDOW_BYTES_PER_CHANNEL = 16 * 1024
#: Bytes of windows one chunk copies: as many whole images as fit, at
#: least one, so one window buffer is reused while it is in cache.
#: Sweep (2-vCPU Xeon, interleaved blocks, sharded batch 16): n-CNV ran
#: 1.05–1.10× faster with conv1_2 (27.6 KiB per channel) shifted, CNV
#: 1.08× faster with conv2_2 (3.5 KiB) windowed; CNV's conv1_2 (27.6
#: KiB) windowed was slower at batch 1, 8 and 32. Chunks of 128 to 384
#: KiB were level on n-CNV's sharded batch.
WINDOW_BUDGET = 384 * 1024


def plan_key(accelerator, batch_size: int) -> Tuple:
    """The cache identity of a plan: folding vectors + batch geometry.

    Two accelerators with the same architecture but different PE/SIMD
    folding produce different keys (folding is part of the compiled
    identity); so does any change in input shape, class count, or batch
    size.
    """
    folding = accelerator.folding()
    return (
        tuple(accelerator.input_shape),
        int(accelerator.num_classes),
        int(batch_size),
        tuple(folding.pe),
        tuple(folding.simd),
    )


def plan_unsupported_reason(accelerator) -> Optional[str]:
    """Why ``accelerator`` cannot be planned, or ``None`` if it can."""
    stages = accelerator.stages
    if stages[0].kind != "conv" or stages[0].mvtu.config.input_bits != 8:
        return "plan requires a leading 8-bit conv stage"
    for stage in stages[:-1]:
        if stage.mvtu.thresholds is None:
            return f"non-final stage {stage.name!r} has no thresholds"
    if stages[-1].kind != "fc" or stages[-1].mvtu.thresholds is not None:
        return "plan requires a final un-thresholded fc stage"
    for stage in stages:
        # The rebased thresholds are cast to float32 at bind time, so
        # they must be exact there too, not only the products.
        thr = stage.mvtu.blas_operands().thresholds
        bound = max(
            blas_exact_bound(stage),
            0 if thr is None else int(np.abs(thr).max()),
        )
        if bound >= _F32_EXACT:
            return (
                f"stage {stage.name!r} reaches {bound}, beyond the "
                f"float32-exact bound {_F32_EXACT}"
            )
    return None


def blas_exact_bound(stage) -> int:
    """Largest integer magnitude ``stage``'s GEMM can produce.

    8-bit input stages accumulate at most ``255 * fan_in``; binary
    stages sum at most ``fan_in`` ±1 weights over 0/1 activations, and
    the logits stage, whose weights are doubled (``2·W·b − S``), at
    most ``2 * fan_in``. The float32 sgemm is exact iff this (and the
    rebased thresholds) stay below ``2**24``.
    """
    cfg = stage.mvtu.config
    if cfg.input_bits == 8:
        return INPUT_SCALE * cfg.cols
    if stage.mvtu.thresholds is None:
        return 2 * cfg.cols
    return cfg.cols


def _pool_steps(src: np.ndarray, pool, scratch, out: np.ndarray):
    """``(a, b, out)`` operands of the ``np.maximum`` calls that pool
    ``src`` ``(n, H, W, C)`` over non-overlapping ``pool`` windows —
    rows into ``scratch``, then columns into ``out`` — and the pooled
    map they leave."""

    def chain(parts, dst):
        return [(parts[0], parts[1], dst)] + [(dst, p, dst) for p in parts[2:]]

    ph, pw = pool
    steps = []
    if ph > 1:
        dst = scratch if pw > 1 else out
        steps += chain([src[:, i::ph] for i in range(ph)], dst)
        src = dst
    if pw > 1:
        steps += chain([src[:, :, j::pw] for j in range(pw)], out)
        src = out
    return steps, src


class _PlannedStage:
    """One stage's bound buffers and its allocation-free ``run()``.

    All views and constants are bound at plan compile time; ``run``
    touches only prebuilt objects and ``out=`` kernels.
    """

    __slots__ = (
        "name", "cycles", "fused", "arena_bytes", "chunks",
        "rows_f32", "w_f32", "conv_views", "gemm_tmp", "acc",
        "pool_steps", "pmax", "thr", "offsets", "act", "act_rows", "out_map",
    )

    def __init__(self, name: str) -> None:
        for slot in self.__slots__:
            setattr(self, slot, None)
        self.name = name
        self.cycles = self.arena_bytes = 0
        self.fused = False
        self.pool_steps = ()

    def run(self) -> None:
        if self.chunks is not None:
            # Window lowering: one copy and one sgemm per chunk of images.
            for windows, src, rows, acc in self.chunks:
                np.copyto(windows, src)
                np.matmul(rows, self.w_f32, out=acc)
        elif self.conv_views is not None:
            # Shifted-matmul convolution: stride-1 windows over a
            # channel-fastest map mean each kernel cell contributes one
            # stacked (out_w, C) @ (C, R) product of a *view* — no
            # im2col gather ever materialises.
            view0, w0 = self.conv_views[0]
            np.matmul(view0, w0, out=self.acc)
            for view, wk in self.conv_views[1:]:
                np.matmul(view, wk, out=self.gemm_tmp)
                np.add(self.acc, self.gemm_tmp, out=self.acc)
        else:
            np.matmul(self.rows_f32, self.w_f32, out=self.acc)
        if self.thr is None:
            # Final logits stage: (2W)·b − S is the bipolar accumulator.
            np.subtract(self.acc, self.offsets, out=self.out_map, casting="unsafe")
            return
        # Fused pool + threshold: every channel is a >= channel, so
        # max-pooling the accumulators commutes with thresholding and
        # the comparison writes the next stage's 0/1 operand directly,
        # one whole image per row.
        for a, b, out in self.pool_steps:
            np.maximum(a, b, out=out)
        np.greater_equal(self.pmax, self.thr, out=self.act_rows)

    def trace_bits(self) -> np.ndarray:
        """This stage's boolean activation map (or final logits), as a
        fresh array safe to keep across executions (debug mode only —
        this path allocates)."""
        if self.thr is None:
            return self.out_map.copy()
        return self.act.astype(bool)


class ExecutionPlan:
    """A compiled, arena-bound, fixed-batch inference program.

    Compile once via ``ExecutionPlan(accelerator, batch_size)`` (or let
    :class:`PlanCache` do it); run many times via :meth:`execute`. The
    plan owns (or is bound to) a :class:`~repro.nn.arena.BufferArena`
    holding every intermediate; with ``out=`` supplied, steady-state
    :meth:`execute` leaves no heap allocation behind and its per-call
    temporaries stay within one numpy iterator buffer. Accelerators that
    :func:`plan_unsupported_reason` rejects raise ``ValueError``.
    """

    def __init__(
        self,
        accelerator,
        batch_size: int,
        arena: Optional[BufferArena] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        reason = plan_unsupported_reason(accelerator)
        if reason is not None:
            raise ValueError(f"{accelerator.name}: {reason}")
        self.accelerator = accelerator
        self.batch_size = int(batch_size)
        self.key = plan_key(accelerator, batch_size)
        self._arena = arena if arena is not None else BufferArena()
        self._bind()

    # -- arena lifecycle ------------------------------------------------------
    @property
    def arena(self) -> BufferArena:
        return self._arena

    @property
    def arena_nbytes(self) -> int:
        """Bytes of persistent arena storage this plan binds."""
        return sum(self.stage_arena_bytes.values())

    @property
    def stale(self) -> bool:
        """True when the bound arena was cleared after compilation —
        the plan's views then point at orphaned storage and
        :meth:`execute` refuses to run."""
        return self._arena.epoch != self._bound_epoch

    def set_arena(self, arena: BufferArena) -> None:
        """Rebind every buffer into ``arena`` (e.g. a fresh one after the
        previous arena was cleared)."""
        if arena is None:
            raise ValueError(
                "an execution plan cannot run arena-less; pass a fresh "
                "BufferArena() instead of None"
            )
        self._arena = arena
        self._bind()

    def _get(self, stage: str, role: str, shape, dtype) -> np.ndarray:
        buf = self._arena.get(self, f"{stage}.{role}", shape, dtype)
        self.stage_arena_bytes[stage] = (
            self.stage_arena_bytes.get(stage, 0) + buf.nbytes
        )
        return buf

    # -- compilation ----------------------------------------------------------
    def _bind(self) -> None:
        """(Re)bind every step's buffers and views to the arena."""
        self._bound_epoch = self._arena.epoch
        self.stage_arena_bytes: Dict[str, int] = {}
        n = self.batch_size
        h, w, c = self.accelerator.input_shape
        self._scale = np.float64(INPUT_SCALE)
        self._q_f64 = self._get("input", "quant_f64", (n, h, w, c), np.float64)
        # Pixels ≤ 255 are exact in float32 — copy windows and multiply
        # directly in the sgemm operand dtype.
        self._q_num = self._get("input", "quant_f32", (n, h, w, c), np.float32)

        act = self._q_num  # the next stage's operand
        steps: List[_PlannedStage] = []
        for stage in self.accelerator.stages:
            st = _PlannedStage(stage.name)
            st.cycles = stage.initiation_interval()
            if stage.kind == "conv":
                act = self._bind_conv(st, stage, act, n)
            else:
                act = self._bind_fc(st, stage, act, n)
            st.arena_bytes = self.stage_arena_bytes.get(stage.name, 0)
            steps.append(st)
        self._stages = steps
        self.fused_stages = sum(st.fused for st in steps)
        self._logits = steps[-1].out_map

    # -- stage binding --------------------------------------------------------
    def _bind_conv(self, st: _PlannedStage, stage, act_in, n: int):
        swu, cfg, name = stage.swu.config, stage.mvtu.config, stage.name
        (oh, ow), (kh, kw), ch = swu.out_hw, swu.kernel, swu.channels
        rows, cols = cfg.rows, cfg.cols
        ops = stage.mvtu.blas_operands()
        weights = st.w_f32 = ops.weights  # (cols, rows), cells × channels
        st.acc = acc = self._get(name, "acc", (n, oh, ow, rows), np.float32)
        per_image = oh * ow * cols * np.dtype(np.float32).itemsize
        if per_image <= WINDOW_BYTES_PER_CHANNEL * rows:
            # A window row is kh runs of kw*C contiguous values of the
            # channel-fastest input, so one strided view yields every
            # row in the weights' im2col order (kh, kw, C).
            sn, sh, sw, sc = act_in.strides
            src = as_strided(
                act_in, (n, oh, ow, kh, kw * ch), (sn, sh, sw, sh, sc),
                writeable=False,
            )
            per_chunk = min(n, max(1, WINDOW_BUDGET // per_image))
            win = self._get(
                name, "windows", (per_chunk, oh, ow, kh, kw * ch), np.float32
            )
            st.chunks = []
            for i in range(0, n, per_chunk):
                k = min(per_chunk, n - i)
                st.chunks.append((
                    win[:k], src[i : i + k],
                    win[:k].reshape(-1, cols), acc[i : i + k].reshape(-1, rows),
                ))
        else:
            # Shifted-matmul: one stacked sgemm per kernel cell over a
            # shifted *view* of the previous 0/1 activation map — no
            # im2col gather. Weight rows are (kh, kw, C), channels
            # fastest, so cell (i, j)'s operand is cells[i, j].
            st.gemm_tmp = self._get(name, "gemm_tmp", (n, oh, ow, rows), np.float32)
            cells = weights.reshape(kh, kw, ch, rows)
            st.conv_views = [
                (act_in[:, i : i + oh, j : j + ow, :], cells[i, j])
                for i in range(kh)
                for j in range(kw)
            ]
        st.fused = stage.pool is not None
        if st.fused:
            out_h, out_w = stage.pool.config.out_hw
            scratch = (  # a shifted conv's gemm_tmp is free once acc is summed
                st.gemm_tmp[:, :out_h] if st.gemm_tmp is not None
                else self._get(name, "pool_rows", (n, out_h, ow, rows), np.float32)
            )
            pooled = self._get(name, "pool_max", (n, out_h, out_w, rows), np.float32)
            st.pool_steps, pmax = _pool_steps(
                acc, stage.pool.config.pool, scratch, pooled
            )
        else:
            out_h, out_w = oh, ow
            pmax = acc
        st.act = self._get(name, "act", (n, out_h, out_w, rows), np.float32)
        # Thresholds tiled to the pooled (h, w, R) map: one image per row.
        st.thr = np.tile(ops.thresholds.astype(np.float32), out_h * out_w)
        st.pmax = pmax.reshape(n, -1)
        st.act_rows = st.act.reshape(n, -1)
        return st.act

    def _bind_fc(self, st: _PlannedStage, stage, act_in, n: int):
        cfg, name = stage.mvtu.config, stage.name
        rows, cols = cfg.rows, cfg.cols
        d = int(np.prod(act_in.shape[1:]))
        if d != cols:
            raise RuntimeError(f"{name}: fan-in mismatch ({d} != {cols})")
        ops = stage.mvtu.blas_operands()
        st.rows_f32 = act_in.reshape(n, cols)
        st.w_f32 = ops.weights
        st.acc = self._get(name, "acc", (n, rows), np.float32)
        if ops.thresholds is None:
            st.offsets = ops.offsets
            st.out_map = self._get(name, "logits", (n, rows), np.int64)
            return st.out_map
        st.thr = ops.thresholds.astype(np.float32)
        st.pmax = st.acc
        st.act = st.act_rows = self._get(name, "act", (n, rows), np.float32)
        return st.act

    # -- execution ------------------------------------------------------------
    def _quantize(self, images: np.ndarray) -> None:
        """Allocation-free equivalent of ``FinnAccelerator.quantize_input``."""
        if np.issubdtype(images.dtype, np.integer):
            np.copyto(self._q_num, images)
            return
        # Multiply by a float64 *scalar* so the product is computed in
        # float64 regardless of the input dtype — identical to the
        # interpreted path's astype(float64) * 255. The rounded result
        # (an integer ≤ 255) is exact in either target dtype.
        np.multiply(images, self._scale, out=self._q_f64)
        np.rint(self._q_f64, out=self._q_f64)
        np.copyto(self._q_num, self._q_f64, casting="unsafe")

    def execute(
        self,
        images: np.ndarray,
        out: Optional[np.ndarray] = None,
        return_bits: bool = False,
        tracer=None,
        parent=None,
    ):
        """Run the planned datapath on one fixed-geometry batch.

        Returns integer logits ``(batch, classes)``. With ``out`` given
        (int64, right shape) the logits are written there and the call
        is allocation-free end to end; without it, a fresh copy of the
        internal logits buffer is returned (the buffer itself is reused
        by the next call and must not escape). ``return_bits``
        additionally returns per-stage boolean traces (debug mode —
        allocates). ``tracer``/``parent`` record per-stage ``hw_stage``
        spans exactly like the interpreted path. ``images`` must satisfy
        the accelerator's ``input_contract``; the geometry check below
        guards the arena, not the input domain.
        """
        if self.stale:
            raise RuntimeError(
                f"stale execution plan for {self.accelerator.name!r}: its "
                "arena was cleared after compilation; rebuild the plan or "
                "set_arena() a fresh one"
            )
        images = np.asarray(images)
        expected = (self.batch_size,) + tuple(self.accelerator.input_shape)
        if images.shape != expected:
            raise ValueError(
                f"plan compiled for batch {expected}, got {images.shape}"
            )
        self._quantize(images)
        bits_trace = [] if return_bits else None
        for st in self._stages:
            t0 = tracer.clock.monotonic() if tracer is not None else 0.0
            st.run()
            if tracer is not None:
                tracer.record(
                    f"hw.{st.name}",
                    kind="hw_stage",
                    start_s=t0,
                    end_s=tracer.clock.monotonic(),
                    parent=parent,
                    attributes={
                        "cycles": st.cycles,
                        "images": self.batch_size,
                        "fused": st.fused,
                        "arena_kib": round(st.arena_bytes / 1024, 3),
                    },
                )
            if return_bits:
                bits_trace.append(st.trace_bits())
        if out is not None:
            if out.shape != self._logits.shape or out.dtype != np.int64:
                raise ValueError(
                    f"out must be int64 {self._logits.shape}, got "
                    f"{out.dtype} {out.shape}"
                )
            np.copyto(out, self._logits)
            result = out
        else:
            result = self._logits.copy()
        if return_bits:
            return result, bits_trace
        return result


class PlanCache:
    """Shape- and thread-keyed LRU cache of compiled execution plans.

    Owned by a :class:`~repro.hw.compiler.FinnAccelerator`; ``predict``
    and the serving backends fetch plans per (batch size, thread), so
    repeated batches reuse a plan across requests while concurrent
    workers never share buffers. Stale plans (arena cleared) are
    recompiled on lookup, never reused.
    """

    def __init__(
        self,
        accelerator,
        capacity: int = 8,
        arena: Optional[BufferArena] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._accelerator = accelerator
        self._capacity = capacity
        self._arena = arena
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Tuple, ExecutionPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def __deepcopy__(self, memo) -> "PlanCache":
        # Compiled plans are derived state (and the lock is not copyable):
        # a cloned accelerator — e.g. the fault-injection sweep's deepcopy —
        # gets a fresh, empty cache and recompiles lazily on first use.
        import copy as _copy

        accelerator = _copy.deepcopy(self._accelerator, memo)
        clone = PlanCache(accelerator, capacity=self._capacity)
        memo[id(self)] = clone
        return clone

    def get(self, batch_size: int) -> Tuple[ExecutionPlan, bool]:
        """(plan, was_cache_hit) for this batch size on this thread."""
        key = plan_key(self._accelerator, batch_size) + (
            threading.get_ident(),
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None and not plan.stale:
                self._plans.move_to_end(key)
                self._hits += 1
                return plan, True
            self._misses += 1
        plan = ExecutionPlan(  # compiled outside the lock
            self._accelerator, batch_size, arena=self._arena
        )
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self._capacity:
                self._plans.popitem(last=False)
        return plan, False

    def prewarm(self, batch_sizes) -> None:
        """Compile a plan per batch size now, so requests never pay one.

        The pool workers call this with their bucket set at startup;
        ``capacity`` must cover the set or the warm plans would evict
        each other (raises rather than silently thrashing).
        """
        sizes = sorted({int(b) for b in batch_sizes})
        if len(sizes) > self._capacity:
            raise ValueError(
                f"cannot prewarm {len(sizes)} batch sizes into a cache of "
                f"capacity {self._capacity}"
            )
        for size in sizes:
            self.get(size)

    def stats(self) -> Dict:
        """Cache counters + resident arena footprint."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "plans": len(self._plans),
                "capacity": self._capacity,
                "arena_bytes": sum(
                    p.arena_nbytes for p in self._plans.values()
                ),
            }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


# -- steady-state allocation measurement --------------------------------------
@dataclass(frozen=True)
class AllocationReport:
    """Steady-state allocation behaviour of a repeatedly-called function.

    ``net_blocks``/``net_bytes`` are the tracemalloc deltas across the
    first measured window; ``growth_blocks`` is how much the delta grew
    when running ``extra_iters`` *more* iterations. A function that
    allocates per call grows linearly; constant residue (CPython
    freelist repopulation, tracemalloc's own bookkeeping) does not.
    ``peak_transient_bytes`` is the largest rise of traced memory above
    its level at entry during any one measured call: temporaries freed
    before the call returns, which the windows cannot see.
    """

    iters: int
    extra_iters: int
    net_blocks: int
    net_bytes: int
    growth_blocks: int
    growth_bytes: int
    peak_transient_bytes: int

    @property
    def per_call_blocks(self) -> int:
        """Heap blocks allocated per call in steady state (0 = clean)."""
        if self.growth_blocks <= 0:
            return 0
        return round(self.growth_blocks / self.extra_iters)


def measure_steady_state(fn, iters: int = 10, warmup: int = 6) -> AllocationReport:
    """Measure ``fn``'s steady-state heap behaviour under ``tracemalloc``.

    Protocol (each step matters): warm the function (lazy caches, numpy
    internals), force a GC, then warm again — ``gc.collect`` empties
    CPython's object freelists, so the post-GC calls repopulate them and
    the measured window starts from a true steady state. The report
    compares two windows of different lengths: per-call leaks grow with
    the window, constant residue does not. Three more single calls, each
    after ``tracemalloc.reset_peak()``, give the per-call transient.
    """
    for _ in range(warmup):
        fn()
    gc.collect()
    for _ in range(warmup):
        fn()
    tracemalloc.start()
    try:
        fn()
        fn()
        base = tracemalloc.take_snapshot()
        for _ in range(iters):
            fn()
        mid = tracemalloc.take_snapshot()
        extra = iters * 2
        for _ in range(extra):
            fn()
        end = tracemalloc.take_snapshot()
        transient = 0
        for _ in range(3):
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
            transient = max(transient, peak - entry)
    finally:
        tracemalloc.stop()
    filters = [
        tracemalloc.Filter(False, tracemalloc.__file__),
        tracemalloc.Filter(False, "<unknown>"),
    ]

    def _net(snap0, snap1):
        diff = snap1.filter_traces(filters).compare_to(
            snap0.filter_traces(filters), "filename"
        )
        return (
            sum(d.count_diff for d in diff),
            sum(d.size_diff for d in diff),
        )

    blocks_mid, bytes_mid = _net(base, mid)
    blocks_end, bytes_end = _net(base, end)
    return AllocationReport(
        iters=iters,
        extra_iters=extra,
        net_blocks=blocks_mid,
        net_bytes=bytes_mid,
        growth_blocks=blocks_end - blocks_mid,
        growth_bytes=bytes_end - bytes_mid,
        peak_transient_bytes=transient,
    )
