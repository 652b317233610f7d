"""Precompiled allocation-free inference execution plans.

The FINN execution model compiles a network once into a fixed pipeline
with statically-sized inter-stage buffers; the interpreted reference
datapath (:meth:`repro.hw.compiler.FinnAccelerator._run_interpreted`)
re-derives that structure every call — im2col geometry, intermediate allocation, pack
scratch. An :class:`ExecutionPlan` is the software analogue of the
synthesised bitstream: compiled once per (model, folding config, batch
geometry), it

* precomputes and caches the SWU gather-index tables and every stage's
  output shapes,
* binds every intermediate to a persistent
  :class:`~repro.nn.arena.BufferArena` view, so steady-state execution
  performs **zero heap allocations** (``out=``-form kernels end to end;
  verified by :func:`measure_steady_state` in a tier-1 test), and
* **fuses** each MVTU→threshold→maxpool chain into one super-stage:
  OR-pooling thresholded bits commutes with thresholding pooled
  accumulators (``OR(acc_i >= t) == max(acc_i) >= t`` for normal
  channels, ``OR(acc_i <= t) == min(acc_i) <= t`` for flipped ones), so
  the plan thresholds at pool resolution — one quarter of the
  thresholding work for 2x2 pools — and the boolean pooling stage
  disappears entirely.

Float32-exact GEMMs
-------------------

A plan computes each stage's matrix product as one float32 ``sgemm``.
Every operand is an integer (pixels ≤ 255, weights/activations bipolar
±1) and every partial sum is bounded by :func:`blas_exact_bound` — far
below ``2**24``, the largest range where float32 holds consecutive
integers — so the float product is **bit-exact**, not approximate.
Binary stages run directly in the bipolar accumulator domain (``d = 2p
- F``) with thresholds rebased once at compile time (``p >= t  ⇔  d >=
2t - F``), and the final logits stage's product *is* the logits. A
model outside that bound is not plannable
(:func:`plan_unsupported_reason` says why) and runs on the interpreted
XNOR+popcount reference instead. Logits and ``return_bits`` traces
match the reference exactly; ``tests/test_runtime_contract.py`` pins
that across the zoo.

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

from repro.hw.compiler import INPUT_SCALE, check_input_range
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

_F32_ONE = np.float32(1.0)
_F32_TWO = np.float32(2.0)


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
        tb = _blas_thresholds(stage)
        bound = max(
            blas_exact_bound(stage),
            0 if tb is None else int(np.abs(tb).max()),
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
    stages run in the bipolar domain, where ``|2p - F| <= F``. The
    float32 sgemm is exact iff this (and the rebased thresholds) stay
    below ``2**24``.
    """
    cfg = stage.mvtu.config
    if cfg.input_bits == 8:
        return INPUT_SCALE * cfg.cols
    return cfg.cols


def _blas_thresholds(stage) -> Optional[np.ndarray]:
    """``stage``'s thresholds rebased into its sgemm accumulator domain
    (int64; :func:`plan_unsupported_reason` checks them against the
    float32-exact bound before the binder casts them)."""
    spec = stage.mvtu.thresholds
    if spec is None:
        return None
    if stage.mvtu.config.input_bits == 8:
        return spec.thresholds
    # popcount domain: p >= t  <=>  2p - F >= 2t - F
    return 2 * spec.thresholds - stage.mvtu.config.cols


class _PlannedStage:
    """One stage's bound buffers and its allocation-free ``run()``.

    All views, index tables and constants are bound at plan
    compile time; ``run`` touches only prebuilt objects and ``out=``
    kernels.
    """

    __slots__ = (
        "name", "cycles", "fused", "arena_bytes",
        "gather_src", "gather_idx", "gather_out",
        "rows_f32", "w_f32", "conv_views", "gemm_tmp",
        "acc", "acc6", "pmax", "pmin",
        "thr", "flip", "notflip", "any_flip",
        "ge", "le", "act", "out_map", "trace_ref",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.cycles = 0
        self.fused = False
        self.arena_bytes = 0
        self.gather_src = None
        self.gather_idx = None
        self.gather_out = None
        self.rows_f32 = None
        self.w_f32 = None
        self.conv_views = None
        self.gemm_tmp = None
        self.acc = None
        self.acc6 = None
        self.pmax = None
        self.pmin = None
        self.thr = None
        self.flip = None
        self.notflip = None
        self.any_flip = False
        self.ge = None
        self.le = None
        self.act = None
        self.out_map = None
        self.trace_ref = None

    def run(self) -> None:
        if self.gather_src is not None:
            self.gather_src.take(self.gather_idx, axis=1, out=self.gather_out)
        if self.conv_views is not None:
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
            # Final logits stage: the bipolar sgemm already computed 2p - F.
            np.copyto(self.out_map, self.acc, casting="unsafe")
            return
        # Fused threshold(+pool): pooling accumulators commutes with
        # thresholding (max for >=-channels, min for flipped
        # <=-channels), so the boolean OR-pool stage vanishes.
        if self.acc6 is not None:
            np.maximum.reduce(self.acc6, axis=(2, 4), out=self.pmax)
        np.greater_equal(self.pmax, self.thr, out=self.ge)
        if self.any_flip:
            if self.acc6 is not None:
                np.minimum.reduce(self.acc6, axis=(2, 4), out=self.pmin)
            np.less_equal(self.pmin, self.thr, out=self.le)
            np.logical_and(self.ge, self.notflip, out=self.ge)
            np.logical_and(self.le, self.flip, out=self.le)
            np.logical_or(self.ge, self.le, out=self.ge)
        # Bipolar ±1 activation map for the next stage's sgemm.
        np.multiply(self.ge, _F32_TWO, out=self.act)
        np.subtract(self.act, _F32_ONE, out=self.act)

    def trace_bits(self) -> np.ndarray:
        """This stage's boolean activation map (or final logits), as a
        fresh array safe to keep across executions (debug mode only —
        this path allocates)."""
        return self.trace_ref.copy()


class ExecutionPlan:
    """A compiled, arena-bound, fixed-batch inference program.

    Compile once via ``ExecutionPlan(accelerator, batch_size)`` (or let
    :class:`PlanCache` do it); run many times via :meth:`execute`. The
    plan owns (or is bound to) a :class:`~repro.nn.arena.BufferArena`
    holding every intermediate; with ``out=`` supplied, steady-state
    :meth:`execute` performs zero heap allocations. Accelerators that
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
        """(Re)bind every step's buffers and index tables to the arena."""
        self._bound_epoch = self._arena.epoch
        self.stage_arena_bytes: Dict[str, int] = {}
        n = self.batch_size
        h, w, c = self.accelerator.input_shape
        self._scale = np.float64(INPUT_SCALE)
        self._q_f64 = self._get("input", "quant_f64", (n, h, w, c), np.float64)
        # Pixels ≤ 255 are exact in float32 — gather and multiply
        # directly in the sgemm operand dtype.
        self._q_num = self._get("input", "quant_f32", (n, h, w, c), np.float32)
        self._q_flat = self._q_num.reshape(n, h * w * c)

        act = None  # the previous stage's ±1 activation map
        steps: List[_PlannedStage] = []
        fused = 0
        for stage in self.accelerator.stages:
            st = _PlannedStage(stage.name)
            st.cycles = stage.initiation_interval()
            if stage.kind == "conv":
                act = self._bind_conv(st, stage, act, n)
                if stage.pool is not None:
                    st.fused = True
                    fused += 1
            else:
                act = self._bind_fc(st, stage, act, n)
            st.arena_bytes = self.stage_arena_bytes.get(stage.name, 0)
            steps.append(st)
        self._stages = steps
        self.fused_stages = fused
        self._logits = steps[-1].out_map

    # -- stage binding --------------------------------------------------------
    def _bind_thresholds(self, st: _PlannedStage, stage) -> None:
        spec = stage.mvtu.thresholds
        st.thr = _blas_thresholds(stage).astype(np.float32)
        st.flip = spec.flipped
        st.notflip = ~spec.flipped
        st.any_flip = bool(spec.flipped.any())

    def _bind_conv(self, st: _PlannedStage, stage, act_in, n: int):
        cfg = stage.mvtu.config
        swu = stage.swu
        oh, ow = swu.config.out_hw
        m = n * oh * ow
        rows, cols = cfg.rows, cfg.cols
        name = stage.name
        weights = stage.mvtu.blas_weights()  # (cols, rows), cells × channels
        if cfg.input_bits == 8:
            # im2col via the cached SWU gather table + one big sgemm:
            # the 8-bit fan-in is tiny (K*K*3), so the gathered rows are
            # small and one wide BLAS call beats many skinny ones.
            st.gather_src = self._q_flat
            st.gather_idx = swu.gather_indices()
            gat = self._get(name, "gather", (n, oh * ow * cols), np.float32)
            st.gather_out = gat
            st.rows_f32 = gat.reshape(m, cols)
            st.w_f32 = weights
            st.acc = self._get(name, "acc", (m, rows), np.float32)
            acc4 = st.acc.reshape(n, oh, ow, rows)
        else:
            # Shifted-matmul: one stacked sgemm per kernel cell over a
            # shifted *view* of the previous ±1 activation map — no
            # im2col gather. Weight layout is (kh, kw, C) channels
            # fastest, so cell i's operand is rows [i*C, (i+1)*C).
            ch = swu.config.channels
            kh, kw = swu.config.kernel
            st.acc = self._get(name, "acc", (n, oh, ow, rows), np.float32)
            acc4 = st.acc
            st.gemm_tmp = self._get(name, "gemm_tmp", (n, oh, ow, rows), np.float32)
            views = []
            for i in range(kh):
                for j in range(kw):
                    cell = i * kw + j
                    views.append((
                        act_in[:, i : i + oh, j : j + ow, :],
                        weights[cell * ch : (cell + 1) * ch],
                    ))
            st.conv_views = views
        self._bind_thresholds(st, stage)
        if stage.pool is not None:
            ph, pw = stage.pool.config.pool
            out_h, out_w = stage.pool.config.out_hw
            st.acc6 = acc4.reshape(n, out_h, ph, out_w, pw, rows)
            st.pmax = self._get(
                name, "pool_max", (n, out_h, out_w, rows), np.float32
            )
            if st.any_flip:
                st.pmin = self._get(
                    name, "pool_min", (n, out_h, out_w, rows), np.float32
                )
        else:
            out_h, out_w = oh, ow
            st.pmax = acc4
            st.pmin = acc4
        st.ge = self._get(name, "bits", (n, out_h, out_w, rows), bool)
        if st.any_flip:
            st.le = self._get(name, "bits_flip", (n, out_h, out_w, rows), bool)
        st.act = self._get(name, "act", (n, out_h, out_w, rows), np.float32)
        st.trace_ref = st.ge
        return st.act

    def _bind_fc(self, st: _PlannedStage, stage, act_in, n: int):
        cfg = stage.mvtu.config
        rows, cols = cfg.rows, cfg.cols
        name = stage.name
        d = int(np.prod(act_in.shape[1:]))
        if d != cols:
            raise RuntimeError(f"{name}: fan-in mismatch ({d} != {cols})")
        st.rows_f32 = act_in.reshape(n, cols)
        st.w_f32 = stage.mvtu.blas_weights()
        st.acc = self._get(name, "acc", (n, rows), np.float32)
        if stage.mvtu.thresholds is None:
            st.out_map = self._get(name, "logits", (n, rows), np.int64)
            st.trace_ref = st.out_map
            return st.out_map
        self._bind_thresholds(st, stage)
        st.pmax = st.acc
        st.pmin = st.acc
        st.ge = self._get(name, "bits", (n, rows), bool)
        if st.any_flip:
            st.le = self._get(name, "bits_flip", (n, rows), bool)
        st.act = self._get(name, "act", (n, rows), np.float32)
        st.trace_ref = st.ge
        return st.act

    # -- execution ------------------------------------------------------------
    def _quantize(self, images: np.ndarray) -> None:
        """Allocation-free equivalent of ``FinnAccelerator.quantize_input``."""
        check_input_range(images)
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
        spans exactly like the interpreted path.
        """
        if self.stale:
            raise RuntimeError(
                f"stale execution plan for {self.accelerator.name!r}: its "
                "arena was cleared after compilation; rebuild the plan or "
                "set_arena() a fresh one"
            )
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
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
    """

    iters: int
    extra_iters: int
    net_blocks: int
    net_bytes: int
    growth_blocks: int
    growth_bytes: int

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
    the window, constant residue does not.
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
    )
