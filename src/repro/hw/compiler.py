"""BNN → FINN-style accelerator compiler.

Takes a trained :class:`repro.nn.Sequential` following the paper's layer
grammar and emits a :class:`FinnAccelerator`: a pipeline of hardware
stages (SWU + MVTU + optional OR-pool per conv layer; MVTU per FC layer)
whose datapath is **integer-only** — XNOR/popcount accumulation and
folded batch-norm thresholds, exactly as §III-A/B describe.

The deployable grammar and the folding legality rules live in
:mod:`repro.analysis.graph`: :func:`compile_model` runs
:func:`~repro.analysis.graph.verify_model` as its front end and refuses
any model it reports an error for. What is left here is lowering a
verified model, block by block::

    [Conv]   (Binary)Conv2D -> BatchNorm -> SignActivation [-> MaxPool2D]
    [Flat]   Flatten
    [FC]     BinaryDense -> BatchNorm -> SignActivation
    [Logit]  BinaryDense                      (final layer, no threshold)

The first conv consumes 8-bit pixels (FINN's fixed-point input layer);
everything downstream is 1-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hw.bitpack import pack_bits
from repro.hw.maxpool_unit import MaxPoolUnit, MaxPoolUnitConfig
from repro.hw.mvtu import MVTU, MVTUConfig
from repro.hw.swu import SlidingWindowUnit, SWUConfig
from repro.hw.thresholding import fold_batchnorm_sign, fold_popcount_domain
from repro.telemetry.tracing import get_tracer
from repro.nn.binary_ops import sign
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.nn.layers.xnor import XnorConv2D, XnorDense
from repro.nn.sequential import Sequential

__all__ = [
    "HardwareStage",
    "FinnAccelerator",
    "FoldingConfig",
    "InputContract",
    "MVTUGeometry",
    "compile_model",
    "folding_violations",
    "mvtu_geometry",
]

#: Pixel quantisation scale for the 8-bit input layer.
INPUT_SCALE = 255

#: ``float32(1.0)`` viewed as ``uint32``.
_ONE_BITS = np.float32(1.0).view(np.uint32)


@dataclass(frozen=True)
class InputContract:
    """The input domain: one ``shape`` image or an ``(N,) + shape``
    batch of integer pixels in ``[0, INPUT_SCALE]`` or finite float
    pixels in ``[0, 1]`` (±1e-6 rounding slack). Engines check it once
    per batch and the server once per image; nothing downstream
    re-validates.
    """

    shape: Tuple[int, ...]

    def check(self, images) -> np.ndarray:
        """``images`` as an ``(N,) + shape`` batch, or ``ValueError``.

        A single image gains a batch axis; an empty batch passes through.
        """
        batch = np.asarray(images)
        if batch.ndim == len(self.shape):
            batch = batch[None]
        if batch.ndim != len(self.shape) + 1:
            raise ValueError(
                f"input must be one {self.shape} image or an (N,) + "
                f"{self.shape} batch, got shape {batch.shape}"
            )
        if batch.shape[1:] != self.shape:
            raise ValueError(
                f"input {batch.shape[1:]} does not match the compiled "
                f"input {self.shape}"
            )
        kind = batch.dtype.kind
        if kind not in "iuf":
            raise ValueError(
                f"input dtype {batch.dtype} is neither integer nor real float"
            )
        if batch.size == 0 or batch.dtype == np.uint8:
            return batch
        # Common case in one reduction (each one may hand the GIL to a
        # busy worker): as uint32, floats in [+0, 1] are exactly the bit
        # patterns up to 1.0's, and NaN, inf and negatives all lie above.
        if batch.dtype == np.float32:
            if batch.view(np.uint32).max() <= _ONE_BITS:
                return batch
        lo, hi = batch.min(), batch.max()
        if kind == "f":
            # Written so that NaN (every comparison False) and ±inf fail
            # the range test; only a failure pays to tell them apart.
            if not (lo >= -1e-6 and hi <= 1.0 + 1e-6):
                if not (np.isfinite(lo) and np.isfinite(hi)):
                    raise ValueError(
                        "float input must be finite (NaN or inf found)"
                    )
                raise ValueError("float input must be in [0, 1]")
        elif not (lo >= 0 and hi <= INPUT_SCALE):
            raise ValueError(f"integer input must be in [0, {INPUT_SCALE}]")
        return batch


class MVTUGeometry(NamedTuple):
    """Static matrix geometry of one MVTU: the facts folding must respect."""

    name: str
    kind: str  # "conv" or "fc"
    rows: int  # output neurons (channels / features)
    cols: int  # fan-in (K*K*C_in for conv, in_features for fc)


def mvtu_geometry(model: Sequential) -> List[MVTUGeometry]:
    """The (rows, cols) geometry of every MVTU ``model`` would compile to.

    Purely static — derived from layer declarations and shape inference,
    no forward pass. The model-graph verifier (:mod:`repro.analysis.graph`)
    checks folding legality against it, so that legality has exactly one
    definition.
    """
    geoms: List[MVTUGeometry] = []
    for name, layer, in_shape, _, _ in model.iter_shape_inference():
        if isinstance(layer, Conv2D):
            kh, kw = layer.kernel_size
            c_in = in_shape[2] if in_shape is not None and len(in_shape) == 3 \
                else layer.in_channels
            geoms.append(
                MVTUGeometry(name, "conv", layer.out_channels, kh * kw * c_in)
            )
        elif isinstance(layer, Dense):
            geoms.append(
                MVTUGeometry(name, "fc", layer.out_features, layer.in_features)
            )
    return geoms


def folding_violations(
    pe: Tuple[int, ...],
    simd: Tuple[int, ...],
    geometry: Sequence[MVTUGeometry],
) -> List[Tuple[str, str, str]]:
    """Every way ``(pe, simd)`` fails to legally fold ``geometry``.

    Returns ``(mvtu_name, check, message)`` triples, where ``check`` is
    ``"arity"``, ``"pe"`` or ``"simd"``. Empty list = legal folding.
    """
    if len(pe) != len(geometry):
        return [(
            "",
            "arity",
            f"folding has {len(pe)} entries but the model has "
            f"{len(geometry)} MVTU layers",
        )]
    out: List[Tuple[str, str, str]] = []
    for geom, p, s in zip(geometry, pe, simd):
        if geom.rows % p != 0:
            out.append((
                geom.name, "pe",
                f"{geom.name}: PE={p} does not divide rows={geom.rows}",
            ))
        if geom.cols % s != 0:
            out.append((
                geom.name, "simd",
                f"{geom.name}: SIMD={s} does not divide cols={geom.cols}",
            ))
    return out


@dataclass(frozen=True)
class FoldingConfig:
    """PE/SIMD dimensioning for every MVTU, in pipeline order (Table I).

    Only the vectors are checked here; whether they legally fold a given
    model is :func:`~repro.analysis.graph.verify_model`'s call (MG007–009),
    which :func:`compile_model` makes before lowering anything.
    """

    pe: Tuple[int, ...]
    simd: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.pe) != len(self.simd):
            raise ValueError(
                f"PE ({len(self.pe)}) and SIMD ({len(self.simd)}) vectors "
                f"must have equal length"
            )
        if any(p <= 0 for p in self.pe) or any(s <= 0 for s in self.simd):
            raise ValueError("PE and SIMD entries must be positive")

    def __len__(self) -> int:
        return len(self.pe)


@dataclass
class HardwareStage:
    """One pipeline stage: an MVTU plus its helpers."""

    name: str
    kind: str  # "conv" or "fc"
    mvtu: MVTU
    vectors_per_image: int
    swu: Optional[SlidingWindowUnit] = None
    pool: Optional[MaxPoolUnit] = None
    in_shape: Tuple[int, ...] = ()
    out_shape: Tuple[int, ...] = ()

    def initiation_interval(self) -> int:
        """Cycles this stage needs per image (slowest of its units)."""
        cycles = [self.mvtu.cycles_per_image(self.vectors_per_image)]
        if self.swu is not None:
            cycles.append(self.swu.cycles_per_image())
        if self.pool is not None:
            cycles.append(self.pool.cycles_per_image())
        return max(cycles)

    def unit_cycles(self) -> Dict[str, int]:
        """Per-unit cycle breakdown (for the pipeline report)."""
        out = {"mvtu": self.mvtu.cycles_per_image(self.vectors_per_image)}
        if self.swu is not None:
            out["swu"] = self.swu.cycles_per_image()
        if self.pool is not None:
            out["pool"] = self.pool.cycles_per_image()
        return out


class FinnAccelerator:
    """A compiled streaming accelerator.

    ``run`` executes the full integer datapath on the engine an
    :class:`~repro.runtime.ExecutionConfig` resolves to; timing and
    resource queries delegate to :mod:`repro.hw.pipeline` and
    :mod:`repro.hw.resources`.
    """

    def __init__(
        self,
        name: str,
        stages: List[HardwareStage],
        input_shape: Tuple[int, int, int],
        num_classes: int,
    ) -> None:
        if not stages:
            raise ValueError("accelerator needs at least one stage")
        self.name = name
        self.stages = stages
        self.input_shape = tuple(input_shape)
        self.input_contract = InputContract(self.input_shape)
        self.num_classes = int(num_classes)
        self._plan_cache = None
        self._engines = {}

    def __getstate__(self):
        # Plan caches hold a lock and arena-bound buffers, engines may
        # hold a live process pool — all derived state, rebuilt lazily
        # wherever the accelerator lands (a spawn-started pool worker, a
        # deepcopy for fault injection).
        state = self.__dict__.copy()
        state["_plan_cache"] = None
        state["_engines"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._plan_cache = None
        self._engines = {}

    @property
    def plans(self):
        """The accelerator's :class:`~repro.hw.plan.PlanCache` (lazy).

        Compiled execution plans are keyed by batch geometry, folding and
        thread, so repeated fixed-shape batches (``predict``, the serving
        backends) run the precompiled allocation-free datapath.
        """
        if self._plan_cache is None:
            from repro.hw.plan import PlanCache

            self._plan_cache = PlanCache(self)
        return self._plan_cache

    def close_pool(self) -> None:
        """Shut down the cached engines (and the process pool, if any)."""
        for engine in list(self._engines.values()):
            close = getattr(engine, "close", None)
            if close is not None:
                close()
        self._engines.clear()

    # -- runtime dispatch ----------------------------------------------------
    def engine_for(self, execution=None):
        """The cached :class:`~repro.runtime.engines.Engine` for a config.

        One engine instance per distinct :class:`ExecutionConfig`, built
        through the :mod:`repro.runtime.registry` resolution rules and
        kept for the accelerator's lifetime so plan caches, arenas and
        worker pools persist across calls.
        """
        from repro.runtime import ExecutionConfig, create_engine
        from repro.runtime.registry import resolve_engine_name

        if execution is None:
            execution = ExecutionConfig()
        engine = self._engines.get(execution)
        if engine is None:
            if resolve_engine_name(execution, self) == "process":
                # One live pool per accelerator: a process engine with a
                # different topology replaces (and closes) the old one,
                # mirroring the historical lazy-pool semantics.
                for key, old in list(self._engines.items()):
                    if getattr(old, "name", "") == "process":
                        old.close()
                        del self._engines[key]
            engine = self._engines[execution] = create_engine(self, execution)
        return engine

    def run(
        self,
        images: np.ndarray,
        execution=None,
        *,
        return_bits: bool = False,
    ):
        """Integer logits via the engine resolved for ``execution``.

        The first-class entry point of the runtime layer: ``execution``
        is an :class:`~repro.runtime.ExecutionConfig` (default: planned
        single-process inference; ``ExecutionConfig(use_plan=False)``
        selects the interpreted reference). With ``return_bits`` also
        returns the per-stage binary activation maps.
        """
        return self.engine_for(execution).run(images, return_bits=return_bits)

    # -- functional ---------------------------------------------------------
    @staticmethod
    def quantize_input(images: np.ndarray) -> np.ndarray:
        """Quantise contract-checked images to the 8-bit integer domain."""
        images = np.asarray(images)
        if np.issubdtype(images.dtype, np.integer):
            return images.astype(np.int64)
        return np.rint(images.astype(np.float64) * INPUT_SCALE).astype(np.int64)

    def _run_interpreted(self, images: np.ndarray, return_bits: bool = False):
        """The stage-by-stage reference datapath, one unchunked batch.

        This is the golden semantics every engine is held to; only the
        runtime engines call it. Activations travel as boolean maps and
        every binary MVTU packs its input rows and runs the
        XNOR+popcount kernels, as the hardware does. ``images`` is a
        non-empty batch checked against :attr:`input_contract`.
        """
        n = images.shape[0]
        tracer = get_tracer()
        trace_stages = tracer.enabled
        own_span = None
        if trace_stages:
            span_parent = tracer.current_span()
            if span_parent is None:
                # Standalone use (no runtime span active): open one root
                # so the stage spans still form a connected tree.
                own_span = tracer.start_span(
                    "hw.execute",
                    kind="hw",
                    parent=None,
                    attributes={"accelerator": self.name, "images": n},
                )
                span_parent = own_span
            trace_stages = span_parent.recording
        current = self.quantize_input(images)
        bits_trace = []
        for stage in self.stages:
            stage_t0 = tracer.clock.monotonic() if trace_stages else 0.0
            if stage.kind == "conv":
                rows = stage.swu.execute(current)
                if stage.mvtu.config.input_bits == 1:
                    rows = pack_bits(rows.astype(bool))
                oh, ow = stage.swu.config.out_hw
                current = stage.mvtu.execute(rows).reshape(
                    n, oh, ow, stage.mvtu.config.rows
                )
                if stage.pool is not None:
                    current = stage.pool.execute(current)
            else:  # fc: flatten (a no-op after the first fc stage)
                current = stage.mvtu.execute(
                    pack_bits(current.reshape(n, -1).astype(bool))
                )
            if trace_stages:
                # The ``cycles`` attribute carries the stage's modelled
                # initiation interval, so trace analysis can rank stages
                # the way the board would (analyze_pipeline's argmax),
                # not just by simulator wall time.
                tracer.record(
                    f"hw.{stage.name}",
                    kind="hw_stage",
                    start_s=stage_t0,
                    end_s=tracer.clock.monotonic(),
                    parent=span_parent,
                    attributes={
                        "cycles": stage.initiation_interval(), "images": n
                    },
                )
            if return_bits:
                bits_trace.append(current)
        if own_span is not None:
            own_span.finish()
        if current.shape != (n, self.num_classes):
            raise RuntimeError(
                f"datapath produced {current.shape}, expected "
                f"{(n, self.num_classes)} — stage wiring is inconsistent"
            )
        if return_bits:
            return current, bits_trace
        return current

    def predict(
        self,
        images: np.ndarray,
        chunk_size: Optional[int] = None,
        execution=None,
    ) -> np.ndarray:
        """Argmax classification over the integer logits.

        ``execution`` picks the engine (default: planned single-process
        inference); ``chunk_size`` bounds per-pass memory and is merged
        into the config. Every engine is bit-identical by contract.
        """
        from repro.runtime import ExecutionConfig

        execution = (
            execution if execution is not None else ExecutionConfig()
        ).merged(chunk_size=chunk_size)
        return self.run(images, execution).argmax(axis=1)

    # -- reporting -----------------------------------------------------------
    def stage_intervals(self) -> List[Tuple[str, int]]:
        """(stage name, initiation interval in cycles) per stage."""
        return [(s.name, s.initiation_interval()) for s in self.stages]

    def weight_bits(self) -> int:
        """Total on-chip weight storage in bits."""
        return sum(s.mvtu.config.weight_bits for s in self.stages)

    def total_ops_per_image(self) -> int:
        """Total MAC-equivalent operations per classified image."""
        return sum(
            s.mvtu.ops_per_image(s.vectors_per_image) for s in self.stages
        )

    def folding(self) -> FoldingConfig:
        """The PE/SIMD dimensioning actually compiled in."""
        return FoldingConfig(
            pe=tuple(s.mvtu.config.pe for s in self.stages),
            simd=tuple(s.mvtu.config.simd for s in self.stages),
        )


def _iter_blocks(model: Sequential):
    """Split a verified model into ``(name, layer, bn, pool)``, one per MVTU.

    ``bn`` is ``None`` for the logits layer and ``pool`` for an unpooled
    stage; sign and flatten layers hold no state of their own.
    """
    names = model.layer_names
    layers = [model[name] for name in names]
    for i, layer in enumerate(layers):
        if isinstance(layer, (Conv2D, Dense)):
            bn = layers[i + 1] if i + 1 < len(layers) else None
            pool = layers[i + 3] if i + 3 < len(layers) else None
            yield names[i], layer, bn, (
                pool if isinstance(pool, MaxPool2D) else None
            )


def _fold_thresholds(layer, bn, cols: int, input_bits: int):
    """Fold ``bn -> sign`` after ``layer`` into integer thresholds
    (§III-A); ``None`` for the logits layer."""
    if bn is None:
        return None
    scale, shift = bn.fused_scale_shift()
    if isinstance(layer, (XnorConv2D, XnorDense)):
        # XNOR-Net per-filter scales are strictly positive, so
        # BN(alpha * acc) folds by scaling the BN slope — the thresholds
        # absorb the scales for free (§II-B trade-off discussion; see
        # repro.nn.layers.xnor).
        scale = scale * layer.output_scales()
    if input_bits == 1:
        return fold_popcount_domain(scale, shift, fan_in=cols)
    acc_bound = INPUT_SCALE * cols
    return fold_batchnorm_sign(
        scale,
        shift,
        acc_min=-acc_bound,
        acc_max=acc_bound,
        acc_to_real=1.0 / INPUT_SCALE,
    )


def compile_model(
    model: Sequential,
    folding: FoldingConfig,
    name: str = "accelerator",
) -> FinnAccelerator:
    """Compile a trained model into a :class:`FinnAccelerator`.

    The model must be in inference mode with meaningful batch-norm running
    statistics (i.e. trained); thresholds are folded from those statistics
    as in §III-A. ``folding`` supplies (PE, SIMD) per MVTU in order.

    :func:`~repro.analysis.graph.verify_model` is the front end: if it
    reports an error for the model or the folding, this raises
    ``ValueError`` with the first error's rule id, message and fix hint.
    """
    from repro.analysis.graph import verify_model

    errors = verify_model(model, folding, name).errors
    if errors:
        first = errors[0]
        hint = f" (hint: {first.fix_hint})" if first.fix_hint else ""
        raise ValueError(f"{first.rule_id}: {first.message}{hint}")

    in_shapes = {
        lname: in_shape
        for lname, _, in_shape, _, _ in model.iter_shape_inference()
    }
    stages: List[HardwareStage] = []
    for (lname, layer, bn, pool), pe, simd in zip(
        _iter_blocks(model), folding.pe, folding.simd
    ):
        in_shape = in_shapes[lname]
        is_conv = isinstance(layer, Conv2D)
        if is_conv:
            h, w, c = in_shape
            kh, kw = layer.kernel_size
            rows, cols = layer.out_channels, kh * kw * c
            w_bin = sign(layer.weight.data).reshape(cols, rows).T
        else:  # thresholded fc or the logits layer
            rows, cols = layer.out_features, layer.in_features
            w_bin = sign(layer.weight.data).T  # (out, in)
        input_bits = 8 if is_conv and not stages else 1
        cfg = MVTUConfig(
            name=lname,
            rows=rows,
            cols=cols,
            pe=pe,
            simd=simd,
            input_bits=input_bits,
            has_threshold=bn is not None,
        )
        mvtu = MVTU(cfg, w_bin, _fold_thresholds(layer, bn, cols, input_bits))
        if not is_conv:
            stages.append(
                HardwareStage(
                    name=lname,
                    kind="fc",
                    mvtu=mvtu,
                    vectors_per_image=1,
                    in_shape=in_shape,
                    out_shape=(rows,),
                )
            )
            continue
        swu = SlidingWindowUnit(
            SWUConfig(
                name=f"{lname}.swu",
                in_hw=(h, w),
                channels=c,
                kernel=(kh, kw),
                stride=(1, 1),
                simd=simd,
            )
        )
        oh, ow = out_hw = swu.config.out_hw
        pool_unit = None
        if pool is not None:
            pool_unit = MaxPoolUnit(
                MaxPoolUnitConfig(
                    name=f"{lname}.pool",
                    in_hw=(oh, ow),
                    channels=rows,
                    pool=pool.pool_size,
                )
            )
            out_hw = pool_unit.config.out_hw
        stages.append(
            HardwareStage(
                name=lname,
                kind="conv",
                mvtu=mvtu,
                vectors_per_image=oh * ow,
                swu=swu,
                pool=pool_unit,
                in_shape=in_shape,
                out_shape=out_hw + (rows,),
            )
        )

    return FinnAccelerator(
        name=name,
        stages=stages,
        input_shape=tuple(model.input_shape),
        num_classes=stages[-1].mvtu.config.rows,
    )
