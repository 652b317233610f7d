"""Matrix-Vector-Threshold Unit (MVTU) — the FINN compute engine (§III-B).

One MVTU is instantiated per (binary) convolutional or fully-connected
layer. It multiplies an input vector stream against a weight matrix using
XNOR + popcount and applies the folded batch-norm threshold. The unit is
dimensioned by its **PE count** (output neurons computed in parallel) and
**SIMD lanes** (fan-in elements consumed per cycle); the *folding factor*

    fold = (rows / PE) * (cols / SIMD)

is the number of cycles the unit needs per input vector, which directly
sets its initiation interval in the streaming pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.hw.bitpack import PackedBits, pack_bits, unpack_bits
from repro.hw.thresholding import ThresholdSpec, apply_thresholds
from repro.hw.xnor_kernels import bipolar_from_popcount, xnor_matmul_popcount

__all__ = ["MVTUConfig", "MVTU", "BlasOperands"]


@dataclass(frozen=True)
class MVTUConfig:
    """Static dimensioning of one MVTU.

    ``rows`` is the number of output neurons (matrix height), ``cols`` the
    fan-in (matrix width). ``input_bits`` is 1 for binary inputs and 8
    for the first layer's fixed-point pixels. ``pe`` must divide ``rows``
    and ``simd`` must divide ``cols`` (the hardware interleaves weights
    across PEs; a non-divisor would leave lanes idle and is rejected the
    way FINN's synthesis would).
    """

    name: str
    rows: int
    cols: int
    pe: int
    simd: int
    input_bits: int = 1
    has_threshold: bool = True

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(f"{self.name}: matrix dims must be positive")
        if self.pe <= 0 or self.simd <= 0:
            raise ValueError(f"{self.name}: PE and SIMD must be positive")
        if self.rows % self.pe != 0:
            raise ValueError(
                f"{self.name}: PE={self.pe} does not divide rows={self.rows}"
            )
        if self.cols % self.simd != 0:
            raise ValueError(
                f"{self.name}: SIMD={self.simd} does not divide cols={self.cols}"
            )
        if self.input_bits not in (1, 8):
            raise ValueError(
                f"{self.name}: input_bits must be 1 or 8, got {self.input_bits}"
            )

    @property
    def neuron_fold(self) -> int:
        """Row passes needed: rows / PE."""
        return self.rows // self.pe

    @property
    def synapse_fold(self) -> int:
        """Column passes needed: cols / SIMD."""
        return self.cols // self.simd

    @property
    def total_fold(self) -> int:
        """Cycles per input vector."""
        return self.neuron_fold * self.synapse_fold

    @property
    def weight_bits(self) -> int:
        """On-chip weight storage (1 bit per synapse)."""
        return self.rows * self.cols


class BlasOperands(NamedTuple):
    """One MVTU lowered to an execution plan's float32 sgemm.

    ``weights`` is ``(cols, rows)``. A thresholded unit's output bit for
    channel ``c`` is ``acc[c] >= thresholds[c]`` (int64), with ``acc``
    the product of ``weights`` and the stage's operand: the raw pixels
    for the 8-bit unit, 0/1 activations for binary ones. The logits
    unit has no thresholds; its logits are ``acc - offsets``.
    """

    weights: np.ndarray
    thresholds: Optional[np.ndarray]
    offsets: Optional[np.ndarray]


class MVTU:
    """A functional + timed MVTU instance.

    ``weights`` is the bipolar ``(rows, cols)`` matrix (each row is one
    output neuron, stored packed). ``thresholds`` is ``None`` for the
    final logits layer, which streams out raw accumulators.
    """

    def __init__(
        self,
        config: MVTUConfig,
        weights: np.ndarray,
        thresholds: Optional[ThresholdSpec],
    ) -> None:
        if config.has_threshold != (thresholds is not None):
            raise ValueError(
                f"{config.name}: has_threshold={config.has_threshold} but "
                f"thresholds {'missing' if thresholds is None else 'given'}"
            )
        if thresholds is not None and thresholds.num_channels != config.rows:
            raise ValueError(
                f"{config.name}: {thresholds.num_channels} thresholds for "
                f"{config.rows} rows"
            )
        self.config = config
        self.thresholds = thresholds
        self.set_weights(weights)

    def set_weights(self, weights: np.ndarray) -> None:
        """Install a bipolar ``(rows, cols)`` weight matrix and rebuild
        every operand derived from it (fault injection rewrites weights
        through here, so no engine keeps computing with stale copies)."""
        config = self.config
        weights = np.asarray(weights)
        if weights.shape != (config.rows, config.cols):
            raise ValueError(
                f"{config.name}: weights {weights.shape} do not match "
                f"matrix {(config.rows, config.cols)}"
            )
        bad = (weights != 1) & (weights != -1)
        if bad.any():
            raise ValueError(f"{config.name}: weights must be bipolar -1/+1")
        self._blas_operands = None  # lazy, see blas_operands
        if config.input_bits == 1:
            self._packed_weights = pack_bits(weights.astype(np.int8))
            self._int_weights = None
            # Word-transposed weight operand, precomputed once: the GEMM
            # kernel would otherwise rebuild this contiguous transpose on
            # every call (a per-call allocation + copy on the hot path).
            self._weight_cols = np.ascontiguousarray(
                self._packed_weights.words.T
            )
            self._weight_t64 = None
        else:
            self._packed_weights = None
            self._int_weights = weights.astype(np.int32)
            self._weight_cols = None
            self._weight_t64 = np.ascontiguousarray(
                self._int_weights.astype(np.int64).T
            )

    def blas_operands(self) -> BlasOperands:
        """Cached float32 sgemm operands for execution plans.

        Every operand is batch-independent, so it is computed once per
        (weights, :class:`ThresholdSpec`) and shared by every plan
        compiled for this unit. ``set_weights`` drops the cache; the
        thresholds are matched by identity, so installing a new spec
        (as fault injection does) rebuilds it on the next call.
        """
        spec = self.thresholds
        cached = self._blas_operands
        if cached is not None and cached[0] is spec:
            return cached[1]
        cfg = self.config
        if self._int_weights is not None:
            w = self._int_weights.astype(np.float32)
        else:
            w = unpack_bits(self._packed_weights, dtype=np.float32)
        col_sums = w.sum(axis=1, dtype=np.float32)  # S = ΣW per channel
        thresholds = offsets = None
        if spec is None:
            # The (binary) logits unit: W·(2b − 1) = (2W)·b − S.
            w += w
            offsets = col_sums
        else:
            t = spec.thresholds.astype(np.int64)
            if cfg.input_bits == 1:
                # Popcount p >= t  ⇔  2p − F >= 2t − F, and over 0/1
                # activations 2p − F = 2·W·b − S.
                t = 2 * t - cfg.cols + col_sums.astype(np.int64)
                ge, le = -(-t // 2), t // 2  # ceil, floor of t / 2
            else:
                ge = le = t
            # acc <= t  ⇔  −acc >= −t: negating a flipped channel's
            # weights makes every channel a >= channel.
            thresholds = np.where(spec.flipped, -le, ge)
            w[spec.flipped] *= -1
        ops = BlasOperands(np.ascontiguousarray(w.T), thresholds, offsets)
        self._blas_operands = (spec, ops)
        return ops

    # -- functional ------------------------------------------------------------
    def compute_accumulators(self, vectors) -> np.ndarray:
        """Raw integer accumulators for a batch of input vectors.

        For binary inputs, pass a :class:`PackedBits` of shape
        ``(n, cols)``; the result is the *popcount* accumulator. For 8-bit
        inputs pass an integer array ``(n, cols)``; the result is the raw
        signed MAC. Both weight operands are cached contiguous at
        construction, so no per-call transpose copies.
        """
        cfg = self.config
        if cfg.input_bits == 1:
            if not isinstance(vectors, PackedBits):
                raise TypeError(
                    f"{cfg.name}: binary MVTU expects PackedBits input"
                )
            if vectors.nbits != cfg.cols:
                raise ValueError(
                    f"{cfg.name}: input fan-in {vectors.nbits} != {cfg.cols}"
                )
            return xnor_matmul_popcount(
                vectors, self._packed_weights, b_cols=self._weight_cols
            )
        vec = np.asarray(vectors)
        if vec.ndim != 2 or vec.shape[1] != cfg.cols:
            raise ValueError(
                f"{cfg.name}: expected (n, {cfg.cols}) integer input, got "
                f"{vec.shape}"
            )
        if not np.issubdtype(vec.dtype, np.integer):
            raise TypeError(
                f"{cfg.name}: 8-bit MVTU expects integer input, got {vec.dtype}"
            )
        return vec.astype(np.int64, copy=False) @ self._weight_t64

    def execute(self, vectors):
        """Full unit: accumulate then threshold.

        Returns boolean output bits ``(n, rows)`` when thresholding, or
        the bipolar/integer accumulators for the final layer.
        """
        acc = self.compute_accumulators(vectors)
        if self.thresholds is None:
            if self.config.input_bits == 1:
                return bipolar_from_popcount(acc, self.config.cols)
            return acc
        return apply_thresholds(acc, self.thresholds)

    # -- timing ---------------------------------------------------------------
    def cycles_per_vector(self) -> int:
        """Initiation interval for one input vector."""
        return self.config.total_fold

    def cycles_per_image(self, vectors_per_image: int) -> int:
        """Cycles to process one image's worth of vectors."""
        if vectors_per_image <= 0:
            raise ValueError(
                f"vectors_per_image must be positive, got {vectors_per_image}"
            )
        return vectors_per_image * self.config.total_fold

    def ops_per_image(self, vectors_per_image: int) -> int:
        """Binary MAC operations per image (2 ops per synapse: XNOR+acc)."""
        return 2 * self.config.rows * self.config.cols * vectors_per_image
