"""Batch-norm → integer-threshold folding (§III-A).

After a binary matrix operation the accumulator passes through batch-norm
and ``sign``. Since the composition only needs the *sign* of an affine
function of an integer accumulator, it collapses into a per-channel
integer comparison: "based on the batch-norm statistics collected at
training time, a threshold point τ is defined" [7]. This module computes
**exact** integer thresholds: for each channel we solve for the smallest
accumulator value satisfying the predicate and then verify/adjust against
the original float64 predicate, so the hardware datapath is bit-exact
with (quantised-input) software inference by construction.

Two accumulator domains are supported:

* ``popcount`` — binary layers; accumulator ``p ∈ [0, F]``, bipolar value
  ``2p − F``;
* ``integer`` — the 8-bit first layer; accumulator is the raw integer MAC
  with inputs scaled by ``input_scale`` (e.g. 255 for uint8 pixels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "ThresholdSpec",
    "fold_batchnorm_sign",
    "fold_popcount_domain",
    "apply_thresholds",
    "quantize_spec",
]


@dataclass(frozen=True)
class ThresholdSpec:
    """Per-channel integer thresholds for a matrix-vector-threshold unit.

    For channel ``c`` the binarised output bit is::

        bit = (acc >= threshold[c])  if not flipped[c]
        bit = (acc <= threshold[c])  if flipped[c]

    where ``acc`` is the integer accumulator (popcount or raw MAC). A
    channel whose batch-norm scale is exactly zero is constant; it is
    encoded with a threshold beyond the accumulator range.
    """

    thresholds: np.ndarray  # (C,) int64
    flipped: np.ndarray  # (C,) bool
    acc_min: int
    acc_max: int

    def __post_init__(self) -> None:
        if self.thresholds.shape != self.flipped.shape:
            raise ValueError("thresholds and flipped must have the same shape")
        if self.acc_min > self.acc_max:
            raise ValueError(
                f"empty accumulator range [{self.acc_min}, {self.acc_max}]"
            )

    @property
    def num_channels(self) -> int:
        return int(self.thresholds.shape[0])

    def storage_bits(self) -> int:
        """Bits needed to store the thresholds in hardware."""
        span = max(abs(self.acc_min), abs(self.acc_max)) + 1
        width = int(np.ceil(np.log2(span + 1))) + 1  # sign bit
        return self.num_channels * (width + 1)  # +1 for the flip flag


def _predicate(
    acc: np.ndarray, scale: np.ndarray, shift: np.ndarray, acc_to_real: float
) -> np.ndarray:
    """The exact float64 predicate sign(BN(x)) == +1, i.e. BN(x) >= 0."""
    real = acc.astype(np.float64) * acc_to_real
    return scale * real + shift >= 0.0


def fold_batchnorm_sign(
    scale: np.ndarray,
    shift: np.ndarray,
    acc_min: int,
    acc_max: int,
    acc_to_real: float = 1.0,
) -> ThresholdSpec:
    """Fold ``sign(scale * (acc * acc_to_real) + shift)`` into thresholds.

    Parameters
    ----------
    scale, shift:
        The batch-norm inference affine (from
        :meth:`repro.nn.layers.batchnorm.BatchNorm.fused_scale_shift`).
    acc_min, acc_max:
        Inclusive integer accumulator range (``[0, F]`` for popcount,
        ``[-S*F, S*F]`` for the scaled first layer).
    acc_to_real:
        Conversion factor from the integer accumulator to the real-valued
        pre-batch-norm activation (``2`` & offset handled by the caller
        for popcount domains via :func:`fold_popcount_domain`).

    The solved thresholds are *verified*: for every channel we evaluate
    the float64 predicate at ``threshold`` and ``threshold - 1`` and nudge
    until the boundary is exact, so no float-rounding edge case can leak
    into the datapath.
    """
    scale = np.asarray(scale, dtype=np.float64)
    shift = np.asarray(shift, dtype=np.float64)
    if scale.shape != shift.shape or scale.ndim != 1:
        raise ValueError(
            f"scale/shift must be matching 1-D arrays, got {scale.shape}, {shift.shape}"
        )
    n = scale.shape[0]
    thresholds = np.empty(n, dtype=np.int64)
    flipped = scale < 0.0

    # Closed-form candidate: acc >= -shift / (scale * acc_to_real).
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = -shift / (scale * acc_to_real)

    for c in range(n):
        if scale[c] == 0.0:
            # Constant channel: +1 iff shift >= 0.
            if shift[c] >= 0.0:
                thresholds[c] = acc_min  # acc >= acc_min is always true
                flipped[c] = False
            else:
                thresholds[c] = acc_max + 1  # never true
                flipped[c] = False
            continue
        t = int(np.ceil(boundary[c])) if not flipped[c] else int(np.floor(boundary[c]))
        t = int(np.clip(t, acc_min - 1, acc_max + 1))
        # Exactness adjustment against the float64 predicate. The
        # candidate is within 1 of correct; walk until the boundary holds:
        # predicate(t) true and predicate(t -/+ 1) false.
        step = 1 if not flipped[c] else -1
        guard = 0
        while t in range(acc_min, acc_max + 1) and not _predicate(
            np.asarray([t]), scale[c], shift[c], acc_to_real
        )[0]:
            t += step
            guard += 1
            if guard > 4:
                raise RuntimeError(
                    f"threshold adjustment diverged for channel {c}"
                )
        while (t - step) in range(acc_min, acc_max + 1) and _predicate(
            np.asarray([t - step]), scale[c], shift[c], acc_to_real
        )[0]:
            t -= step
            guard += 1
            if guard > 8:
                raise RuntimeError(
                    f"threshold adjustment diverged for channel {c}"
                )
        thresholds[c] = t
    return ThresholdSpec(
        thresholds=thresholds,
        flipped=np.asarray(flipped, dtype=bool),
        acc_min=int(acc_min),
        acc_max=int(acc_max),
    )


def fold_popcount_domain(
    scale: np.ndarray, shift: np.ndarray, fan_in: int
) -> ThresholdSpec:
    """Fold BN+sign over a *popcount* accumulator ``p ∈ [0, F]``.

    The bipolar pre-activation is ``2p − F``; we absorb the affine
    ``2p − F`` into the batch-norm affine so the generic folder can work
    directly in the popcount domain: ``scale·(2p−F)+shift =
    (2·scale)·p + (shift − scale·F)``.
    """
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    scale = np.asarray(scale, dtype=np.float64)
    shift = np.asarray(shift, dtype=np.float64)
    eff_scale = 2.0 * scale
    eff_shift = shift - scale * float(fan_in)
    return fold_batchnorm_sign(eff_scale, eff_shift, acc_min=0, acc_max=fan_in)


def quantize_spec(spec: ThresholdSpec, bits: int) -> ThresholdSpec:
    """Re-quantise thresholds to a ``bits``-wide signed storage format.

    The exact thresholds need ``ceil(log2(acc_range))`` bits; a designer
    can trade accuracy for threshold-memory width by snapping thresholds
    to a coarser grid (uniform over the accumulator range, round to
    nearest). Used by the threshold-width ablation to show how many bits
    the comparison stage actually needs.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    lo = float(spec.acc_min - 1)
    hi = float(spec.acc_max + 1)
    levels = 2**bits
    if levels >= (hi - lo) + 1:
        return spec  # full precision already representable
    step = (hi - lo) / (levels - 1)
    snapped = np.rint((spec.thresholds - lo) / step) * step + lo
    snapped = np.clip(np.rint(snapped), spec.acc_min - 1, spec.acc_max + 1)
    return ThresholdSpec(
        thresholds=snapped.astype(np.int64),
        flipped=spec.flipped.copy(),
        acc_min=spec.acc_min,
        acc_max=spec.acc_max,
    )


def apply_thresholds(acc: np.ndarray, spec: ThresholdSpec) -> np.ndarray:
    """Vectorised threshold comparison; returns boolean output bits.

    ``acc`` is ``(..., C)`` of integer accumulators; the comparison runs
    per channel along the last axis (the hardware does this in the PE's
    threshold stage, one compare per output).
    """
    acc = np.asarray(acc)
    if acc.shape[-1] != spec.num_channels:
        raise ValueError(
            f"accumulator channels {acc.shape[-1]} != spec {spec.num_channels}"
        )
    ge = acc >= spec.thresholds
    le = acc <= spec.thresholds
    return np.where(spec.flipped, le, ge)
