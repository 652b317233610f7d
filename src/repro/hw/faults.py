"""Fault injection: bit upsets in the deployed accelerator.

Edge devices at entrances, airports and outdoor gates (§I) run for
months unattended; single-event upsets (SEUs) in the configuration or
BRAM contents are the classic reliability concern for SRAM FPGAs. BNNs
are an interesting case: a weight upset flips a ±1 synapse — the
smallest possible perturbation — and the threshold datapath has no
exponent bits to explode. This module injects controlled faults into a
compiled :class:`~repro.hw.compiler.FinnAccelerator`:

* ``flip_weight_bits`` — random synapse sign flips (weight-memory SEUs);
* ``perturb_thresholds`` — off-by-k threshold corruption (threshold
  storage upsets);

and measures the accuracy degradation curve, so deployments can size
scrubbing intervals against an acceptable error budget.

Faults are injected on *copies* — the input accelerator is never
mutated.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hw.bitpack import unpack_bits
from repro.hw.compiler import FinnAccelerator
from repro.hw.mvtu import MVTU
from repro.hw.thresholding import ThresholdSpec
from repro.utils.rng import RngLike, as_generator

__all__ = [
    "FaultReport",
    "flip_weight_bits",
    "perturb_thresholds",
    "accuracy_under_faults",
]


@dataclass
class FaultReport:
    """Accuracy degradation across fault rates."""

    fault_kind: str
    rates: List[float]
    accuracies: List[float]
    baseline_accuracy: float

    def degradation(self) -> List[float]:
        """Accuracy loss per rate (positive numbers = degradation)."""
        return [self.baseline_accuracy - a for a in self.accuracies]

    def worst(self) -> float:
        return min(self.accuracies)

    def render(self) -> str:
        lines = [
            f"fault sweep: {self.fault_kind} "
            f"(baseline accuracy {self.baseline_accuracy:.3f})"
        ]
        for rate, acc in zip(self.rates, self.accuracies):
            bar = "#" * int(acc * 40)
            lines.append(f"  rate {rate:8.2e}: acc {acc:.3f} {bar}")
        return "\n".join(lines)


def _clone(accelerator: FinnAccelerator) -> FinnAccelerator:
    """Deep-copy an accelerator so faults never touch the original."""
    return copy.deepcopy(accelerator)


def _stage_weight_arrays(accelerator: FinnAccelerator):
    """Yield (stage, bipolar weight matrix) for every MVTU."""
    for stage in accelerator.stages:
        mvtu = stage.mvtu
        if mvtu.config.input_bits == 1:
            w = unpack_bits(mvtu._packed_weights)
        else:
            w = mvtu._int_weights.astype(np.float32)
        yield stage, w


def _write_stage_weights(stage, w: np.ndarray) -> None:
    """Write a bipolar weight matrix back into a stage's MVTU."""
    stage.mvtu.set_weights(w.astype(np.int8))


def flip_weight_bits(
    accelerator: FinnAccelerator,
    rate: float,
    rng: RngLike = None,
) -> FinnAccelerator:
    """Return a copy with each weight bit flipped with probability ``rate``.

    A flip negates the ±1 synapse — exactly what an SEU in the packed
    weight memory does to the XNOR result.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    gen = as_generator(rng)
    faulty = _clone(accelerator)
    for stage, w in _stage_weight_arrays(faulty):
        mask = gen.random(size=w.shape) < rate
        w = np.where(mask, -w, w)
        _write_stage_weights(stage, w)
    return faulty


def perturb_thresholds(
    accelerator: FinnAccelerator,
    rate: float,
    magnitude: int = 1,
    rng: RngLike = None,
) -> FinnAccelerator:
    """Return a copy with a fraction ``rate`` of thresholds shifted.

    Each selected channel's integer threshold moves by ±``magnitude``
    (clamped to the accumulator range) — the effect of an upset in the
    low-order bits of threshold storage.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if magnitude < 1:
        raise ValueError(f"magnitude must be >= 1, got {magnitude}")
    gen = as_generator(rng)
    faulty = _clone(accelerator)
    for stage in faulty.stages:
        spec = stage.mvtu.thresholds
        if spec is None:
            continue
        thresholds = spec.thresholds.copy()
        mask = gen.random(size=thresholds.shape) < rate
        signs = gen.choice([-magnitude, magnitude], size=thresholds.shape)
        thresholds = np.where(mask, thresholds + signs, thresholds)
        thresholds = np.clip(thresholds, spec.acc_min - 1, spec.acc_max + 1)
        stage.mvtu.thresholds = ThresholdSpec(
            thresholds=thresholds.astype(np.int64),
            flipped=spec.flipped.copy(),
            acc_min=spec.acc_min,
            acc_max=spec.acc_max,
        )
    return faulty


def accuracy_under_faults(
    accelerator: FinnAccelerator,
    images: np.ndarray,
    labels: np.ndarray,
    rates: Sequence[float] = (1e-4, 1e-3, 1e-2, 5e-2),
    fault_kind: str = "weight",
    trials: int = 1,
    rng: RngLike = 0,
) -> FaultReport:
    """Sweep fault rates and measure classification accuracy.

    ``fault_kind`` is ``"weight"`` (sign flips) or ``"threshold"``
    (off-by-one threshold shifts); ``trials`` averages over independent
    fault patterns per rate.
    """
    if fault_kind not in ("weight", "threshold"):
        raise ValueError(
            f"fault_kind must be 'weight' or 'threshold', got {fault_kind!r}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    labels = np.asarray(labels)
    gen = as_generator(rng)
    baseline = float((accelerator.predict(images) == labels).mean())
    accuracies: List[float] = []
    for rate in rates:
        scores = []
        for _ in range(trials):
            if fault_kind == "weight":
                faulty = flip_weight_bits(accelerator, rate, gen)
            else:
                faulty = perturb_thresholds(accelerator, rate, rng=gen)
            scores.append(float((faulty.predict(images) == labels).mean()))
        accuracies.append(float(np.mean(scores)))
    return FaultReport(
        fault_kind=fault_kind,
        rates=list(rates),
        accuracies=accuracies,
        baseline_accuracy=baseline,
    )
