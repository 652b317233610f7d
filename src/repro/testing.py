"""Helpers for tests and benchmarks.

Public so that downstream users can reuse them when extending the test
suite: a minimal deployable BNN and a batch-norm randomiser that makes an
untrained model's thresholds non-degenerate (useful whenever the
*functional* hardware path is under test and training would be noise).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    BatchNorm,
    BinaryConv2D,
    BinaryDense,
    Flatten,
    MaxPool2D,
    SignActivation,
)
from repro.nn.sequential import Sequential

__all__ = [
    "make_tiny_bnn",
    "randomize_bn_stats",
    "grid_images",
    "transient_budget_bytes",
]


def transient_budget_bytes() -> int:
    """Per-call temporaries a steady-state plan execute may allocate.

    One numpy iterator (casting) buffer of float64 elements plus 4 KiB
    of slack for small Python objects; checked against
    :attr:`repro.hw.plan.AllocationReport.peak_transient_bytes`.
    """
    return np.getbufsize() * 8 + 4096


def make_tiny_bnn(
    input_hw: int = 8, channels: int = 3, classes: int = 4, seed: int = 0
) -> Sequential:
    """A minimal model following the deployable layer grammar.

    Two binary conv blocks (the second pooled), one hidden binary FC
    block and a logits layer — every structural element the compiler
    handles, at toy scale.
    """
    flat = ((input_hw - 4) // 2) ** 2 * 8
    return Sequential(
        [
            ("conv1", BinaryConv2D(channels, 8, kernel_size=3, rng=seed)),
            ("bn_conv1", BatchNorm(8)),
            ("sign_conv1", SignActivation()),
            ("conv2", BinaryConv2D(8, 8, kernel_size=3, rng=seed + 1)),
            ("bn_conv2", BatchNorm(8)),
            ("sign_conv2", SignActivation()),
            ("pool1", MaxPool2D(2)),
            ("flatten", Flatten()),
            ("fc1", BinaryDense(flat, 16, rng=seed + 2)),
            ("bn_fc1", BatchNorm(16)),
            ("sign_fc1", SignActivation()),
            ("fc2", BinaryDense(16, classes, rng=seed + 3)),
        ],
        input_shape=(input_hw, input_hw, channels),
    )


def randomize_bn_stats(model: Sequential, seed: int = 1) -> None:
    """Give every batch-norm layer non-trivial 'trained' statistics.

    Fresh batch-norm layers have zero mean / unit variance running stats,
    which fold into degenerate thresholds; randomising them exercises the
    full threshold machinery without a training run.
    """
    gen = np.random.default_rng(seed)
    for layer in model.layers:
        if hasattr(layer, "running_mean"):
            n = layer.num_features
            layer.running_mean = gen.normal(0, 1.5, n).astype(np.float32)
            layer.running_var = gen.uniform(0.5, 3.0, n).astype(np.float32)
            if layer.affine:
                layer.gamma.data = gen.uniform(0.5, 1.5, n).astype(np.float32)
                layer.beta.data = gen.normal(0, 0.5, n).astype(np.float32)


def grid_images(n: int, hw: int = 32, seed: int = 0) -> np.ndarray:
    """Random images on the exact uint8 grid (deployment input domain)."""
    q = np.random.default_rng(seed).integers(0, 256, size=(n, hw, hw, 3))
    return (q / 255.0).astype(np.float32)
