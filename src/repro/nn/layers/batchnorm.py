"""Batch normalisation (per-channel) for NHWC and flat tensors.

Batch-norm is load-bearing in BNNs: §III-A requires inputs to be adjusted
to zero mean / unit variance *before* ``sign``, and at deployment time the
whole ``BatchNorm -> sign`` pair collapses into a single integer threshold
comparison per channel (see :mod:`repro.hw.thresholding`). This layer
therefore exposes its statistics (:meth:`fused_scale_shift`) in exactly
the form the hardware compiler consumes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["BatchNorm"]


class BatchNorm(Module):
    """Per-channel batch normalisation over the trailing axis.

    Works for both ``(N, H, W, C)`` and ``(N, C)`` tensors: statistics are
    computed over all axes except the last. Maintains exponential running
    statistics for inference mode.
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        affine: bool = True,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.affine = bool(affine)
        if affine:
            self.register_parameter(
                "gamma",
                Parameter(np.ones(num_features, dtype=np.float32), weight_decay=False),
            )
            self.register_parameter(
                "beta",
                Parameter(np.zeros(num_features, dtype=np.float32), weight_decay=False),
            )
        else:
            self.gamma: Optional[Parameter] = None
            self.beta: Optional[Parameter] = None
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self.num_batches_tracked = 0
        self._cache = None

    def _check(self, x: np.ndarray) -> None:
        if x.ndim not in (2, 4) or x.shape[-1] != self.num_features:
            raise ValueError(
                f"BatchNorm({self.num_features}) got incompatible input "
                f"shape {x.shape}"
            )

    def output_shape(self, input_shape):
        if len(input_shape) not in (1, 3) or input_shape[-1] != self.num_features:
            raise ValueError(
                f"BatchNorm({self.num_features}) got incompatible input "
                f"shape {tuple(input_shape)}"
            )
        return tuple(input_shape)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        axes = tuple(range(x.ndim - 1))
        arena = self._scratch_arena(x)
        centred = None
        if self.training:
            mean = x.mean(axis=axes)
            if arena is None:
                var = x.var(axis=axes)
            else:
                # Fused statistics: centre once into scratch, square into
                # scratch, reduce — the centred tensor is then reused for
                # x_hat below instead of recomputing (x - mean).
                centred = np.subtract(x, mean, out=arena.get(self, "centred", x.shape))
                sq = np.multiply(centred, centred, out=arena.get(self, "sq", x.shape))
                var = sq.mean(axis=axes)
            n = x.size // self.num_features
            if n <= 1:
                raise ValueError(
                    "BatchNorm training forward needs more than one sample "
                    f"per channel, got reduction size {n}"
                )
            # Update running stats with the unbiased variance estimate.
            unbiased = var * n / (n - 1)
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (unbiased - self.running_var)
            self.num_batches_tracked += 1
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        if centred is None:
            x_hat = (x - mean) * inv_std
            out = x_hat
            if self.affine:
                out = x_hat * self.gamma.data + self.beta.data
        else:
            x_hat = np.multiply(centred, inv_std, out=centred)
            out = x_hat
            if self.affine:
                out = np.multiply(
                    x_hat, self.gamma.data, out=arena.get(self, "out", x.shape)
                )
                out += self.beta.data
        # Cache in both modes: inference-mode backward is what Grad-CAM
        # uses (running statistics are constants there, so the backward
        # formula differs from the training one).
        self._cache = (
            x_hat.astype(np.float32, copy=False),
            inv_std.astype(np.float32, copy=False),
            bool(self.training),
        )
        return out.astype(np.float32, copy=False)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a preceding forward")
        x_hat, inv_std, used_batch_stats = self._cache
        axes = tuple(range(grad_output.ndim - 1))
        # Scratch reuse in backward additionally requires the affine form:
        # without it ``g`` aliases ``grad_output`` (a buffer this layer
        # does not own) and the in-place updates below would corrupt it.
        arena = self._scratch_arena(grad_output) if self.affine else None
        scratch = (
            arena.get(self, "scratch", grad_output.shape) if arena is not None else None
        )
        if self.affine:
            if scratch is None:
                self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=axes))
                g = grad_output * self.gamma.data
            else:
                self.gamma.accumulate_grad(
                    np.multiply(grad_output, x_hat, out=scratch).sum(axis=axes)
                )
                g = np.multiply(
                    grad_output, self.gamma.data, out=arena.get(self, "g", grad_output.shape)
                )
            self.beta.accumulate_grad(grad_output.sum(axis=axes))
        else:
            g = grad_output
        if not used_batch_stats:
            # Running stats are constants: BN is a per-channel affine map.
            if scratch is None:
                return (g * inv_std).astype(np.float32, copy=False)
            np.multiply(g, inv_std, out=g)
            return g
        # Standard batch-norm backward (batch statistics participate).
        g_mean = g.mean(axis=axes)
        if scratch is None:
            gx_mean = (g * x_hat).mean(axis=axes)
            return ((g - g_mean - x_hat * gx_mean) * inv_std).astype(
                np.float32, copy=False
            )
        gx_mean = np.multiply(g, x_hat, out=scratch).mean(axis=axes)
        np.subtract(g, g_mean, out=g)
        np.subtract(g, np.multiply(x_hat, gx_mean, out=scratch), out=g)
        np.multiply(g, inv_std, out=g)
        return g

    # -- deployment interface --------------------------------------------------
    def fused_scale_shift(self) -> Tuple[np.ndarray, np.ndarray]:
        """Inference-time affine form: returns ``(scale, shift)`` such that
        ``BN(x) = scale * x + shift`` per channel.

        This is what the hardware compiler folds (together with ``sign``)
        into per-channel thresholds.
        """
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        if self.affine:
            scale = self.gamma.data * inv_std
            shift = self.beta.data - self.gamma.data * self.running_mean * inv_std
        else:
            scale = inv_std
            shift = -self.running_mean * inv_std
        return scale.astype(np.float32), shift.astype(np.float32)

    def clear_cache(self) -> None:
        self._cache = None
        super().clear_cache()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchNorm({self.num_features})"
