"""Sliding Window Unit (SWU).

"For convolutional layers, an additional sliding-window unit reshapes the
binarized activation maps to create a single, wide input feature map
memory, which can efficiently be accessed by the corresponding MVTU"
(§III-B). Functionally this is im2col over *bit* tensors; in timing terms
the unit streams one SIMD-wide group of window elements per cycle, so its
initiation interval per image is::

    out_h * out_w * (K*K*C / simd)

The SWU and its MVTU run concurrently in the dataflow pipeline; whichever
is slower bounds the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.functional import conv_output_hw, im2col

__all__ = ["SWUConfig", "SlidingWindowUnit"]


@dataclass(frozen=True)
class SWUConfig:
    """Geometry of one sliding-window unit."""

    name: str
    in_hw: Tuple[int, int]
    channels: int
    kernel: Tuple[int, int] = (3, 3)
    stride: Tuple[int, int] = (1, 1)
    simd: int = 1

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError(f"{self.name}: channels must be positive")
        if self.simd <= 0:
            raise ValueError(f"{self.name}: simd must be positive")
        window = self.kernel[0] * self.kernel[1] * self.channels
        if window % self.simd != 0:
            raise ValueError(
                f"{self.name}: SIMD={self.simd} does not divide window "
                f"size {window}"
            )
        conv_output_hw(self.in_hw, self.kernel, self.stride, (0, 0))

    @property
    def out_hw(self) -> Tuple[int, int]:
        return conv_output_hw(self.in_hw, self.kernel, self.stride, (0, 0))

    @property
    def window_elems(self) -> int:
        return self.kernel[0] * self.kernel[1] * self.channels


class SlidingWindowUnit:
    """Functional + timed SWU."""

    def __init__(self, config: SWUConfig) -> None:
        self.config = config
        self._gather_elems: np.ndarray = None  # lazy index table

    def gather_indices(self) -> np.ndarray:
        """Flat gather indices mapping a raveled ``(H, W, C)`` map to
        raveled ``(oh, ow, kh, kw, C)`` window rows — the im2col layout
        (window cells in raster order, channels fastest). Computed once
        per unit and cached: batch-independent, so every execution plan
        compiled for this unit shares it.
        """
        if self._gather_elems is None:
            cfg = self.config
            h, w = cfg.in_hw
            kh, kw = cfg.kernel
            sh, sw = cfg.stride
            src = np.arange(h * w * cfg.channels, dtype=np.intp).reshape(
                h, w, cfg.channels
            )
            windows = sliding_window_view(src, (kh, kw), axis=(0, 1))
            windows = windows[::sh, ::sw]  # (oh, ow, c, kh, kw)
            self._gather_elems = np.ascontiguousarray(
                windows.transpose(0, 1, 3, 4, 2)
            ).reshape(-1)
        return self._gather_elems

    def execute(self, feature_map: np.ndarray) -> np.ndarray:
        """Reshape ``(n, H, W, C)`` maps into ``(n * oh * ow, K*K*C)`` rows.

        Works on any dtype (bits travel as bool/int8; the first layer's
        pixels as uint8/int32). Row order is raster-scan over output
        pixels — the order the MVTU consumes. Integer/bool inputs return
        ``int64`` rows via the cached gather table.
        """
        cfg = self.config
        n, h, w, c = feature_map.shape
        if (h, w) != cfg.in_hw or c != cfg.channels:
            raise ValueError(
                f"{cfg.name}: feature map {feature_map.shape[1:]} does not "
                f"match configured {cfg.in_hw + (cfg.channels,)}"
            )
        oh, ow = cfg.out_hw
        if np.issubdtype(feature_map.dtype, np.integer) or feature_map.dtype == bool:
            # Integer-domain gather: exact (values are small ints), no
            # float64 im2col round-trip.
            src = feature_map.astype(np.int64, copy=False).reshape(n, -1)
            return src.take(self.gather_indices(), axis=1).reshape(
                n * oh * ow, cfg.window_elems
            )
        cols = im2col(feature_map, cfg.kernel, cfg.stride, (0, 0))
        return cols.reshape(n * oh * ow, cfg.window_elems)

    def cycles_per_image(self) -> int:
        """Streaming initiation interval for one image."""
        oh, ow = self.config.out_hw
        return oh * ow * (self.config.window_elems // self.config.simd)
