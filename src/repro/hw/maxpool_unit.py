"""Max-pool as boolean OR (§III-B).

"Max-pool layers are implemented as boolean OR operations, since a single
binary '1' value suffices to make the entire pool window output equal to
1." The unit operates on the bit representation directly; its timing is
one window per cycle (it is never the pipeline bottleneck, but it is
modelled for completeness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.nn.functional import conv_output_hw, pool_windows

__all__ = ["MaxPoolUnitConfig", "MaxPoolUnit"]


@dataclass(frozen=True)
class MaxPoolUnitConfig:
    """Geometry of one OR-pooling unit (non-overlapping windows)."""

    name: str
    in_hw: Tuple[int, int]
    channels: int
    pool: Tuple[int, int] = (2, 2)

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError(f"{self.name}: channels must be positive")
        h, w = self.in_hw
        ph, pw = self.pool
        if h % ph != 0 or w % pw != 0:
            raise ValueError(
                f"{self.name}: pool {self.pool} does not tile {self.in_hw}"
            )

    @property
    def out_hw(self) -> Tuple[int, int]:
        return conv_output_hw(self.in_hw, self.pool, self.pool, (0, 0))


class MaxPoolUnit:
    """Functional + timed boolean-OR pooling unit."""

    def __init__(self, config: MaxPoolUnitConfig) -> None:
        self.config = config

    def execute(self, bits: np.ndarray) -> np.ndarray:
        """OR-reduce ``(n, H, W, C)`` boolean maps over each pool window."""
        cfg = self.config
        if bits.dtype != bool:
            raise TypeError(
                f"{cfg.name}: OR-pooling operates on boolean bit maps, got "
                f"{bits.dtype} (binarise first — pooling before sign() would "
                f"not commute with the OR trick)"
            )
        _, h, w, c = bits.shape
        if (h, w) != cfg.in_hw or c != cfg.channels:
            raise ValueError(
                f"{cfg.name}: feature map {bits.shape[1:]} does not match "
                f"configured {cfg.in_hw + (cfg.channels,)}"
            )
        windows = pool_windows(bits.astype(np.uint8), cfg.pool, cfg.pool)
        return windows.any(axis=3)

    def cycles_per_image(self) -> int:
        """One output window per cycle."""
        oh, ow = self.config.out_hw
        return oh * ow
