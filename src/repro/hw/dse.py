"""Design-space exploration over PE/SIMD folding (§IV-B).

"The number of processing elements, SIMD lanes, and other parameters can
be optimized by the designer ... such that all parts of the pipeline have
a matched throughput." This module automates that:

* enumerate legal foldings (divisor constraints) per MVTU;
* balance the pipeline toward a target initiation interval
  (:func:`balance_folding`) — the matched-throughput heuristic;
* sweep a design space and extract the resource/throughput Pareto
  frontier (:func:`pareto_frontier`, :func:`explore`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.compiler import (
    FinnAccelerator,
    FoldingConfig,
    compile_model,
    mvtu_geometry,
)
from repro.hw.devices import Device
from repro.hw.pipeline import analyze_pipeline
from repro.hw.resources import ResourceEstimate, estimate_resources
from repro.nn.sequential import Sequential

__all__ = [
    "DesignPoint",
    "divisors",
    "legal_foldings",
    "balance_folding",
    "pareto_frontier",
    "explore",
    "optimize_for_device",
]


@dataclass
class DesignPoint:
    """One evaluated folding: timing + resources (+ device fit)."""

    folding: FoldingConfig
    fps_analytic: float
    bottleneck: Tuple[str, int]
    lut: float
    bram36: float
    dsp: int
    fits_device: Optional[bool] = None

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: at least as fast and as small, better somewhere."""
        ge_fast = self.fps_analytic >= other.fps_analytic
        le_small = self.lut <= other.lut
        return ge_fast and le_small and (
            self.fps_analytic > other.fps_analytic or self.lut < other.lut
        )


def divisors(n: int) -> List[int]:
    """Sorted positive divisors of ``n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    out = [d for d in range(1, int(np.sqrt(n)) + 1) if n % d == 0]
    return sorted(set(out + [n // d for d in out]))


def legal_foldings(
    rows: int, cols: int, max_pe: int = 64, max_simd: int = 64
) -> List[Tuple[int, int]]:
    """All (PE, SIMD) pairs satisfying the divisor constraints."""
    return [
        (pe, simd)
        for pe in divisors(rows)
        if pe <= max_pe
        for simd in divisors(cols)
        if simd <= max_simd
    ]


def balance_folding(
    model: Sequential,
    target_cycles: int,
    max_pe: int = 64,
    max_simd: int = 64,
) -> FoldingConfig:
    """Matched-throughput folding: cheapest legal folding per layer whose
    MVTU initiation interval meets ``target_cycles``.

    For each MVTU, picks the (PE, SIMD) with the smallest ``PE·SIMD``
    product (proxy for LUT cost) such that
    ``vectors · (rows/PE) · (cols/SIMD) <= target_cycles``; if no legal
    folding reaches the target, the fastest available one is used (the
    layer then *is* the bottleneck, reported by the pipeline analysis).
    """
    if target_cycles <= 0:
        raise ValueError(f"target_cycles must be positive, got {target_cycles}")
    # Compile once at trivial folding to learn matrix dims & vector counts.
    probe = compile_model(model, _unit_folding(model), name="probe")
    pe_list: List[int] = []
    simd_list: List[int] = []
    for stage in probe.stages:
        cfg = stage.mvtu.config
        vectors = stage.vectors_per_image
        best: Optional[Tuple[int, int, int]] = None  # (pe*simd, pe, simd)
        fastest: Optional[Tuple[int, int, int]] = None  # (cycles, pe, simd)
        for pe, simd in legal_foldings(cfg.rows, cfg.cols, max_pe, max_simd):
            cycles = vectors * (cfg.rows // pe) * (cfg.cols // simd)
            if fastest is None or cycles < fastest[0]:
                fastest = (cycles, pe, simd)
            if cycles <= target_cycles:
                cost = pe * simd
                if best is None or cost < best[0]:
                    best = (cost, pe, simd)
        chosen = best or fastest
        assert chosen is not None
        pe_list.append(chosen[1])
        simd_list.append(chosen[2])
    return FoldingConfig(pe=tuple(pe_list), simd=tuple(simd_list))


def _unit_folding(model: Sequential) -> FoldingConfig:
    """PE=SIMD=1 folding (always legal), used for probing layer shapes."""
    n = len(mvtu_geometry(model))
    return FoldingConfig(pe=(1,) * n, simd=(1,) * n)


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by throughput descending."""
    frontier = [
        p
        for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]
    return sorted(frontier, key=lambda p: -p.fps_analytic)


def optimize_for_device(
    model: Sequential,
    device: Device,
    clock_mhz: float = 100.0,
    dsp_offload: bool = False,
    min_target: int = 256,
    max_target: int = 4_000_000,
) -> Optional[DesignPoint]:
    """Fastest matched-throughput folding that fits ``device``.

    Binary-searches the target-II axis: smaller targets mean faster but
    larger designs. Matched-throughput cost is monotone in the target,
    so the search converges to the knee; returns ``None`` when even the
    fully-folded (slowest) design does not fit the device.
    """
    if min_target <= 0 or max_target < min_target:
        raise ValueError(
            f"invalid target range [{min_target}, {max_target}]"
        )

    def evaluate(target: int) -> DesignPoint:
        folding = balance_folding(model, target)
        acc = compile_model(model, folding, name=f"fit-{target}")
        timing = analyze_pipeline(acc, clock_mhz)
        res = estimate_resources(acc, dsp_offload=dsp_offload)
        return DesignPoint(
            folding=folding,
            fps_analytic=timing.fps_analytic,
            bottleneck=timing.bottleneck,
            lut=res.lut,
            bram36=res.bram36,
            dsp=res.dsp,
            fits_device=device.fits(res.lut, res.bram36, res.dsp),
        )

    slowest = evaluate(max_target)
    if not slowest.fits_device:
        return None
    fastest = evaluate(min_target)
    if fastest.fits_device:
        return fastest
    lo, hi = min_target, max_target  # lo too big, hi fits
    best = slowest
    while hi > lo + 1:
        mid = (lo + hi) // 2
        point = evaluate(mid)
        if point.fits_device:
            hi = mid
            if point.fps_analytic > best.fps_analytic:
                best = point
        else:
            lo = mid
    return best


def explore(
    model: Sequential,
    target_cycles_grid: Iterable[int],
    clock_mhz: float = 100.0,
    device: Optional[Device] = None,
    dsp_offload: bool = False,
) -> List[DesignPoint]:
    """Sweep matched-throughput designs over a grid of target IIs.

    Each grid entry produces one balanced folding, compiled and costed;
    the caller typically follows with :func:`pareto_frontier`.
    """
    points: List[DesignPoint] = []
    seen = set()
    for target in target_cycles_grid:
        folding = balance_folding(model, target)
        key = (folding.pe, folding.simd)
        if key in seen:
            continue
        seen.add(key)
        acc = compile_model(model, folding, name=f"dse-target-{target}")
        timing = analyze_pipeline(acc, clock_mhz)
        res = estimate_resources(acc, dsp_offload=dsp_offload)
        points.append(
            DesignPoint(
                folding=folding,
                fps_analytic=timing.fps_analytic,
                bottleneck=timing.bottleneck,
                lut=res.lut,
                bram36=res.bram36,
                dsp=res.dsp,
                fits_device=(
                    device.fits(res.lut, res.bram36, res.dsp)
                    if device is not None
                    else None
                ),
            )
        )
    return points
