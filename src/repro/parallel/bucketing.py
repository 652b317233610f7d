"""Batch-shape bucketing: a fixed set of batch geometries for plan reuse.

An :class:`~repro.hw.plan.ExecutionPlan` is compiled per batch size, so
a serving workload whose micro-batches close at arbitrary sizes (7, 13,
31, ...) churns the per-worker plan LRU and pays a recompile on almost
every request. Bucketing rounds each batch *up* to the nearest size in a
small fixed set (powers of two up to the batcher's ``max_batch_size`` by
default), padding the tail with zero images.

Padding is legal because every planned stage is row-wise in the batch
axis: im2col, the GEMM, thresholding and pooling all treat
image ``i``'s rows independently of image ``j``'s, so logits
``[:n_valid]`` of a padded batch are bit-identical to the unpadded run
(pinned by ``tests/test_parallel.py``). The pad rows cost compute but
buy plan stability — with ``K`` buckets a worker compiles at most ``K``
plans ever, regardless of traffic shape.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["default_buckets", "validate_buckets", "bucket_for", "pad_to_bucket"]


def default_buckets(max_batch: int) -> Tuple[int, ...]:
    """Powers of two up to ``max_batch``, plus ``max_batch`` itself."""
    if max_batch <= 0:
        raise ValueError(f"max_batch must be positive, got {max_batch}")
    buckets = []
    b = 1
    while b < max_batch:
        buckets.append(b)
        b *= 2
    buckets.append(max_batch)
    return tuple(buckets)


def validate_buckets(buckets: Sequence[int], max_batch: int) -> Tuple[int, ...]:
    """Normalised ``buckets`` (sorted, unique) or a raised ``ValueError``.

    The largest bucket must cover ``max_batch`` — otherwise some formed
    batch would have no geometry to round up to.
    """
    out = sorted({int(b) for b in buckets})
    if not out:
        raise ValueError("buckets must not be empty")
    if out[0] <= 0:
        raise ValueError(f"buckets must be positive, got {out[0]}")
    if out[-1] < max_batch:
        raise ValueError(
            f"largest bucket {out[-1]} does not cover max_batch {max_batch}"
        )
    return tuple(out)


def bucket_for(n: int, buckets: Sequence[int]) -> int:
    """The smallest bucket that holds ``n`` items."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    for b in buckets:
        if b >= n:
            return b
    raise ValueError(f"no bucket in {tuple(buckets)} holds {n} items")


def pad_to_bucket(
    images: np.ndarray, buckets: Sequence[int]
) -> Tuple[np.ndarray, int]:
    """``(padded_batch, n_valid)`` — rounds the batch up with zero rows.

    Returns the input untouched (no copy) when it already sits on a
    bucket boundary. Zero pixels are valid in both input domains the
    datapath accepts (uint8 ``[0, 255]`` and float ``[0, 1]``), so the
    pad rows flow through the plan as ordinary — discarded — images.
    """
    n = images.shape[0]
    bucket = bucket_for(n, buckets)
    if bucket == n:
        return images, n
    pad = np.zeros((bucket - n,) + images.shape[1:], dtype=images.dtype)
    return np.concatenate([images, pad], axis=0), n
