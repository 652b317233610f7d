"""XNOR + popcount GEMM kernels (Eq. 3 of the paper).

For bipolar vectors ``a, b`` of length ``F`` encoded as bits
(``+1 -> 1``), the dot product is::

    a . b = 2 * popcount(XNOR(a, b)) - F

The kernels below compute the *popcount of matches* ``p`` — what the
hardware accumulates — with the bipolar accumulator recoverable as
``2p - F``. Implementation notes (per the hpc-parallel guides): the
XNOR of tail padding is masked off by construction (both operands pad
with zero bits, XNOR would count them as matches, so we XOR and count
mismatches of the *valid* prefix instead: matches = F - mismatches; XOR
of zero padding is zero and contributes no mismatches — no explicit tail
mask needed), and the GEMM accumulates per packed word into the
``(M, N)`` output — blocked over rows with an auto-tuned slab size — so
no ``(M, N, W)`` intermediate is ever materialised.
"""

from __future__ import annotations

import numpy as np

from repro.hw.bitpack import PackedBits, popcount

__all__ = [
    "xnor_matmul_popcount",
    "xnor_dot_popcount",
    "bipolar_from_popcount",
]

# Target working-set size (elements) for one blocked GEMM pass: the
# per-word xor temporary plus the int64 accumulator slab, tuned to stay
# inside a laptop-class L2. The row block size is derived from this and
# the operand shapes in _choose_block.
_BLOCK_ELEMS = 262_144


def _choose_block(m: int, n: int, w: int) -> int:
    """Rows of A per GEMM slab, auto-tuned from the operand shapes.

    The inner loop revisits the ``(block, N)`` accumulator once per word,
    so the slab (8-byte xor temporary + 8-byte accumulator per element)
    must stay cache-resident across all ``w`` passes; wider weight
    matrices therefore get proportionally shorter blocks. A single-word
    operand needs no revisits, so it gets one maximal pass.
    """
    if w <= 1:
        return m
    return max(1, min(m, _BLOCK_ELEMS // max(1, n)))


def bipolar_from_popcount(p: np.ndarray, fan_in: int) -> np.ndarray:
    """Convert a match-popcount ``p`` to the bipolar accumulator ``2p - F``."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    return 2 * p.astype(np.int64) - int(fan_in)


def xnor_dot_popcount(a: PackedBits, b: PackedBits) -> np.ndarray:
    """Element-wise-broadcast XNOR dot of two packed tensors.

    ``a`` and ``b`` must share ``nbits`` and have broadcastable leading
    shapes; returns the match count with the broadcast shape.
    """
    if a.nbits != b.nbits:
        raise ValueError(f"bit lengths differ: {a.nbits} vs {b.nbits}")
    mismatches = popcount(np.bitwise_xor(a.words, b.words)).sum(axis=-1)
    return a.nbits - mismatches


def xnor_matmul_popcount(
    a: PackedBits,
    b: PackedBits,
    b_cols: np.ndarray = None,
) -> np.ndarray:
    """Binary GEMM: returns ``(M, N)`` match counts.

    ``a`` packs ``(M, F)`` activations; ``b`` packs ``(N, F)`` weight rows
    (one row per output neuron — note this is the *transpose* of the
    float GEMM convention, matching the hardware's weight layout where
    each PE holds whole rows).

    ``b_cols`` is the precomputed ``ascontiguousarray(b.words.T)`` — for
    a fixed weight operand (an MVTU's weights) rebuilding this
    transpose-copy every call is waste. Both forms are bit-identical.
    """
    if a.words.ndim != 2 or b.words.ndim != 2:
        raise ValueError(
            f"expected 2-D packed operands, got {a.words.shape} and {b.words.shape}"
        )
    if a.nbits != b.nbits:
        raise ValueError(f"fan-in mismatch: {a.nbits} vs {b.nbits}")
    m = a.words.shape[0]
    n = b.words.shape[0]
    w = a.n_words
    out = np.empty((m, n), dtype=np.int64)
    block = _choose_block(m, n, w)
    # Per-word accumulation: each pass XORs one packed word column of A
    # against the matching column of B and adds its popcount into the
    # (block, N) mismatch accumulator — the (block, N, W) xor tensor of
    # the naive broadcast never exists.
    if b_cols is None:
        b_cols = np.ascontiguousarray(b.words.T)  # (w, n): one row per word
    elif b_cols.shape != (w, n) or b_cols.dtype != np.uint64:
        raise ValueError(
            f"b_cols must be uint64 {(w, n)}, got {b_cols.dtype} {b_cols.shape}"
        )
    xor_buf = np.empty((min(block, m), n), dtype=np.uint64)
    cnt_buf = np.empty((min(block, m), n), dtype=np.uint8)
    for start in range(0, m, block):
        stop = min(m, start + block)
        rows = stop - start
        aw = a.words[start:stop]
        out_slab = out[start:stop]
        xor = xor_buf[:rows]
        cnt = cnt_buf[:rows]
        for k in range(w):
            np.bitwise_xor(aw[:, k, None], b_cols[k][None, :], out=xor)
            np.bitwise_count(xor, out=cnt)
            if k == 0:
                np.copyto(out_slab, cnt)
            else:
                np.add(out_slab, cnt, out=out_slab)
    # out currently holds mismatch counts; matches = F - mismatches.
    np.subtract(a.nbits, out, out=out)
    return out
