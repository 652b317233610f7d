"""Shared-memory primitives for the process pool: arenas and ring slots.

Two pieces of POSIX shared memory make the pool's hot path zero-copy:

* :class:`SharedArena` — a :class:`~repro.nn.arena.BufferArena` whose
  buffers are carved bump-allocator-style out of one
  ``multiprocessing.shared_memory`` segment. Each worker binds its
  :class:`~repro.hw.plan.PlanCache` to one, so every planned
  intermediate lives in memory the parent could map (and so the
  worker's steady state keeps no allocation: the segment is mapped
  once).
* :class:`ShmRing` — a ring of fixed-stride slots in a second segment.
  Each slot has an input region (sized for the largest bucket at the
  worst-case element width) and an int64 output region for logits. The
  parent writes a padded batch into a free slot's input view, sends the
  worker a tiny ``(task_id, slot, bucket, dtype)`` tuple over a queue,
  and the worker runs ``plan.execute(in_view, out=out_view)`` — the
  arrays themselves never cross a pipe.

Ownership: the parent creates and unlinks every segment (workers only
attach), so a SIGKILLed worker can never leak kernel objects — cleanup
rides on the parent's lifetime. CPython's ``resource_tracker`` only
registers *creating* processes (3.11 semantics), so attach-side handles
need no tracker bookkeeping of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.arena import BufferArena

__all__ = ["SharedArena", "RingSpec", "ShmRing"]

_ALIGN = 64  # cache-line alignment for every carved buffer / slot region


class SharedArena(BufferArena):
    """A buffer arena backed by one shared-memory segment.

    Drop-in for :class:`~repro.nn.arena.BufferArena` (plans bind it via
    ``PlanCache(..., arena=...)``): :meth:`get` carves cache-line-aligned
    views out of the segment until ``capacity`` is exhausted, then falls
    back to private heap buffers (counted in :attr:`overflow_bytes` —
    a sizing signal, not an error). :meth:`clear` resets the bump
    pointer *and* bumps the epoch, so stale plans refuse to run rather
    than aliasing re-carved storage.
    """

    def __init__(
        self,
        capacity: int,
        name: Optional[str] = None,
        create: bool = True,
    ) -> None:
        if create and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        super().__init__()
        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=capacity)
        else:
            if name is None:
                raise ValueError("attaching requires the segment name")
            self._shm = shared_memory.SharedMemory(name=name)
        self.capacity = self._shm.size
        self._offset = 0
        self.overflow_bytes = 0
        self._closed = False

    @property
    def name(self) -> str:
        """Segment name another process attaches with."""
        return self._shm.name

    @property
    def carved_bytes(self) -> int:
        """Bytes handed out from the segment so far."""
        return self._offset

    def get(self, owner, role, shape, dtype=np.float32) -> np.ndarray:
        key = (id(owner), role, tuple(int(s) for s in shape), np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is not None:
            return buf
        nbytes = int(np.prod(key[2], dtype=np.int64)) * key[3].itemsize
        aligned = -(-nbytes // _ALIGN) * _ALIGN
        if self._offset + aligned <= self.capacity:
            buf = np.frombuffer(
                self._shm.buf,
                dtype=key[3],
                count=int(np.prod(key[2], dtype=np.int64)),
                offset=self._offset,
            ).reshape(key[2])
            self._offset += aligned
        else:
            buf = np.empty(key[2], dtype=key[3])
            self.overflow_bytes += nbytes
        self._buffers[key] = buf
        return buf

    def clear(self) -> None:
        super().clear()
        self._offset = 0
        self.overflow_bytes = 0

    def close(self, unlink: bool = False) -> None:
        """Release the mapping (and the segment itself when ``unlink``).

        Outstanding numpy views pin the mapping — they are dropped here,
        so any still-bound plan becomes unusable by design.
        """
        if self._closed:
            return
        self._closed = True
        self._buffers.clear()
        self._epoch += 1
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a caller kept a view
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


@dataclass(frozen=True)
class RingSpec:
    """Geometry of a slot ring: everything needed to (re)attach views.

    ``input_shape`` is the per-image shape; each slot's input region
    holds up to ``max_batch`` images at ``input_bytes_per_image`` (sized
    for the widest dtype the datapath accepts, float64), and its output
    region holds ``max_batch`` int64 logit rows of ``num_classes``.
    """

    slots: int
    max_batch: int
    input_shape: Tuple[int, ...]
    num_classes: int
    input_bytes_per_image: int = 0  # 0 -> derived for float64 in __post_init__

    def __post_init__(self) -> None:
        if self.slots <= 0 or self.max_batch <= 0:
            raise ValueError("slots and max_batch must be positive")
        if self.input_bytes_per_image == 0:
            per_image = int(np.prod(self.input_shape, dtype=np.int64)) * 8
            object.__setattr__(self, "input_bytes_per_image", per_image)

    @property
    def input_region(self) -> int:
        region = self.max_batch * self.input_bytes_per_image
        return -(-region // _ALIGN) * _ALIGN

    @property
    def output_region(self) -> int:
        region = self.max_batch * self.num_classes * 8
        return -(-region // _ALIGN) * _ALIGN

    @property
    def stride(self) -> int:
        return self.input_region + self.output_region

    @property
    def total_bytes(self) -> int:
        return self.slots * self.stride


class ShmRing:
    """Fixed-stride input/output slots in one shared segment.

    Both sides construct views on demand and cache them per
    ``(slot, batch, dtype)`` — view construction is cheap but not free,
    and the steady state should touch no allocator at all. Cached views
    are dropped by :meth:`close` (they pin the mapping otherwise).
    """

    def __init__(
        self, spec: RingSpec, name: Optional[str] = None, create: bool = True
    ) -> None:
        self.spec = spec
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=spec.total_bytes
            )
        else:
            if name is None:
                raise ValueError("attaching requires the segment name")
            self._shm = shared_memory.SharedMemory(name=name)
            if self._shm.size < spec.total_bytes:
                raise ValueError(
                    f"segment {self._shm.name} holds {self._shm.size} bytes, "
                    f"ring spec needs {spec.total_bytes}"
                )
        self._views: Dict[Tuple, np.ndarray] = {}
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    def _check_slot(self, slot: int, batch: int) -> None:
        if not 0 <= slot < self.spec.slots:
            raise IndexError(f"slot {slot} out of range 0..{self.spec.slots - 1}")
        if not 0 < batch <= self.spec.max_batch:
            raise ValueError(
                f"batch {batch} exceeds ring max_batch {self.spec.max_batch}"
            )

    def input_view(self, slot: int, batch: int, dtype) -> np.ndarray:
        """``(batch,) + input_shape`` view over the slot's input region."""
        dtype = np.dtype(dtype)
        self._check_slot(slot, batch)
        key = ("in", slot, batch, dtype)
        view = self._views.get(key)
        if view is None:
            shape = (batch,) + tuple(self.spec.input_shape)
            count = int(np.prod(shape, dtype=np.int64))
            if count * dtype.itemsize > self.spec.input_region:
                raise ValueError(
                    f"batch {batch} of {dtype} does not fit the input region"
                )
            view = np.frombuffer(
                self._shm.buf,
                dtype=dtype,
                count=count,
                offset=slot * self.spec.stride,
            ).reshape(shape)
            self._views[key] = view
        return view

    def output_view(self, slot: int, batch: int) -> np.ndarray:
        """``(batch, num_classes)`` int64 view over the slot's output region."""
        self._check_slot(slot, batch)
        key = ("out", slot, batch)
        view = self._views.get(key)
        if view is None:
            shape = (batch, self.spec.num_classes)
            view = np.frombuffer(
                self._shm.buf,
                dtype=np.int64,
                count=batch * self.spec.num_classes,
                offset=slot * self.spec.stride + self.spec.input_region,
            ).reshape(shape)
            self._views[key] = view
        return view

    def close(self, unlink: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a caller kept a view
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
