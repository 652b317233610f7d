"""One BLAS thread while something else owns the cores.

The cores belong either to a server's workers or to the planned
engine's shards, never both, and never also to OpenBLAS's own helper
threads. The server's worker threads (and the process pool's worker
processes) are its parallelism: if OpenBLAS also runs helper threads
inside every GEMM, two workers with two helpers each oversubscribe a
2-core host, and the tail latency of the planned engine spikes. The
engine's shard threads (:mod:`repro.runtime.shards`) are the same
case for one large batch. So both run BLAS single-threaded:

* :func:`hold_single_thread` / :func:`release_single_thread` bracket a
  server's lifetime, or one sharded run. They are refcounted, so
  overlapping holders compose: the first hold sets one thread, the last
  release restores the count that was there before.
* :func:`held` says whether anyone holds the cores right now. The
  engine reads it and runs a batch unsharded while a server (or another
  sharded run) owns them.
* :func:`set_blas_threads` sets the count outright (a pool worker
  process calls it once and never restores).

The helper finds the OpenBLAS that numpy loaded and calls its
``*_set_num_threads`` / ``*_get_num_threads`` entry points through
:mod:`ctypes`. When numpy uses another BLAS (MKL, Accelerate) every
function here does nothing and :func:`blas_threads` returns ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "blas_threads",
    "set_blas_threads",
    "held",
    "hold_single_thread",
    "release_single_thread",
]

#: (prefix, suffix) pairs of the OpenBLAS thread-count symbols, newest
#: first: scipy-openblas wheels (numpy >= 2), then plain/ILP64 builds.
_SYMBOLS = (
    ("scipy_openblas", "64_"),
    ("scipy_openblas", ""),
    ("openblas", "64_"),
    ("openblas", ""),
)

# Process-wide, like the OpenBLAS thread count they guard: every holder
# in the process shares one refcount.
_LOCK = threading.Lock()
_holds = 0
_saved: Optional[int] = None


def _numpy_openblas_paths() -> List[str]:
    """The OpenBLAS numpy loaded: the copy inside the numpy wheel, else
    (a numpy linked against a system BLAS) every OpenBLAS mapped into
    this process (Linux only)."""
    root = os.path.dirname(np.__file__)
    wheel = glob.glob(os.path.join(root + ".libs", "*openblas*")) + glob.glob(
        os.path.join(root, ".dylibs", "*openblas*")
    )
    if wheel:
        return sorted(wheel)
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    return sorted({
        f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]
    })


@functools.lru_cache(maxsize=1)
def _openblas() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
    for path in _numpy_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count (None when numpy has no OpenBLAS)."""
    funcs = _openblas()
    return None if funcs is None else int(funcs[1]())


def set_blas_threads(n: int) -> Optional[int]:
    """Set OpenBLAS's thread count; return the previous one (or None)."""
    if n <= 0:
        raise ValueError(f"BLAS thread count must be positive, got {n}")
    funcs = _openblas()
    if funcs is None:
        return None
    setter, getter = funcs
    previous = int(getter())
    setter(int(n))
    return previous


def held() -> bool:
    """Whether a server or a sharded run holds single-threaded BLAS."""
    return _holds > 0


def hold_single_thread() -> None:
    """Run BLAS on one thread until the matching release (refcounted)."""
    global _holds, _saved
    with _LOCK:
        if _holds == 0:
            _saved = set_blas_threads(1)
        _holds += 1


def release_single_thread() -> None:
    """Drop one hold; the last release restores the saved thread count."""
    global _holds, _saved
    with _LOCK:
        if _holds == 0:
            raise RuntimeError("release_single_thread without a matching hold")
        _holds -= 1
        if _holds == 0 and _saved is not None:
            set_blas_threads(_saved)
            _saved = None
