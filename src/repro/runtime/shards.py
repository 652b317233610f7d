"""Every core on one batch: the planned engine's shard team.

:class:`~repro.runtime.engines.PlannedEngine` splits a batch of at
least ``2 * MIN_SHARD`` images into ``min(cores, n // MIN_SHARD)``
contiguous shards. The calling thread runs shard 0; a process-wide
team of daemon helper threads runs the rest. Each shard executes on its
own thread-keyed plan from the accelerator's ``PlanCache`` (so each has
a private arena) and writes its own rows of one result array.

Three rules, all measured on a 2-vCPU host:

* BLAS runs on one thread for the whole sharded run (OpenBLAS helper
  threads under two shards ran slower than no shards at all).
* While anyone holds single-threaded BLAS — a running server's workers,
  or another sharded run — the cores are taken and a batch runs
  unsharded (:func:`shard_count`).
* Shards smaller than ``MIN_SHARD`` images lose more to the hand-off
  than they gain (4+4 ran slower than 8 on one thread).

Helpers run each shard under a copy of the caller's ``contextvars``
context, so the current trace span follows the work across threads. A
forked child inherits the team's bookkeeping but not its threads, so it
gets a fresh team (:func:`os.register_at_fork`).
"""

from __future__ import annotations

import contextvars
import functools
import os
import queue
import threading
from typing import Callable, List, Optional, Sequence

from repro.utils import blas

__all__ = ["MIN_SHARD", "ShardTeam", "host_cores", "run_shards", "shard_count"]

#: Smallest shard worth a thread hand-off (a batch shards from 2x this).
MIN_SHARD = 8


@functools.lru_cache(maxsize=1)
def host_cores() -> int:
    """Physical cores this process may run on (affinity-aware)."""
    from repro.parallel.host import logical_cpu_count, recommended_workers

    return recommended_workers(cap=logical_cpu_count())


def shard_count(n: int) -> int:
    """How many shards a batch of ``n`` images runs as (1 = unsharded)."""
    if n < 2 * MIN_SHARD or blas.held():
        return 1
    return min(host_cores(), n // MIN_SHARD)


class _Job:
    """One helper shard: runs in the caller's context, keeps its error."""

    __slots__ = ("fn", "context", "error", "done")

    def __init__(self, fn: Callable[[], object]) -> None:
        self.fn = fn
        self.context = contextvars.copy_context()
        self.error: Optional[BaseException] = None
        self.done = threading.Event()

    def __call__(self) -> None:
        try:
            self.context.run(self.fn)
        except BaseException as exc:  # handed to the caller, never lost
            self.error = exc
        finally:
            self.done.set()


def _serve(tasks: "queue.SimpleQueue[_Job]") -> None:
    while True:
        tasks.get()()


class ShardTeam:
    """Daemon helper threads, started on demand and kept for the process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tasks: "queue.SimpleQueue[_Job]" = queue.SimpleQueue()
        self._helpers: List[threading.Thread] = []

    def _grow(self, size: int) -> None:
        with self._lock:
            while len(self._helpers) < size:
                helper = threading.Thread(
                    target=_serve,
                    args=(self._tasks,),
                    name=f"repro-shard-{len(self._helpers) + 1}",
                    daemon=True,
                )
                helper.start()
                self._helpers.append(helper)

    def run(self, shards: Sequence[Callable[[], object]]) -> None:
        """Run ``shards[1:]`` on helpers and ``shards[0]`` here.

        Returns once every shard has finished. The caller's own error
        wins; otherwise the first helper error is re-raised here.
        """
        jobs = [_Job(fn) for fn in shards[1:]]
        self._grow(len(jobs))
        for job in jobs:
            self._tasks.put(job)
        try:
            shards[0]()
        finally:
            for job in jobs:
                job.done.wait()
        for job in jobs:
            if job.error is not None:
                raise job.error


_team = ShardTeam()


def _new_team_in_child() -> None:
    global _team
    _team = ShardTeam()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_new_team_in_child)


def run_shards(shards: Sequence[Callable[[], object]]) -> None:
    """Run the shards on the process-wide team with BLAS single-threaded."""
    blas.hold_single_thread()
    try:
        _team.run(shards)
    finally:
        blas.release_single_thread()
