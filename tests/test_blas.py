"""Tests for ``repro.utils.blas``: one BLAS thread while servers or shards own the cores.

Skipped when numpy's BLAS is not OpenBLAS (MKL, Accelerate): the helper
then does nothing by design.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.hw.compiler import InputContract
from repro.serving import InferenceServer, ServingConfig
from repro.utils import blas

pytestmark = pytest.mark.skipif(
    blas.blas_threads() is None, reason="numpy is not linked against OpenBLAS"
)


class _Backend:
    name = "stub"
    max_concurrency = 1
    input_contract = InputContract((4, 4, 3))

    def infer(self, images):
        return np.zeros(len(images), dtype=int)


@pytest.fixture
def two_threads():
    """Start each test from a known multi-thread count; restore after."""
    previous = blas.set_blas_threads(2)
    yield 2
    blas.set_blas_threads(previous)


def test_set_returns_previous_count(two_threads):
    assert blas.set_blas_threads(1) == two_threads
    assert blas.blas_threads() == 1
    assert blas.set_blas_threads(two_threads) == 1


def test_unmatched_release_raises(two_threads):
    with pytest.raises(RuntimeError, match="without a matching hold"):
        blas.release_single_thread()


def test_concurrent_holds_keep_the_refcount(two_threads):
    # Servers started and stopped from many threads: a lost update in the
    # refcount would restore the count while a hold is live, or never.
    seen = []

    def churn():
        for _ in range(2000):
            blas.hold_single_thread()
            seen.append(blas.blas_threads())
            blas.release_single_thread()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] * 8 * 2000
    assert blas.blas_threads() == two_threads


def test_held_tracks_the_refcount(two_threads):
    assert not blas.held()
    blas.hold_single_thread()
    blas.hold_single_thread()
    assert blas.held()
    blas.release_single_thread()
    assert blas.held()
    blas.release_single_thread()
    assert not blas.held()


def test_server_runs_blas_single_threaded(two_threads):
    server = InferenceServer(_Backend(), ServingConfig(num_workers=1))
    with server:
        assert blas.blas_threads() == 1 and blas.held()
        server.predict(np.zeros((3, 4, 4, 3), dtype=np.float32))
    assert blas.blas_threads() == two_threads


def test_overlapping_servers_compose(two_threads):
    first = InferenceServer(_Backend(), ServingConfig(num_workers=1))
    second = InferenceServer(_Backend(), ServingConfig(num_workers=1))
    first.start()
    second.start()
    assert blas.blas_threads() == 1
    first.stop()
    assert blas.blas_threads() == 1  # the second server still holds it
    second.stop()
    assert blas.blas_threads() == two_threads
    second.stop()  # a repeated stop releases nothing twice
    assert blas.blas_threads() == two_threads


def test_rejects_non_positive_count():
    with pytest.raises(ValueError, match="positive"):
        blas.set_blas_threads(0)
