"""Tests for the datapath performance rework.

Locks two properties:

1. the rework did not move the numbers: golden logits captured from the
   pre-change implementation on a fixed seed batch still come out
   bit-identical through the interpreted reference;
2. the conveniences (empty batches, chunked prediction, the vectorised
   stream scan) behave and stay result-identical.
"""

import numpy as np
import pytest

from repro.core.architectures import build_architecture, table1_folding
from repro.core.classifier import BinaryCoP
from repro.hw.compiler import compile_model
from repro.hw.pipeline import simulate_stream
from repro.runtime import ExecutionConfig
from repro.testing import randomize_bn_stats

REFERENCE = ExecutionConfig(use_plan=False)

PROTOTYPES = ("cnv", "n-cnv", "u-cnv")

# Logits of the pre-PR3 implementation for the seed batch below
# (rng(1234), 4 images; build_architecture(rng=0) + randomize_bn_stats
# defaults). Captured from the unmodified boolean datapath at the
# commit preceding the packed-path rework.
GOLDEN_LOGITS = {
    "cnv": [[-54, 28, -8, 26], [-8, 34, 22, 16], [0, -2, -30, 0], [8, 30, -18, 4]],
    "n-cnv": [[-8, -6, 2, 30], [-2, -8, -8, -8], [-10, 12, -4, -16], [-4, -6, -2, 6]],
    "u-cnv": [[-20, 6, 4, -4], [-8, -2, 4, -4], [-24, -14, -8, 0], [-6, 4, 2, -10]],
}


@pytest.fixture(scope="module")
def prototype_accelerators():
    out = {}
    for name in PROTOTYPES:
        model = build_architecture(name, rng=0)
        randomize_bn_stats(model)
        model.eval()
        out[name] = compile_model(model, table1_folding(name), name=name)
    return out


@pytest.fixture(scope="module")
def seed_batch():
    return np.random.default_rng(1234).random((4, 32, 32, 3)).astype(np.float32)


class TestGoldenLogits:
    @pytest.mark.parametrize("arch", PROTOTYPES)
    def test_logits_unchanged_since_pre_packed_rework(
        self, prototype_accelerators, seed_batch, arch
    ):
        """The perf rework must not move a single logit."""
        np.testing.assert_array_equal(
            prototype_accelerators[arch].run(seed_batch, REFERENCE),
            np.array(GOLDEN_LOGITS[arch], dtype=np.int64),
        )


class TestEmptyBatch:
    def test_quantize_input_empty(self, prototype_accelerators):
        acc = prototype_accelerators["u-cnv"]
        empty = np.zeros((0, 32, 32, 3), dtype=np.float32)
        assert acc.quantize_input(empty).shape == (0, 32, 32, 3)

    def test_execute_empty(self, prototype_accelerators):
        acc = prototype_accelerators["u-cnv"]
        empty = np.zeros((0, 32, 32, 3), dtype=np.float32)
        logits = acc.run(empty, REFERENCE)
        assert logits.shape == (0, acc.num_classes)
        assert logits.dtype == np.int64
        logits2, trace = acc.run(empty, REFERENCE, return_bits=True)
        assert logits2.shape == (0, acc.num_classes)
        assert trace == []

    def test_predict_empty(self, prototype_accelerators):
        acc = prototype_accelerators["u-cnv"]
        empty = np.zeros((0, 32, 32, 3), dtype=np.float32)
        assert acc.predict(empty).shape == (0,)


class TestParallelPredict:
    def test_execute_chunked_matches_whole_batch(
        self, prototype_accelerators, seed_batch
    ):
        acc = prototype_accelerators["u-cnv"]
        np.testing.assert_array_equal(
            acc.run(seed_batch, REFERENCE.merged(chunk_size=1)),
            acc.run(seed_batch, REFERENCE),
        )

    def test_classifier_restores_training_mode(self, seed_batch):
        clf = BinaryCoP("u-cnv", rng=0)
        randomize_bn_stats(clf.model)
        assert clf.model.training
        clf.predict(np.tile(seed_batch, (2, 1, 1, 1)), chunk_size=2)
        assert clf.model.training


class TestSimulateStreamScan:
    def test_matches_reference_recurrence(self, prototype_accelerators):
        """The vectorised scan equals the original cell-by-cell recurrence."""
        for acc in prototype_accelerators.values():
            intervals = [ii for _, ii in acc.stage_intervals()]
            for num_images in (1, 2, 7, 25):
                ref_start = np.zeros((num_images, len(intervals)), dtype=np.int64)
                ref_finish = np.zeros_like(ref_start)
                for i in range(num_images):
                    for l, interval in enumerate(intervals):
                        ready_input = ref_finish[i, l - 1] if l > 0 else 0
                        ready_stage = ref_finish[i - 1, l] if i > 0 else 0
                        ref_start[i, l] = max(ready_input, ready_stage)
                        ref_finish[i, l] = ref_start[i, l] + interval
                sim = simulate_stream(acc, num_images)
                np.testing.assert_array_equal(sim["start"], ref_start)
                np.testing.assert_array_equal(sim["finish"], ref_finish)
