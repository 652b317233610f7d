"""Tests for fault injection (weight SEUs, threshold upsets)."""

import numpy as np
import pytest

from repro.hw.compiler import FoldingConfig, compile_model
from repro.hw.faults import (
    FaultReport,
    accuracy_under_faults,
    flip_weight_bits,
    perturb_thresholds,
)
from repro.hw.bitpack import unpack_bits
from repro.runtime import ExecutionConfig
from repro.testing import grid_images, make_tiny_bnn, randomize_bn_stats

REFERENCE = ExecutionConfig(use_plan=False)


@pytest.fixture(scope="module")
def acc():
    m = make_tiny_bnn()
    randomize_bn_stats(m)
    m.eval()
    return compile_model(m, FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1)))


@pytest.fixture(scope="module")
def images():
    return grid_images(16, hw=8, seed=3)


class TestFlipWeightBits:
    def test_zero_rate_is_identity(self, acc, images):
        faulty = flip_weight_bits(acc, 0.0, rng=0)
        np.testing.assert_array_equal(
            faulty.run(images, REFERENCE), acc.run(images, REFERENCE)
        )

    def test_original_untouched(self, acc, images):
        before = acc.run(images, REFERENCE)
        flip_weight_bits(acc, 0.5, rng=0)
        np.testing.assert_array_equal(acc.run(images, REFERENCE), before)

    def test_flipped_weights_reach_every_engine(self, acc, images):
        # Warm the original's plan (and its cached sgemm weights) first:
        # a clone must not keep computing with those stale operands.
        clean = acc.run(images)
        faulty = flip_weight_bits(acc, 1.0, rng=0)
        reference = faulty.run(images, REFERENCE)
        assert not np.array_equal(reference, clean)
        np.testing.assert_array_equal(faulty.run(images), reference)

    def test_full_rate_negates_all_weights(self, acc):
        faulty = flip_weight_bits(acc, 1.0, rng=0)
        for orig, flipped in zip(acc.stages, faulty.stages):
            if orig.mvtu.config.input_bits == 1:
                w0 = unpack_bits(orig.mvtu._packed_weights)
                w1 = unpack_bits(flipped.mvtu._packed_weights)
            else:
                w0 = orig.mvtu._int_weights
                w1 = flipped.mvtu._int_weights
            np.testing.assert_array_equal(w1, -w0)

    def test_flip_fraction_matches_rate(self, acc):
        faulty = flip_weight_bits(acc, 0.25, rng=1)
        total = 0
        flipped = 0
        for orig, f in zip(acc.stages, faulty.stages):
            if orig.mvtu.config.input_bits == 1:
                w0 = unpack_bits(orig.mvtu._packed_weights)
                w1 = unpack_bits(f.mvtu._packed_weights)
            else:
                w0, w1 = orig.mvtu._int_weights, f.mvtu._int_weights
            total += w0.size
            flipped += int((w0 != w1).sum())
        assert flipped / total == pytest.approx(0.25, abs=0.04)

    def test_rate_validation(self, acc):
        with pytest.raises(ValueError, match="rate"):
            flip_weight_bits(acc, 1.5)


class TestPerturbThresholds:
    def test_zero_rate_is_identity(self, acc, images):
        faulty = perturb_thresholds(acc, 0.0, rng=0)
        np.testing.assert_array_equal(
            faulty.run(images, REFERENCE), acc.run(images, REFERENCE)
        )

    def test_perturbed_thresholds_reach_every_engine(self, acc, images):
        # Warm the original's plan (and its cached sgemm operands) first:
        # the clone's MVTUs carry those operands, which were rebased from
        # the original thresholds and must not outlive them.
        clean = acc.run(images)
        faulty = perturb_thresholds(acc, 1.0, magnitude=3, rng=0)
        reference = faulty.run(images, REFERENCE)
        assert not np.array_equal(reference, clean)
        np.testing.assert_array_equal(faulty.run(images), reference)

    def test_logits_stage_untouched(self, acc):
        faulty = perturb_thresholds(acc, 1.0, rng=0)
        assert faulty.stages[-1].mvtu.thresholds is None

    def test_thresholds_move_by_magnitude(self, acc):
        faulty = perturb_thresholds(acc, 1.0, magnitude=2, rng=0)
        for orig, f in zip(acc.stages[:-1], faulty.stages[:-1]):
            d = np.abs(
                f.mvtu.thresholds.thresholds - orig.mvtu.thresholds.thresholds
            )
            # Every channel moved by <= 2 (clamping can shrink the step).
            assert d.max() <= 2
            assert d.sum() > 0

    def test_validation(self, acc):
        with pytest.raises(ValueError, match="rate"):
            perturb_thresholds(acc, -0.1)
        with pytest.raises(ValueError, match="magnitude"):
            perturb_thresholds(acc, 0.1, magnitude=0)


class TestAccuracySweep:
    def test_report_contract(self, acc, images):
        labels = acc.predict(images)  # self-labels: baseline accuracy 1.0
        report = accuracy_under_faults(
            acc, images, labels, rates=(0.0, 0.01, 0.3), rng=0
        )
        assert report.baseline_accuracy == 1.0
        assert report.accuracies[0] == 1.0  # rate 0
        assert len(report.accuracies) == 3
        assert "fault sweep" in report.render()

    def test_monotone_degradation_tendency(self, acc, images):
        """Heavy fault rates must hurt more than light ones (on average)."""
        labels = acc.predict(images)
        report = accuracy_under_faults(
            acc, images, labels, rates=(1e-3, 0.4), trials=3, rng=0
        )
        assert report.accuracies[0] >= report.accuracies[1]

    def test_threshold_kind(self, acc, images):
        labels = acc.predict(images)
        report = accuracy_under_faults(
            acc, images, labels, rates=(0.0, 1.0), fault_kind="threshold", rng=0
        )
        assert report.fault_kind == "threshold"
        assert report.accuracies[0] == 1.0

    def test_degradation_helper(self):
        report = FaultReport(
            fault_kind="weight",
            rates=[0.1],
            accuracies=[0.7],
            baseline_accuracy=0.9,
        )
        assert report.degradation() == [pytest.approx(0.2)]
        assert report.worst() == 0.7

    def test_validation(self, acc, images):
        labels = acc.predict(images)
        with pytest.raises(ValueError, match="fault_kind"):
            accuracy_under_faults(acc, images, labels, fault_kind="cosmic")
        with pytest.raises(ValueError, match="trials"):
            accuracy_under_faults(acc, images, labels, trials=0)
