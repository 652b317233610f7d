"""Cross-module integration tests.

These tie the substrates together the way the paper's workflow does:
data pipeline -> training -> deployment -> interpretation -> reporting,
plus a hypothesis property over *randomly shaped* deployable models
(compiler fuzzing: every legal tiny BNN must compile and be bit-exact).
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.compiler import FoldingConfig, compile_model
from repro.nn.layers import (
    BatchNorm,
    BinaryConv2D,
    BinaryDense,
    Flatten,
    MaxPool2D,
    SignActivation,
)
from repro.nn.sequential import Sequential
from repro.runtime import ExecutionConfig
from repro.testing import grid_images, randomize_bn_stats

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


class TestEndToEnd:
    def test_train_deploy_interpret_report(self, trained_tiny_classifier, tiny_splits):
        """The full user workflow on one trained model."""
        clf = trained_tiny_classifier
        # 1. evaluation artifacts
        cm = clf.confusion(tiny_splits.test)
        assert cm.counts.sum() == len(tiny_splits.test)
        # 2. deployment, bit-true on the dataset's (uint8-grid) images
        accelerator = clf.deploy()
        images = tiny_splits.test.images[:24]
        assert (accelerator.predict(images) == clf.predict(images)).mean() >= 0.95
        # 3. interpretability
        cam = clf.gradcam(images[0])
        assert cam.heatmap.max() <= 1.0
        # 4. performance models all answer
        from repro.hw import analyze_pipeline, estimate_resources, plan_buffers

        timing = analyze_pipeline(accelerator)
        resources = estimate_resources(accelerator)
        buffers = plan_buffers(accelerator)
        assert timing.fps_analytic > 0
        assert resources.lut > 0
        assert buffers.total_bits() > 0

    def test_checkpoint_then_deploy_identical(self, trained_tiny_classifier, tiny_splits, tmp_path):
        """Save/load round trip preserves the deployed datapath exactly."""
        from repro.core.classifier import BinaryCoP

        path = trained_tiny_classifier.save(tmp_path / "ck")
        restored = BinaryCoP.load(path)
        images = tiny_splits.test.images[:16]
        np.testing.assert_array_equal(
            restored.deploy().run(images),
            trained_tiny_classifier.deploy().run(images),
        )

    def test_faults_on_trained_accelerator(self, trained_tiny_classifier, tiny_splits):
        from repro.hw.faults import accuracy_under_faults

        acc = trained_tiny_classifier.deploy()
        report = accuracy_under_faults(
            acc,
            tiny_splits.test.images[:32],
            tiny_splits.test.labels[:32],
            rates=(0.0, 0.02),
            rng=0,
        )
        assert report.accuracies[0] == pytest.approx(report.baseline_accuracy)


def _random_bnn(hw: int, c1: int, c2: int, fc: int, seed: int) -> Sequential:
    """A randomly shaped deployable BNN (always grammatically legal)."""
    flat = ((hw - 4) // 2) ** 2 * c2
    return Sequential(
        [
            ("conv1", BinaryConv2D(3, c1, kernel_size=3, rng=seed)),
            ("bn_conv1", BatchNorm(c1)),
            ("sign_conv1", SignActivation()),
            ("conv2", BinaryConv2D(c1, c2, kernel_size=3, rng=seed + 1)),
            ("bn_conv2", BatchNorm(c2)),
            ("sign_conv2", SignActivation()),
            ("pool1", MaxPool2D(2)),
            ("flatten", Flatten()),
            ("fc1", BinaryDense(flat, fc, rng=seed + 2)),
            ("bn_fc1", BatchNorm(fc)),
            ("sign_fc1", SignActivation()),
            ("fc2", BinaryDense(fc, 4, rng=seed + 3)),
        ],
        input_shape=(hw, hw, 3),
    )


@settings(max_examples=12, deadline=None)
@given(
    hw=st.sampled_from([6, 8, 10]),
    c1=st.sampled_from([2, 4, 8]),
    c2=st.sampled_from([2, 4, 8]),
    fc=st.sampled_from([4, 8, 16]),
    seed=st.integers(0, 500),
)
def test_compiler_fuzz_bit_exactness(hw, c1, c2, fc, seed):
    """Property: every legal tiny BNN compiles and runs bit-exact
    against the software model on uint8-grid inputs."""
    model = _random_bnn(hw, c1, c2, fc, seed)
    randomize_bn_stats(model, seed=seed + 7)
    model.eval()
    acc = compile_model(model, FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1)))
    x = grid_images(3, hw=hw, seed=seed)
    sw_logits = model.forward(x).astype(np.int64)
    for execution in (ExecutionConfig(use_plan=False), ExecutionConfig()):
        np.testing.assert_array_equal(acc.run(x, execution), sw_logits)


class TestExamplesSmoke:
    """Every example parses, imports and prints its help text."""

    @pytest.mark.parametrize(
        "script", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_help_runs(self, script):
        result = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "usage" in result.stdout.lower()

    def test_expected_example_set(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart",
            "gate_monitor",
            "crowd_statistics",
            "gradcam_explorer",
            "design_space_exploration",
            "fairness_audit",
            "speed_gate",
            "generate_report",
        } <= names
