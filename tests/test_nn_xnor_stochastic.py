"""Tests for the XNOR-Net scaled layers and stochastic binarisation."""

import numpy as np
import pytest

from repro.nn.binary_ops import hard_sigmoid, sign, stochastic_sign
from repro.nn.layers import (
    BatchNorm,
    BinaryDense,
    Flatten,
    MaxPool2D,
    SignActivation,
    XnorConv2D,
    XnorDense,
)
from repro.nn.layers.xnor import channel_scales
from repro.nn.sequential import Sequential
from repro.testing import grid_images, randomize_bn_stats


@pytest.fixture()
def x_img():
    return np.random.default_rng(0).standard_normal((2, 8, 8, 3)).astype(np.float32)


class TestChannelScales:
    def test_mean_abs_per_channel(self):
        w = np.zeros((3, 3, 2, 4), dtype=np.float32)
        w[..., 0] = 2.0
        w[..., 1] = -0.5
        alpha = channel_scales(w)
        np.testing.assert_allclose(alpha[:2], [2.0, 0.5])

    def test_dense_shape(self):
        w = np.random.default_rng(1).standard_normal((10, 6))
        assert channel_scales(w).shape == (6,)

    def test_zero_channel_epsilon(self):
        w = np.zeros((2, 3), dtype=np.float32)
        assert (channel_scales(w) > 0).all()


class TestXnorConv:
    def test_effective_weight_scaled_bipolar(self):
        conv = XnorConv2D(3, 4, rng=0)
        w_eff = conv.effective_weight()
        alpha = channel_scales(conv.weight.data)
        np.testing.assert_allclose(
            w_eff, sign(conv.weight.data) * alpha, atol=1e-6
        )

    def test_forward_scales_outputs(self, x_img):
        xnor = XnorConv2D(3, 4, rng=0)
        from repro.nn.layers import BinaryConv2D

        plain = BinaryConv2D(3, 4, rng=0)
        plain.weight.data = xnor.weight.data.copy()
        alpha = channel_scales(xnor.weight.data)
        np.testing.assert_allclose(
            xnor.forward(x_img), plain.forward(x_img) * alpha, rtol=1e-4, atol=1e-4
        )

    def test_latent_magnitude_matters(self, x_img):
        """Unlike plain BinaryConv2D, XNOR-Net output depends on latent
        magnitude (through alpha) — the extra information capacity."""
        conv = XnorConv2D(3, 4, rng=0)
        out1 = conv.forward(x_img)
        conv.weight.data *= 0.5
        out2 = conv.forward(x_img)
        np.testing.assert_allclose(out2, out1 * 0.5, rtol=1e-4, atol=1e-5)

    def test_backward_runs_and_clips(self, x_img):
        conv = XnorConv2D(3, 4, rng=0)
        conv.weight.data[0, 0, 0, 0] = 2.0
        conv.forward(x_img)
        conv.backward(np.ones((2, 6, 6, 4), dtype=np.float32))
        assert conv.weight.grad is not None
        assert conv.weight.grad[0, 0, 0, 0] == 0.0  # clipped STE


class TestXnorCompile:
    def _model(self):
        m = Sequential(
            [
                ("conv1", XnorConv2D(3, 8, kernel_size=3, rng=1)),
                ("bn_conv1", BatchNorm(8)),
                ("sign_conv1", SignActivation()),
                ("pool1", MaxPool2D(2)),
                ("flatten", Flatten()),
                ("fc1", XnorDense(3 * 3 * 8, 16, rng=2)),
                ("bn_fc1", BatchNorm(16)),
                ("sign_fc1", SignActivation()),
                ("fc2", BinaryDense(16, 4, rng=3)),
            ],
            input_shape=(8, 8, 3),
        )
        randomize_bn_stats(m)
        m.eval()
        return m

    def test_scales_fold_into_thresholds_exactly(self):
        """XNOR-Net hidden layers deploy with zero hardware overhead."""
        from repro.hw.compiler import FoldingConfig, compile_model
        from repro.runtime import ExecutionConfig

        m = self._model()
        acc = compile_model(m, FoldingConfig(pe=(1, 1, 1), simd=(1, 1, 1)))
        x = grid_images(6, hw=8)
        sw_logits = m.forward(x).astype(np.int64)
        for execution in (ExecutionConfig(use_plan=False), ExecutionConfig()):
            np.testing.assert_array_equal(acc.run(x, execution), sw_logits)

    def test_xnor_logits_layer_rejected(self):
        from repro.hw.compiler import FoldingConfig, compile_model

        m = Sequential(
            [
                ("flatten", Flatten()),
                ("fc1", XnorDense(12, 4, rng=0)),
            ],
            input_shape=(2, 2, 3),
        )
        with pytest.raises(ValueError, match="real multipliers"):
            compile_model(m, FoldingConfig(pe=(1,), simd=(1,)))


class TestStochasticSign:
    def test_hard_sigmoid_values(self):
        x = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        np.testing.assert_allclose(hard_sigmoid(x), [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_output_is_bipolar(self):
        rng = np.random.default_rng(0)
        out = stochastic_sign(rng.standard_normal(1000), rng)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_saturated_inputs_deterministic(self):
        rng = np.random.default_rng(1)
        x = np.array([5.0, -5.0] * 100)
        out = stochastic_sign(x, rng)
        np.testing.assert_array_equal(out, np.tile([1.0, -1.0], 100))

    def test_expectation_tracks_hard_tanh(self):
        rng = np.random.default_rng(2)
        x = np.full(20_000, 0.5)
        mean = stochastic_sign(x, rng).mean()
        assert abs(mean - 0.5) < 0.03  # E[sign] = 2p - 1 = x inside (-1,1)

    def test_activation_layer_stochastic_training_only(self):
        act = SignActivation(stochastic=True, rng=0)
        x = np.full((4, 1000), 0.2, dtype=np.float32)
        act.train()
        out_train = act.forward(x)
        assert 0.0 < (out_train > 0).mean() < 1.0  # mixed signs
        act.eval()
        out_eval = act.forward(x)
        np.testing.assert_array_equal(out_eval, 1.0)  # deterministic

    def test_stochastic_backward_still_ste(self):
        act = SignActivation(stochastic=True, rng=0)
        x = np.array([[0.5, 2.0]], dtype=np.float32)
        act.train()
        act.forward(x)
        dx = act.backward(np.ones_like(x))
        np.testing.assert_array_equal(dx, [[1.0, 0.0]])
