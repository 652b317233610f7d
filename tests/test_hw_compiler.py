"""Tests for the BNN -> accelerator compiler and the integer datapath.

The bit-exactness tests are the heart of the reproduction: the hardware
(XNOR+popcount+threshold) path must agree with the trained software model
when both consume pixels on the uint8 grid.
"""

import numpy as np
import pytest

from repro.hw.compiler import (
    FinnAccelerator,
    FoldingConfig,
    InputContract,
    compile_model,
)
from repro.nn.layers import (
    BatchNorm,
    BinaryConv2D,
    BinaryDense,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    SignActivation,
)
from repro.nn.sequential import Sequential
from repro.runtime import ExecutionConfig
from repro.testing import make_tiny_bnn, randomize_bn_stats

REFERENCE = ExecutionConfig(use_plan=False)


@pytest.fixture()
def compiled(tiny_bnn):
    return compile_model(
        tiny_bnn, FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1)), name="tiny"
    )


def grid_batch(n=6, hw=8, seed=0):
    q = np.random.default_rng(seed).integers(0, 256, size=(n, hw, hw, 3))
    return (q / 255.0).astype(np.float32)


class TestFoldingConfig:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            FoldingConfig(pe=(1, 2), simd=(1,))

    def test_positive_entries(self):
        with pytest.raises(ValueError, match="positive"):
            FoldingConfig(pe=(0,), simd=(1,))

    def test_len(self):
        assert len(FoldingConfig(pe=(1, 2), simd=(3, 4))) == 2


class TestCompile:
    def test_stage_structure(self, compiled):
        kinds = [s.kind for s in compiled.stages]
        assert kinds == ["conv", "conv", "fc", "fc"]
        assert compiled.stages[0].mvtu.config.input_bits == 8
        assert compiled.stages[1].mvtu.config.input_bits == 1
        assert compiled.stages[1].pool is not None
        assert compiled.stages[-1].mvtu.thresholds is None

    def test_folding_length_checked(self, tiny_bnn):
        with pytest.raises(ValueError, match="folding has"):
            compile_model(tiny_bnn, FoldingConfig(pe=(1, 1), simd=(1, 1)))

    def test_requires_input_shape(self):
        m = Sequential([("fc", BinaryDense(4, 2))])
        with pytest.raises(ValueError, match="input_shape"):
            compile_model(m, FoldingConfig(pe=(1,), simd=(1,)))

    def test_conv_without_bn_rejected(self):
        m = Sequential(
            [("conv", BinaryConv2D(3, 4)), ("sign", SignActivation())],
            input_shape=(8, 8, 3),
        )
        with pytest.raises(ValueError, match="BatchNorm"):
            compile_model(m, FoldingConfig(pe=(1,), simd=(1,)))

    def test_relu_rejected(self):
        m = Sequential(
            [
                ("conv", BinaryConv2D(3, 4)),
                ("bn", BatchNorm(4)),
                ("relu", ReLU()),
            ],
            input_shape=(8, 8, 3),
        )
        with pytest.raises(ValueError, match="BatchNorm -> SignActivation"):
            compile_model(m, FoldingConfig(pe=(1,), simd=(1,)))

    def test_fp_dense_head_rejected(self):
        m = Sequential(
            [
                ("conv", BinaryConv2D(3, 4)),
                ("bn", BatchNorm(4)),
                ("sign", SignActivation()),
                ("flatten", Flatten()),
                ("fc", Dense(6 * 6 * 4, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        with pytest.raises(ValueError, match="BinaryDense"):
            compile_model(m, FoldingConfig(pe=(1, 1), simd=(1, 1)))

    def test_mid_stack_unthresholded_dense_rejected(self):
        m = Sequential(
            [
                ("flatten", Flatten()),
                ("fc1", BinaryDense(12, 8)),
                ("fc2", BinaryDense(8, 4)),
            ],
            input_shape=(2, 2, 3),
        )
        with pytest.raises(ValueError, match="neither thresholded nor final"):
            compile_model(m, FoldingConfig(pe=(1, 1), simd=(1, 1)))

    def test_weight_bits_accounting(self, compiled, tiny_bnn):
        expected = sum(
            int(layer.weight.data.size)
            for layer in tiny_bnn.layers
            if hasattr(layer, "weight")
        )
        assert compiled.weight_bits() == expected


class TestDatapath:
    def test_bit_exact_on_grid_inputs(self, tiny_bnn, compiled):
        """HW integer datapath == SW float path on uint8-grid pixels."""
        x = grid_batch()
        sw_logits = tiny_bnn.forward(x)
        hw_logits = compiled.run(x, REFERENCE)
        np.testing.assert_array_equal(hw_logits, sw_logits.astype(np.int64))

    def test_intermediate_bits_match_sw(self, tiny_bnn, compiled):
        x = grid_batch(seed=1)
        tiny_bnn.forward(x, taps=("sign_conv1", "pool1"))
        _, bits = compiled.run(x, REFERENCE, return_bits=True)
        np.testing.assert_array_equal(
            bits[0], tiny_bnn.tap_activations["sign_conv1"] > 0
        )
        np.testing.assert_array_equal(
            bits[1], tiny_bnn.tap_activations["pool1"] > 0
        )

    def test_folding_does_not_change_results(self, tiny_bnn):
        x = grid_batch(seed=2)
        acc1 = compile_model(tiny_bnn, FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1)))
        acc2 = compile_model(tiny_bnn, FoldingConfig(pe=(8, 4, 16, 4), simd=(3, 8, 4, 16)))
        np.testing.assert_array_equal(
            acc1.run(x, REFERENCE), acc2.run(x, REFERENCE)
        )

    def test_single_image_accepted(self, compiled):
        out = compiled.run(grid_batch(n=1)[0], REFERENCE)
        assert out.shape == (1, 4)

    def test_predict_argmax(self, compiled):
        x = grid_batch(seed=3)
        np.testing.assert_array_equal(
            compiled.predict(x), compiled.run(x, REFERENCE).argmax(axis=1)
        )

    def test_uint8_input_accepted(self, compiled):
        q = np.random.default_rng(4).integers(0, 256, (2, 8, 8, 3)).astype(np.uint8)
        out_int = compiled.run(q, REFERENCE)
        out_float = compiled.run((q / 255.0).astype(np.float32), REFERENCE)
        np.testing.assert_array_equal(out_int, out_float)

    def test_input_shape_checked(self, compiled):
        with pytest.raises(ValueError, match="does not match"):
            compiled.run(np.zeros((1, 9, 9, 3), dtype=np.float32), REFERENCE)

    def test_input_range_checked(self, compiled):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            compiled.run(np.full((1, 8, 8, 3), 1.5, dtype=np.float32), REFERENCE)
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            compiled.run(np.full((1, 8, 8, 3), 300, dtype=np.int64), REFERENCE)

    def test_input_contract_range_edges(self):
        # float32 decides in-range batches through its uint32 bit view;
        # every edge must agree with the two-reduction path of the other
        # dtypes, including -0.0, the 1e-6 slack, signed NaN and a
        # big-endian batch (which the bit view must not misread).
        contract = InputContract((2, 2, 1))
        for dtype in (np.float32, np.float64, ">f4"):
            for ok in (0.0, -0.0, 1.0, -1e-7, 1 + 1e-7):
                contract.check(np.full((2, 2, 1), ok, dtype))
            for bad in (np.nan, -np.nan, np.inf, -np.inf, -0.01, 1.01):
                with pytest.raises(ValueError):
                    contract.check(np.full((2, 2, 1), bad, dtype))
        for dtype in (np.uint8, np.int8, np.int64):
            contract.check(np.full((2, 2, 1), 0, dtype))
            contract.check(np.full((2, 2, 1), 127, dtype))
        for bad in (-1, 256):
            with pytest.raises(ValueError, match=r"\[0, 255\]"):
                contract.check(np.full((2, 2, 1), bad, np.int64))

    def test_logits_are_even_integers(self, compiled):
        # Bipolar dot of even fan-in (16) is even — a structural sanity
        # check on the popcount-to-bipolar conversion.
        logits = compiled.run(grid_batch(seed=5), REFERENCE)
        assert np.all(logits % 2 == 0)


class TestStageTiming:
    def test_intervals_positive(self, compiled):
        for name, ii in compiled.stage_intervals():
            assert ii > 0

    def test_conv_interval_includes_swu(self, tiny_bnn):
        # With SIMD=1 the SWU streams 27 elements per window; MVTU with
        # PE=8 (full) needs fewer cycles -> SWU dominates.
        acc = compile_model(tiny_bnn, FoldingConfig(pe=(8, 8, 16, 4), simd=(1, 1, 1, 1)))
        stage = acc.stages[0]
        assert stage.initiation_interval() == stage.swu.cycles_per_image()

    def test_unit_cycles_breakdown(self, compiled):
        cycles = compiled.stages[1].unit_cycles()
        assert set(cycles) == {"mvtu", "swu", "pool"}


class TestFoldingAccessor:
    def test_roundtrip(self, tiny_bnn):
        folding = FoldingConfig(pe=(2, 4, 1, 2), simd=(3, 8, 2, 4))
        acc = compile_model(tiny_bnn, folding)
        assert acc.folding() == folding
