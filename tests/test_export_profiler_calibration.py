"""Tests for deployment-package export, dataset export, the layer
profiler and the resource-calibration provenance."""

import numpy as np
import pytest

from repro.data.export import export_ppm_samples, load_splits, save_splits
from repro.hw.calibration import (
    TABLE2_OBSERVATIONS,
    DesignObservation,
    solve_lut_coefficients,
)
from repro.hw.compiler import FoldingConfig, compile_model
from repro.hw.export import export_accelerator, load_accelerator
from repro.nn.profiler import LayerProfiler
from repro.testing import grid_images, make_tiny_bnn, randomize_bn_stats


@pytest.fixture(scope="module")
def compiled_tiny():
    m = make_tiny_bnn()
    randomize_bn_stats(m)
    m.eval()
    return m, compile_model(m, FoldingConfig(pe=(2, 4, 1, 2), simd=(3, 8, 2, 4)))


class TestAcceleratorExport:
    def test_roundtrip_bit_exact(self, compiled_tiny, tmp_path):
        model, acc = compiled_tiny
        path = export_accelerator(acc, tmp_path / "pkg")
        restored = load_accelerator(path)
        x = grid_images(6, hw=8, seed=11)
        np.testing.assert_array_equal(restored.run(x), acc.run(x))
        assert restored.name == acc.name
        assert restored.folding() == acc.folding()

    def test_timing_preserved(self, compiled_tiny, tmp_path):
        _, acc = compiled_tiny
        restored = load_accelerator(export_accelerator(acc, tmp_path / "p2"))
        assert restored.stage_intervals() == acc.stage_intervals()

    def test_rejects_foreign_npz(self, tmp_path):
        from repro.utils.serialization import save_arrays

        path = save_arrays(tmp_path / "other", {"x": np.zeros(1)}, {"kind": "model"})
        with pytest.raises(ValueError, match="not an accelerator package"):
            load_accelerator(path)

    def test_package_is_compact(self, compiled_tiny, tmp_path):
        """Bit-packed storage beats a float32 weight dump even with all
        the metadata and thresholds included (at toy scale metadata
        dominates, so compare against the float32 baseline)."""
        _, acc = compiled_tiny
        path = export_accelerator(acc, tmp_path / "p3")
        float32_weight_bytes = acc.weight_bits() * 4
        assert path.stat().st_size < float32_weight_bytes


class TestDatasetExport:
    def test_splits_roundtrip(self, tiny_splits, tmp_path):
        path = save_splits(tiny_splits, tmp_path / "ds")
        restored = load_splits(path)
        np.testing.assert_array_equal(restored.train.images, tiny_splits.train.images)
        np.testing.assert_array_equal(restored.test.labels, tiny_splits.test.labels)

    def test_kind_guard(self, tmp_path):
        from repro.utils.serialization import save_arrays

        path = save_arrays(tmp_path / "zzz", {"a": np.zeros(1)}, {})
        with pytest.raises(ValueError, match="not a dataset snapshot"):
            load_splits(path)

    def test_ppm_export(self, tiny_splits, tmp_path):
        written = export_ppm_samples(tiny_splits.test, tmp_path / "imgs", limit=3)
        assert len(written) == 3
        header = written[0].read_bytes()[:20]
        assert header.startswith(b"P6 32 32 255")

    def test_ppm_index_guard(self, tiny_splits, tmp_path):
        with pytest.raises(IndexError, match="out of range"):
            export_ppm_samples(tiny_splits.test, tmp_path, indices=[10**6])


class TestLayerProfiler:
    def test_forward_profile(self):
        model = make_tiny_bnn()
        randomize_bn_stats(model)
        model.eval()
        profiler = LayerProfiler(model)
        x = grid_images(4, hw=8)
        result = profiler.profile(x, repeats=2)
        assert len(result.timings) == len(model.layer_names)
        assert result.total_seconds() > 0
        assert all(t.calls == 2 for t in result.timings)
        assert result.bottleneck().total_s > 0

    def test_macs_accounting(self):
        model = make_tiny_bnn()
        profiler = LayerProfiler(model)
        x = grid_images(2, hw=8)
        result = profiler.profile(x, repeats=1)
        by_name = {t.name: t for t in result.timings}
        assert by_name["conv1"].macs == 6 * 6 * 8 * 3 * 3 * 3
        assert by_name["fc2"].macs == 16 * 4
        assert by_name["pool1"].macs == 0

    def test_backward_profile(self):
        model = make_tiny_bnn()
        profiler = LayerProfiler(model)
        result = profiler.profile(grid_images(4, hw=8), repeats=1, include_backward=True)
        assert any(t.backward_s > 0 for t in result.timings)
        # Gradients cleared, mode restored.
        assert all(p.grad is None for p in model.parameters())

    def test_render(self):
        model = make_tiny_bnn()
        randomize_bn_stats(model)
        model.eval()
        out = LayerProfiler(model).profile(grid_images(2, hw=8)).render()
        assert "layer profile" in out and "share" in out

    def test_requires_input_shape(self):
        from repro.nn.layers import ReLU
        from repro.nn.sequential import Sequential

        with pytest.raises(ValueError, match="input_shape"):
            LayerProfiler(Sequential([ReLU()]))

    def test_repeats_validation(self):
        profiler = LayerProfiler(make_tiny_bnn())
        with pytest.raises(ValueError, match="repeats"):
            profiler.profile(grid_images(1, hw=8), repeats=0)


class TestCalibration:
    def test_reproduces_resource_constants(self):
        """The solved coefficients are the ones baked into resources.py."""
        from repro.hw import resources

        solved = solve_lut_coefficients()
        assert solved["per_lane"] == pytest.approx(resources.LUT_PER_LANE, abs=1e-6)
        assert solved["per_pe"] == pytest.approx(resources.LUT_PER_PE, abs=1e-6)
        assert solved["per_mvtu"] == pytest.approx(resources.LUT_PER_MVTU, abs=1e-6)
        assert solved["base"] == resources.LUT_BASE
        assert solved["max_abs_error"] < 1e-6  # exact solve on 3 points

    def test_observation_sums(self):
        cnv = TABLE2_OBSERVATIONS[0]
        assert cnv.lane_sum == sum(
            p * s for p, s in zip(cnv.folding.pe, cnv.folding.simd)
        )
        assert cnv.pe_sum == sum(cnv.folding.pe)
        assert cnv.n_mvtus == 9

    def test_least_squares_with_extra_points(self):
        extra = TABLE2_OBSERVATIONS + (
            DesignObservation(
                name="fake",
                folding=FoldingConfig(pe=(2, 2), simd=(4, 4)),
                lut=3000
                + 4.56664629 * 16
                + 49.73969811 * 4
                + 906.47412331 * 2,
            ),
        )
        solved = solve_lut_coefficients(extra)
        assert solved["max_abs_error"] < 1e-5

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            solve_lut_coefficients(TABLE2_OBSERVATIONS[:2])
