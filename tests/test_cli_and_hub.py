"""Tests for the CLI and the multi-camera hub queueing model."""

import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.deployment import HubReport, MultiCameraHub


class TestParser:
    def test_commands_present(self):
        parser = build_parser()
        # argparse stores subparser choices on the last action.
        sub = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        )
        assert {
            "train", "evaluate", "deploy", "report", "info", "serve",
        } <= set(sub.choices)
        assert "serve-bench" not in sub.choices  # perfbench `serve` replaces it

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert args.backend == "accelerator"
        assert args.max_batch == 32
        assert args.rate == 200.0

    def test_train_defaults(self):
        args = build_parser().parse_args(
            ["train", "--save", "m.npz"]
        )
        assert args.arch == "n-cnv"
        assert args.epochs == 30

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestInfoCommand:
    def test_info_all(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cnv:" in out and "PE:" in out and "conv1_1" in out

    def test_info_single(self, capsys):
        assert main(["info", "--arch", "u-cnv"]) == 0
        out = capsys.readouterr().out
        assert "u-cnv" in out
        assert "conv3_2" not in out  # µ-CNV drops it


class TestTrainEvaluateDeploy:
    """One miniature end-to-end CLI pass (shared tmp checkpoint)."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        code = main(
            [
                "train",
                "--arch",
                "u-cnv",
                "--raw-size",
                "300",
                "--epochs",
                "2",
                "--save",
                str(path),
                "--quiet",
            ]
        )
        assert code == 0
        assert path.exists()
        return path

    def test_evaluate(self, checkpoint, capsys):
        assert main(["evaluate", "--model", str(checkpoint), "--raw-size", "200"]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "recall[" in out

    def test_deploy(self, checkpoint, capsys):
        assert main(["deploy", "--model", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "LUT=" in out
        assert "idle" in out
        assert "XC7Z020" in out

    def test_serve(self, checkpoint, capsys):
        code = main(
            [
                "serve",
                "--model", str(checkpoint),
                "--rate", "60",
                "--duration", "0.4",
                "--tile-pool", "4",
                "--report-every", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "offered" in out
        assert "completed" in out
        assert "backend: accelerator:binarycop-u-cnv" in out

    def test_deploy_rejects_fp32(self, tmp_path, capsys):
        from repro.core.classifier import BinaryCoP

        clf = BinaryCoP("fp32-cnv")
        path = clf.save(tmp_path / "fp32.npz")
        assert main(["deploy", "--model", str(path)]) == 2

    def test_serve_rejects_fp32(self, tmp_path, capsys):
        from repro.core.classifier import BinaryCoP

        clf = BinaryCoP("fp32-cnv")
        path = clf.save(tmp_path / "fp32.npz")
        assert main(["serve", "--model", str(path)]) == 2
        assert "FP32 baseline is not deployable" in capsys.readouterr().err


class TestMultiCameraHub:
    @pytest.fixture(scope="class")
    def hub(self, trained_tiny_classifier):
        return MultiCameraHub(trained_tiny_classifier.deploy())

    def test_capacity_is_huge(self, hub):
        """The ~6400 FPS headline: thousands of gates per accelerator."""
        gates = hub.capacity_gates(arrivals_per_gate_per_hour=1200)
        assert gates > 10_000

    def test_light_load_waits_negligible(self, hub):
        report = hub.analyze(num_gates=16, arrivals_per_gate_per_hour=1200, rng=0)
        assert not report.saturated
        assert report.utilization < 0.01
        assert report.mean_wait_us < hub.service_us

    def test_waits_grow_with_load(self, hub):
        light = hub.analyze(4, 1200, rng=0)
        heavy = hub.analyze(4_000, 18_000, rng=0)
        assert heavy.utilization > light.utilization
        assert heavy.mean_wait_us >= light.mean_wait_us

    def test_saturation_detected(self, hub):
        # Arrival rate beyond service rate -> saturated, infinite waits.
        rate = 3600.0 * 2.0 / (hub.service_us * 1e-6)  # 2x capacity
        report = hub.analyze(num_gates=1, arrivals_per_gate_per_hour=rate)
        assert report.saturated
        assert report.mean_wait_us == float("inf")
        assert "SATURATED" in report.render()

    def test_pk_formula_agreement(self, hub):
        """Simulated mean wait matches Pollaczek-Khinchine for M/D/1."""
        report = hub.analyze(
            num_gates=2000, arrivals_per_gate_per_hour=6000,
            simulate_subjects=20_000, rng=1,
        )
        rho = report.utilization
        service_s = hub.service_us * 1e-6
        pk_wait_us = rho * service_s / (2 * (1 - rho)) * 1e6
        assert report.mean_wait_us == pytest.approx(pk_wait_us, rel=0.25)

    def test_validation(self, hub):
        with pytest.raises(ValueError, match="num_gates"):
            hub.analyze(0, 100)
        with pytest.raises(ValueError, match="arrival"):
            hub.analyze(1, 0)
        with pytest.raises(ValueError, match="arrival"):
            hub.capacity_gates(0)

    def test_render(self, hub):
        report = hub.analyze(8, 600, rng=0)
        assert "gates" in report.render()
