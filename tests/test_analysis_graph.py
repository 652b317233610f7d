"""Model-graph verifier: per-rule fixtures, zoo invariants, soundness.

Every graph rule id gets one minimal failing fixture and one passing
fixture; the soundness demo mutates a valid CNV graph three ways and
checks each mutation is flagged with the correct rule id while the
pristine zoo models verify clean. The grammar property draws single-edit
mutants of deployable models and checks that the verifier and
``compile_model`` agree on every one.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, verify_model
from repro.core.architectures import (
    build_architecture,
    build_cnv,
    table1_folding,
)
from repro.core.zoo import verify_zoo
from repro.hw.compiler import (
    FoldingConfig,
    MVTUGeometry,
    compile_model,
    folding_violations,
    mvtu_geometry,
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
from repro.nn.layers.xnor import XnorDense
from repro.nn.sequential import Sequential
from repro.testing import make_tiny_bnn

pytestmark = pytest.mark.analysis

UNIT_FOLD = FoldingConfig(pe=(1, 1, 1, 1), simd=(1, 1, 1, 1))


def conv_block(c_in, c_out, idx):
    return [
        (f"conv{idx}", BinaryConv2D(c_in, c_out, kernel_size=3, rng=idx)),
        (f"bn{idx}", BatchNorm(c_out)),
        (f"sign{idx}", SignActivation()),
    ]


def rule_ids(model, folding=None):
    return set(verify_model(model, folding).rule_ids)


# -- passing fixtures ----------------------------------------------------------
class TestCleanModels:
    def test_tiny_bnn_clean(self):
        report = verify_model(make_tiny_bnn(), UNIT_FOLD, name="tiny")
        assert report.rule_ids == []
        assert report.exit_code() == 0

    def test_tiny_bnn_clean_without_folding(self):
        assert verify_model(make_tiny_bnn()).rule_ids == []

    def test_zoo_models_all_verify_clean(self):
        """Zoo-wide invariant: every registered prototype + its Table I
        folding passes the verifier with zero findings."""
        reports = verify_zoo()
        assert set(reports) == {"cnv", "n-cnv", "u-cnv"}
        for name, report in reports.items():
            assert report.rule_ids == [], (
                f"{name} should verify clean:\n{report.render()}"
            )


# -- soundness demo (acceptance criterion) ------------------------------------
class TestSoundnessDemo:
    """Mutate a valid CNV graph; each mutation flags the right rule."""

    def _rebuild(self, mutate):
        cnv = build_cnv(rng=0)
        entries = [(name, cnv[name]) for name in cnv.layer_names]
        return Sequential(mutate(entries), input_shape=cnv.input_shape)

    def test_swapped_bn_sign_order_flagged(self):
        def swap(entries):
            out = list(entries)
            i = [n for n, _ in out].index("bn_conv1_1")
            out[i], out[i + 1] = out[i + 1], out[i]  # sign before bn
            return out

        ids = set(verify_model(self._rebuild(swap)).rule_ids)
        assert "MG002" in ids

    def test_pe_not_dividing_channels_flagged(self):
        folding = table1_folding("cnv")
        bad = FoldingConfig(
            pe=(7,) + folding.pe[1:], simd=folding.simd
        )  # conv1_1 has 64 output channels; 7 does not divide 64
        report = verify_model(build_cnv(rng=0), bad)
        assert "MG007" in report.rule_ids
        (diag,) = report.by_rule("MG007")
        assert diag.symbol == "conv1_1"

    def test_dropped_reshape_flagged(self):
        def drop_flatten(entries):
            return [(n, m) for n, m in entries if n != "flatten"]

        ids = set(verify_model(self._rebuild(drop_flatten)).rule_ids)
        assert "MG006" in ids

    def test_verifier_clean_implies_compile_succeeds(self):
        model = make_tiny_bnn()
        folding = UNIT_FOLD
        assert verify_model(model, folding).rule_ids == []
        compile_model(model, folding)  # must not raise


# -- one failing fixture per rule id ------------------------------------------
class TestPerRuleFailures:
    def test_mg001_shape_contract_violation(self):
        model = Sequential(
            conv_block(5, 8, 1)  # declares 5 input channels, input has 3
            + [("flatten", Flatten()), ("fc", BinaryDense(8, 4))],
            input_shape=(8, 8, 3),
        )
        assert "MG001" in rule_ids(model)

    def test_mg001_missing_input_shape(self):
        model = Sequential([("fc", BinaryDense(4, 2))])
        assert "MG001" in rule_ids(model)

    def test_mg002_sign_without_batchnorm(self):
        model = Sequential(
            [
                ("conv", BinaryConv2D(3, 8, rng=0)),
                ("sign", SignActivation()),  # no BN in front
                ("bn", BatchNorm(8)),
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 6 * 6, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        assert "MG002" in rule_ids(model)

    def test_mg003_pool_before_sign(self):
        model = Sequential(
            [
                ("conv", BinaryConv2D(3, 8, rng=0)),
                ("bn", BatchNorm(8)),
                ("pool", MaxPool2D(2)),  # pools the real-valued stream
                ("sign", SignActivation()),
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 3 * 3, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        assert "MG003" in rule_ids(model)

    def test_mg004_conv_without_bn_sign(self):
        model = Sequential(
            [
                ("conv", BinaryConv2D(3, 8, rng=0)),
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 6 * 6, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        assert "MG004" in rule_ids(model)

    def test_mg005_mid_stack_unthresholded_dense(self):
        model = Sequential(
            [
                ("flatten", Flatten()),
                ("fc1", BinaryDense(12, 8)),
                ("fc2", BinaryDense(8, 4)),
            ],
            input_shape=(2, 2, 3),
        )
        assert "MG005" in rule_ids(model)

    def test_mg005_fp_dense_head(self):
        model = Sequential(
            conv_block(3, 8, 1)
            + [("flatten", Flatten()), ("fc", Dense(8 * 6 * 6, 4))],
            input_shape=(8, 8, 3),
        )
        assert "MG005" in rule_ids(model)

    def test_mg005_xnor_logits(self):
        model = Sequential(
            [("flatten", Flatten()), ("fc", XnorDense(12, 4))],
            input_shape=(2, 2, 3),
        )
        assert "MG005" in rule_ids(model)

    def test_mg005_model_without_logits_layer(self):
        model = Sequential(
            conv_block(3, 8, 1), input_shape=(8, 8, 3)
        )  # ends in sign
        assert "MG005" in rule_ids(model)

    def test_mg006_missing_flatten(self):
        model = Sequential(
            conv_block(3, 8, 1) + [("fc", BinaryDense(8 * 6 * 6, 4))],
            input_shape=(8, 8, 3),
        )
        assert "MG006" in rule_ids(model)

    def test_mg007_pe_divisibility(self):
        model = make_tiny_bnn()  # conv1 has 8 output channels
        bad = FoldingConfig(pe=(3, 1, 1, 1), simd=(1, 1, 1, 1))
        assert "MG007" in rule_ids(model, bad)

    def test_mg008_simd_divisibility(self):
        model = make_tiny_bnn()  # conv1 fan-in is 3*3*3 = 27
        bad = FoldingConfig(pe=(1, 1, 1, 1), simd=(4, 1, 1, 1))
        assert "MG008" in rule_ids(model, bad)

    def test_mg009_folding_arity(self):
        model = make_tiny_bnn()
        bad = FoldingConfig(pe=(1, 1), simd=(1, 1))
        assert "MG009" in rule_ids(model, bad)

    def test_mg010_dead_sign(self):
        model = Sequential(
            conv_block(3, 8, 1)
            + [
                ("sign_again", SignActivation()),  # sign of binary stream
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 6 * 6, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        report = verify_model(model)
        assert "MG010" in report.rule_ids
        assert report.by_rule("MG010")[0].severity is Severity.WARNING

    def test_mg010_double_batchnorm(self):
        model = Sequential(
            [
                ("conv", BinaryConv2D(3, 8, rng=0)),
                ("bn", BatchNorm(8)),
                ("bn2", BatchNorm(8)),
                ("sign", SignActivation()),
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 6 * 6, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        assert "MG010" in rule_ids(model)

    def test_mg011_unbinarised_operand(self):
        model = Sequential(
            [
                ("conv1", BinaryConv2D(3, 8, rng=0)),
                ("bn1", BatchNorm(8)),
                # no sign: conv2 consumes the real-valued stream
                ("conv2", BinaryConv2D(8, 8, rng=1)),
                ("bn2", BatchNorm(8)),
                ("sign2", SignActivation()),
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 4 * 4, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        assert "MG011" in rule_ids(model)

    def test_mg012_resource_envelope(self):
        # 8192 * 1024 = 8.4M weight bits > the Z7020's 140 * 36Kb BRAM.
        model = Sequential(
            [
                ("flatten", Flatten()),
                ("fc1", BinaryDense(8192, 1024)),
                ("bn1", BatchNorm(1024)),
                ("sign1", SignActivation()),
                ("fc2", BinaryDense(1024, 4)),
            ],
            input_shape=(64, 32, 4),
        )
        folding = FoldingConfig(pe=(1, 1), simd=(1, 1))
        report = verify_model(model, folding)
        assert "MG012" in report.rule_ids
        assert report.by_rule("MG012")[0].severity is Severity.WARNING

    def test_mg013_strided_conv(self):
        model = Sequential(
            [
                ("conv", BinaryConv2D(3, 8, kernel_size=3, stride=2, rng=0)),
                ("bn", BatchNorm(8)),
                ("sign", SignActivation()),
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 3 * 3, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        assert "MG013" in rule_ids(model)

    def test_mg014_alien_layer(self):
        model = Sequential(
            [
                ("conv", BinaryConv2D(3, 8, rng=0)),
                ("bn", BatchNorm(8)),
                ("relu", ReLU()),
                ("flatten", Flatten()),
                ("fc", BinaryDense(8 * 6 * 6, 4)),
            ],
            input_shape=(8, 8, 3),
        )
        assert "MG014" in rule_ids(model)


# -- folding legality, checked by the verifier on the compile path -----------
class TestBoundFoldingConfig:
    def test_compile_model_fails_early_with_named_mvtu(self):
        with pytest.raises(ValueError, match=r"conv2: PE=5"):
            compile_model(
                make_tiny_bnn(),
                FoldingConfig(pe=(1, 5, 1, 1), simd=(1, 1, 1, 1)),
            )

    def test_folding_violations_empty_for_legal(self):
        geometry = mvtu_geometry(make_tiny_bnn())
        assert folding_violations((8, 8, 16, 4), (3, 8, 4, 16), geometry) == []

    def test_mvtu_geometry_matches_table1(self):
        geoms = mvtu_geometry(build_cnv(rng=0))
        assert [g.name for g in geoms][:2] == ["conv1_1", "conv1_2"]
        assert geoms[0] == MVTUGeometry("conv1_1", "conv", 64, 27)
        folding = table1_folding("cnv")
        assert len(geoms) == len(folding)


# -- one grammar: verifier-clean <=> compiles ---------------------------------
@lru_cache(maxsize=None)
def _base_model(name):
    return make_tiny_bnn() if name == "tiny" else build_architecture(name, rng=0)


_INSERTS = {
    "BatchNorm": lambda shape: BatchNorm(shape[-1]),
    "SignActivation": lambda shape: SignActivation(),
    "Flatten": lambda shape: Flatten(),
    "MaxPool2D": lambda shape: MaxPool2D(2),
}


@st.composite
def single_edit_mutants(draw):
    """A deployable model with one layer deleted, one layer inserted, or
    two neighbours swapped. An inserted BatchNorm matches the channel
    count reaching it, so only its position can be wrong."""
    base = draw(st.sampled_from(["tiny", "u-cnv"]))
    model = _base_model(base)
    entries = [(name, model[name]) for name in model.layer_names]
    shapes = [model.input_shape] + [out for _, out in model.shapes()]
    edit = draw(st.sampled_from(["delete", "insert", "swap"]))
    if edit == "delete":
        i = draw(st.integers(0, len(entries) - 1))
        label = f"{base}: delete {entries.pop(i)[0]}"
    elif edit == "swap":
        i = draw(st.integers(0, len(entries) - 2))
        entries[i], entries[i + 1] = entries[i + 1], entries[i]
        label = f"{base}: swap {entries[i + 1][0]} and {entries[i][0]}"
    else:
        i = draw(st.integers(0, len(entries)))
        kind = draw(st.sampled_from(sorted(_INSERTS)))
        entries.insert(i, ("inserted", _INSERTS[kind](shapes[i])))
        label = f"{base}: insert {kind} at {i}"
    return label, Sequential(entries, input_shape=model.input_shape)


class TestOneGrammar:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(single_edit_mutants())
    def test_verifier_clean_iff_compiles(self, mutant):
        label, model = mutant
        n = len(mvtu_geometry(model))
        folding = FoldingConfig(pe=(1,) * n, simd=(1,) * n)
        errors = verify_model(model, folding).errors
        if not errors:
            compile_model(model, folding)  # must not raise
            return
        with pytest.raises(ValueError) as info:
            compile_model(model, folding)
        assert str(info.value).startswith(errors[0].rule_id), (
            f"{label}: compile error {info.value!s} does not name the "
            f"verifier's first error {errors[0].rule_id}"
        )

    @pytest.mark.parametrize("position", [0, 3, 7, 8, 11])
    def test_stray_batchnorm_is_an_error(self, position):
        model = make_tiny_bnn()
        entries = [(name, model[name]) for name in model.layer_names]
        shapes = [model.input_shape] + [out for _, out in model.shapes()]
        entries.insert(position, ("stray", BatchNorm(shapes[position][-1])))
        mutant = Sequential(entries, input_shape=model.input_shape)
        assert "MG015" in rule_ids(mutant, UNIT_FOLD)
        with pytest.raises(ValueError, match="MG015"):
            compile_model(mutant, UNIT_FOLD)

    @pytest.mark.parametrize(
        "rule, block, input_hw",
        [
            # a second pool: the hardware has one OR-pool per conv block
            ("MG003", [BatchNorm(8), SignActivation(), MaxPool2D(2),
                       MaxPool2D(2)], 10),
            # a 5x5 map: the pool unit takes whole windows only
            ("MG013", [BatchNorm(8), SignActivation(), MaxPool2D(2)], 7),
            # a batch-norm one channel short of the conv it folds into
            ("MG001", [BatchNorm(7), SignActivation()], 4),
        ],
    )
    def test_compiler_rejections_are_verifier_errors(
        self, rule, block, input_hw
    ):
        # Each stack maps the conv's 8 channels to 2x2 before the fc.
        layers = [BinaryConv2D(3, 8, kernel_size=3, rng=1), *block,
                  Flatten(), BinaryDense(8 * 2 * 2, 4)]
        model = Sequential(
            [(f"layer{i}", layer) for i, layer in enumerate(layers)],
            input_shape=(input_hw, input_hw, 3),
        )
        assert rule_ids(model) == {rule}
        with pytest.raises(ValueError, match=rule):
            compile_model(model, FoldingConfig(pe=(1, 1), simd=(1, 1)))


# -- static shape hooks --------------------------------------------------------
class TestShapeHooks:
    def test_iter_shape_inference_captures_error_and_continues(self):
        model = Sequential(
            [
                ("conv", BinaryConv2D(5, 8, rng=0)),  # wrong channel count
                ("bn", BatchNorm(8)),
            ],
            input_shape=(8, 8, 3),
        )
        steps = list(model.iter_shape_inference())
        assert steps[0][0] == "conv"
        assert steps[0][3] is None and steps[0][4] is not None
        # downstream layers still visited, with unknown shapes
        assert steps[1][0] == "bn" and steps[1][2] is None

    def test_shapes_still_raises_on_bad_stack(self):
        model = Sequential(
            [("conv", BinaryConv2D(5, 8, rng=0))], input_shape=(8, 8, 3)
        )
        with pytest.raises(ValueError):
            model.shapes()

    def test_shapes_happy_path_unchanged(self):
        model = make_tiny_bnn()
        shapes = dict(model.shapes())
        assert shapes["conv1"] == (6, 6, 8)
        assert shapes["fc2"] == (4,)
