"""Static model-graph verifier for the deployable BNN grammar.

Symbolically walks a :class:`~repro.nn.sequential.Sequential` — shape
inference via the container's static hooks, a value-*domain* lattice
(``pixel8`` → ``real`` → ``binary``) instead of executing forward — and
checks every structural invariant the paper states and the hardware
needs:

* batch-norm must sit between a conv/dense layer and its sign, so
  thresholds fold (§III-A);
* max-pool must directly follow a conv block's sign so hardware pools
  the binary maps with OR (§III-B), and its windows must tile the map;
* conv/dense blocks must match the threshold-foldable grammar;
* PE must divide each MVTU's rows and SIMD its fan-in (FINN folding,
  Table I) — via :func:`repro.hw.compiler.folding_violations`;
* dead layers (identity on the inferred domain) and silent dtype
  narrowing are reported as warnings, as is a weight footprint
  exceeding every catalog device's BRAM envelope.

:func:`repro.hw.compiler.compile_model` runs :func:`verify_model` as its
front end and raises on the first error, so whatever it compiles is
verifier-clean by construction. That every verifier-clean model compiles
is checked by a property test over single-edit mutants
(``tests/test_analysis_graph.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import DiagnosticReport
from repro.hw.compiler import (
    FoldingConfig,
    folding_violations,
    mvtu_geometry,
)
from repro.hw.devices import DEVICES
from repro.nn.layers import (
    BatchNorm,
    BinaryDense,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    SignActivation,
)
from repro.nn.layers.xnor import XnorDense
from repro.nn.sequential import Sequential

__all__ = ["verify_model"]

#: Bits per 36Kb BRAM block (the unit hw/devices.py budgets in).
_BRAM36_BITS = 36 * 1024

#: Value domains of the activation stream, in narrowing order.
_PIXEL8, _REAL, _BINARY = "pixel8", "real", "binary"

_VIOLATION_RULE = {"arity": "MG009", "pe": "MG007", "simd": "MG008"}


def _layer_list(model: Sequential):
    return [(name, model[name]) for name in model.layer_names]


def _kind(layer) -> str:
    return type(layer).__name__ if layer is not None else "nothing"


def verify_model(
    model: Sequential,
    folding: Optional[FoldingConfig] = None,
    name: str = "model",
) -> DiagnosticReport:
    """Verify ``model`` (and optionally a folding) without executing it.

    Returns a :class:`~repro.analysis.diagnostics.DiagnosticReport`;
    :func:`~repro.hw.compiler.compile_model` accepts the model (with
    ``folding``) exactly when it holds no error.
    """
    report = DiagnosticReport(target=name)
    layers = _layer_list(model)
    if not layers:
        report.emit("MG001", "model has no layers", path=name)
        return report
    if model.input_shape is None:
        report.emit(
            "MG001",
            "model was built without input_shape; static shape inference "
            "is impossible and compile_model would reject it",
            path=name,
            fix_hint="construct Sequential(..., input_shape=(H, W, C))",
        )

    shapes = {
        lname: (in_shape, out_shape, error)
        for lname, _, in_shape, out_shape, error in model.iter_shape_inference()
    }
    _check_structure(report, name, layers, shapes)
    if folding is not None:
        _check_folding(report, name, model, folding)
    return report


# -- structural walk ----------------------------------------------------------
def _check_structure(report, model_name, layers, shapes) -> None:
    domain = _PIXEL8
    n = len(layers)
    for i, (lname, layer) in enumerate(layers):
        prev = layers[i - 1][1] if i > 0 else None
        nxt = layers[i + 1][1] if i + 1 < n else None
        in_shape, out_shape, error = shapes.get(lname, (None, None, None))
        is_last = i == n - 1

        if isinstance(layer, Conv2D):
            _check_conv(report, model_name, lname, layer, layers, i, domain)
            domain = _REAL
        elif isinstance(layer, Dense):
            _check_dense(
                report, model_name, lname, layer, nxt, layers, i,
                in_shape, domain,
            )
            domain = _REAL
        elif isinstance(layer, BatchNorm):
            if isinstance(prev, BatchNorm):
                report.emit(
                    "MG010",
                    f"{lname}: BatchNorm directly follows BatchNorm "
                    f"{layers[i - 1][0]!r}; the pair folds into one affine",
                    path=model_name, symbol=lname,
                    fix_hint="remove one of the two batch-norm layers",
                )
            if not (isinstance(prev, (Conv2D, Dense))
                    and isinstance(nxt, SignActivation)):
                report.emit(
                    "MG015",
                    f"{lname}: BatchNorm sits between {_kind(prev)} and "
                    f"{_kind(nxt)}, not between a Conv2D/Dense and its "
                    f"SignActivation — it cannot fold into thresholds "
                    f"(§III-A)",
                    path=model_name, symbol=lname,
                    fix_hint="keep batch-norm only inside Conv/Dense -> "
                             "BatchNorm -> SignActivation blocks",
                )
            domain = _REAL
        elif isinstance(layer, SignActivation):
            if not isinstance(prev, BatchNorm):
                report.emit(
                    "MG002",
                    f"{lname}: sign binarisation is preceded by "
                    f"{_kind(prev)}, not BatchNorm — thresholds cannot "
                    f"fold (§III-A)",
                    path=model_name, symbol=lname,
                    fix_hint="order each block Conv/Dense -> BatchNorm -> "
                             "SignActivation",
                )
            if domain == _BINARY:
                report.emit(
                    "MG010",
                    f"{lname}: sign of an already-binary stream is the "
                    f"identity (dead layer)",
                    path=model_name, symbol=lname,
                    fix_hint="delete the redundant SignActivation",
                )
            domain = _BINARY
        elif isinstance(layer, MaxPool2D):
            if not isinstance(prev, SignActivation):
                report.emit(
                    "MG003",
                    f"{lname}: max-pool follows {_kind(prev)} on a "
                    f"{domain} stream; the hardware OR-pools a conv "
                    f"block's sign output inside that block (§III-B)",
                    path=model_name, symbol=lname,
                    fix_hint="move MaxPool2D directly after the conv "
                             "block's SignActivation",
                )
            if in_shape is not None and len(in_shape) == 3 and any(
                d % p for d, p in zip(in_shape[:2], layer.pool_size)
            ):
                report.emit(
                    "MG013",
                    f"{lname}: pool {layer.pool_size} does not tile the "
                    f"{in_shape[:2]} map; the hardware pool unit takes "
                    f"whole windows only",
                    path=model_name, symbol=lname,
                    fix_hint="choose conv/pool sizes so every pooled "
                             "map's sides are multiples of the pool size",
                )
        elif isinstance(layer, Flatten):
            if isinstance(prev, Flatten):
                report.emit(
                    "MG010",
                    f"{lname}: consecutive Flatten layers; the second is "
                    f"the identity",
                    path=model_name, symbol=lname,
                    fix_hint="delete the redundant Flatten",
                )
        else:
            report.emit(
                "MG014",
                f"{lname}: {type(layer).__name__} is not part of the "
                f"deployable grammar",
                path=model_name, symbol=lname,
                fix_hint="deployable layers: (Binary)Conv2D, BatchNorm, "
                         "SignActivation, MaxPool2D, Flatten, BinaryDense",
            )

        if error is not None and not (
            isinstance(layer, Dense) and in_shape is not None
            and len(in_shape) != 1
        ):
            # Dense-on-non-flat input is reported as MG006 (below);
            # everything else is a plain shape-contract failure.
            report.emit(
                "MG001",
                f"{lname}: static shape inference failed on input "
                f"{in_shape}: {error}",
                path=model_name, symbol=lname,
            )

        if is_last and not isinstance(layer, Dense):
            report.emit(
                "MG005",
                f"model ends with {lname} ({type(layer).__name__}); the "
                f"final layer must be a bare BinaryDense logits layer",
                path=model_name, symbol=lname,
                fix_hint="finish with BinaryDense(..., num_classes) and no "
                         "trailing BatchNorm/SignActivation",
            )


def _check_conv(report, model_name, lname, layer, layers, i, domain) -> None:
    n = len(layers)
    nxt = layers[i + 1][1] if i + 1 < n else None
    nxt2 = layers[i + 2][1] if i + 2 < n else None
    if not (isinstance(nxt, BatchNorm) and isinstance(nxt2, SignActivation)):
        report.emit(
            "MG004",
            f"{lname}: conv must be followed by BatchNorm -> "
            f"SignActivation to be threshold-foldable, found "
            f"{_kind(nxt)} -> {_kind(nxt2)}",
            path=model_name, symbol=lname,
            fix_hint="order each conv block Conv -> BatchNorm -> "
                     "SignActivation [-> MaxPool2D]",
        )
    if layer.stride != (1, 1) or layer.padding != (0, 0):
        report.emit(
            "MG013",
            f"{lname}: stride={layer.stride}, padding={layer.padding}; "
            f"the hardware SWU supports stride 1 and no padding only",
            path=model_name, symbol=lname,
            fix_hint="use kernel 3x3, stride 1, valid padding (the FINN "
                     "CNV geometry)",
        )
    if domain == _REAL:
        report.emit(
            "MG011",
            f"{lname}: conv consumes a non-binarised (real) stream; the "
            f"binary datapath would silently narrow it to 1 bit",
            path=model_name, symbol=lname,
            fix_hint="binarise with BatchNorm -> SignActivation before "
                     "this layer",
        )


def _check_dense(
    report, model_name, lname, layer, nxt, layers, i, in_shape, domain
) -> None:
    n = len(layers)
    is_last = i == n - 1
    if in_shape is not None and len(in_shape) != 1:
        report.emit(
            "MG006",
            f"{lname}: dense layer reached with non-flat shape {in_shape}",
            path=model_name, symbol=lname,
            fix_hint="insert a Flatten layer between the conv stack and "
                     "the first dense layer",
        )
    if isinstance(nxt, BatchNorm):
        nxt2 = layers[i + 2][1] if i + 2 < n else None
        if not isinstance(nxt2, SignActivation):
            report.emit(
                "MG005",
                f"{lname}: dense layer with BatchNorm must be followed by "
                f"SignActivation, found {_kind(nxt2)}",
                path=model_name, symbol=lname,
                fix_hint="order each FC block Dense -> BatchNorm -> "
                         "SignActivation",
            )
        if not isinstance(layer, BinaryDense):
            report.emit(
                "MG005",
                f"{lname}: hardware FC layers must be BinaryDense, got "
                f"{type(layer).__name__}",
                path=model_name, symbol=lname,
                fix_hint="replace with BinaryDense (same dims)",
            )
    elif is_last:
        if not isinstance(layer, BinaryDense):
            report.emit(
                "MG005",
                f"{lname}: the logits layer must be BinaryDense, got "
                f"{type(layer).__name__}",
                path=model_name, symbol=lname,
                fix_hint="replace with BinaryDense (same dims)",
            )
        elif isinstance(layer, XnorDense):
            report.emit(
                "MG005",
                f"{lname}: XNOR-Net scales on the logits layer would need "
                f"real multipliers in hardware",
                path=model_name, symbol=lname,
                fix_hint="use plain BinaryDense for the final layer",
            )
    else:
        report.emit(
            "MG005",
            f"{lname}: dense layer is neither thresholded nor final: "
            f"no BatchNorm -> sign follows it and it is not the logits "
            f"layer",
            path=model_name, symbol=lname,
            fix_hint="add BatchNorm -> SignActivation after it, or make "
                     "it the last layer",
        )
    if domain not in (_BINARY, _PIXEL8):
        report.emit(
            "MG011",
            f"{lname}: dense layer consumes a non-binarised ({domain}) "
            f"stream; the binary datapath would silently narrow it",
            path=model_name, symbol=lname,
            fix_hint="binarise with BatchNorm -> SignActivation before "
                     "this layer",
        )


# -- folding + resource envelope ----------------------------------------------
def _check_folding(report, model_name, model, folding) -> None:
    geometry = mvtu_geometry(model)
    for mvtu_name, check, message in folding_violations(
        folding.pe, folding.simd, geometry
    ):
        hint = ""
        if check == "pe":
            geom = next(g for g in geometry if g.name == mvtu_name)
            hint = f"valid PE values divide {geom.rows}"
        elif check == "simd":
            geom = next(g for g in geometry if g.name == mvtu_name)
            hint = f"valid SIMD values divide {geom.cols}"
        else:
            hint = (
                f"supply one (PE, SIMD) pair per MVTU: "
                f"{[g.name for g in geometry]}"
            )
        report.emit(
            _VIOLATION_RULE[check], message,
            path=model_name, symbol=mvtu_name or "folding", fix_hint=hint,
        )

    weight_bits = sum(g.rows * g.cols for g in geometry)
    envelopes = {
        dev.name: int(dev.bram36 * _BRAM36_BITS) for dev in DEVICES.values()
    }
    if envelopes and weight_bits > max(envelopes.values()):
        biggest = max(envelopes, key=envelopes.get)
        report.emit(
            "MG012",
            f"{weight_bits:,} weight bits exceed every catalog device's "
            f"BRAM envelope (largest: {biggest} at "
            f"{max(envelopes.values()):,} bits)",
            path=model_name, symbol="resources",
            fix_hint="shrink channel widths (n-CNV/µ-CNV-style) or extend "
                     "hw/devices.py with a larger part",
        )
