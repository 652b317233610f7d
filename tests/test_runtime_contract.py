"""Cross-engine bit-exactness contract.

Every registered engine must reproduce the interpreted reference
datapath exactly — logits for every Table I prototype under both input
dtypes, from batch 1 up, and ``return_bits`` traces where the engine
supports them —
both with seeded random batch-norm statistics and with flipped and
constant channels. The planned engine is also held to it on batches it
shards over the cores, even and uneven.
This is the contract the capability flag ``bit_exact`` declares; a new
engine registered without passing this file is a registry bug. Every
engine also answers each input outside the accelerator's
``InputContract`` (wrong rank, shape or dtype, non-finite or
out-of-range pixels) with the contract's own ``ValueError`` instead of
plausible-looking logits, and an empty batch with ``(0, classes)``.

The process engine rides in the ``parallel`` marker (CI runs it in the
dedicated multi-core job); the in-process engines run in tier 1.
"""

import numpy as np
import pytest

from repro.core.architectures import build_architecture, table1_folding
from repro.hw.compiler import compile_model
from repro.runtime import ExecutionConfig, create_engine, engine_names, shards
from repro.testing import randomize_bn_stats

PROTOTYPES = ("cnv", "n-cnv", "u-cnv")
#: Every prototype again with γ < 0 on about half the batch-norm
#: channels and γ = 0 on some: flipped (``acc <= t``) and constant
#: channels, which ``randomize_bn_stats`` (γ ∈ [0.5, 1.5]) never draws.
MODELS = PROTOTYPES + tuple(f"{arch}-flipped" for arch in PROTOTYPES)

#: Configs that resolve each registered engine, with enough workers /
#: buckets for the toy batches below. Kept in sync with the registry by
#: ``test_every_registered_engine_is_covered``.
ENGINE_CONFIGS = {
    "interpreted": ExecutionConfig(use_plan=False),
    "planned-blas": ExecutionConfig(),
    "process": ExecutionConfig(
        isolation="process", workers=1, bucket_sizes=(4,), max_batch=4
    ),
}
IN_PROCESS = tuple(n for n in ENGINE_CONFIGS if n != "process")
ALL_ENGINES = tuple(
    pytest.param(n, marks=pytest.mark.parallel) if n == "process" else n
    for n in ENGINE_CONFIGS
)


def build_accelerator(name: str):
    arch = name.removesuffix("-flipped")
    model = build_architecture(arch, rng=0)
    randomize_bn_stats(model)
    if name != arch:
        gen = np.random.default_rng(2)
        for layer in model.layers:
            if hasattr(layer, "running_mean"):
                gamma = layer.gamma.data
                gamma[gen.random(gamma.size) < 0.5] *= -1
                gamma[gen.random(gamma.size) < 0.1] = 0
    model.eval()
    return compile_model(model, table1_folding(arch), name=name)


@pytest.fixture(scope="module")
def accelerators():
    return {name: build_accelerator(name) for name in MODELS}


def seed_batch(dtype, n=4):
    rng = np.random.default_rng(1234)
    images = rng.random((n, 32, 32, 3)).astype(np.float32)
    if dtype == "uint8":
        return (images * 255).astype(np.uint8)
    return images


def reference_logits(accelerator, images, return_bits=False):
    engine = create_engine(accelerator, ENGINE_CONFIGS["interpreted"])
    return engine.run(images, return_bits=return_bits)


#: (engine, dtype, batch, cores) cases of the logits contract: the seed
#: batch on every in-process engine; the planned engine unsharded at
#: batch 1 and 2 and at 7, whose last window chunk is ragged (conv1_1
#: copies 4 images per chunk); then batches it shards — 16
#: evenly, 17 and 33 unevenly — with the host's core count pinned to 2
#: and to 3 so the runner's CPUs do not decide whether the sharded path
#: runs.
LOGIT_CASES = [
    pytest.param(engine, dtype, 4, None, id=f"{engine}-{dtype}")
    for engine in IN_PROCESS
    for dtype in ("f32", "uint8")
] + [
    pytest.param(
        "planned-blas", dtype, n, None, id=f"planned-blas-{dtype}-n{n}"
    )
    for dtype in ("f32", "uint8")
    for n in (1, 2, 7)
] + [
    pytest.param(
        "planned-blas", dtype, n, cores,
        id=f"planned-blas-{dtype}-n{n}-cores{cores}",
    )
    for dtype in ("f32", "uint8")
    for n in (16, 17, 33)
    for cores in (2, 3)
]


def test_every_registered_engine_is_covered():
    assert set(engine_names()) == set(ENGINE_CONFIGS)


@pytest.mark.parametrize("arch", PROTOTYPES)
def test_flipped_models_have_flipped_and_constant_channels(accelerators, arch):
    for name, want in ((arch, False), (f"{arch}-flipped", True)):
        stages = accelerators[name].stages[:-1]
        flipped = sum(int(s.mvtu.thresholds.flipped.sum()) for s in stages)
        # Constant channels fold to thresholds at the range's edges.
        constant = sum(
            int(np.isin(
                s.mvtu.thresholds.thresholds,
                (s.mvtu.thresholds.acc_min, s.mvtu.thresholds.acc_max + 1),
            ).sum())
            for s in stages
        )
        assert (flipped > 0, constant > 0) == (want, want), name


@pytest.fixture(scope="module")
def golden_logits(accelerators):
    """Interpreted logits per (model, dtype, batch), computed once."""
    cache = {}

    def get(arch, dtype, n):
        key = (arch, dtype, n)
        if key not in cache:
            cache[key] = reference_logits(
                accelerators[arch], seed_batch(dtype, n)
            )
        return cache[key]

    return get


@pytest.mark.parametrize("engine_name, dtype, n, cores", LOGIT_CASES)
@pytest.mark.parametrize("arch", MODELS)
def test_engine_matches_interpreted_logits(
    accelerators, golden_logits, monkeypatch, arch, engine_name, dtype, n,
    cores,
):
    if cores is not None:
        monkeypatch.setattr(shards, "host_cores", lambda: cores)
        assert shards.shard_count(n) == min(cores, n // shards.MIN_SHARD) > 1
    acc = accelerators[arch]
    images = seed_batch(dtype, n)
    engine = create_engine(acc, ENGINE_CONFIGS[engine_name])
    assert engine.name == engine_name
    np.testing.assert_array_equal(
        engine.run(images), golden_logits(arch, dtype, n)
    )


@pytest.mark.parametrize("engine_name", ["planned-blas"])
@pytest.mark.parametrize("arch", MODELS)
def test_planned_return_bits_match_interpreted(accelerators, arch, engine_name):
    check_return_bits(accelerators[arch], seed_batch("f32"), engine_name)


@pytest.mark.parametrize("arch", MODELS)
def test_planned_return_bits_match_interpreted_at_batch_1(accelerators, arch):
    check_return_bits(accelerators[arch], seed_batch("f32", 1), "planned-blas")


def check_return_bits(acc, images, engine_name):
    golden_logits, golden_bits = reference_logits(acc, images, return_bits=True)
    engine = create_engine(acc, ENGINE_CONFIGS[engine_name])
    logits, bits = engine.run(images, return_bits=True)
    np.testing.assert_array_equal(logits, golden_logits)
    assert len(bits) == len(golden_bits)
    for got, ref in zip(bits, golden_bits):
        np.testing.assert_array_equal(got, ref)


def invalid_batches():
    """(case, batch, reason fragment) for each way to break the contract."""
    f32 = seed_batch("f32")
    ints = seed_batch("uint8").astype(np.int64)

    def poke(images, value):
        images = images.copy()
        images[1, 5, 7, 2] = value
        return images

    yield "rank 2", f32[0, :, :, 0], "must be one"
    yield "rank 5", f32[None], "must be one"
    yield "shape", f32[:, :16], "does not match"
    for value in (np.nan, np.inf, -np.inf):
        yield str(value), poke(f32, value), "finite"
    for value in (-0.01, 1.01):
        yield str(value), poke(f32, value), r"float input must be in \[0, 1\]"
    for value in (256, -1):
        yield str(value), poke(ints, value), r"integer input must be in \[0, 255\]"
    yield "bool", f32 > 0.5, "neither integer nor real float"
    yield "complex64", f32.astype(np.complex64), "neither integer nor real float"


def close_engine(engine):
    close = getattr(engine, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_engine_rejects_invalid_input(accelerators, engine_name):
    acc = accelerators["u-cnv"]
    engine = create_engine(acc, ENGINE_CONFIGS[engine_name])
    try:
        for case, images, fragment in invalid_batches():
            with pytest.raises(ValueError, match=fragment) as contract:
                acc.input_contract.check(images)
            with pytest.raises(ValueError) as got:
                engine.run(images)
            assert str(got.value) == str(contract.value), case
        # Nothing invalid reached the datapath: a good batch still runs.
        images = seed_batch("f32")
        np.testing.assert_array_equal(
            engine.run(images), reference_logits(acc, images)
        )
    finally:
        close_engine(engine)


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_engine_answers_empty_batch(accelerators, engine_name):
    acc = accelerators["u-cnv"]
    engine = create_engine(acc, ENGINE_CONFIGS[engine_name])
    try:
        for dtype in (np.float32, np.uint8):
            empty = np.zeros((0,) + acc.input_shape, dtype)
            logits = engine.run(empty)
            assert logits.shape == (0, acc.num_classes)
            assert logits.dtype == np.int64
            logits, bits = engine.run(empty, return_bits=True)
            assert logits.shape == (0, acc.num_classes) and bits == []
    finally:
        close_engine(engine)


@pytest.mark.parallel
@pytest.mark.parametrize("arch", MODELS)
def test_process_engine_matches_interpreted(arch):
    acc = build_accelerator(arch)
    engine = create_engine(acc, ENGINE_CONFIGS["process"])
    try:
        for dtype in ("f32", "uint8"):
            images = seed_batch(dtype)
            golden = reference_logits(acc, images)
            np.testing.assert_array_equal(engine.run(images), golden)
        images = seed_batch("f32")
        golden_logits, golden_bits = reference_logits(
            acc, images, return_bits=True
        )
        logits, bits = engine.run(images, return_bits=True)
        np.testing.assert_array_equal(logits, golden_logits)
        assert len(bits) == len(golden_bits)
        for got, ref in zip(bits, golden_bits):
            np.testing.assert_array_equal(got, ref)
    finally:
        engine.close()
        acc.close_pool()
