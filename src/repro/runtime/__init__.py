"""The runtime layer: one config, one registry, three engines.

Usage::

    from repro.runtime import ExecutionConfig

    acc = classifier.deploy()
    labels = acc.predict(images, execution=ExecutionConfig())          # planned
    labels = acc.predict(images, execution=ExecutionConfig(
        isolation="process", workers=4))                               # pool

See :mod:`repro.runtime.config` for the knobs,
:mod:`repro.runtime.registry` for the config → engine resolution rules,
and :mod:`repro.runtime.engines` for the built-in engines.
"""

from repro.runtime.config import ExecutionConfig
from repro.runtime.registry import (
    EngineCapabilities,
    EngineSpec,
    create_engine,
    engine_names,
    engine_spec,
    engine_table,
    register_engine,
    resolve_engine_name,
)

__all__ = [
    "ExecutionConfig",
    "EngineCapabilities",
    "EngineSpec",
    "create_engine",
    "engine_names",
    "engine_spec",
    "engine_table",
    "register_engine",
    "resolve_engine_name",
    "Engine",
]


def __getattr__(name):
    # The Engine protocol lives with the engine implementations, which
    # import the hw layer — resolve it lazily so ``repro.runtime`` stays
    # importable from anywhere in the stack without cycles.
    if name == "Engine":
        from repro.runtime.engines import Engine

        return Engine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
