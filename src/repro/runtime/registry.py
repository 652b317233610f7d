"""Config → engine resolution over a table of registered engines.

Every inference path in the repo is a registered :class:`EngineSpec`:
a name, a factory, and declared capability flags. The resolution rules
(:func:`resolve_engine_name`) are the **only** place that decides which
datapath a given :class:`~repro.runtime.config.ExecutionConfig` lands
on — ``FinnAccelerator.predict``, the serving backends, the benchmark
drivers and the CLI all dispatch through here, so a future backend
(e.g. a real accelerator transport) plugs in by registering one spec.

Resolution, in order:

1. ``isolation="process"`` → ``process``.
2. ``use_plan=False`` → ``interpreted``.
3. Models the planner cannot compile (see
   :func:`~repro.hw.plan.plan_unsupported_reason`, which includes the
   float32-exactness bound) fall back to ``interpreted``.
4. Otherwise ``planned-blas``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.runtime.config import ExecutionConfig

__all__ = [
    "EngineCapabilities",
    "EngineSpec",
    "register_engine",
    "engine_names",
    "engine_spec",
    "engine_table",
    "resolve_engine_name",
    "create_engine",
]


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine guarantees, declared up front.

    * ``bit_exact`` — logits (and ``return_bits`` traces where the
      engine supports them) match the interpreted reference exactly.
    * ``zero_alloc`` — steady-state batches allocate nothing (plans
      over persistent arenas).
    * ``zero_copy_ipc`` — batches cross process boundaries through
      shared-memory slots, never pickled arrays.
    * ``process_isolated`` — compute runs outside the calling process
      (GIL-free parallelism, fault isolation).
    """

    bit_exact: bool = True
    zero_alloc: bool = False
    zero_copy_ipc: bool = False
    process_isolated: bool = False

    def as_dict(self) -> Dict[str, bool]:
        return {
            "bit_exact": self.bit_exact,
            "zero_alloc": self.zero_alloc,
            "zero_copy_ipc": self.zero_copy_ipc,
            "process_isolated": self.process_isolated,
        }


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: identity, construction, guarantees."""

    name: str
    factory: Callable  # (accelerator, config) -> Engine
    capabilities: EngineCapabilities
    summary: str


_REGISTRY: "Dict[str, EngineSpec]" = {}


def register_engine(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Add an engine to the registry (``replace`` to re-register)."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"engine {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def engine_spec(name: str) -> EngineSpec:
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def engine_table() -> list:
    """JSON-ready rows (name, capabilities, summary) for every engine."""
    _ensure_builtins()
    return [
        {
            "name": spec.name,
            "capabilities": spec.capabilities.as_dict(),
            "summary": spec.summary,
        }
        for spec in _REGISTRY.values()
    ]


def resolve_engine_name(
    config: ExecutionConfig, accelerator=None
) -> str:
    """The engine a config lands on (see module docstring for rules)."""
    _ensure_builtins()
    if config.isolation == "process":
        return "process"
    if not config.use_plan:
        return "interpreted"
    if accelerator is not None:
        from repro.hw.plan import plan_unsupported_reason

        if plan_unsupported_reason(accelerator) is not None:
            return "interpreted"
    return "planned-blas"


def create_engine(accelerator, config: ExecutionConfig, **kwargs):
    """Resolve ``config`` and build a prepared engine bound to
    ``accelerator``. Extra kwargs go to the factory (e.g. the serving
    layer's ``pool=`` injection seam for the process engine)."""
    name = resolve_engine_name(config, accelerator)
    engine = engine_spec(name).factory(accelerator, config, **kwargs)
    return engine.prepare()


def _ensure_builtins() -> None:
    # Built-in engines live in repro.runtime.engines; importing the
    # module registers them. Deferred to call time so config/registry
    # stay importable without the hw layer.
    if not _REGISTRY:
        import repro.runtime.engines  # noqa: F401
