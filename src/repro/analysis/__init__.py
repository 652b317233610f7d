"""Static analysis for the BinaryCoP codebase (``repro lint`` /
``repro verify-model`` / ``repro lockgraph``).

Four engines over one structured-diagnostic core
(:mod:`~repro.analysis.diagnostics`):

* the **model-graph verifier** (:func:`verify_model`) — symbolic
  shape/dtype inference over a :class:`~repro.nn.Sequential` plus the
  BNN/FINN structural rules (BN-before-sign, sign-before-pool,
  threshold-fold legality, PE/SIMD folding divisibility, dead-layer and
  dtype-narrowing detection). It is the front end of
  :func:`repro.hw.compiler.compile_model`, which refuses any model it
  reports an error for;
* the **AST lint pass** — per-file stdlib-``ast`` rules for lock
  discipline, global numpy RNG use, in-place ops on views, bare excepts
  and mutable defaults;
* the **concurrency pass** (:func:`analyze_concurrency`, CC001–CC005) —
  whole-program lock resolution + call graph: lock-order cycles,
  blocking under a mutex, unguarded shared-state writes;
* the **aliasing pass** (:func:`analyze_aliasing`, AL001–AL003) —
  arena-view taint through the allocation-free fast path: overlapping
  ``out=``, escaping views, use-after-reset.

:func:`lint_paths` drives the last three (selectable via ``passes=``)
with a justified suppression baseline (:class:`Baseline`,
``.repro-lint-baseline``).
"""

import importlib

#: Public name -> the submodule defining it. Loaded on first use, so the
#: compiler's front end (:mod:`.graph`) does not pull in the lint passes.
_EXPORTS = {
    "analyze_aliasing": "aliasing",
    **dict.fromkeys(
        ["BASELINE_FILENAME", "Baseline", "BaselineEntry", "find_baseline"],
        "baseline",
    ),
    "ProjectIndex": "callgraph",
    **dict.fromkeys(
        ["LockOrderGraph", "analyze_concurrency", "build_lock_graph"],
        "concurrency",
    ),
    **dict.fromkeys(
        ["RULES", "Diagnostic", "DiagnosticReport", "Rule", "Severity",
         "rules_table"],
        "diagnostics",
    ),
    "verify_model": "graph",
    **dict.fromkeys(
        ["PASSES", "collect_sources", "lint_file", "lint_paths",
         "prune_baseline"],
        "lint",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
