"""Structured diagnostics shared by both analysis engines.

Every finding — whether from the model-graph verifier or the AST lint
pass — is a :class:`Diagnostic`: a rule id from the central
:data:`RULES` catalog, a severity, a location (file/line for lint,
model/layer for graph checks), a human message and a machine-actionable
fix hint. A :class:`DiagnosticReport` aggregates findings for one
target, applies suppressions and renders the CLI output, so `repro
lint` and `repro verify-model` print and exit identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Severity",
    "Rule",
    "RULES",
    "Diagnostic",
    "DiagnosticReport",
    "rules_table",
]


class Severity(enum.Enum):
    """How bad a finding is; ordering is meaningful (ERROR > WARNING)."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return ("info", "warning", "error").index(self.value)

    def __str__(self) -> str:  # pragma: no cover - display sugar
        return self.value


@dataclass(frozen=True)
class Rule:
    """One entry of the analyzer rule catalog."""

    rule_id: str
    engine: str  # "graph" or "lint"
    severity: Severity
    title: str
    rationale: str


#: The complete rule catalog. Rule ids are stable API: they appear in
#: reports, suppression files and tests.
RULES: Dict[str, Rule] = {
    r.rule_id: r
    for r in (
        # -- model-graph verifier ------------------------------------------
        Rule("MG001", "graph", Severity.ERROR, "shape-inference-failure",
             "static shape/dtype propagation failed at a layer boundary"),
        Rule("MG002", "graph", Severity.ERROR, "bn-before-sign",
             "sign binarisation must be immediately preceded by BatchNorm "
             "so thresholds fold (§III-A)"),
        Rule("MG003", "graph", Severity.ERROR, "sign-before-maxpool",
             "max-pool must directly follow a conv block's sign so "
             "hardware can pool its binary maps with boolean OR (§III-B)"),
        Rule("MG004", "graph", Severity.ERROR, "conv-grammar",
             "conv layers must be followed by BatchNorm -> SignActivation "
             "to be threshold-foldable"),
        Rule("MG005", "graph", Severity.ERROR, "dense-grammar",
             "dense layers must be thresholded (BatchNorm -> sign) or the "
             "final BinaryDense logits layer"),
        Rule("MG006", "graph", Severity.ERROR, "missing-flatten",
             "a dense stage was reached with a non-flat activation shape"),
        Rule("MG007", "graph", Severity.ERROR, "pe-divisibility",
             "PE must divide the MVTU's output rows (channels/features), "
             "or synthesis would leave lanes idle (FINN folding)"),
        Rule("MG008", "graph", Severity.ERROR, "simd-divisibility",
             "SIMD must divide the MVTU's fan-in (cols)"),
        Rule("MG009", "graph", Severity.ERROR, "folding-arity",
             "the folding config must supply exactly one (PE, SIMD) pair "
             "per MVTU"),
        Rule("MG010", "graph", Severity.WARNING, "dead-layer",
             "layer is an identity on its inferred input domain "
             "(e.g. sign of an already-binary stream)"),
        Rule("MG011", "graph", Severity.WARNING, "dtype-narrowing",
             "a binary matrix engine consumes a non-binarised operand; "
             "deployment would silently narrow it to 1 bit"),
        Rule("MG012", "graph", Severity.WARNING, "resource-envelope",
             "on-chip weight storage exceeds every catalog device's BRAM "
             "envelope (hw/devices.py)"),
        Rule("MG013", "graph", Severity.ERROR, "conv-geometry",
             "hardware conv supports stride 1 and no padding only, and "
             "its max-pool whole windows only"),
        Rule("MG014", "graph", Severity.ERROR, "alien-layer",
             "layer type is not part of the deployable grammar"),
        Rule("MG015", "graph", Severity.ERROR, "stray-batchnorm",
             "batch-norm must sit between a Conv2D/Dense and its "
             "SignActivation, or it cannot fold into thresholds (§III-A)"),
        # -- AST lint -------------------------------------------------------
        Rule("LK001", "lint", Severity.WARNING, "lock-discipline",
             "attribute written under a lock in one method but accessed "
             "lock-free in another"),
        Rule("NP001", "lint", Severity.WARNING, "global-np-random",
             "legacy global numpy RNG breaks seed plumbing; use "
             "repro.utils.rng"),
        Rule("NP002", "lint", Severity.WARNING, "inplace-on-view",
             "in-place numpy op on a variable bound to a potential view "
             "mutates the base array"),
        Rule("PY001", "lint", Severity.WARNING, "bare-except",
             "bare except swallows KeyboardInterrupt/SystemExit"),
        Rule("PY002", "lint", Severity.WARNING, "mutable-default",
             "mutable default argument is shared across calls"),
        # -- interprocedural concurrency analysis -----------------------------
        Rule("CC001", "concurrency", Severity.ERROR, "lock-order-cycle",
             "the global lock-acquisition-order graph has a cycle; two "
             "threads interleaving those paths deadlock"),
        Rule("CC002", "concurrency", Severity.WARNING, "blocking-under-lock",
             "a mutex is held around a call that can block indefinitely "
             "(Event.wait, queue.get, a may-block callee)"),
        Rule("CC003", "concurrency", Severity.WARNING, "unguarded-shared-write",
             "an attribute guarded elsewhere is written lock-free from "
             "code reachable from a thread entry point"),
        Rule("CC004", "concurrency", Severity.WARNING, "inconsistent-guard",
             "the same attribute is guarded by different locks in "
             "different methods, so no lock actually protects it"),
        Rule("CC005", "concurrency", Severity.WARNING, "function-local-lock",
             "a lock created as a function local is born unshared and "
             "excludes nothing"),
        # -- arena aliasing analysis ------------------------------------------
        Rule("AL001", "aliasing", Severity.ERROR, "overlapping-out",
             "the same buffer is an input and the out= target of a "
             "non-elementwise op; the result is undefined"),
        Rule("AL002", "aliasing", Severity.WARNING, "arena-view-escape",
             "an arena-backed view escapes its step scope (stored on "
             "self or returned); the arena will recycle it"),
        Rule("AL003", "aliasing", Severity.WARNING, "use-after-arena-reset",
             "an arena-backed view is read after the arena was reset"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, printable and suppressible.

    ``path`` is a source file for lint findings and a model name for
    graph findings; ``symbol`` is the qualified anchor used by the
    suppression baseline (``Class.attr``, ``function``, or a layer
    name).
    """

    rule_id: str
    message: str
    path: str = ""
    line: Optional[int] = None
    symbol: str = ""
    fix_hint: str = ""
    severity: Optional[Severity] = None

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise ValueError(f"unknown rule id {self.rule_id!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", RULES[self.rule_id].severity)

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    @property
    def location(self) -> str:
        loc = self.path
        if self.line is not None:
            loc += f":{self.line}"
        if self.symbol:
            loc += f" ({self.symbol})" if loc else self.symbol
        return loc

    def render(self) -> str:
        out = f"{self.location}: {self.severity} {self.rule_id}: {self.message}"
        if self.fix_hint:
            out += f"\n    hint: {self.fix_hint}"
        return out


class DiagnosticReport:
    """Findings for one analysis target, plus the suppressed remainder."""

    def __init__(self, target: str = "") -> None:
        self.target = target
        self.diagnostics: List[Diagnostic] = []
        self.suppressed: List[Tuple[Diagnostic, str]] = []  # (diag, why)
        #: baseline entries that matched nothing (set by the lint driver).
        self.stale_entries: list = []
        #: the Baseline the driver applied, for --prune-baseline.
        self.baseline = None

    # -- collection ----------------------------------------------------------
    def add(self, diag: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diag)
        return diag

    def emit(self, rule_id: str, message: str, **kwargs) -> Diagnostic:
        """Shorthand: build and add a :class:`Diagnostic`."""
        return self.add(Diagnostic(rule_id, message, **kwargs))

    def suppress(self, diag: Diagnostic, justification: str) -> None:
        self.diagnostics.remove(diag)
        self.suppressed.append((diag, justification))

    def extend(self, other: "DiagnosticReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.suppressed.extend(other.suppressed)

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    @property
    def rule_ids(self) -> List[str]:
        return [d.rule_id for d in self.diagnostics]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def clean(self, fail_on: Severity = Severity.WARNING) -> bool:
        """True when no finding at or above ``fail_on`` severity remains."""
        return not any(d.severity.rank >= fail_on.rank for d in self.diagnostics)

    def exit_code(self, fail_on: Severity = Severity.WARNING) -> int:
        return 0 if self.clean(fail_on) else 1

    # -- machine-readable output ---------------------------------------------
    def to_dict(self) -> dict:
        """Stable JSON-ready structure (``repro lint --format json``)."""

        def one(diag: Diagnostic) -> dict:
            return {
                "rule_id": diag.rule_id,
                "severity": str(diag.severity),
                "message": diag.message,
                "path": diag.path,
                "line": diag.line,
                "symbol": diag.symbol,
                "fix_hint": diag.fix_hint,
            }

        return {
            "target": self.target,
            "diagnostics": [one(d) for d in self.diagnostics],
            "suppressed": [
                {**one(d), "justification": why}
                for d, why in self.suppressed
            ],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "suppressed": len(self.suppressed),
            },
        }

    def to_sarif(self) -> dict:
        """SARIF 2.1.0 log, one run, rule metadata from :data:`RULES`.

        Suppressed findings are included with a SARIF ``suppressions``
        entry so CI annotations show (but do not fail on) them.
        """
        used = sorted(
            {d.rule_id for d in self.diagnostics}
            | {d.rule_id for d, _ in self.suppressed}
        )
        rule_index = {rule_id: i for i, rule_id in enumerate(used)}
        sarif_level = {"error": "error", "warning": "warning", "info": "note"}

        def result(diag: Diagnostic, justification: Optional[str]) -> dict:
            out = {
                "ruleId": diag.rule_id,
                "ruleIndex": rule_index[diag.rule_id],
                "level": sarif_level[str(diag.severity)],
                "message": {"text": diag.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": diag.path},
                            "region": {"startLine": diag.line or 1},
                        },
                        **(
                            {
                                "logicalLocations": [
                                    {"fullyQualifiedName": diag.symbol}
                                ]
                            }
                            if diag.symbol
                            else {}
                        ),
                    }
                ],
            }
            if justification is not None:
                out["suppressions"] = [
                    {
                        "kind": "external",
                        "justification": justification,
                    }
                ]
            return out

        return {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "informationUri": (
                                "https://github.com/binarycop/repro"
                            ),
                            "rules": [
                                {
                                    "id": rule_id,
                                    "name": RULES[rule_id].title,
                                    "shortDescription": {
                                        "text": RULES[rule_id].title
                                    },
                                    "fullDescription": {
                                        "text": RULES[rule_id].rationale
                                    },
                                    "defaultConfiguration": {
                                        "level": sarif_level[
                                            str(RULES[rule_id].severity)
                                        ]
                                    },
                                }
                                for rule_id in used
                            ],
                        }
                    },
                    "results": [
                        *(result(d, None) for d in self.diagnostics),
                        *(result(d, why) for d, why in self.suppressed),
                    ],
                }
            ],
        }

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        lines = []
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.path, d.line or 0, d.rule_id),
        )
        for diag in ordered:
            lines.append(diag.render())
        summary = (
            f"{self.target}: " if self.target else ""
        ) + (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
            + (f", {len(self.suppressed)} suppressed" if self.suppressed else "")
        )
        if not self.diagnostics:
            summary += " — clean"
        lines.append(summary)
        return "\n".join(lines)


def rules_table() -> str:
    """Markdown table of the rule catalog (used by docs and ``--rules``)."""
    lines = [
        "| rule | engine | severity | title |",
        "|------|--------|----------|-------|",
    ]
    for rule in RULES.values():
        lines.append(
            f"| {rule.rule_id} | {rule.engine} | {rule.severity} | "
            f"{rule.title} |"
        )
    return "\n".join(lines)
