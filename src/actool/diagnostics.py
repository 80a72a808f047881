"""Diagnostic records shared by the parser and the rule engine.

Every diagnostic carries a rule id from the catalog in RULES.md, a severity,
a source span, and the ids of the implicated elements. `RULES` gives each
rule its severity, and `finding` builds every diagnostic from it. The
one-line text format is `<file>:<line>:<col>: <severity> <RULEID>: <message>`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .model import SourceSpan


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    rule_id: str
    severity: Severity
    span: SourceSpan
    message: str
    elements: tuple[tuple[str, str], ...] = ()

    def line(self) -> str:
        return (
            f"{self.span.file}:{self.span.line}:{self.span.column}: "
            f"{self.severity.value} {self.rule_id}: {self.message}"
        )


_E, _W = Severity.ERROR, Severity.WARNING  # RULES.md's E and W
# The rule catalog of RULES.md: each rule id and its severity, in the catalog's order
RULES: dict[str, Severity] = {
    "P0": _E, "P1": _E, "P2": _E, "P3": _E, "P4": _E, "P5": _E, "P6": _E, "P7": _E,
    "G1": _E, "G2": _E, "G3": _E, "G4": _E, "G5": _E, "G6": _W, "G7": _E, "G8": _E,
    "U1": _E, "U2": _E,
    "S1": _E, "S2": _E, "S3": _E, "S4": _E, "S5": _E, "S6": _E, "S7": _W, "S8": _W,
}


def finding(rule: str, span: SourceSpan, message: str, *elements: tuple[str, str]) -> Diagnostic:
    """A diagnostic of `rule` with the rule's severity; a rule id not in `RULES` raises KeyError."""
    return Diagnostic(rule, RULES[rule], span, message, elements)


def _article(word: str) -> str:
    """`word` after its indefinite article: 'an evidence', 'a supportedBy'."""
    return f"{'an' if word[0] in 'aeiou' else 'a'} {word}"


def sort_key(diagnostic: Diagnostic) -> tuple:
    span = diagnostic.span
    return (span.file, span.line, span.column, diagnostic.rule_id, diagnostic.message)


def sorted_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(diagnostics, key=sort_key)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
