"""Diagnostic records shared by the parser and the rule engine.

Every diagnostic carries a rule id from the catalog in RULES.md, a severity,
a source span, and the ids of the implicated elements. The one-line text
format is `<file>:<line>:<col>: <severity> <RULEID>: <message>`.
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


def sort_key(diagnostic: Diagnostic) -> tuple:
    span = diagnostic.span
    return (span.file, span.line, span.column, diagnostic.rule_id, diagnostic.message)


def sorted_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(diagnostics, key=sort_key)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
