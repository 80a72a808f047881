"""Toolchain for GSN-style assurance cases with separated technological and
clinical arguments: DSL parsing, well-formedness and separation rules,
cross-case link resolution, inlining, change-impact analysis, and rendering.

`import actool` loads no submodule: each public name imports the submodule
that defines it on first access (PEP 562), so a caller pays only for what it
uses.
"""

import importlib

# The public names, grouped by the submodule that defines them.
_EXPORTS = {
    "analyze": ("BundleMetrics", "CaseMetrics", "ImpactReport", "bundle_metrics", "case_metrics", "impact"),
    "diagnostics": ("Diagnostic", "Severity", "has_errors", "sorted_diagnostics"),
    "link": ("ResolvedBundle", "inline_bundle", "resolve_links"),
    "model": (
        "AssuranceCase", "Bundle", "Capability", "CaseKind", "ConcernKind", "Direction", "Edge", "EdgeKind",
        "Element", "ElementKind", "SourceSpan", "UnknownElementError", "format_decimal", "supported_by_cycle",
    ),
    "parser": ("ParseResult", "parse_bundle", "parse_case", "print_case"),
    "render": ("report_json", "to_dot"),
    "units": ("BUILTIN_UNITS", "UnitDef", "UnitError", "UnitTable", "parse_units_file"),
    "validate": (
        "MatchResult", "MatchStatus", "bundle_match_results", "match_capabilities", "validate_bundle", "validate_case",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
