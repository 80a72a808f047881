"""The public import surface of `actool`: the names the package exports are
pinned, so that adding or removing one is a visible change, and README's
"Library" example imports only names that exist."""

import re
import types
from pathlib import Path

import actool

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "AssuranceCase",
    "BUILTIN_UNITS",
    "Bundle",
    "BundleMetrics",
    "Capability",
    "CaseKind",
    "CaseMetrics",
    "ConcernKind",
    "Diagnostic",
    "Dimension",
    "Direction",
    "Edge",
    "EdgeKind",
    "Element",
    "ElementKind",
    "ImpactReport",
    "MatchResult",
    "MatchStatus",
    "ParseResult",
    "ResolvedBundle",
    "Severity",
    "SourceSpan",
    "UnitDef",
    "UnitError",
    "UnitTable",
    "UnknownElementError",
    "bundle_match_results",
    "bundle_metrics",
    "case_metrics",
    "format_decimal",
    "has_errors",
    "impact",
    "inline_bundle",
    "match_capabilities",
    "parse_bundle",
    "parse_case",
    "parse_units_file",
    "print_case",
    "report_json",
    "resolve_links",
    "sorted_diagnostics",
    "supported_by_cycle",
    "to_dot",
    "validate_bundle",
    "validate_case",
]


def test_public_names_are_pinned():
    # submodules appear as package attributes once imported; they are not exports
    public = sorted(
        name
        for name, value in vars(actool).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_readme_library_example_imports_public_names():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert block.startswith("from actool import (")
    exec(compile(block, "README.md", "exec"), {})  # ImportError names a name actool lacks
