"""The public import surface of `actool`: the names the package exports are
pinned, so that adding or removing one is a visible change, and README's
"Library" example imports only names that exist."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    # The package resolves its names on first access, so `vars(actool)` holds
    # only those already used; `__all__` and `dir()` list every one.
    assert sorted(actool.__all__) == PUBLIC_NAMES
    public = sorted(
        name
        for name in dir(actool)
        if not name.startswith("_") and not isinstance(getattr(actool, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_public_names_are_the_submodules_objects():
    # `__module__` names the defining submodule (for BUILTIN_UNITS, its class's)
    for name in PUBLIC_NAMES:
        value = getattr(actool, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        actool.no_such_name


def test_import_actool_loads_no_submodule():
    script = "import sys; import actool; print(sorted(m for m in sys.modules if m.startswith('actool.')))"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(README.parent / "src")),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_readme_library_example_imports_public_names():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert block.startswith("from actool import (")
    exec(compile(block, "README.md", "exec"), {})  # ImportError names a name actool lacks


def test_the_library_imports_only_the_standard_library():
    # README's "no dependencies outside the standard library", function-level imports included.
    for path in sorted((README.parent / "src" / "actool").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, node.lineno, name)
