"""Toolchain for GSN-style assurance cases with separated technological and
clinical arguments: DSL parsing, well-formedness and separation rules,
cross-case link resolution, inlining, change-impact analysis, and rendering.
"""

from .analyze import (
    BundleMetrics,
    CaseMetrics,
    ImpactReport,
    bundle_metrics,
    case_metrics,
    impact,
)
from .diagnostics import Diagnostic, Severity, has_errors, sorted_diagnostics
from .link import ResolvedBundle, inline_bundle, resolve_links
from .model import (
    AssuranceCase,
    Bundle,
    Capability,
    CaseKind,
    ConcernKind,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    SourceSpan,
    UnknownElementError,
    format_decimal,
    supported_by_cycle,
)
from .parser import ParseResult, parse_bundle, parse_case, print_case
from .render import report_json, to_dot
from .units import BUILTIN_UNITS, Dimension, UnitDef, UnitError, UnitTable, parse_units_file
from .validate import (
    MatchResult,
    MatchStatus,
    bundle_match_results,
    match_capabilities,
    validate_bundle,
    validate_case,
)

__version__ = "0.1.0"
