"""DOT diagrams and JSON reports.

Shape mapping follows the usual GSN conventions: claims are boxes (module
claims use the tabbed shape), strategies parallelograms, context-like nodes
rounded boxes, evidence circles. Undeveloped claims carry a diamond glyph
beneath their text. supportedBy edges are solid with filled arrowheads,
inContextOf edges use open arrowheads, and cross-case resolution edges are
dashed. Emission is fully sorted, so output is byte-stable.

The JSON report schema is documented in FORMATS.md.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .model import (
    AssuranceCase,
    Bundle,
    EdgeKind,
    Element,
    ElementKind,
    _element_pairs,
    format_decimal,
)

if TYPE_CHECKING:  # drawing a case loads none of these
    from .analyze import BundleMetrics, CaseMetrics, ImpactReport
    from .diagnostics import Diagnostic
    from .link import ResolvedBundle
    from .validate import MatchResult

UNDEVELOPED_GLYPH = "\u25c7"


_SHAPES = {
    ElementKind.CLAIM: "box",
    ElementKind.STRATEGY: "parallelogram",
    ElementKind.CONTEXT: "box",
    ElementKind.ASSUMPTION: "box",
    ElementKind.JUSTIFICATION: "box",
    ElementKind.EVIDENCE: "circle",
}
_ROUNDED = (ElementKind.CONTEXT, ElementKind.ASSUMPTION, ElementKind.JUSTIFICATION)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _node_line(qualified: str, element: Element, highlighted: bool) -> str:
    shape = "tab" if element.is_module else _SHAPES[element.kind]
    label = f"{element.id}\n{element.statement}"
    if element.is_undeveloped:
        label += f"\n{UNDEVELOPED_GLYPH}"
    attrs = [f"shape={shape}"]
    styles = []
    if element.kind in _ROUNDED:
        styles.append("rounded")
    if highlighted:
        styles.append("filled")
    if styles:
        attrs.append(f'style="{",".join(styles)}"')
    if highlighted:
        attrs.append("fillcolor=lightgray")
    attrs.append(f'label="{_dot_escape(label)}"')
    return f'"{qualified}" [{", ".join(attrs)}];'


def _edge_line(source: str, target: str, kind: EdgeKind) -> str:
    if kind is EdgeKind.IN_CONTEXT_OF:
        return f'"{source}" -> "{target}" [arrowhead=onormal];'
    return f'"{source}" -> "{target}";'


def _case_body(
    case: AssuranceCase, highlight: frozenset[tuple[str, str]], prefix: str, indent: str
) -> list[str]:
    lines = []
    for element in sorted(case.elements, key=attrgetter("id")):
        highlighted = (case.id, element.id) in highlight
        lines.append(indent + _node_line(f"{prefix}{element.id}", element, highlighted))
    for edge in sorted(case.edges, key=attrgetter("source", "kind.value", "target")):
        lines.append(indent + _edge_line(f"{prefix}{edge.source}", f"{prefix}{edge.target}", edge.kind))
    return lines


def to_dot(
    subject: AssuranceCase | Bundle | ResolvedBundle,
    highlight: Iterable[tuple[str, str]] = frozenset(),
) -> str:
    """Render a case or a bundle as a DOT digraph.

    Bundles are drawn with one cluster per case; resolved away references
    become dashed inter-cluster edges. A raw (unresolved) bundle falls back
    to drawing dashed edges for whichever away references name an existing
    element. `highlight` names the (case id, element id) pairs drawn filled;
    a pair that names no element raises UnknownElementError, as in `impact`.
    """
    header = [
        "  graph [rankdir=TB, ranksep=0.6];",
        '  node [fontname="Helvetica", fontsize=10];',
    ]
    if isinstance(subject, AssuranceCase):
        highlight = _element_pairs({subject.id: subject}, highlight)
        lines = [f'digraph "{subject.id}" {{', *header]
        lines.extend(_case_body(subject, highlight, "", "  "))
        lines.append("}")
        return "\n".join(lines) + "\n"

    if isinstance(subject, Bundle):
        bundle = subject
        cross = []
        known = {case.id: case for case in bundle.cases()}
        for case in bundle.cases():
            for element in case.elements:
                if element.away_ref is None:
                    continue
                target_case = known.get(element.away_ref[0])
                if target_case is not None and target_case.find(element.away_ref[1]) is not None:
                    cross.append(
                        (f"{case.id}.{element.id}", f"{element.away_ref[0]}.{element.away_ref[1]}")
                    )
    else:  # a ResolvedBundle
        bundle = subject.bundle
        cross = [
            (f"{source[0]}.{source[1]}", f"{target[0]}.{target[1]}")
            for source, target in subject.resolutions.items()
        ]
    highlight = _element_pairs({case.id: case for case in bundle.cases()}, highlight)

    lines = ["digraph bundle {", *header]
    for case in sorted(bundle.cases(), key=lambda c: c.id):
        lines.append(f'  subgraph "cluster_{case.id}" {{')
        lines.append(f'    label="{case.id} ({case.kind.value})";')
        lines.extend(_case_body(case, highlight, f"{case.id}.", "    "))
        lines.append("  }")
    for source, target in sorted(cross):
        lines.append(f'  "{source}" -> "{target}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _diagnostic_json(diagnostic: Diagnostic) -> dict:
    return {
        "ruleId": diagnostic.rule_id,
        "severity": diagnostic.severity.value,
        "file": diagnostic.span.file,
        "line": diagnostic.span.line,
        "column": diagnostic.span.column,
        "length": diagnostic.span.length,
        "message": diagnostic.message,
        "elements": [
            {"caseId": case_id, "elementId": element_id}
            for case_id, element_id in diagnostic.elements
        ],
    }


def _capability_json(case_id: str | None, result: MatchResult) -> dict:
    required = result.required
    entry = {
        "caseId": case_id,
        "name": required.name,
        "unit": required.unit,
        "low": format_decimal(required.low),
        "high": format_decimal(required.high),
        "status": result.status.value,
        "provider": None,
    }
    if result.matched_provider is not None:
        provider = result.matched_provider
        entry["provider"] = {
            "name": provider.name,
            "unit": provider.unit,
            "low": format_decimal(provider.low),
            "high": format_decimal(provider.high),
        }
    return entry


def case_metrics_json(m: CaseMetrics) -> dict:
    return {
        "caseId": m.case_id,
        "kind": m.kind.value,
        "elements": {**m.element_counts, "total": m.element_total},
        "edges": {**m.edge_counts, "total": m.edge_total},
        "depth": m.depth,
        "undeveloped": m.undeveloped_count,
        "evidenceCoverage": m.evidence_coverage,
        "concerns": dict(m.concern_counts),
    }


def bundle_metrics_json(m: BundleMetrics) -> dict:
    return {
        "cases": [case_metrics_json(case) for case in m.cases],
        "totals": {
            "elements": {**m.total_element_counts(), "total": m.total_elements},
            "edges": {**m.total_edge_counts(), "total": m.total_edges},
            "undeveloped": m.total_undeveloped,
            "concerns": m.total_concern_counts(),
        },
        "crossLinks": m.cross_link_count,
    }


def impact_json(report: ImpactReport) -> dict:
    return {
        "changed": [
            {"caseId": case_id, "elementId": element_id}
            for case_id, element_id in sorted(report.changed)
        ],
        "affected": {
            case_id: sorted(report.affected[case_id]) for case_id in sorted(report.affected)
        },
        "affectedCacs": sorted(report.affected_cacs),
    }


def report_json(
    diagnostics: Sequence[Diagnostic] | None = None,
    capabilities: Sequence[tuple[str | None, MatchResult]] | None = None,
    metrics: CaseMetrics | BundleMetrics | None = None,
    impact: ImpactReport | None = None,
) -> str:
    """One JSON document with any subset of the report sections.

    Key order is fixed; decimal capability bounds are serialized as exact
    strings, so repeated runs are byte-identical.
    """
    import json
    document: dict = {}
    if diagnostics is not None:
        document["diagnostics"] = [_diagnostic_json(d) for d in diagnostics]
    if capabilities is not None:
        document["capabilities"] = [_capability_json(case_id, r) for case_id, r in capabilities]
    if metrics is not None:
        from .analyze import BundleMetrics
        if isinstance(metrics, BundleMetrics):
            document["metrics"] = bundle_metrics_json(metrics)
        else:
            document["metrics"] = case_metrics_json(metrics)
    if impact is not None:
        document["impact"] = impact_json(impact)
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
