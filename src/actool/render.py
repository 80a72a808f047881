"""DOT diagrams and JSON reports.

Shape mapping follows the usual GSN conventions: claims are boxes (module
claims use the tabbed shape), strategies parallelograms, context-like nodes
rounded boxes, evidence circles. Undeveloped claims carry a diamond glyph
beneath their text. supportedBy edges are solid with filled arrowheads,
inContextOf edges use open arrowheads, and away references between the
cases of a bundle are dashed. Emission is fully sorted, so output is
byte-stable.

A node line's attributes come in the order `shape`, `style`, `fillcolor`,
`label`, and everything before `label=` is one lookup in `_NODE_HEADS`. The
label is `ID\\nSTATEMENT`, then `\\n◇` for an undeveloped claim; only the
statement is escaped (`\\`, `"` and newline), since an id is an identifier.
FORMATS.md gives the exact lines and their order; the JSON report schema is
documented there too.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Container, Iterable, Sequence

from .model import (
    EDGE_ORDER,
    ELEMENT_ORDER,
    AssuranceCase,
    Bundle,
    EdgeKind,
    ElementKind,
    _away_claims,
    _element_pairs,
    format_decimal,
)

if TYPE_CHECKING:  # drawing a case loads none of these
    from .analyze import BundleMetrics, CaseMetrics, ImpactReport
    from .diagnostics import Diagnostic
    from .validate import MatchResult

UNDEVELOPED_GLYPH = "\u25c7"
_GLYPH_LINE = "\\n" + UNDEVELOPED_GLYPH  # the label's last line on an undeveloped claim, its newline escaped


def _node_head(kind: ElementKind, module: bool, highlighted: bool) -> str:
    """What a node line holds before `label=`: the one shape and style rule."""
    shape = "tab" if module else {"strategy": "parallelogram", "evidence": "circle"}.get(kind.value, "box")
    styles = ["rounded"] * (kind.value in ("context", "assumption", "justification")) + ["filled"] * highlighted
    style = f'style="{",".join(styles)}", ' if styles else ""
    return f"shape={shape}, {style}" + ("fillcolor=lightgray, " if highlighted else "")


# `_node_head` of each combination, keyed as `_case_body` reads an element: (kind `_value_`, module, highlighted).
# `Element` holds `is_module` as a bool; the kind's `_value_` is a plain attribute and a string key, where hashing
# the member would run `Enum.__hash__` in Python for every element.
_NODE_HEADS = {(kind._value_, module, highlighted): _node_head(kind, module, highlighted)
               for kind, module, highlighted in product(ElementKind, (False, True), (False, True))}


def _case_body(case: AssuranceCase, marked: Container[str], prefix: str, indent: str) -> list[str]:
    """A case's node lines, by id, then its edge lines, by EDGE_ORDER; `marked` holds the highlighted ids. An id is
    an identifier, so only a statement is escaped."""
    heads, in_context = _NODE_HEADS, EdgeKind.IN_CONTEXT_OF
    lines = []
    for name, kind, statement, _, _, undeveloped, module, _, _, _ in sorted(case.elements, key=ELEMENT_ORDER):
        statement = statement.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        lines.append(f'{indent}"{prefix}{name}" [{heads[kind._value_, module, name in marked]}label="{name}\\n'
                     f'{statement}{_GLYPH_LINE if undeveloped else ""}"];')
    lines += [
        f'{indent}"{prefix}{source}" -> "{prefix}{target}"{" [arrowhead=onormal];" if kind is in_context else ";"}'
        for source, target, kind, _ in sorted(case.edges, key=EDGE_ORDER)
    ]
    return lines


def to_dot(subject: AssuranceCase | Bundle, highlight: Iterable[tuple[str, str]] = frozenset()) -> str:
    """Render a case or a bundle as a DOT digraph.

    Bundles are drawn with one cluster per case, and every away reference
    that names an element of a case in the bundle becomes a dashed
    inter-cluster edge. `highlight` names the (case id, element id) pairs
    drawn filled; a pair that names no element raises UnknownElementError,
    as in `impact`. Clusters are sorted by case id, node lines by element
    id, edge lines by EDGE_ORDER, and the dashed edges, last, by the
    qualified ids of their two ends.
    """
    header = [
        "  graph [rankdir=TB, ranksep=0.6];",
        '  node [fontname="Helvetica", fontsize=10];',
    ]
    if isinstance(subject, AssuranceCase):
        marked = {name for _, name in _element_pairs({subject.id: subject}, highlight)}
        lines = [f'digraph "{subject.id}" {{', *header, *_case_body(subject, marked, "", "  "), "}\n"]
        return "\n".join(lines)

    cases = {case.id: case for case in subject.cases()}
    marked_in: dict[str, set[str]] = {}
    for case_id, name in _element_pairs(cases, highlight):
        marked_in.setdefault(case_id, set()).add(name)
    cross = []
    for case, element in _away_claims(subject.cases()):
        target_case, target_id = element.away_ref
        if target_case in cases and cases[target_case].find(target_id) is not None:
            cross.append((f"{case.id}.{element.id}", f"{target_case}.{target_id}"))

    lines = ["digraph bundle {", *header]
    for case in sorted(subject.cases(), key=lambda c: c.id):
        lines.append(f'  subgraph "cluster_{case.id}" {{')
        lines.append(f'    label="{case.id} ({case.kind.value})";')
        lines.extend(_case_body(case, marked_in.get(case.id, ()), f"{case.id}.", "    "))
        lines.append("  }")
    for source, target in sorted(cross):
        lines.append(f'  "{source}" -> "{target}" [style=dashed];')
    lines.append("}\n")
    return "\n".join(lines)  # one join: a `+` after it would copy the whole text again


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
    rows = [case_metrics_json(case) for case in m.cases]

    def total(key: str) -> dict[str, int]:
        return {name: sum(row[key][name] for row in rows) for name in rows[0][key]}

    return {
        "cases": rows,
        "totals": {
            "elements": total("elements"),
            "edges": total("edges"),
            "undeveloped": sum(row["undeveloped"] for row in rows),
            "concerns": total("concerns"),
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
