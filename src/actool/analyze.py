"""Change-impact analysis across the case boundary and structural metrics.

Impact propagates upward only: a changed element calls into question every
element that is argued on top of it, within its case over both edge kinds
and across cases through resolved away references. Metrics quantify the
size and shape of cases and bundles so split and monolithic arrangements
can be compared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    ConcernKind,
    EdgeKind,
    ElementKind,
    _away_claims,
    _element_pairs,
    _supported_by_facts,
    reach,
    supported_by_dfs,
)

if TYPE_CHECKING:
    from .link import ResolvedBundle


class ImpactReport(NamedTuple):
    changed: frozenset[tuple[str, str]]
    affected: dict[str, frozenset[str]]
    affected_cacs: frozenset[str]


def impact(resolved: ResolvedBundle, changed) -> ImpactReport:
    """Elements to revisit when the changed elements are modified.

    Affected = the changed elements, every element above them in their case
    over both edge kinds, and, for every affected technological element
    targeted by a resolution, the referencing away-claim and every element
    above it, transitively.
    """
    bundle = resolved.bundle
    cases = bundle._by_id
    changed_pairs = _element_pairs(cases, changed)

    # each (case id, element id): its in-case edge sources, then the away-claims resolved to it
    above: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for case_id, case in cases.items():
        for source, target, _, _ in case.edges:
            above.setdefault((case_id, target), []).append((case_id, source))
    for cac, away in _away_claims(bundle.cacs):
        above.setdefault(away.away_ref, []).append((cac.id, away.id))

    per_case: dict[str, set[str]] = {case_id: set() for case_id in cases}
    for case_id, element_id in reach(changed_pairs, lambda node: above.get(node, ())):
        per_case[case_id].add(element_id)
    return ImpactReport(
        changed=changed_pairs,
        affected={case_id: frozenset(ids) for case_id, ids in per_case.items()},
        affected_cacs=frozenset(
            cac.id for cac in bundle.cacs if per_case[cac.id]
        ),
    )


class CaseMetrics(NamedTuple):
    case_id: str
    kind: CaseKind
    element_counts: dict[str, int]
    edge_counts: dict[str, int]
    depth: int
    undeveloped_count: int
    evidence_coverage: float
    concern_counts: dict[str, int]

    @property
    def element_total(self) -> int:
        return sum(self.element_counts.values())

    @property
    def edge_total(self) -> int:
        return sum(self.edge_counts.values())


class BundleMetrics(NamedTuple):
    cases: tuple[CaseMetrics, ...]
    cross_link_count: int


def _supported_by_depth(case: AssuranceCase) -> int:
    """Longest supportedBy path, counted in nodes; the back edges of the
    depth-first walk are ignored (G2 reports the cycle they close)."""
    supported_by = case._kind_targets()[0]
    postorder = supported_by_dfs(case)[0]
    depth = dict.fromkeys(postorder, 0)  # a target still at 0 is on the walk's path: a back edge
    for node in postorder:
        targets = supported_by.get(node)
        depth[node] = 1 + max(map(depth.__getitem__, targets)) if targets else 1
    return max(depth.values(), default=0)


def case_metrics(case: AssuranceCase) -> CaseMetrics:
    """Structural measures for one case; see FORMATS.md for the emitted keys."""
    elements = case.elements
    kinds = [element.kind for element in elements]
    concerns = [element.concern for element in elements]
    edge_kinds = [edge.kind for edge in case.edges]
    argued, evidenced, _ = _supported_by_facts(case)
    claim = ElementKind.CLAIM
    leaves = [element.id for element in elements if element.kind is claim and element.id not in argued]
    coverage = len(evidenced.intersection(leaves)) / len(leaves) if leaves else 1.0
    return CaseMetrics(
        case_id=case.id,
        kind=case.kind,
        element_counts={kind.value: kinds.count(kind) for kind in ElementKind},
        edge_counts={kind.value: edge_kinds.count(kind) for kind in EdgeKind},
        depth=_supported_by_depth(case),
        undeveloped_count=len([element for element in elements if element.is_undeveloped]),
        evidence_coverage=coverage,
        concern_counts={kind.value: concerns.count(kind) for kind in ConcernKind},
    )


def bundle_metrics(bundle: Bundle) -> BundleMetrics:
    cross_links = sum(element.away_ref[0] == bundle.tac.id for _, element in _away_claims(bundle.cacs))
    return BundleMetrics(
        cases=tuple(case_metrics(case) for case in bundle.cases()),
        cross_link_count=cross_links,
    )
