"""Change-impact analysis across the case boundary and structural metrics.

Impact propagates upward only: a changed element calls into question every
element that is argued on top of it, within its case over both edge kinds
and across cases through resolved away references. Metrics quantify the
size and shape of cases and bundles so split and monolithic arrangements
can be compared.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from .model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    ConcernKind,
    EdgeKind,
    ElementKind,
    _element_pairs,
    reach,
    supported_by_dfs,
)
from .validate import has_evidence_support, is_leaf_claim

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
    cases = {case.id: case for case in bundle.cases()}
    changed_pairs = _element_pairs(cases, changed)

    referrers: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for source, target in resolved.resolutions.items():
        referrers.setdefault(target, []).append(source)

    def above(node: tuple[str, str]) -> list[tuple[str, str]]:
        case_id, element_id = node
        parents = [(case_id, edge.source) for edge in cases[case_id].in_edges(element_id)]
        return parents + referrers.get(node, [])

    per_case: dict[str, set[str]] = {case_id: set() for case_id in cases}
    for case_id, element_id in reach(changed_pairs, above):
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

    def _total(self, kinds: type[Enum], counts_of: Callable[[CaseMetrics], dict[str, int]]) -> dict[str, int]:
        totals = {kind.value: 0 for kind in kinds}
        for case in self.cases:
            for key, value in counts_of(case).items():
                totals[key] += value
        return totals

    def total_element_counts(self) -> dict[str, int]:
        return self._total(ElementKind, lambda case: case.element_counts)

    def total_edge_counts(self) -> dict[str, int]:
        return self._total(EdgeKind, lambda case: case.edge_counts)

    def total_concern_counts(self) -> dict[str, int]:
        return self._total(ConcernKind, lambda case: case.concern_counts)

    @property
    def total_elements(self) -> int:
        return sum(case.element_total for case in self.cases)

    @property
    def total_edges(self) -> int:
        return sum(case.edge_total for case in self.cases)

    @property
    def total_undeveloped(self) -> int:
        return sum(case.undeveloped_count for case in self.cases)


def _supported_by_depth(case: AssuranceCase) -> int:
    """Longest supportedBy path, counted in nodes; the back edges of the
    depth-first walk are ignored (G2 reports the cycle they close)."""
    depth: dict[str, int] = {}
    for node in supported_by_dfs(case)[0]:
        # a target not yet in `depth` is still on the walk's path: a back edge
        depth[node] = 1 + max(
            [depth.get(edge.target, 0) for edge in case.out_edges(node) if edge.kind is EdgeKind.SUPPORTED_BY],
            default=0,
        )
    return max(depth.values(), default=0)


def case_metrics(case: AssuranceCase) -> CaseMetrics:
    """Structural measures for one case; see FORMATS.md for the emitted keys."""
    element_counts = {kind.value: 0 for kind in ElementKind}
    concern_counts = {kind.value: 0 for kind in ConcernKind}
    undeveloped = 0
    for element in case.elements:
        element_counts[element.kind.value] += 1
        if element.concern is not None:
            concern_counts[element.concern.value] += 1
        if element.is_undeveloped:
            undeveloped += 1
    edge_counts = {kind.value: 0 for kind in EdgeKind}
    for edge in case.edges:
        edge_counts[edge.kind.value] += 1
    leaves = [e for e in case.elements if is_leaf_claim(case, e)]
    if leaves:
        covered = sum(1 for leaf in leaves if has_evidence_support(case, leaf))
        coverage = covered / len(leaves)
    else:
        coverage = 1.0
    return CaseMetrics(
        case_id=case.id,
        kind=case.kind,
        element_counts=element_counts,
        edge_counts=edge_counts,
        depth=_supported_by_depth(case),
        undeveloped_count=undeveloped,
        evidence_coverage=coverage,
        concern_counts=concern_counts,
    )


def bundle_metrics(bundle: Bundle) -> BundleMetrics:
    cross_links = sum(
        1
        for cac in bundle.cacs
        for element in cac.elements
        if element.away_ref is not None and element.away_ref[0] == bundle.tac.id
    )
    return BundleMetrics(
        cases=tuple(case_metrics(case) for case in bundle.cases()),
        cross_link_count=cross_links,
    )
