"""Change-impact analysis across the case boundary and structural metrics.

Impact propagates upward only: a changed element calls into question every
element that is argued on top of it, within its case over both edge kinds
and across cases through resolved away references. Metrics quantify the
size and shape of cases and bundles so split and monolithic arrangements
can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .link import ResolvedBundle
from .model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    ConcernKind,
    EdgeKind,
    ElementKind,
    UnknownElementError,
)
from .validate import has_evidence_support, is_leaf_claim


@dataclass(frozen=True)
class ImpactReport:
    changed: frozenset[tuple[str, str]]
    affected: dict[str, frozenset[str]]
    affected_cacs: frozenset[str]


def impact(resolved: ResolvedBundle, changed) -> ImpactReport:
    """Elements to revisit when the changed elements are modified.

    Affected = the changed elements, their in-case ancestors over both edge
    kinds, and, for every affected technological element targeted by a
    resolution, the referencing away-claim and its ancestors, transitively.
    """
    bundle = resolved.bundle
    cases = {case.id: case for case in bundle.cases()}
    changed_pairs: set[tuple[str, str]] = set()
    for case_id, element_id in changed:
        case = cases.get(case_id)
        if case is None:
            raise UnknownElementError(f"unknown case id {case_id!r} in bundle")
        case.element(element_id)
        changed_pairs.add((case_id, element_id))

    referrers: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for source, target in resolved.resolutions.items():
        referrers.setdefault(target, []).append(source)

    affected: set[tuple[str, str]] = set(changed_pairs)
    frontier = list(changed_pairs)
    while frontier:
        node = frontier.pop()
        case_id, element_id = node
        parents = [(case_id, edge.source) for edge in cases[case_id].in_edges(element_id)]
        for parent in parents + referrers.get(node, []):
            if parent not in affected:
                affected.add(parent)
                frontier.append(parent)

    per_case: dict[str, set[str]] = {case_id: set() for case_id in cases}
    for case_id, element_id in affected:
        per_case[case_id].add(element_id)
    return ImpactReport(
        changed=frozenset(changed_pairs),
        affected={case_id: frozenset(ids) for case_id, ids in per_case.items()},
        affected_cacs=frozenset(
            cac.id for cac in bundle.cacs if per_case[cac.id]
        ),
    )


@dataclass(frozen=True)
class CaseMetrics:
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


@dataclass(frozen=True)
class BundleMetrics:
    cases: tuple[CaseMetrics, ...]
    cross_link_count: int

    def total_element_counts(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in ElementKind}
        for case in self.cases:
            for key, value in case.element_counts.items():
                counts[key] += value
        return counts

    def total_edge_counts(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in EdgeKind}
        for case in self.cases:
            for key, value in case.edge_counts.items():
                counts[key] += value
        return counts

    def total_concern_counts(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in ConcernKind}
        for case in self.cases:
            for key, value in case.concern_counts.items():
                counts[key] += value
        return counts

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
    """Longest supportedBy path, counted in nodes; back edges are ignored.

    Depth-first from each element in declaration order, with an explicit
    stack so that chain length is not bounded by the recursion limit.
    """
    memo: dict[str, int] = {}
    for element in case.elements:
        if element.id in memo:
            continue
        on_path = {element.id}
        stack = [(element.id, 0)]
        while stack:
            node, index = stack[-1]
            edges = case.out_edges(node)
            if index < len(edges):
                stack[-1] = (node, index + 1)
                edge = edges[index]
                if edge.kind is EdgeKind.SUPPORTED_BY and edge.target not in on_path and edge.target not in memo:
                    on_path.add(edge.target)
                    stack.append((edge.target, 0))
            else:
                stack.pop()
                # targets still on the path are back edges of a cycle; G2 reports it
                memo[node] = 1 + max(
                    (memo[e.target] for e in edges if e.kind is EdgeKind.SUPPORTED_BY and e.target not in on_path),
                    default=0,
                )
                on_path.discard(node)
    return max(memo.values(), default=0)


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
