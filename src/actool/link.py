"""Cross-case link resolution and bundle inlining.

Resolution maps every away-claim of every clinical case to its target claim
in the technological case, provided the direction and target rules (S1, S2,
S5) hold. Inlining materializes the split arrangement back into a single
monolithic case for one clinical case, copying the referenced technological
subtrees beneath the away-claims.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .diagnostics import Diagnostic, has_errors
from .model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    Edge,
    EdgeKind,
    UnknownElementError,
    reach,
)
from .validate import link_rule_diagnostics


class ResolvedBundle(NamedTuple):
    """A bundle whose cross-case references all point at real, public claims."""

    bundle: Bundle
    resolutions: Mapping[tuple[str, str], tuple[str, str]]


def resolve_links(bundle: Bundle) -> tuple[ResolvedBundle | None, list[Diagnostic]]:
    """Resolve every clinical away reference into the technological case.

    Produces a ResolvedBundle only when rules S1, S2 and S5 hold; the
    returned diagnostics reuse the validator's rule implementations, so
    messages match validate_bundle exactly. Warnings do not block resolution.
    """
    diagnostics = link_rule_diagnostics(bundle)
    if has_errors(diagnostics):
        return None, diagnostics
    resolutions = {
        (cac.id, element.id): element.away_ref
        for cac in bundle.cacs
        for element in cac.elements
        if element.away_ref is not None
    }
    return ResolvedBundle(bundle, resolutions), diagnostics


def inline_bundle(resolved: ResolvedBundle, cac_id: str) -> AssuranceCase:
    """Inline one clinical case into a monolithic view.

    The output contains every element of the clinical case, with each
    away-claim's undeveloped flag and reference cleared, plus one copy per
    resolution of the referenced technological subtree, its ids prefixed
    `<tacId>__` (ordinal-prefixed `<tacId>__<n>__` for second and later
    copies of the same element; an ordinal whose name a clinical element
    already uses is skipped). The away-claim keeps its statement and gains
    a supportedBy edge to the copied target. Capabilities are not carried
    over: they describe the cross-case interface that inlining removes.
    """
    bundle = resolved.bundle
    cac = None
    for candidate in bundle.cacs:
        if candidate.id == cac_id:
            cac = candidate
            break
    if cac is None:
        raise UnknownElementError(f"unknown clinical case id {cac_id!r} in bundle")
    tac = bundle.tac

    elements = []
    for element in cac.elements:
        if (cac.id, element.id) in resolved.resolutions:
            elements.append(element._replace(is_undeveloped=False, away_ref=None))
        else:
            elements.append(element)
    edges = list(cac.edges)

    copy_counts: dict[str, int] = {}
    for away in cac.elements:
        key = (cac.id, away.id)
        if key not in resolved.resolutions:
            continue
        target_id = resolved.resolutions[key][1]
        subtree = reach([target_id], lambda node: [edge.target for edge in tac.out_edges(node)])
        names: dict[str, str] = {}
        for node in subtree:
            count = copy_counts.get(node, 0) + 1
            name = f"{tac.id}__{node}" if count == 1 else f"{tac.id}__{count}__{node}"
            while cac.find(name) is not None:
                count += 1
                name = f"{tac.id}__{count}__{node}"
            copy_counts[node] = count
            names[node] = name
        for node in subtree:
            original = tac.element(node)
            # root-ness is a per-case property; away references never survive
            # inlining. undeveloped stays so copied claims still pass G5.
            elements.append(original._replace(id=names[node], away_ref=None, is_root=False))
        # the subtree is closed under out-edges, so every target has a name
        for node in subtree:
            for edge in tac.out_edges(node):
                edges.append(Edge(names[node], names[edge.target], edge.kind, edge.span))
        edges.append(Edge(away.id, names[target_id], EdgeKind.SUPPORTED_BY, away.span))

    return AssuranceCase(
        id=cac.id,
        kind=CaseKind.MONOLITHIC,
        elements=tuple(elements),
        edges=tuple(edges),
        capabilities=(),
        associated_tac=None,
        span=cac.span,
    )
