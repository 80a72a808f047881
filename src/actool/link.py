"""Cross-case link resolution and bundle inlining.

Resolution maps every away-claim of every clinical case to its target claim
in the technological case, provided the direction and target rules (S1, S2,
S5) hold. Inlining materializes the split arrangement back into a single
monolithic case for one clinical case, copying the referenced technological
subtrees beneath the away-claims. The away-reference rules live here. Here
and in `validate`, `analyze` and `render`, every loop over away references
reads them from `model._away_claims`, their one reader.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagnostics import Diagnostic, _article, finding, has_errors
from .model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    UnknownElementError,
    _away_claims,
    reach,
)


class ResolvedBundle(NamedTuple):
    """A bundle whose cross-case references all point at real, public claims."""

    bundle: Bundle

    @property
    def resolutions(self) -> dict[tuple[str, str], tuple[str, str]]:
        """Each clinical away reference, `(cac id, element id) -> (tac id, claim id)`, read afresh from the bundle."""
        return {(cac.id, element.id): element.away_ref for cac, element in _away_claims(self.bundle.cacs)}


def link_rule_diagnostics(bundle: Bundle) -> list[Diagnostic]:
    """S1, S2, S5 (errors) plus S7, S8 (warnings): the away-reference rules.

    The one implementation that `resolve_links`, `validate_bundle` and the
    `render` of a bundle all call, so the three report identical messages.
    """
    diagnostics: list[Diagnostic] = []
    tac = bundle.tac
    for _, element in _away_claims([tac]):
        target_case = element.away_ref[0]
        if target_case != tac.id and target_case in bundle._by_id:
            rule = "S1"
            message = f"technological case {tac.id!r} references clinical case {target_case!r} from claim "
            message += f"{element.id!r}; references must point from clinical to technological cases only"
        else:
            rule = "S8"
            message = f"claim {element.id!r} references case {target_case!r}; the technological case "
            message += "should be self-contained"
        diagnostics.append(finding(rule, element.span, message, (tac.id, element.id)))
    for cac, element in _away_claims(bundle.cacs):
        target_case, target_id = element.away_ref
        away = (cac.id, element.id)
        if target_case != tac.id:
            message = f"claim {element.id!r} references case {target_case!r}; away references must target "
            message += f"the associated technological case {tac.id!r}"
            diagnostics.append(finding("S2", element.span, message, away))
            continue
        target = tac.find(target_id)
        if target is None:
            message = f"away reference target {target_case}.{target_id} does not exist"
            diagnostics.append(finding("S5", element.span, message, away))
        elif target.kind is not ElementKind.CLAIM:
            message = f"away reference target {target_case}.{target_id} is {_article(target.kind.value)}, "
            diagnostics.append(finding("S5", element.span, message + "not a claim", away, (tac.id, target_id)))
        elif not target.is_public:
            message = f"away reference target {target_case}.{target_id} is not public"
            diagnostics.append(finding("S5", element.span, message, away, (tac.id, target_id)))
        elif element.statement != target.statement:
            message = f"statement of claim {element.id!r} differs from its target {target_case}.{target_id}"
            diagnostics.append(finding("S7", element.span, message, away, (tac.id, target_id)))
    return diagnostics


def resolve_links(bundle: Bundle) -> tuple[ResolvedBundle | None, list[Diagnostic]]:
    """Resolve every clinical away reference into the technological case.

    Produces a ResolvedBundle only when rules S1, S2 and S5 hold; the rules
    live in this module, and validate_bundle calls the same implementation,
    so messages match it exactly. Warnings do not block resolution.
    """
    diagnostics = link_rule_diagnostics(bundle)
    if has_errors(diagnostics):
        return None, diagnostics
    return ResolvedBundle(bundle), diagnostics


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
    tac = resolved.bundle.tac
    cac = resolved.bundle._by_id.get(cac_id, tac)
    if cac is tac:  # no case, or the technological one
        raise UnknownElementError(f"unknown clinical case id {cac_id!r} in bundle")

    elements = {element.id: element if element.away_ref is None else
                element._replace(is_undeveloped=False, away_ref=None) for element in cac.elements}
    edges = list(cac.edges)
    out: dict[str, list[Edge]] = {}  # the technological edges by source, in declaration order
    for edge in tac.edges:
        out.setdefault(edge.source, []).append(edge)

    # Element's and AssuranceCase's checks hold, so neither runs: a copy id `<tacId>__[<n>__]<id>` is an identifier, no
    # other copy's (no id starts with a digit) and, by the `while` loop, no clinical id; its fields are a checked one's.
    copy_counts: dict[str, int] = {}
    for _, away in _away_claims([cac]):
        target_id = away.away_ref[1]
        subtree = reach([target_id], lambda node: [edge.target for edge in out.get(node, ())])
        names: dict[str, str] = {}
        for node in subtree:
            count = copy_counts.get(node, 0) + 1
            name = f"{tac.id}__{node}" if count == 1 else f"{tac.id}__{count}__{node}"
            while name in cac._by_id:
                count += 1
                name = f"{tac.id}__{count}__{node}"
            copy_counts[node] = count
            names[node] = name
            _, kind, statement, _, public, undeveloped, module, concern, _, span = tac._by_id[node]
            # root-ness is a per-case property; away references never survive
            # inlining. undeveloped stays so copied claims still pass G5.
            elements[name] = tuple.__new__(Element, (name, kind, statement, False, public, undeveloped, module,
                                                     concern, None, span))
        # the subtree is closed under out-edges, so every target has a name; Edge checks nothing, so build it directly
        for node in subtree:
            for edge in out.get(node, ()):
                edges.append(tuple.__new__(Edge, (names[node], names[edge.target], edge.kind, edge.span)))
        edges.append(Edge(away.id, names[target_id], EdgeKind.SUPPORTED_BY, away.span))

    return AssuranceCase._parsed(cac.id, CaseKind.MONOLITHIC, elements, tuple(edges), (), None, cac.span)
