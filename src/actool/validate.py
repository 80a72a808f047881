"""Rule engine for single-case well-formedness and bundle separation checks.

G-rules check one case against the GSN structure conventions, S-rules check
the discipline between a technological case and its clinical cases, U-rules
check capability units and ranges. The full catalog, with severities, is in
RULES.md. Diagnostics come back sorted by (file, line, column, rule id);
evaluation is deterministic.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .diagnostics import Diagnostic, Severity, sorted_diagnostics
from .model import (
    AssuranceCase,
    Bundle,
    Capability,
    CaseKind,
    Direction,
    EdgeKind,
    Element,
    ElementKind,
    format_decimal,
    reach,
    supported_by_cycle,
)
from .units import BUILTIN_UNITS, UnitTable


class MatchStatus(Enum):
    SATISFIED = "satisfied"
    UNIT_MISMATCH = "unitMismatch"
    RANGE_NOT_COVERED = "rangeNotCovered"
    MISSING = "missing"


class MatchResult(NamedTuple):
    required: Capability
    status: MatchStatus
    matched_provider: Capability | None = None


SUPPORT_SOURCES = (ElementKind.CLAIM, ElementKind.STRATEGY)
SUPPORT_TARGETS = (ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE)
CONTEXT_TARGETS = (ElementKind.CONTEXT, ElementKind.ASSUMPTION, ElementKind.JUSTIFICATION)
# G3 and G4: the rule, the article before the edge kind, and the legal target
# kinds of each edge kind; both kinds start at a claim or strategy
_EDGE_TYPING = {
    EdgeKind.SUPPORTED_BY: ("G3", "a", SUPPORT_TARGETS),
    EdgeKind.IN_CONTEXT_OF: ("G4", "an", CONTEXT_TARGETS),
}
# G8: the one case kind that may declare capabilities of each direction
_CAPABILITY_HOME = {
    Direction.PROVIDED: CaseKind.TECHNOLOGICAL,
    Direction.REQUIRED: CaseKind.CLINICAL,
}


def _error(rule: str, span, message: str, *elements: tuple[str, str]) -> Diagnostic:
    return Diagnostic(rule, Severity.ERROR, span, message, tuple(elements))


def _warning(rule: str, span, message: str, *elements: tuple[str, str]) -> Diagnostic:
    return Diagnostic(rule, Severity.WARNING, span, message, tuple(elements))


def is_leaf_claim(case: AssuranceCase, element: Element) -> bool:
    """A claim with no supportedBy edge to another claim or strategy."""
    if element.kind is not ElementKind.CLAIM:
        return False
    return not any(
        edge.kind is EdgeKind.SUPPORTED_BY and case.element(edge.target).kind in SUPPORT_SOURCES
        for edge in case.out_edges(element.id)
    )


def has_evidence_support(case: AssuranceCase, element: Element) -> bool:
    return any(
        edge.kind is EdgeKind.SUPPORTED_BY and case.element(edge.target).kind is ElementKind.EVIDENCE
        for edge in case.out_edges(element.id)
    )


def validate_case(case: AssuranceCase, units: UnitTable = BUILTIN_UNITS) -> list[Diagnostic]:
    """Evaluate G1-G8 and U1-U2 on a single case."""
    diagnostics: list[Diagnostic] = []
    cid = case.id

    roots = [e for e in case.elements if e.is_root]
    if len(roots) != 1:
        if not roots:
            diagnostics.append(_error("G1", case.span, f"case {cid!r} declares no root claim"))
        else:
            diagnostics.append(
                _error(
                    "G1",
                    roots[1].span,
                    f"case {cid!r} declares {len(roots)} root claims; exactly one is required",
                    *((cid, r.id) for r in roots),
                )
            )

    cycle = supported_by_cycle(case)
    if cycle is not None:
        first = case.element(cycle[0])
        diagnostics.append(
            _error(
                "G2",
                first.span,
                "supportedBy cycle: " + " -> ".join(cycle),
                *((cid, node) for node in cycle[:-1]),
            )
        )

    for edge in case.edges:
        source = case.element(edge.source)
        target = case.element(edge.target)
        rule, article, allowed = _EDGE_TYPING[edge.kind]
        if source.kind not in SUPPORT_SOURCES or target.kind not in allowed:
            end, bad = ("source", source) if source.kind not in SUPPORT_SOURCES else ("target", target)
            message = f"{bad.kind.value} {bad.id!r} cannot be the {end} of {article} {edge.kind.value} edge"
            diagnostics.append(_error(rule, edge.span, message, (cid, bad.id)))
        elif rule == "G3" and source.kind is ElementKind.STRATEGY and target.kind is not ElementKind.CLAIM:
            message = f"strategy {source.id!r} must be supported by claims only, "
            message += f"not {target.kind.value} {target.id!r}"
            diagnostics.append(_error(rule, edge.span, message, (cid, source.id), (cid, target.id)))

    for element in case.elements:
        if is_leaf_claim(case, element):
            if not (has_evidence_support(case, element) or element.is_undeveloped or element.away_ref):
                diagnostics.append(
                    _error(
                        "G5",
                        element.span,
                        f"leaf claim {element.id!r} has no supporting evidence and is not "
                        "marked undeveloped",
                        (cid, element.id),
                    )
                )

    if len(roots) == 1:
        reachable = set(reach([roots[0].id], lambda node: [edge.target for edge in case.out_edges(node)]))
        for element in case.elements:
            if element.id not in reachable:
                diagnostics.append(
                    _warning(
                        "G6",
                        element.span,
                        f"element {element.id!r} is not reachable from the root claim",
                        (cid, element.id),
                    )
                )

    for element in case.elements:
        if element.kind is ElementKind.STRATEGY:
            supported = any(edge.kind is EdgeKind.SUPPORTED_BY for edge in case.out_edges(element.id))
            if not supported:
                diagnostics.append(
                    _error(
                        "G7",
                        element.span,
                        f"strategy {element.id!r} has no supporting claim",
                        (cid, element.id),
                    )
                )

    for cap in case.capabilities:
        home = _CAPABILITY_HOME[cap.direction]
        if case.kind is not home:
            message = f"a '{cap.direction.value}' capability is only allowed in a {home.value} case "
            message += f"({cap.name!r} in {case.kind.value} case {cid!r})"
            diagnostics.append(_error("G8", cap.span, message))
        if units.find(cap.unit) is None:
            diagnostics.append(_error("U1", cap.span, f"unknown unit {cap.unit!r} on capability {cap.name!r}"))
        if cap.low > cap.high:
            diagnostics.append(
                _error(
                    "U2",
                    cap.span,
                    f"capability {cap.name!r} has an empty range "
                    f"[{format_decimal(cap.low)}, {format_decimal(cap.high)}]",
                )
            )

    return sorted_diagnostics(diagnostics)


def match_capabilities(
    required: Sequence[Capability],
    provided: Sequence[Capability],
    units: UnitTable,
) -> list[MatchResult]:
    """Match each required capability against the provided set, in order.

    A requirement is satisfied by the first provider (declaration order) with
    the same name, the same dimension, and a base-unit interval containing
    the required one. Comparison is exact decimal arithmetic on closed
    intervals. Unknown unit symbols raise UnitError.
    """
    for cap in required:
        if cap.direction is not Direction.REQUIRED:
            raise ValueError(f"capability {cap.name!r} is not a required capability")
    for cap in provided:
        if cap.direction is not Direction.PROVIDED:
            raise ValueError(f"capability {cap.name!r} is not a provided capability")
    results: list[MatchResult] = []
    for req in required:
        req_unit = units.lookup(req.unit)
        candidates = [p for p in provided if p.name == req.name]
        if not candidates:
            results.append(MatchResult(req, MatchStatus.MISSING))
            continue
        same_dimension = [
            p for p in candidates if units.lookup(p.unit).dimension is req_unit.dimension
        ]
        if not same_dimension:
            results.append(MatchResult(req, MatchStatus.UNIT_MISMATCH))
            continue
        low = units.to_base(req.low, req.unit)
        high = units.to_base(req.high, req.unit)
        match = None
        for provider in same_dimension:
            if units.to_base(provider.low, provider.unit) <= low and high <= units.to_base(
                provider.high, provider.unit
            ):
                match = provider
                break
        if match is not None:
            results.append(MatchResult(req, MatchStatus.SATISFIED, match))
        else:
            results.append(MatchResult(req, MatchStatus.RANGE_NOT_COVERED))
    return results


def _known_units(capabilities: Sequence[Capability], units: UnitTable) -> list[Capability]:
    return [cap for cap in capabilities if units.find(cap.unit) is not None]


def bundle_match_results(bundle: Bundle, units: UnitTable = BUILTIN_UNITS) -> list[tuple[str, MatchResult]]:
    """(cac id, result) pairs for every required capability with a known unit."""
    provided = _known_units(
        [c for c in bundle.tac.capabilities if c.direction is Direction.PROVIDED], units
    )
    pairs: list[tuple[str, MatchResult]] = []
    for cac in bundle.cacs:
        required = _known_units(
            [c for c in cac.capabilities if c.direction is Direction.REQUIRED], units
        )
        for result in match_capabilities(required, provided, units):
            pairs.append((cac.id, result))
    return pairs


_STATUS_DETAIL = {
    MatchStatus.MISSING: "the technological case provides no capability with this name",
    MatchStatus.UNIT_MISMATCH: "no provider with this name shares its dimension",
    MatchStatus.RANGE_NOT_COVERED: "no provider with this name covers the required range",
}


def link_rule_diagnostics(bundle: Bundle) -> list[Diagnostic]:
    """S1, S2, S5 (errors) plus S7, S8 (warnings): the away-reference rules.

    Shared by validate_bundle and the link resolver so both report identical
    messages.
    """
    diagnostics: list[Diagnostic] = []
    tac = bundle.tac
    cac_ids = {cac.id for cac in bundle.cacs}
    for element in tac.elements:
        if element.away_ref is None:
            continue
        target_case = element.away_ref[0]
        if target_case in cac_ids:
            diagnostics.append(
                _error(
                    "S1",
                    element.span,
                    f"technological case {tac.id!r} references clinical case {target_case!r} "
                    f"from claim {element.id!r}; references must point from clinical to "
                    "technological cases only",
                    (tac.id, element.id),
                )
            )
        else:
            diagnostics.append(
                _warning(
                    "S8",
                    element.span,
                    f"claim {element.id!r} references case {target_case!r}; the technological "
                    "case should be self-contained",
                    (tac.id, element.id),
                )
            )
    for cac in bundle.cacs:
        for element in cac.elements:
            if element.away_ref is None:
                continue
            target_case, target_id = element.away_ref
            if target_case != tac.id:
                diagnostics.append(
                    _error(
                        "S2",
                        element.span,
                        f"claim {element.id!r} references case {target_case!r}; away references "
                        f"must target the associated technological case {tac.id!r}",
                        (cac.id, element.id),
                    )
                )
                continue
            target = tac.find(target_id)
            if target is None:
                diagnostics.append(
                    _error(
                        "S5",
                        element.span,
                        f"away reference target {target_case}.{target_id} does not exist",
                        (cac.id, element.id),
                    )
                )
            elif target.kind is not ElementKind.CLAIM:
                diagnostics.append(
                    _error(
                        "S5",
                        element.span,
                        f"away reference target {target_case}.{target_id} is a "
                        f"{target.kind.value}, not a claim",
                        (cac.id, element.id),
                        (tac.id, target_id),
                    )
                )
            elif not target.is_public:
                diagnostics.append(
                    _error(
                        "S5",
                        element.span,
                        f"away reference target {target_case}.{target_id} is not public",
                        (cac.id, element.id),
                        (tac.id, target_id),
                    )
                )
            elif element.statement != target.statement:
                diagnostics.append(
                    _warning(
                        "S7",
                        element.span,
                        f"statement of claim {element.id!r} differs from its target "
                        f"{target_case}.{target_id}",
                        (cac.id, element.id),
                        (tac.id, target_id),
                    )
                )
    return diagnostics


def validate_bundle(bundle: Bundle, units: UnitTable = BUILTIN_UNITS) -> list[Diagnostic]:
    """Evaluate the separation rules S1-S8 on a bundle.

    Member cases are assumed to be parsed already; their G-rule findings are
    not repeated here. Run validate_case per member for those.
    """
    diagnostics = link_rule_diagnostics(bundle)
    tac = bundle.tac

    for cac in bundle.cacs:
        for element in cac.elements:
            if element.away_ref is None:
                continue
            documented = any(
                edge.kind is EdgeKind.IN_CONTEXT_OF and cac.element(edge.target).kind is ElementKind.CONTEXT
                for edge in cac.out_edges(element.id)
            )
            if not documented:
                diagnostics.append(
                    _error(
                        "S3",
                        element.span,
                        f"away-resolved claim {element.id!r} has no documenting context",
                        (cac.id, element.id),
                    )
                )

    for _, result in bundle_match_results(bundle, units):
        if result.status is not MatchStatus.SATISFIED:
            req = result.required
            diagnostics.append(
                _error(
                    "S4",
                    req.span,
                    f"required capability {req.name!r} "
                    f"[{format_decimal(req.low)}, {format_decimal(req.high)}] {req.unit} "
                    f"is not satisfied: {_STATUS_DETAIL[result.status]}",
                )
            )

    for cac in bundle.cacs:
        if cac.associated_tac != tac.id:
            if cac.associated_tac is None:
                message = f"clinical case {cac.id!r} declares no associated technological case"
            else:
                message = (
                    f"clinical case {cac.id!r} associates {cac.associated_tac!r}; "
                    f"expected the bundle's technological case {tac.id!r}"
                )
            diagnostics.append(_error("S6", cac.span, message))

    return sorted_diagnostics(diagnostics)
