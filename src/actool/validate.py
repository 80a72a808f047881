"""Rule engine for single-case well-formedness and bundle separation checks.

G-rules check one case against the GSN structure conventions, S-rules check
the discipline between a technological case and its clinical cases, U-rules
check capability units and ranges. The full catalog is in RULES.md; each
rule's severity comes from `diagnostics.RULES`, and a test checks that table
against RULES.md's severity column. Diagnostics come back sorted by (file,
line, column, rule id); evaluation is deterministic.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .diagnostics import Diagnostic, finding, sorted_diagnostics
from .model import (
    AssuranceCase,
    Bundle,
    Capability,
    CaseKind,
    Direction,
    EdgeKind,
    ElementKind,
    SUPPORT_SOURCES,
    _leaves_and_evidenced,
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


SUPPORT_TARGETS = (ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE)
CONTEXT_TARGETS = (ElementKind.CONTEXT, ElementKind.ASSUMPTION, ElementKind.JUSTIFICATION)
# G3 and G4: the rule and the legal target kinds of a supportedBy and of an
# inContextOf edge; both kinds start at a claim or strategy
_SUPPORTED_BY_TYPING = ("G3", SUPPORT_TARGETS)
_IN_CONTEXT_OF_TYPING = ("G4", CONTEXT_TARGETS)
# G8: the one case kind that may declare capabilities of each direction
_CAPABILITY_HOME = {
    Direction.PROVIDED: CaseKind.TECHNOLOGICAL,
    Direction.REQUIRED: CaseKind.CLINICAL,
}


def _article(word: str) -> str:
    """`word` after its indefinite article: 'an evidence', 'a supportedBy'."""
    return f"{'an' if word[0] in 'aeiou' else 'a'} {word}"


def validate_case(case: AssuranceCase, units: UnitTable = BUILTIN_UNITS) -> list[Diagnostic]:
    """Evaluate G1-G8 and U1-U2 on a single case."""
    diagnostics: list[Diagnostic] = []
    cid = case.id

    roots = [e for e in case.elements if e.is_root]
    if len(roots) != 1:
        if not roots:
            diagnostics.append(finding("G1", case.span, f"case {cid!r} declares no root claim"))
        else:
            message = f"case {cid!r} declares {len(roots)} root claims; exactly one is required"
            diagnostics.append(finding("G1", roots[1].span, message, *((cid, r.id) for r in roots)))

    cycle = supported_by_cycle(case)
    if cycle is not None:
        message = "supportedBy cycle: " + " -> ".join(cycle)
        diagnostics.append(finding("G2", case.element(cycle[0]).span, message, *((cid, node) for node in cycle[:-1])))

    by_id = case._by_id
    for source_id, target_id, edge_kind, span in case.edges:
        source, target = by_id[source_id], by_id[target_id]
        source_kind, target_kind = source.kind, target.kind
        support = edge_kind is EdgeKind.SUPPORTED_BY
        rule, allowed = _SUPPORTED_BY_TYPING if support else _IN_CONTEXT_OF_TYPING
        if source_kind not in SUPPORT_SOURCES or target_kind not in allowed:
            end, bad = ("source", source) if source_kind not in SUPPORT_SOURCES else ("target", target)
            message = f"{bad.kind.value} {bad.id!r} cannot be the {end} of {_article(edge_kind.value)} edge"
            diagnostics.append(finding(rule, span, message, (cid, bad.id)))
        elif support and source_kind is ElementKind.STRATEGY and target_kind is not ElementKind.CLAIM:
            message = f"strategy {source.id!r} must be supported by claims only, "
            message += f"not {target_kind.value} {target.id!r}"
            diagnostics.append(finding(rule, span, message, (cid, source.id), (cid, target.id)))

    leaves, evidenced = _leaves_and_evidenced(case)
    for leaf in leaves:
        if not (leaf.id in evidenced or leaf.is_undeveloped):
            message = f"leaf claim {leaf.id!r} has no supporting evidence and is not marked undeveloped"
            diagnostics.append(finding("G5", leaf.span, message, (cid, leaf.id)))

    supported_by, in_context_of = case._kind_targets()
    if len(roots) == 1:
        reachable = set(
            reach([roots[0].id], lambda node: (*supported_by.get(node, ()), *in_context_of.get(node, ())))
        )
        for element in case.elements:
            if element.id not in reachable:
                message = f"element {element.id!r} is not reachable from the root claim"
                diagnostics.append(finding("G6", element.span, message, (cid, element.id)))

    for element in case.elements:
        if element.kind is ElementKind.STRATEGY and element.id not in supported_by:
            message = f"strategy {element.id!r} has no supporting claim"
            diagnostics.append(finding("G7", element.span, message, (cid, element.id)))

    for cap in case.capabilities:
        home = _CAPABILITY_HOME[cap.direction]
        if case.kind is not home:
            message = f"a '{cap.direction.value}' capability is only allowed in a {home.value} case "
            message += f"({cap.name!r} in {case.kind.value} case {cid!r})"
            diagnostics.append(finding("G8", cap.span, message))
        if units.find(cap.unit) is None:
            diagnostics.append(finding("U1", cap.span, f"unknown unit {cap.unit!r} on capability {cap.name!r}"))
        if cap.low > cap.high:
            message = f"capability {cap.name!r} has an empty range "
            message += f"[{format_decimal(cap.low)}, {format_decimal(cap.high)}]"
            diagnostics.append(finding("U2", cap.span, message))

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
    intervals. Unknown unit symbols, and a bound whose base-unit value
    overflows `decimal`'s exponent range, raise UnitError.
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
            rule = "S1"
            message = f"technological case {tac.id!r} references clinical case {target_case!r} from claim "
            message += f"{element.id!r}; references must point from clinical to technological cases only"
        else:
            rule = "S8"
            message = f"claim {element.id!r} references case {target_case!r}; the technological case "
            message += "should be self-contained"
        diagnostics.append(finding(rule, element.span, message, (tac.id, element.id)))
    for cac in bundle.cacs:
        for element in cac.elements:
            if element.away_ref is None:
                continue
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


def validate_bundle(bundle: Bundle, units: UnitTable = BUILTIN_UNITS) -> list[Diagnostic]:
    """Evaluate the separation rules S1-S8 on a bundle.

    Member cases are assumed to be parsed already; their G-rule findings are
    not repeated here. Run validate_case per member for those.
    """
    return _bundle_findings(bundle, units)[0]


def _bundle_findings(bundle: Bundle, units: UnitTable) -> tuple[list[Diagnostic], list[tuple[str, MatchResult]]]:
    """`validate_bundle`'s diagnostics and the `bundle_match_results` that S4 read."""
    diagnostics = link_rule_diagnostics(bundle)
    tac = bundle.tac

    for cac in bundle.cacs:
        in_context_of, by_id = cac._kind_targets()[1], cac._by_id
        for element in cac.elements:
            if element.away_ref is None:
                continue
            documented = any(by_id[target].kind is ElementKind.CONTEXT for target in in_context_of.get(element.id, ()))
            if not documented:
                message = f"away-resolved claim {element.id!r} has no documenting context"
                diagnostics.append(finding("S3", element.span, message, (cac.id, element.id)))

    matches = bundle_match_results(bundle, units)
    for _, result in matches:
        if result.status is not MatchStatus.SATISFIED:
            req = result.required
            message = f"required capability {req.name!r} [{format_decimal(req.low)}, {format_decimal(req.high)}] "
            message += f"{req.unit} is not satisfied: {_STATUS_DETAIL[result.status]}"
            diagnostics.append(finding("S4", req.span, message))

    for cac in bundle.cacs:
        if cac.associated_tac != tac.id:
            if cac.associated_tac is None:
                message = f"clinical case {cac.id!r} declares no associated technological case"
            else:
                message = (
                    f"clinical case {cac.id!r} associates {cac.associated_tac!r}; "
                    f"expected the bundle's technological case {tac.id!r}"
                )
            diagnostics.append(finding("S6", cac.span, message))

    return sorted_diagnostics(diagnostics), matches
