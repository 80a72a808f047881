"""Rule engine for single-case well-formedness and bundle separation checks.

G-rules check one case against the GSN structure conventions, S-rules check
the discipline between a technological case and its clinical cases, U-rules
check capability units and ranges. S3, S4 and S6 are checked here; the
away-reference rules S1, S2, S5, S7 and S8 come from `link`. The full catalog
is in RULES.md; each rule's severity comes from `diagnostics.RULES`, and a test
checks that table against RULES.md's severity column. Diagnostics come back
sorted by (file, line, column, rule id); evaluation is deterministic.

G3 and G4 are evaluated per entry of the case's per-kind target index: a pass
over each index flags the sources with a target their kind may not take, and
only a flagged source's edges are read again, so each offending edge gets its
own diagnostic and span.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .diagnostics import Diagnostic, _article, finding, sorted_diagnostics
from .model import (
    AssuranceCase,
    Bundle,
    Capability,
    CaseKind,
    Direction,
    EdgeKind,
    ElementKind,
    SUPPORT_SOURCES,
    _away_claims,
    _supported_by_facts,
    format_decimal,
    reach,
    supported_by_cycle,
)
from .units import BUILTIN_UNITS, UnitTable, at_most, in_base


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
# G3: the supportedBy target kinds each source kind may take; a strategy is supported by claims only
_SUPPORTED_BY_LEGAL = {**dict.fromkeys(SUPPORT_SOURCES, SUPPORT_TARGETS), ElementKind.STRATEGY: (ElementKind.CLAIM,)}
# G8: the one case kind that may declare capabilities of each direction
_CAPABILITY_HOME = {
    Direction.PROVIDED: CaseKind.TECHNOLOGICAL,
    Direction.REQUIRED: CaseKind.CLINICAL,
}


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
    supported_by, in_context_of = case._kind_targets()
    argued, evidenced, ill_typed = _supported_by_facts(case, _SUPPORTED_BY_LEGAL)
    for source, targets in in_context_of.items():
        allowed = CONTEXT_TARGETS if by_id[source].kind in SUPPORT_SOURCES else ()
        for target in targets:
            if by_id[target].kind not in allowed:
                ill_typed.add(source)
                break
    if ill_typed:  # each offending edge of a flagged source, with its own span
        for source_id, target_id, edge_kind, span in case.edges:
            if source_id not in ill_typed:
                continue
            source, target = by_id[source_id], by_id[target_id]
            source_kind, target_kind = source.kind, target.kind
            support = edge_kind is EdgeKind.SUPPORTED_BY
            rule, allowed = _SUPPORTED_BY_TYPING if support else _IN_CONTEXT_OF_TYPING
            if source_kind not in SUPPORT_SOURCES or target_kind not in allowed:
                end, bad = ("source", source) if source_kind not in SUPPORT_SOURCES else ("target", target)
                message = f"{bad.kind.value} {bad.id!r} cannot be the {end} of {_article(edge_kind.value)} edge"
                diagnostics.append(finding(rule, span, message, (cid, bad.id)))
            elif support and target_kind not in _SUPPORTED_BY_LEGAL[source_kind]:
                message = f"strategy {source.id!r} must be supported by claims only, "
                message += f"not {target_kind.value} {target.id!r}"
                diagnostics.append(finding(rule, span, message, (cid, source.id), (cid, target.id)))

    claim, strategy = ElementKind.CLAIM, ElementKind.STRATEGY
    for element in case.elements:
        kind = element.kind
        if kind is claim and not (element.id in argued or element.id in evidenced or element.is_undeveloped):
            message = f"leaf claim {element.id!r} has no supporting evidence and is not marked undeveloped"
            diagnostics.append(finding("G5", element.span, message, (cid, element.id)))
        elif kind is strategy and element.id not in supported_by:
            message = f"strategy {element.id!r} has no supporting claim"
            diagnostics.append(finding("G7", element.span, message, (cid, element.id)))

    if len(roots) == 1:
        reached = reach([roots[0].id], lambda node: supported_by.get(node, []) + in_context_of.get(node, []))
        if len(reached) < len(by_id):
            reached = set(reached)
            for element in case.elements:
                if element.id not in reached:
                    message = f"element {element.id!r} is not reachable from the root claim"
                    diagnostics.append(finding("G6", element.span, message, (cid, element.id)))

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
    the required one. Comparison is exact on closed intervals, with no
    rounding, for every bound and every unit scale. Unknown unit symbols
    raise UnitError.
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
            (p, unit.scale_to_base) for p in candidates
            if (unit := units.lookup(p.unit)).dimension == req_unit.dimension
        ]
        if not same_dimension:
            results.append(MatchResult(req, MatchStatus.UNIT_MISMATCH))
            continue
        low = in_base(req.low, req_unit.scale_to_base)
        high = in_base(req.high, req_unit.scale_to_base)
        match = next((p for p, scale in same_dimension
                      if at_most(in_base(p.low, scale), low) and at_most(high, in_base(p.high, scale))), None)
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


def validate_bundle(bundle: Bundle, units: UnitTable = BUILTIN_UNITS) -> list[Diagnostic]:
    """Evaluate the separation rules S1-S8 on a bundle.

    Member cases are assumed to be parsed already; their G-rule findings are
    not repeated here. Run validate_case per member for those.
    """
    return _bundle_findings(bundle, units)[0]


def _bundle_findings(bundle: Bundle, units: UnitTable) -> tuple[list[Diagnostic], list[tuple[str, MatchResult]]]:
    """`validate_bundle`'s diagnostics and the `bundle_match_results` that S4 read."""
    from .link import link_rule_diagnostics  # a case validation loads no linker
    diagnostics = link_rule_diagnostics(bundle)
    tac = bundle.tac

    context = ElementKind.CONTEXT
    in_context_of = {cac.id: cac._kind_targets()[1] for cac in bundle.cacs}
    for cac, element in _away_claims(bundle.cacs):
        for target in in_context_of[cac.id].get(element.id, ()):
            if cac._by_id[target].kind is context:
                break
        else:
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
                message = f"clinical case {cac.id!r} associates {cac.associated_tac!r}; "
                message += f"expected the bundle's technological case {tac.id!r}"
            diagnostics.append(finding("S6", cac.span, message))

    return sorted_diagnostics(diagnostics), matches
