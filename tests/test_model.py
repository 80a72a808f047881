import random
from decimal import Decimal

import pytest

from actool.model import (
    AssuranceCase,
    Capability,
    CaseKind,
    CycleError,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    UnknownElementError,
    ancestors,
    children,
    supported_by_cycle,
)
from actool.parser import print_case

import helpers


def claim(id, **kw):
    return Element(id, ElementKind.CLAIM, f"statement {id}", **kw)


def test_children_corpus_top_claim(cac_case):
    assert children(cac_case, "C1", EdgeKind.SUPPORTED_BY) == ["S"]


def test_children_evidence_leaf(tac_case):
    assert children(tac_case, "E1", EdgeKind.SUPPORTED_BY) == []
    assert children(tac_case, "E1", EdgeKind.IN_CONTEXT_OF) == []


def test_children_unknown_node(tac_case):
    with pytest.raises(UnknownElementError, match="NOPE"):
        children(tac_case, "NOPE", EdgeKind.SUPPORTED_BY)


def test_children_matches_edge_scan():
    rng = random.Random(11)
    for _ in range(60):
        case = helpers.gen_case(rng, max_elements=10)
        for element in case.elements:
            for kind in EdgeKind:
                assert children(case, element.id, kind) == helpers.brute_children(
                    case, element.id, kind
                )


def test_children_union_covers_outgoing_edges():
    rng = random.Random(12)
    for _ in range(40):
        case = helpers.gen_case(rng)
        for element in case.elements:
            combined = [
                (element.id, t, EdgeKind.SUPPORTED_BY)
                for t in children(case, element.id, EdgeKind.SUPPORTED_BY)
            ] + [
                (element.id, t, EdgeKind.IN_CONTEXT_OF)
                for t in children(case, element.id, EdgeKind.IN_CONTEXT_OF)
            ]
            outgoing = [(e.source, e.target, e.kind) for e in case.edges if e.source == element.id]
            assert sorted(combined, key=str) == sorted(outgoing, key=str)


def test_ancestors_context_has_none(tac_case):
    assert ancestors(tac_case, "Xa") == set()


def test_ancestors_away_claim(cac_case):
    assert ancestors(cac_case, "C4") == {"S", "C1"}


def test_ancestors_matches_brute_force():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        case = helpers.gen_case(rng, max_elements=12)
        if supported_by_cycle(case) is not None:
            continue
        checked += 1
        for element in case.elements:
            assert ancestors(case, element.id) == helpers.brute_ancestors(case, element.id)


def test_ancestors_reports_cycle():
    case = AssuranceCase(
        id="X",
        kind=CaseKind.MONOLITHIC,
        elements=(claim("A"), claim("B")),
        edges=(
            Edge("A", "B", EdgeKind.SUPPORTED_BY),
            Edge("B", "A", EdgeKind.SUPPORTED_BY),
        ),
    )
    with pytest.raises(CycleError) as exc:
        ancestors(case, "A")
    assert exc.value.cycle[0] == exc.value.cycle[-1]
    assert set(exc.value.cycle) == {"A", "B"}


def test_cycle_finder_agrees_with_closed_walk_oracle():
    rng = random.Random(14)
    for _ in range(200):
        case = helpers.gen_case(rng, max_elements=8)
        assert (supported_by_cycle(case) is not None) == helpers.brute_has_supported_by_cycle(case)


def test_canonicalize_deterministic(tac_case):
    assert print_case(tac_case) == print_case(tac_case)


def test_canonicalize_ignores_declaration_order(tac_case):
    reordered = AssuranceCase(
        id=tac_case.id,
        kind=tac_case.kind,
        elements=tuple(reversed(tac_case.elements)),
        edges=tuple(reversed(tac_case.edges)),
        capabilities=tuple(reversed(tac_case.capabilities)),
    )
    assert print_case(reordered) == print_case(tac_case)


def test_canonicalize_sensitive_to_statement_change(tac_case):
    changed_elements = tuple(
        Element(e.id, e.kind, e.statement + "!", is_root=e.is_root, is_public=e.is_public,
                is_undeveloped=e.is_undeveloped, is_module=e.is_module, concern=e.concern,
                away_ref=e.away_ref)
        if e.id == "C1"
        else e
        for e in tac_case.elements
    )
    changed = AssuranceCase(
        id=tac_case.id,
        kind=tac_case.kind,
        elements=changed_elements,
        edges=tac_case.edges,
        capabilities=tac_case.capabilities,
    )
    assert print_case(changed) != print_case(tac_case)


def test_flag_restrictions_enforced():
    with pytest.raises(ValueError):
        Element("E1", ElementKind.EVIDENCE, "x", is_root=True)
    with pytest.raises(ValueError):
        Element("S1", ElementKind.STRATEGY, "x", is_undeveloped=True)
    with pytest.raises(ValueError):
        Element("C1", ElementKind.CLAIM, "x", away_ref=("T", "C2"))  # not undeveloped
    with pytest.raises(ValueError):
        Element("bad id!", ElementKind.CLAIM, "x")


def test_duplicate_element_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        AssuranceCase("X", CaseKind.MONOLITHIC, (claim("A"), claim("A")))


def test_dangling_edge_rejected():
    for source, target in (("A", "GHOST"), ("GHOST", "A")):
        with pytest.raises(ValueError, match="unknown element 'GHOST'"):
            AssuranceCase("X", CaseKind.MONOLITHIC, (claim("A"),), (Edge(source, target, EdgeKind.SUPPORTED_BY),))


def test_bundle_shape_enforced(tac_case, cac_case):
    from actool.model import Bundle

    with pytest.raises(ValueError, match="at least one"):
        Bundle(tac_case, ())
    with pytest.raises(ValueError, match="technological"):
        Bundle(cac_case, (cac_case,))
    assert Bundle(tac_case, (cac_case,)).cases() == (tac_case, cac_case)


@pytest.mark.parametrize("bound", ["NaN", "sNaN", "-NaN", "Infinity", "-Infinity"])
def test_non_finite_capability_bounds_rejected(bound):
    # A NaN bound would raise decimal.InvalidOperation at the U2 comparison.
    with pytest.raises(ValueError, match="finite"):
        Capability("p", Direction.PROVIDED, "W", Decimal(bound), 1)
    with pytest.raises(ValueError, match="finite"):
        Capability("p", Direction.REQUIRED, "W", 0, Decimal(bound))
