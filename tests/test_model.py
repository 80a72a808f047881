import random
from decimal import Decimal

import pytest

from actool.analyze import case_metrics
from actool.cli import run
from actool.model import (
    AssuranceCase,
    Capability,
    CaseKind,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    reach,
    supported_by_cycle,
)
from actool.parser import print_case
from actool.validate import validate_case

import helpers
from conftest import CORPUS, load_corpus_bundle


def claim(id, **kw):
    return Element(id, ElementKind.CLAIM, f"statement {id}", **kw)


def targets(case, node, kind):
    return [edge.target for edge in case.out_edges(node) if edge.kind is kind]


def supported_by_ancestors(case, node):
    """Every element above `node` over supportedBy edges, by an upward walk."""
    up = reach([node], lambda n: [e.source for e in case.in_edges(n) if e.kind is EdgeKind.SUPPORTED_BY])
    return set(up[1:])


def test_children_corpus_top_claim(cac_case):
    assert targets(cac_case, "C1", EdgeKind.SUPPORTED_BY) == ["S"]


def test_children_evidence_leaf(tac_case):
    assert tac_case.out_edges("E1") == ()


def test_children_matches_edge_scan():
    rng = random.Random(11)
    for _ in range(60):
        case = helpers.gen_case(rng, max_elements=10)
        for element in case.elements:
            for kind in EdgeKind:
                assert targets(case, element.id, kind) == helpers.brute_children(case, element.id, kind)


def test_children_union_covers_outgoing_edges():
    rng = random.Random(12)
    for _ in range(40):
        case = helpers.gen_case(rng)
        for element in case.elements:
            outgoing = [e for e in case.edges if e.source == element.id]
            incoming = [e for e in case.edges if e.target == element.id]
            assert list(case.out_edges(element.id)) == outgoing
            assert list(case.in_edges(element.id)) == incoming


def test_ancestors_context_has_none(tac_case):
    assert supported_by_ancestors(tac_case, "Xa") == set()


def test_ancestors_away_claim(cac_case):
    assert supported_by_ancestors(cac_case, "C4") == {"S", "C1"}


def test_ancestors_matches_brute_force():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        case = helpers.gen_case(rng, max_elements=12)
        if supported_by_cycle(case) is not None:
            continue
        checked += 1
        for element in case.elements:
            assert supported_by_ancestors(case, element.id) == helpers.brute_ancestors(case, element.id)


def test_validate_and_metrics_walk_each_case_once(monkeypatch):
    # Nothing caches the supportedBy walk, so a G2 or depth pass that walked
    # once per element would make `validate` and `metrics` quadratic.
    import actool.analyze
    import actool.model

    walks = []
    real = actool.model.supported_by_dfs

    def counting(case):
        walks.append(case.id)
        return real(case)

    monkeypatch.setattr(actool.model, "supported_by_dfs", counting)
    monkeypatch.setattr(actool.analyze, "supported_by_dfs", counting)  # bound there by import
    rng = random.Random(15)
    for _ in range(20):
        case = helpers.gen_case(rng)
        for check in (validate_case, case_metrics):
            walks.clear()
            check(case)
            assert walks == [case.id], check.__name__
    bundle, _ = load_corpus_bundle()
    for argv in (["validate"], ["validate", "--json"]):
        walks.clear()
        assert run([*argv, str(CORPUS / "bundle_mrgfus.acb")]) == 0
        assert walks == [case.id for case in bundle.cases()], argv


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
