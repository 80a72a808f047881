"""Property tests: the edge-indexed passes agree with brute-force scans of the
edge list (the oracles in helpers) on random cases of up to 40 elements with
random kinds, flags and edges, cycles and self-loops included."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from actool.analyze import case_metrics
from actool.model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    reach,
    supported_by_cycle,
)
from actool.validate import validate_bundle, validate_case

import helpers

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def cases(draw, case_id="H", kind=CaseKind.MONOLITHIC, away_case="T", acyclic=False):
    """A model-valid case; with `acyclic`, supportedBy edges only point to
    later elements."""
    n = draw(st.integers(1, 40))
    roots = draw(st.sets(st.integers(0, n - 1), max_size=2))
    elements = []
    for i in range(n):
        element_kind = draw(st.sampled_from(ElementKind))
        is_claim = element_kind is ElementKind.CLAIM
        undeveloped = is_claim and draw(st.booleans())
        away = None
        if undeveloped and draw(st.booleans()):
            away = (away_case, f"N{draw(st.integers(0, 39))}")
        elements.append(
            Element(
                f"N{i}",
                element_kind,
                "",
                is_root=is_claim and i in roots,
                is_undeveloped=undeveloped,
                is_module=is_claim and draw(st.booleans()),
                away_ref=away,
            )
        )
    triples = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(EdgeKind)),
            max_size=2 * n,
        )
    )
    edges = tuple(
        Edge(f"N{a}", f"N{b}", edge_kind)
        for a, b, edge_kind in triples
        if not (acyclic and edge_kind is EdgeKind.SUPPORTED_BY and a >= b)
    )
    return AssuranceCase(
        id=case_id,
        kind=kind,
        elements=tuple(elements),
        edges=edges,
        associated_tac="TAC" if kind is CaseKind.CLINICAL else None,
    )


@st.composite
def bundles(draw):
    tac = draw(cases(case_id="TAC", kind=CaseKind.TECHNOLOGICAL))
    count = draw(st.integers(1, 3))
    cacs = tuple(
        draw(cases(case_id=f"CAC-{i}", kind=CaseKind.CLINICAL, away_case="TAC")) for i in range(count)
    )
    return Bundle(tac, cacs)


def findings(diagnostics, rule: str) -> set:
    return {d.elements[0] for d in diagnostics if d.rule_id == rule}


@PROPERTY_SETTINGS
@given(cases())
def test_children_and_subtree_size_match_edge_scans(case):
    for element in case.elements:
        for kind in EdgeKind:
            children = [edge.target for edge in case.out_edges(element.id) if edge.kind is kind]
            assert children == helpers.brute_children(case, element.id, kind)
        subtree = reach([element.id], lambda node: [edge.target for edge in case.out_edges(node)])
        assert len(subtree) == len(set(subtree))
        assert set(subtree) == helpers.brute_reachable(case, element.id)


@PROPERTY_SETTINGS
@given(cases(acyclic=True))
def test_ancestors_and_depth_match_edge_scans_on_acyclic_cases(case):
    supported_by = (EdgeKind.SUPPORTED_BY,)
    below = {e.id: helpers.brute_reachable(case, e.id, supported_by) for e in case.elements}
    for element in case.elements:
        expected = {other for other, reached in below.items() if other != element.id and element.id in reached}
        above = reach([element.id], lambda n: [e.source for e in case.in_edges(n) if e.kind in supported_by])
        assert set(above[1:]) == expected
    assert case_metrics(case).depth == helpers.brute_acyclic_depth(case)


TWO_CYCLES = AssuranceCase(
    id="H",
    kind=CaseKind.MONOLITHIC,
    elements=tuple(Element(f"N{i}", ElementKind.CLAIM, "") for i in range(3)),
    edges=tuple(
        Edge(a, b, EdgeKind.SUPPORTED_BY) for a, b in (("N0", "N1"), ("N1", "N0"), ("N1", "N2"), ("N2", "N1"))
    ),
)


@PROPERTY_SETTINGS
@given(cases())
@example(TWO_CYCLES)  # the walk closes N0-N1 first, then N1-N2
def test_depth_cycle_and_g2_match_recursive_walk(case):
    depth, cycle = helpers.brute_dfs(case)
    assert case_metrics(case).depth == depth
    assert supported_by_cycle(case) == cycle
    g2 = [(d.message, d.elements) for d in validate_case(case) if d.rule_id == "G2"]
    if cycle is None:
        assert g2 == []
    else:
        assert g2 == [("supportedBy cycle: " + " -> ".join(cycle), tuple((case.id, node) for node in cycle[:-1]))]


@PROPERTY_SETTINGS
@given(cases())
def test_g5_g6_g7_and_coverage_match_edge_scans(case):
    diagnostics = validate_case(case)
    assert findings(diagnostics, "G5") == {(case.id, node) for node in helpers.brute_g5(case)}
    assert findings(diagnostics, "G6") == {(case.id, node) for node in helpers.brute_g6(case)}
    assert findings(diagnostics, "G7") == {(case.id, node) for node in helpers.brute_g7(case)}
    assert case_metrics(case).evidence_coverage == helpers.brute_evidence_coverage(case)


@PROPERTY_SETTINGS
@given(bundles())
def test_s3_matches_edge_scan(bundle):
    assert findings(validate_bundle(bundle), "S3") == helpers.brute_s3(bundle)
