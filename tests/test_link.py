import random

import pytest

from actool.diagnostics import Severity
from actool.link import inline_bundle, resolve_links
from actool.model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    UnknownElementError,
)
from actool.parser import print_case
from actool.validate import validate_case

import helpers


def claim(id, **kw):
    return Element(id, ElementKind.CLAIM, f"statement {id}", **kw)


def normalize(case: AssuranceCase, prefix: str, case_id: str) -> AssuranceCase:
    """The documented id normalization: strip the inline prefix, equate case ids."""

    def rename(identifier: str) -> str:
        return identifier.replace(prefix, "")

    return AssuranceCase(
        id=case_id,
        kind=case.kind,
        elements=tuple(
            Element(
                rename(e.id), e.kind, e.statement, is_root=e.is_root, is_public=e.is_public,
                is_undeveloped=e.is_undeveloped, is_module=e.is_module, concern=e.concern,
                away_ref=e.away_ref,
            )
            for e in case.elements
        ),
        edges=tuple(
            Edge(rename(e.source), rename(e.target), e.kind) for e in case.edges
        ),
        capabilities=case.capabilities,
        associated_tac=case.associated_tac,
    )


def test_corpus_resolutions(corpus_resolved):
    assert dict(corpus_resolved.resolutions) == {
        ("CAC-UF", "C4"): ("TAC-1", "C2"),
        ("CAC-UF", "C5"): ("TAC-1", "C3"),
    }


def test_resolve_no_awayrefs_vacuous():
    tac = AssuranceCase(
        "T", CaseKind.TECHNOLOGICAL, (claim("C1", is_root=True, is_public=True, is_undeveloped=True),)
    )
    cac = AssuranceCase(
        "C", CaseKind.CLINICAL, (claim("C1", is_root=True, is_undeveloped=True),), associated_tac="T"
    )
    resolved, diagnostics = resolve_links(Bundle(tac, (cac,)))
    assert resolved is not None
    assert dict(resolved.resolutions) == {}
    assert diagnostics == []


def test_resolve_missing_target_fails_with_s5():
    tac = AssuranceCase(
        "T", CaseKind.TECHNOLOGICAL, (claim("C1", is_root=True, is_public=True, is_undeveloped=True),)
    )
    cac = AssuranceCase(
        "C",
        CaseKind.CLINICAL,
        (
            claim("C1", is_root=True, is_undeveloped=True),
            claim("C4", is_undeveloped=True, away_ref=("T", "GHOST")),
        ),
        associated_tac="T",
    )
    resolved, diagnostics = resolve_links(Bundle(tac, (cac,)))
    assert resolved is None
    assert [d.rule_id for d in diagnostics] == ["S5"]


def test_resolve_messages_match_validate_bundle(corpus_bundle):
    from actool.validate import validate_bundle

    tac = AssuranceCase(
        "T",
        CaseKind.TECHNOLOGICAL,
        (
            claim("C1", is_root=True, is_public=True, is_undeveloped=True),
            claim("C2", is_undeveloped=True, away_ref=("C", "C1")),
        ),
    )
    cac = AssuranceCase(
        "C", CaseKind.CLINICAL, (claim("C1", is_root=True, is_undeveloped=True),), associated_tac="T"
    )
    bundle = Bundle(tac, (cac,))
    _, from_resolve = resolve_links(bundle)
    from_validate = validate_bundle(bundle)
    resolve_lines = {d.line() for d in from_resolve}
    assert resolve_lines <= {d.line() for d in from_validate}
    assert any(d.rule_id == "S1" for d in from_resolve)


def test_resolve_idempotent(corpus_bundle):
    first, _ = resolve_links(corpus_bundle)
    second, _ = resolve_links(corpus_bundle)
    assert dict(first.resolutions) == dict(second.resolutions)


def test_inline_matches_hand_authored_monolithic(corpus_resolved, mono_case):
    inlined = inline_bundle(corpus_resolved, "CAC-UF")
    assert inlined.kind is CaseKind.MONOLITHIC
    assert inlined.capabilities == ()
    left = print_case(normalize(inlined, "TAC-1__", "M"))
    right = print_case(normalize(mono_case, "TAC-1__", "M"))
    assert left == right


def test_inline_output_passes_rules(corpus_resolved):
    inlined = inline_bundle(corpus_resolved, "CAC-UF")
    assert validate_case(inlined) == []


def test_inline_without_awayrefs_is_kind_change_only():
    tac = AssuranceCase(
        "T", CaseKind.TECHNOLOGICAL, (claim("C1", is_root=True, is_public=True, is_undeveloped=True),)
    )
    cac = AssuranceCase(
        "C",
        CaseKind.CLINICAL,
        (claim("C1", is_root=True), Element("E1", ElementKind.EVIDENCE, "e")),
        edges=(Edge("C1", "E1", EdgeKind.SUPPORTED_BY),),
        associated_tac="T",
    )
    resolved, _ = resolve_links(Bundle(tac, (cac,)))
    inlined = inline_bundle(resolved, "C")
    expected = AssuranceCase(
        "C", CaseKind.MONOLITHIC, cac.elements, cac.edges, (), associated_tac=None
    )
    assert print_case(inlined) == print_case(expected)


def test_inline_unknown_cac(corpus_resolved):
    with pytest.raises(UnknownElementError, match="NOPE"):
        inline_bundle(corpus_resolved, "NOPE")


def duplicate_target_bundle():
    tac = AssuranceCase(
        "T",
        CaseKind.TECHNOLOGICAL,
        (
            claim("C1", is_root=True, is_public=True),
            claim("C2", is_public=True),
            Element("E1", ElementKind.EVIDENCE, "e"),
        ),
        edges=(
            Edge("C1", "C2", EdgeKind.SUPPORTED_BY),
            Edge("C2", "E1", EdgeKind.SUPPORTED_BY),
        ),
    )
    cac = AssuranceCase(
        "C",
        CaseKind.CLINICAL,
        (
            claim("C1", is_root=True),
            Element("A1", ElementKind.CLAIM, "statement C2", is_undeveloped=True, away_ref=("T", "C2")),
            Element("A2", ElementKind.CLAIM, "statement C2", is_undeveloped=True, away_ref=("T", "C2")),
            Element("X1", ElementKind.CONTEXT, "x"),
            Element("X2", ElementKind.CONTEXT, "x"),
        ),
        edges=(
            Edge("C1", "A1", EdgeKind.SUPPORTED_BY),
            Edge("C1", "A2", EdgeKind.SUPPORTED_BY),
            Edge("A1", "X1", EdgeKind.IN_CONTEXT_OF),
            Edge("A2", "X2", EdgeKind.IN_CONTEXT_OF),
        ),
    )
    return Bundle(tac, (cac,))


def test_inline_duplicates_shared_subtrees():
    bundle = duplicate_target_bundle()
    resolved, _ = resolve_links(bundle)
    inlined = inline_bundle(resolved, "C")
    size = len(helpers.brute_reachable(bundle.tac, "C2"))
    assert size == 2
    assert len(inlined.elements) == len(bundle.cacs[0].elements) + 2 * size
    ids = {e.id for e in inlined.elements}
    assert {"T__C2", "T__E1", "T__2__C2", "T__2__E1"} <= ids
    assert validate_case(inlined) == []


def test_inline_node_count_invariant_random():
    rng = random.Random(41)
    for _ in range(60):
        bundle = helpers.gen_valid_bundle(rng)
        resolved, diagnostics = resolve_links(bundle)
        assert resolved is not None, [d.line() for d in diagnostics]
        for cac in bundle.cacs:
            inlined = inline_bundle(resolved, cac.id)
            expected = len(cac.elements) + sum(
                len(helpers.brute_reachable(bundle.tac, target_id))
                for (case_id, _), (_, target_id) in resolved.resolutions.items()
                if case_id == cac.id
            )
            assert len(inlined.elements) == expected
            assert all(e.away_ref is None for e in inlined.elements)


def test_inline_preserves_validity_random():
    rng = random.Random(42)
    for _ in range(40):
        bundle = helpers.gen_valid_bundle(rng)
        for case in bundle.cases():
            assert [d for d in validate_case(case) if d.severity is Severity.ERROR] == []
        resolved, _ = resolve_links(bundle)
        for cac in bundle.cacs:
            inlined = inline_bundle(resolved, cac.id)
            findings = validate_case(inlined)
            assert [d for d in findings if d.severity is Severity.ERROR] == [], [
                d.line() for d in findings
            ]


def test_resolved_cross_edges_point_into_tac_only():
    rng = random.Random(43)
    for _ in range(40):
        bundle = helpers.gen_valid_bundle(rng)
        resolved, _ = resolve_links(bundle)
        cac_ids = {cac.id for cac in bundle.cacs}
        for (source_case, _), (target_case, target_id) in resolved.resolutions.items():
            assert source_case in cac_ids
            assert target_case == bundle.tac.id
            assert bundle.tac.element(target_id).is_public
