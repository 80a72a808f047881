import random
from collections import Counter

import pytest

from actool.analyze import bundle_metrics, impact
from actool.diagnostics import Severity
from actool.link import inline_bundle, link_rule_diagnostics, resolve_links
from actool.model import (
    AssuranceCase,
    Bundle,
    CaseKind,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    SourceSpan,
    UnknownElementError,
)
from actool.parser import print_case
from actool.validate import validate_bundle, validate_case

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
    for case_id in ("NOPE", "TAC-1"):  # the technological case is no clinical case
        with pytest.raises(UnknownElementError, match=f"unknown clinical case id '{case_id}' in bundle"):
            inline_bundle(corpus_resolved, case_id)


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
                len(helpers.brute_reachable(bundle.tac, element.away_ref[1]))
                for element in cac.elements
                if element.away_ref is not None
            )
            assert len(inlined.elements) == expected
            assert all(e.away_ref is None for e in inlined.elements)
            # copied edges skip Edge's constructor: each must still be an exact Edge
            assert all(type(e) is Edge for e in inlined.edges)


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


def _taking_copy_ids(rng: random.Random, bundle: Bundle) -> Bundle:
    """`bundle` with each clinical case also declaring contexts whose ids copies would take: `<tacId>__<id>`,
    `<tacId>__2__<id>` or both, for some technological ids."""
    tac = bundle.tac
    cacs = []
    for cac in bundle.cacs:
        chosen = rng.sample(tac.elements, rng.randint(1, min(4, len(tac.elements))))
        names = [f"{tac.id}__{ordinal}{element.id}" for element in chosen
                 for ordinal in rng.sample(["", "2__"], rng.randint(1, 2))]
        taken = tuple(Element(name, ElementKind.CONTEXT, "taken") for name in names)
        cacs.append(cac._replace(elements=cac.elements + taken))
    return Bundle(tac, tuple(cacs))


def test_inlined_cases_keep_the_model_invariants():
    # `inline_bundle` builds its copies and its case without their constructors' checks, which must hold: the
    # constructors accept each value as it is, and there is one element per clinical element and per copied node.
    # An id dict drops a duplicate id silently, so the count is what catches one. In every other bundle the
    # clinical cases hold ids that copies would take, which forces the ordinal skip.
    rng = random.Random(43)
    skipped = 0
    for number in range(320):
        bundle = helpers.gen_valid_bundle(rng)
        if number % 2:
            bundle = _taking_copy_ids(rng, bundle)
        resolved, diagnostics = resolve_links(bundle)
        assert resolved is not None, [d.line() for d in diagnostics]
        for cac in bundle.cacs:
            inlined = inline_bundle(resolved, cac.id)
            assert AssuranceCase(*inlined) == inlined
            assert [Element(*element) for element in inlined.elements] == list(inlined.elements)
            subtrees = [helpers.brute_reachable(bundle.tac, element.away_ref[1])
                        for element in cac.elements if element.away_ref is not None]
            ids = [element.id for element in inlined.elements]
            assert len(set(ids)) == len(ids) == len(cac.elements) + sum(map(len, subtrees))
            skipped += sum(f"{bundle.tac.id}__{node}" in cac._by_id for subtree in subtrees for node in subtree)
    assert skipped > 100


def test_link_table_is_read_from_the_away_references_and_cannot_drift():
    rng = random.Random(45)
    linked = 0
    for _ in range(200):
        bundle = helpers.gen_valid_bundle(rng)
        resolved, diagnostics = resolve_links(bundle)
        assert resolved is not None, [d.line() for d in diagnostics]
        expected = {}
        for cac in bundle.cacs:
            for element in cac.elements:
                if element.away_ref is not None:
                    expected[(cac.id, element.id)] = element.away_ref
        pairs = [(c.id, e.id) for c in bundle.cases() for e in c.elements]
        changed = set(rng.sample(pairs, k=min(len(pairs), 2)))
        inlined = [print_case(inline_bundle(resolved, cac.id)) for cac in bundle.cacs]
        report = impact(resolved, changed)

        table = resolved.resolutions
        assert table == expected
        table.clear()  # a caller's copy: the resolved bundle keeps its links
        assert [print_case(inline_bundle(resolved, cac.id)) for cac in bundle.cacs] == inlined
        assert impact(resolved, changed) == report
        assert resolved.resolutions == expected
        linked += bool(expected)
    assert linked > 100


def test_resolved_cross_edges_point_into_tac_only():
    rng = random.Random(43)
    for _ in range(40):
        bundle = helpers.gen_valid_bundle(rng)
        resolved, _ = resolve_links(bundle)
        assert resolved is not None
        cac_ids = {cac.id for cac in bundle.cacs}
        for case in bundle.cases():
            for element in case.elements:
                if element.away_ref is None:
                    continue
                target_case, target_id = element.away_ref
                assert case.id in cac_ids
                assert target_case == bundle.tac.id
                assert bundle.tac.element(target_id).is_public


# --- a random-input oracle for the away-reference rules ----------------------------------------------------------


def brute_link_rules(bundle: Bundle) -> list[tuple[str, str, str]]:
    """RULES.md's S1, S2, S5, S7 and S8 as sorted (rule, case id, element id) triples, read from the bundle's
    fields alone. S7 is read only for a reference that passes S2 and S5: a target that is no public claim of
    the technological case has no statement to drift from."""
    tac = bundle.tac
    cac_ids = {cac.id for cac in bundle.cacs}
    tac_elements = {element.id: element for element in tac.elements}
    found = []
    for element in tac.elements:
        if element.away_ref is not None:  # S1 into one of the bundle's clinical cases, S8 anywhere else
            found.append(("S1" if element.away_ref[0] in cac_ids else "S8", tac.id, element.id))
    for cac in bundle.cacs:
        for element in cac.elements:
            if element.away_ref is None:
                continue
            case_id, target_id = element.away_ref
            target = tac_elements.get(target_id)
            if case_id != tac.id:
                found.append(("S2", cac.id, element.id))
            elif target is None or target.kind.value != "claim" or not target.is_public:
                found.append(("S5", cac.id, element.id))
            elif element.statement != target.statement:
                found.append(("S7", cac.id, element.id))
    return sorted(found)


def mutated_away_references(rng: random.Random, bundle: Bundle) -> Bundle:
    """`bundle` with one to four claims given a new away reference, each drawn to break one rule: from the
    technological case into a clinical case (S1), to itself or out of the bundle (S8); from a clinical case to
    a case other than the technological one (S2), to a missing, non-claim or non-public target (S5), or to a
    public claim, with the claim's statement drifted half the time (S7)."""
    tac = bundle.tac
    elements = {case.id: list(case.elements) for case in bundle.cases()}
    public = [element for element in tac.elements if element.kind is ElementKind.CLAIM and element.is_public]
    for _ in range(rng.randint(1, 4)):
        mutation = rng.randrange(8)
        case_id = tac.id if mutation < 3 else rng.choice(bundle.cacs).id
        statement = None
        if mutation < 3:
            ref = ((rng.choice(bundle.cacs).id, tac.id, "ELSEWHERE")[mutation], rng.choice(tac.elements).id)
        elif mutation == 3:
            ref = (rng.choice([*(cac.id for cac in bundle.cacs), "ELSEWHERE"]), rng.choice(public).id)
        elif mutation == 4:
            ref = (tac.id, "GHOST")
        elif mutation == 5:
            ref = (tac.id, rng.choice([e.id for e in tac.elements if e.kind is not ElementKind.CLAIM] or ["GHOST"]))
        elif mutation == 6:
            ref = (tac.id, rng.choice([e.id for e in tac.elements if e.kind is ElementKind.CLAIM and not e.is_public]
                                      or ["GHOST"]))
        else:
            target = rng.choice(public)
            ref, statement = (tac.id, target.id), target.statement + rng.choice(("", " drifted"))
        claims = [i for i, element in enumerate(elements[case_id]) if element.kind is ElementKind.CLAIM]
        index = rng.choice(claims)
        element = elements[case_id][index]
        elements[case_id][index] = element._replace(
            is_undeveloped=True, away_ref=ref, statement=element.statement if statement is None else statement)
    tac, *cacs = (case._replace(elements=tuple(elements[case.id])) for case in bundle.cases())
    return Bundle(tac, tuple(cacs))


def test_away_reference_rules_match_a_brute_predicate_on_mutated_bundles():
    rng = random.Random(46)
    fired = Counter()
    outcomes = set()
    for _ in range(300):
        bundle = mutated_away_references(rng, helpers.gen_valid_bundle(rng))
        expected = brute_link_rules(bundle)
        found = sorted((d.rule_id, *d.elements[0]) for d in link_rule_diagnostics(bundle))
        assert found == expected
        fired.update(rule for rule, _, _ in expected)

        resolved, _ = resolve_links(bundle)
        assert (resolved is not None) == (not {"S1", "S2", "S5"} & {rule for rule, _, _ in expected})
        away = {(cac.id, element.id): element.away_ref
                for cac in bundle.cacs for element in cac.elements if element.away_ref is not None}
        if resolved is not None:
            assert resolved.resolutions == away
        outcomes.add(resolved is not None)
        links = [ref for ref in away.values() if ref[0] == bundle.tac.id]
        assert bundle_metrics(bundle).cross_link_count == len(links)
    assert outcomes == {True, False}
    assert all(fired[rule] >= 20 for rule in ("S1", "S2", "S5", "S7", "S8")), fired


def brute_s6(bundle: Bundle) -> list[str]:
    """RULES.md's S6: the ids of the clinical cases whose `associates` does not name the bundle's technological
    case, sorted."""
    return sorted(cac.id for cac in bundle.cacs if cac.associated_tac != bundle.tac.id)


def mutated_contexts_and_associations(rng: random.Random, bundle: Bundle) -> Bundle:
    """`bundle` with up to two away-claims of its clinical cases stripped of their documenting contexts, which are
    removed or turned into assumptions (S3), and each clinical case, one time in four, given no `associates` or one
    that names its own id, another clinical case or a case outside the bundle (S6). Each case's span names a file
    of its own, so that an S6 finding, which names no element, is known by its case."""
    cacs = {cac.id: (list(cac.elements), list(cac.edges)) for cac in bundle.cacs}
    for _ in range(rng.randint(0, 2)):
        elements, edges = cacs[rng.choice(list(cacs))]
        away = rng.choice([element.id for element in elements if element.away_ref is not None] or [None])
        documenting = {edge.target for edge in edges if edge.source == away and edge.kind is EdgeKind.IN_CONTEXT_OF
                       and any(e.id == edge.target and e.kind is ElementKind.CONTEXT for e in elements)}
        if rng.random() < 0.5:  # the contexts go, and every edge that names them
            elements[:] = [element for element in elements if element.id not in documenting]
            edges[:] = [edge for edge in edges if edge.source not in documenting and edge.target not in documenting]
        else:
            elements[:] = [element._replace(kind=ElementKind.ASSUMPTION) if element.id in documenting else element
                           for element in elements]
    associates = {cac.id: cac.associated_tac for cac in bundle.cacs}
    for cac_id in associates:
        if rng.random() < 0.25:
            associates[cac_id] = rng.choice([None, cac_id, *(other for other in cacs if other != cac_id), "ELSEWHERE"])
    tac = bundle.tac._replace(span=SourceSpan(f"{bundle.tac.id}.acd", 1, 1))
    return Bundle(tac, tuple(cac._replace(elements=tuple(cacs[cac.id][0]), edges=tuple(cacs[cac.id][1]),
                                          associated_tac=associates[cac.id], span=SourceSpan(f"{cac.id}.acd", 1, 1))
                             for cac in bundle.cacs))


def test_validate_bundle_matches_brute_predicates_on_mutated_bundles():
    # validate_bundle's own findings: the away-reference rules against brute_link_rules, S3 against
    # helpers.brute_s3 and S6, keyed by its clinical case, against brute_s6.
    rng = random.Random(47)
    fired = Counter()
    for _ in range(300):
        bundle = mutated_contexts_and_associations(rng, mutated_away_references(rng, helpers.gen_valid_bundle(rng)))
        diagnostics = validate_bundle(bundle)
        by_rule = {rule: [d for d in diagnostics if d.rule_id == rule] for rule in ("S3", "S4", "S6")}
        links = sorted((d.rule_id, *d.elements[0]) for d in diagnostics if d.rule_id not in by_rule)
        assert links == brute_link_rules(bundle)
        assert sorted(d.elements[0] for d in by_rule["S3"]) == sorted(helpers.brute_s3(bundle))
        assert sorted(d.span.file.removesuffix(".acd") for d in by_rule["S6"]) == brute_s6(bundle)
        assert by_rule["S4"] == []  # the generated bundles declare no capabilities
        fired.update(d.rule_id for d in diagnostics)
    assert all(fired[rule] >= 20 for rule in ("S1", "S2", "S3", "S5", "S6", "S7", "S8")), fired
