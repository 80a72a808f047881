import json
import random
import re
import sys

import pytest

from actool.analyze import bundle_metrics, case_metrics, impact
from actool.cli import run
from actool.link import inline_bundle, resolve_links
from actool.model import (
    AssuranceCase,
    CaseKind,
    ConcernKind,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    UnknownElementError,
)
from actool.parser import parse_bundle, print_case
from actool.render import report_json

import helpers
from conftest import CORPUS

sys.path.insert(0, str(CORPUS.parent / "perfbench"))
import gen  # noqa: E402  (read-only: the benchmark's generator)


def test_impact_corpus_example(corpus_resolved):
    report = impact(corpus_resolved, {("TAC-1", "C2")})
    assert report.affected["TAC-1"] == {"C1", "C2", "S"}
    assert report.affected["CAC-UF"] == {"C1", "C4", "S"}
    assert report.affected_cacs == {"CAC-UF"}
    assert report.changed == {("TAC-1", "C2")}


def test_impact_empty_change_set(corpus_resolved):
    report = impact(corpus_resolved, set())
    assert all(not ids for ids in report.affected.values())
    assert report.affected_cacs == frozenset()


def test_impact_context_change_propagates_upward(corpus_resolved):
    report = impact(corpus_resolved, {("CAC-UF", "X4")})
    assert report.affected["CAC-UF"] == {"X4", "C4", "S", "C1"}
    assert report.affected["TAC-1"] == frozenset()


def test_impact_cac_change_never_reaches_tac(corpus_resolved):
    for element in corpus_resolved.bundle.cacs[0].elements:
        report = impact(corpus_resolved, {("CAC-UF", element.id)})
        assert report.affected["TAC-1"] == frozenset()


def test_impact_unknown_id(corpus_resolved):
    with pytest.raises(UnknownElementError):
        impact(corpus_resolved, {("TAC-1", "GHOST")})
    with pytest.raises(UnknownElementError):
        impact(corpus_resolved, {("GHOST", "C1")})


def test_impact_matches_brute_force_random():
    rng = random.Random(51)
    for _ in range(150):
        bundle = helpers.gen_valid_bundle(rng)
        resolved, _ = resolve_links(bundle)
        assert resolved is not None
        pairs = [(c.id, e.id) for c in bundle.cases() for e in c.elements]
        changed = set(rng.sample(pairs, k=min(len(pairs), rng.randint(0, 3))))
        report = impact(resolved, changed)
        expected = helpers.brute_affected(bundle, changed)
        assert {k: set(v) for k, v in report.affected.items()} == expected


def test_impact_monotone_random():
    rng = random.Random(52)
    for _ in range(50):
        bundle = helpers.gen_valid_bundle(rng)
        resolved, _ = resolve_links(bundle)
        pairs = [(c.id, e.id) for c in bundle.cases() for e in c.elements]
        small = set(rng.sample(pairs, k=min(len(pairs), 1)))
        large = small | set(rng.sample(pairs, k=min(len(pairs), 3)))
        report_small = impact(resolved, small)
        report_large = impact(resolved, large)
        for case_id in report_small.affected:
            assert report_small.affected[case_id] <= report_large.affected[case_id]


def _inlined_ancestors(inlined: AssuranceCase, tac_id: str, own: set[str]):
    """A function from a technological element's id to the ids in `own` among the ancestors, over both edge
    kinds, of every copy of it in `inlined`. The copies are known by the documented `<tacId>__` and
    `<tacId>__<n>__` prefixes; the walk reads the inlined edge list itself."""
    sources: dict[str, list[str]] = {}
    for edge in inlined.edges:
        sources.setdefault(edge.target, []).append(edge.source)
    copies: dict[str, list[str]] = {}
    for element in inlined.elements:
        if element.id not in own:
            original = re.fullmatch(rf"{re.escape(tac_id)}__(?:[0-9]+__)?(.+)", element.id)[1]
            copies.setdefault(original, []).append(element.id)

    def ancestors(tac_element: str) -> set[str]:
        stack = list(copies.get(tac_element, ()))
        seen = set(stack)
        while stack:
            for source in sources.get(stack.pop(), ()):
                if source not in seen:
                    seen.add(source)
                    stack.append(source)
        return seen & own

    return ancestors


def _impact_matches_the_inlined_cases(bundle, tac_elements) -> int:
    """Asserts, for each of `tac_elements` and each clinical case, that `impact` of that technological element
    affects exactly the clinical elements above its copies in the inlined case; returns how many of those sets
    are not empty."""
    resolved, diagnostics = resolve_links(bundle)
    assert resolved is not None, [d.line() for d in diagnostics]
    tac_id = bundle.tac.id
    walks = {cac.id: _inlined_ancestors(inline_bundle(resolved, cac.id), tac_id, {e.id for e in cac.elements})
             for cac in bundle.cacs}
    nonempty = 0
    for element_id in tac_elements:
        affected = impact(resolved, [(tac_id, element_id)]).affected
        for cac_id, ancestors in walks.items():
            assert affected[cac_id] == ancestors(element_id), (tac_id, element_id, cac_id)
            nonempty += bool(affected[cac_id])
    return nonempty


def test_impact_across_the_link_equals_the_ancestors_in_the_inlined_case():
    # The paper's split/inline equivalence: a change to a technological element calls into question the same
    # clinical elements whether the argument is split (impact across resolved away references) or inlined.
    rng = random.Random(53)
    nonempty = 0
    for _ in range(200):
        bundle = helpers.gen_valid_bundle(rng)
        nonempty += _impact_matches_the_inlined_cases(bundle, [e.id for e in bundle.tac.elements])
    assert nonempty > 200
    files = gen.bundle_wide(3, 512).files
    bundle = parse_bundle(files["bundle.acb"], files.__getitem__, "bundle.acb")[0]
    assert _impact_matches_the_inlined_cases(bundle, [e.id for e in bundle.tac.elements[::7]]) > 20


def test_corpus_case_metrics(tac_case, cac_case, mono_case):
    tac = case_metrics(tac_case)
    assert tac.element_counts == {
        "claim": 7, "strategy": 1, "context": 3, "assumption": 0, "justification": 0, "evidence": 4,
    }
    assert tac.edge_counts == {"supportedBy": 11, "inContextOf": 3}
    assert (tac.depth, tac.undeveloped_count, tac.evidence_coverage) == (5, 0, 1.0)
    assert tac.concern_counts == {"safety": 1, "effectiveness": 1}

    cac = case_metrics(cac_case)
    assert cac.element_total == 14
    assert cac.edge_counts == {"supportedBy": 8, "inContextOf": 5}
    assert (cac.depth, cac.undeveloped_count, cac.evidence_coverage) == (5, 2, 0.5)
    assert cac.concern_counts == {"safety": 2, "effectiveness": 2}

    mono = case_metrics(mono_case)
    assert mono.element_total == 24
    assert (mono.depth, mono.undeveloped_count, mono.evidence_coverage) == (6, 0, 1.0)


def _metrics_json_totals(summary) -> dict:
    """The `totals` object that `metrics --json` prints for a bundle."""
    return json.loads(report_json(metrics=summary))["metrics"]["totals"]


def test_bundle_metrics_and_complexity_comparison(corpus_bundle, mono_case):
    bundle = bundle_metrics(corpus_bundle)
    assert bundle.cross_link_count == 2
    totals = _metrics_json_totals(bundle)
    assert (totals["elements"]["total"], totals["edges"]["total"], totals["undeveloped"]) == (29, 27, 2)
    # the split arrangement keeps each case smaller than the monolithic one
    mono_total = case_metrics(mono_case).element_total
    assert max(m.element_total for m in bundle.cases) < mono_total


def test_bundle_totals_equal_sum_of_cases():
    rng = random.Random(53)
    for _ in range(30):
        bundle = helpers.gen_valid_bundle(rng)
        summary = bundle_metrics(bundle)
        totals = _metrics_json_totals(summary)
        elements = [e for c in bundle.cases() for e in c.elements]
        edges = [e for c in bundle.cases() for e in c.edges]
        assert totals["elements"]["total"] == len(elements)
        assert totals["edges"]["total"] == len(edges)
        assert totals["undeveloped"] == sum(1 for e in elements if e.is_undeveloped)
        for kind in ElementKind:
            assert totals["elements"][kind.value] == sum(1 for e in elements if e.kind is kind)
        for kind in EdgeKind:
            assert totals["edges"][kind.value] == sum(1 for e in edges if e.kind is kind)
        for kind in ConcernKind:
            assert totals["concerns"][kind.value] == sum(1 for e in elements if e.concern is kind)
        resolved, _ = resolve_links(bundle)
        assert summary.cross_link_count == len(resolved.resolutions)


def test_single_claim_case_metrics():
    case = AssuranceCase(
        "X", CaseKind.MONOLITHIC, (Element("C1", ElementKind.CLAIM, "c", is_root=True),)
    )
    m = case_metrics(case)
    assert (m.depth, m.evidence_coverage, m.undeveloped_count) == (1, 0.0, 0)
    undeveloped = AssuranceCase(
        "X", CaseKind.MONOLITHIC,
        (Element("C1", ElementKind.CLAIM, "c", is_root=True, is_undeveloped=True),),
    )
    assert case_metrics(undeveloped).undeveloped_count == 1


def test_empty_case_metrics():
    case = AssuranceCase("X", CaseKind.MONOLITHIC, ())
    m = case_metrics(case)
    assert (m.depth, m.evidence_coverage, m.element_total) == (0, 1.0, 0)


def test_metrics_invariant_under_reordering(tac_case):
    reordered = AssuranceCase(
        id=tac_case.id,
        kind=tac_case.kind,
        elements=tuple(reversed(tac_case.elements)),
        edges=tuple(reversed(tac_case.edges)),
        capabilities=tuple(reversed(tac_case.capabilities)),
    )
    assert case_metrics(reordered) == case_metrics(tac_case)


def test_metrics_chain_deeper_than_recursion_limit(tmp_path, capsys):
    length = 5000
    assert length > sys.getrecursionlimit()
    ids = [f"C{i}" for i in range(length)] + ["E"]
    elements = [Element(node, ElementKind.CLAIM, "c", is_root=node == "C0") for node in ids[:-1]]
    elements.append(Element("E", ElementKind.EVIDENCE, "e"))
    edges = [Edge(a, b, EdgeKind.SUPPORTED_BY) for a, b in zip(ids, ids[1:])]
    chain = AssuranceCase("CHAIN", CaseKind.MONOLITHIC, tuple(elements), tuple(edges))
    m = case_metrics(chain)
    assert (m.depth, m.evidence_coverage) == (length + 1, 1.0)
    path = tmp_path / "chain.acd"
    path.write_text(print_case(chain), encoding="utf-8")
    assert run(["metrics", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["metrics"]["depth"] == length + 1
