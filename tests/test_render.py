import itertools
import json
import random
import re
import sys
import tracemalloc

import pytest

from actool.analyze import bundle_metrics, case_metrics, impact
from actool.diagnostics import Diagnostic, Severity
from actool.link import resolve_links
from actool.model import (
    AssuranceCase, Bundle, CaseKind, Edge, EdgeKind, Element, ElementKind, SourceSpan, UnknownElementError,
)
from actool.parser import print_case
from actool.render import report_json, to_dot
from actool.validate import bundle_match_results

import helpers


def test_corpus_tac_shapes(tac_case):
    dot = to_dot(tac_case)
    assert dot.startswith('digraph "TAC-1" {')
    assert dot.count("shape=parallelogram") == 1  # the strategy S
    assert dot.count('style="rounded"') == 3  # Xa, Xb, Xc
    assert dot.count("shape=tab") == 2  # module claims C2, C3
    assert dot.count("shape=circle") == 4  # evidence
    assert dot.count("arrowhead=onormal") == 3  # inContextOf edges


def test_undeveloped_diamond_glyph(cac_case):
    dot = to_dot(cac_case)
    assert dot.count("\\n\u25c7") == 2  # C4 and C5


def test_empty_case_renders():
    dot = to_dot(AssuranceCase("X", CaseKind.MONOLITHIC, ()))
    assert dot == (
        'digraph "X" {\n'
        "  graph [rankdir=TB, ranksep=0.6];\n"
        '  node [fontname="Helvetica", fontsize=10];\n'
        "}\n"
    )


def test_dot_deterministic(tac_case, corpus_resolved):
    assert to_dot(tac_case) == to_dot(tac_case)
    assert to_dot(corpus_resolved.bundle) == to_dot(corpus_resolved.bundle)


def test_dot_node_count_matches_element_count():
    rng = random.Random(61)
    for _ in range(30):
        case = helpers.gen_case(rng)
        dot = to_dot(case)
        node_lines = [line for line in dot.splitlines() if "[shape=" in line]
        assert len(node_lines) == len(case.elements)


def test_highlight_fills_node(tac_case):
    dot = to_dot(tac_case, frozenset({("TAC-1", "C2")}))
    line = next(l for l in dot.splitlines() if l.strip().startswith('"C2"'))
    assert "filled" in line and "fillcolor=lightgray" in line
    assert to_dot(tac_case).count("fillcolor") == 0


def test_highlight_of_unknown_ids_raises(tac_case, corpus_resolved):
    with pytest.raises(UnknownElementError, match="unknown element id 'GHOST' in case 'TAC-1'"):
        to_dot(tac_case, frozenset({("TAC-1", "GHOST")}))
    with pytest.raises(UnknownElementError, match=r"^unknown case id 'CAC-UF'$"):
        to_dot(tac_case, frozenset({("CAC-UF", "C4")}))
    with pytest.raises(UnknownElementError, match=r"^unknown case id 'NOPE'$"):
        to_dot(corpus_resolved.bundle, frozenset({("TAC-1", "C2"), ("NOPE", "C2")}))


def test_bundle_render_clusters_and_resolution_edges(corpus_resolved):
    dot = to_dot(corpus_resolved.bundle)
    assert 'subgraph "cluster_CAC-UF"' in dot
    assert 'subgraph "cluster_TAC-1"' in dot
    assert '"CAC-UF.C4" -> "TAC-1.C2" [style=dashed];' in dot
    assert '"CAC-UF.C5" -> "TAC-1.C3" [style=dashed];' in dot


def test_raw_bundle_render_best_effort(corpus_bundle):
    dot = to_dot(corpus_bundle)
    assert '"CAC-UF.C4" -> "TAC-1.C2" [style=dashed];' in dot


_DASHED = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[style=dashed\];$', re.M)


def _plant_tac_references(rng: random.Random, bundle: Bundle) -> Bundle:
    """`bundle` with about a third of its technological claims turned into away
    references: to an element of their own case, to a missing one, or to a
    case outside the bundle. Each is an S8 warning, so the bundle still resolves."""
    tac = bundle.tac
    ids = [element.id for element in tac.elements]
    elements = []
    for element in tac.elements:
        if element.kind is ElementKind.CLAIM and rng.random() < 0.35:
            ref = rng.choice([(tac.id, rng.choice(ids)), (tac.id, rng.choice(ids)), (tac.id, "Gone"), ("Away", ids[0])])
            element = element._replace(is_undeveloped=True, away_ref=ref)
        elements.append(element)
    return bundle._replace(tac=tac._replace(elements=tuple(elements)))


def test_bundle_dashed_edges_are_the_away_references_that_name_an_element():
    rng = random.Random(71)
    drawn_self_references = 0
    for _ in range(200):
        bundle = _plant_tac_references(rng, helpers.gen_valid_bundle(rng))
        resolved, _ = resolve_links(bundle)
        dot = to_dot(resolved.bundle)
        elements_of = {case.id: {element.id for element in case.elements} for case in bundle.cases()}
        expected = [
            (f"{case.id}.{element.id}", ".".join(element.away_ref))
            for case in bundle.cases()
            for element in case.elements
            if element.away_ref is not None and element.away_ref[1] in elements_of.get(element.away_ref[0], ())
        ]
        assert _DASHED.findall(dot) == sorted(expected)
        drawn_self_references += sum(1 for source, _ in expected if source.startswith(f"{bundle.tac.id}."))
    assert drawn_self_references > 30


def test_report_json_empty_diagnostics():
    document = json.loads(report_json(diagnostics=[]))
    assert document == {"diagnostics": []}


def test_report_json_diagnostic_fields():
    diagnostic = Diagnostic(
        "S1",
        Severity.ERROR,
        SourceSpan("x.acd", 3, 5, 2),
        "boom",
        (("TAC-1", "C9"),),
    )
    document = json.loads(report_json(diagnostics=[diagnostic]))
    assert document["diagnostics"] == [
        {
            "ruleId": "S1",
            "severity": "error",
            "file": "x.acd",
            "line": 3,
            "column": 5,
            "length": 2,
            "message": "boom",
            "elements": [{"caseId": "TAC-1", "elementId": "C9"}],
        }
    ]


def test_report_json_capabilities_and_metrics(corpus_bundle):
    pairs = bundle_match_results(corpus_bundle)
    document = json.loads(
        report_json(capabilities=pairs, metrics=bundle_metrics(corpus_bundle))
    )
    entries = document["capabilities"]
    assert len(entries) == 4
    assert all(e["status"] == "satisfied" for e in entries)
    duration = next(e for e in entries if e["name"] == "sonication_duration")
    assert duration["low"] == "2000" and duration["unit"] == "ms"
    assert duration["provider"]["unit"] == "s"
    assert document["metrics"]["crossLinks"] == 2
    assert document["metrics"]["totals"]["elements"]["total"] == 29


def test_report_json_impact_section(corpus_resolved):
    report = impact(corpus_resolved, {("TAC-1", "C2")})
    document = json.loads(report_json(impact=report))
    assert document["impact"]["changed"] == [{"caseId": "TAC-1", "elementId": "C2"}]
    assert document["impact"]["affected"]["CAC-UF"] == ["C1", "C4", "S"]
    assert document["impact"]["affectedCacs"] == ["CAC-UF"]


def test_report_json_key_order_and_determinism(tac_case):
    first = report_json(diagnostics=[], metrics=case_metrics(tac_case))
    second = report_json(diagnostics=[], metrics=case_metrics(tac_case))
    assert first == second
    assert list(json.loads(first)) == ["diagnostics", "metrics"]


_WORDS = "the beam power focal depth hazard operator treatment sonication calibrated within limits".split()


def _wide_bundle(rng: random.Random, tac_size: int = 1600, cacs: int = 4, away: int = 50) -> Bundle:
    """A fan-out-4 technological case, a fifth of its claims undeveloped (so
    the DOT text holds the glyph), and clinical cases of away-claims with a
    documenting context each: tac_size + cacs * (2 * away + 1) elements."""
    def statement() -> str:
        return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(5, 10))).capitalize() + "."

    elements = [Element("T0", ElementKind.CLAIM, statement(), is_root=True)]
    edges = []
    for i in range(1, tac_size):
        parent = elements[(i - 1) // 4]
        parent = elements[0] if parent.kind is ElementKind.EVIDENCE else parent
        kind = rng.choice([ElementKind.CLAIM, ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE])
        claim = kind is ElementKind.CLAIM
        elements.append(Element(f"T{i}", kind, statement(), is_public=claim and rng.random() < 0.5,
                                is_undeveloped=claim and rng.random() < 0.2))
        edges.append(Edge(parent.id, f"T{i}", EdgeKind.SUPPORTED_BY))
    public = [element for element in elements if element.is_public]
    members = []
    for index in range(cacs):
        cac_elements = [Element("C0", ElementKind.CLAIM, statement(), is_root=True)]
        cac_edges = []
        for slot in range(away):
            target = rng.choice(public)
            cac_elements.append(Element(f"A{slot}", ElementKind.CLAIM, target.statement, is_undeveloped=True,
                                        away_ref=("TAC", target.id)))
            cac_elements.append(Element(f"D{slot}", ElementKind.CONTEXT, statement()))
            cac_edges.append(Edge("C0", f"A{slot}", EdgeKind.SUPPORTED_BY))
            cac_edges.append(Edge(f"A{slot}", f"D{slot}", EdgeKind.IN_CONTEXT_OF))
        members.append(AssuranceCase(f"CAC-{index}", CaseKind.CLINICAL, tuple(cac_elements), tuple(cac_edges),
                                     associated_tac="TAC"))
    return Bundle(AssuranceCase("TAC", CaseKind.TECHNOLOGICAL, tuple(elements), tuple(edges)), tuple(members))


def _peak_ratio(serialize, subject) -> float:
    """Peak memory traced while `serialize(subject)` runs, over the size of its result."""
    tracemalloc.start()
    try:
        text = serialize(subject)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sys.getsizeof(text)


def test_serializers_join_their_output_once():
    # Joining the lines and then adding the last newline copies the whole
    # text a second time: about 3x the output for `to_dot`, 5x for `print_case`.
    bundle = _wide_bundle(random.Random(7))
    resolved, diagnostics = resolve_links(bundle)
    assert diagnostics == [] and sum(len(case.elements) for case in bundle.cases()) == 2004
    assert _peak_ratio(to_dot, resolved.bundle) <= 2.5
    assert _peak_ratio(print_case, bundle.tac) <= 3.5


def _combinations_case() -> tuple[AssuranceCase, list[tuple[str, str]]]:
    """One element for each kind × module × undeveloped × highlighted
    combination the model allows (only a claim may be a module or
    undeveloped), and the highlight that fills half of them."""
    elements, highlight = [], []
    for kind, module, undeveloped, highlighted in itertools.product(ElementKind, (False, True), (False, True),
                                                                    (False, True)):
        if kind is not ElementKind.CLAIM and (module or undeveloped):
            continue
        name = f"{kind.value}-{module:d}{undeveloped:d}{highlighted:d}"
        elements.append(Element(name, kind, f"{kind.value} statement", is_module=module, is_undeveloped=undeveloped))
        if highlighted:
            highlight.append(("ALL", name))
    edges = [Edge(a.id, b.id, edge_kind) for a, b in zip(elements, elements[1:]) for edge_kind in EdgeKind]
    return AssuranceCase("ALL", CaseKind.MONOLITHIC, tuple(elements), tuple(edges)), highlight


def test_dot_matches_the_oracle_on_every_allowed_combination():
    case, highlight = _combinations_case()
    assert len(case.elements) == 18 and len(highlight) == 9
    assert to_dot(case, highlight) == helpers.brute_dot(case, highlight)
    cac = AssuranceCase("CAC", CaseKind.CLINICAL, (Element("C", ElementKind.CLAIM, "c"),), associated_tac="ALL")
    bundle = Bundle(case._replace(kind=CaseKind.TECHNOLOGICAL), (cac,))
    drawn = to_dot(bundle, highlight)
    assert drawn == helpers.brute_dot(bundle, highlight)
    assert drawn.count("fillcolor=lightgray") == 9 and drawn.count("shape=tab") == 4 and drawn.count("\u25c7") == 4
    assert drawn.count('style="rounded,filled"') == 3 and drawn.count("arrowhead=onormal") == 17


def test_dot_reads_each_flag_by_its_truth():
    # A flag given as another true or false value than a bool draws as that bool.
    loose = (Element("M", ElementKind.CLAIM, "m", is_module=1, is_undeveloped="x"),
             Element("N", ElementKind.CLAIM, "n", is_module="", is_undeveloped=0),
             Element("X", ElementKind.CONTEXT, "x", is_module=None, is_undeveloped=[]))
    strict = (Element("M", ElementKind.CLAIM, "m", is_module=True, is_undeveloped=True),
              Element("N", ElementKind.CLAIM, "n"), Element("X", ElementKind.CONTEXT, "x"))
    drawn = [to_dot(AssuranceCase("K", CaseKind.MONOLITHIC, elements), [("K", "M")]) for elements in (loose, strict)]
    assert drawn[0] == drawn[1] == helpers.brute_dot(AssuranceCase("K", CaseKind.MONOLITHIC, loose), [("K", "M")])
    assert '"M" [shape=tab, style="filled", fillcolor=lightgray, label="M\\nm\\n\u25c7"];' in drawn[0]


@pytest.mark.parametrize("statement, label", [
    ("back \\ slash", "back \\\\ slash"),
    ('say "hi"', 'say \\"hi\\"'),
    ("two\nlines", "two\\nlines"),
    ("carriage\rreturn", "carriage\rreturn"),
    ("\u25c7 glyph", "\u25c7 glyph"),
    ("", ""),
    ('\\"\n\\n', '\\\\\\"\\n\\\\n'),
], ids=["backslash", "quote", "newline", "carriage-return", "glyph", "empty", "all-three"])
def test_dot_escapes_only_backslash_quote_and_newline(statement, label):
    case = AssuranceCase("K", CaseKind.MONOLITHIC, (Element("A", ElementKind.CLAIM, statement, is_undeveloped=True),))
    drawn = to_dot(case)
    assert f'  "A" [shape=box, label="A\\n{label}\\n\u25c7"];\n' in drawn
    assert drawn == helpers.brute_dot(case)


def test_dot_matches_the_oracle_on_random_cases_and_bundles():
    rng = random.Random(83)
    for _ in range(300):
        case = helpers.gen_case(rng)
        pairs = [(case.id, element.id) for element in case.elements]
        highlight = rng.sample(pairs, rng.randint(0, len(pairs)))
        assert to_dot(case, highlight) == helpers.brute_dot(case, highlight)
    for _ in range(100):
        bundle = _plant_tac_references(rng, helpers.gen_valid_bundle(rng))
        pairs = [(case.id, element.id) for case in bundle.cases() for element in case.elements]
        highlight = rng.sample(pairs, rng.randint(0, len(pairs)))
        assert to_dot(bundle, highlight) == helpers.brute_dot(bundle, highlight)
        resolved, _ = resolve_links(bundle)
        assert to_dot(resolved.bundle, highlight) == helpers.brute_dot(resolved.bundle, highlight)


def test_dot_highlights_by_case_and_element_id():
    # Both cases hold a `C1`; only the technological one is highlighted.
    tac = AssuranceCase("TAC", CaseKind.TECHNOLOGICAL, (Element("C1", ElementKind.CLAIM, "t", is_public=True),))
    cac = AssuranceCase("CAC", CaseKind.CLINICAL, (Element("C1", ElementKind.CLAIM, "c"),), associated_tac="TAC")
    bundle = Bundle(tac, (cac,))
    drawn = to_dot(bundle, [("TAC", "C1")])
    assert drawn == helpers.brute_dot(bundle, [("TAC", "C1")])
    assert '    "CAC.C1" [shape=box, label="C1\\nc"];\n' in drawn
    assert '    "TAC.C1" [shape=box, style="filled", fillcolor=lightgray, label="C1\\nt"];\n' in drawn
