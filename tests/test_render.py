import json
import random

from actool.analyze import bundle_metrics, case_metrics, impact
from actool.diagnostics import Diagnostic, Severity
from actool.model import AssuranceCase, CaseKind, SourceSpan
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
    assert to_dot(corpus_resolved) == to_dot(corpus_resolved)


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


def test_bundle_render_clusters_and_resolution_edges(corpus_resolved):
    dot = to_dot(corpus_resolved)
    assert 'subgraph "cluster_CAC-UF"' in dot
    assert 'subgraph "cluster_TAC-1"' in dot
    assert '"CAC-UF.C4" -> "TAC-1.C2" [style=dashed];' in dot
    assert '"CAC-UF.C5" -> "TAC-1.C3" [style=dashed];' in dot


def test_raw_bundle_render_best_effort(corpus_bundle):
    dot = to_dot(corpus_bundle)
    assert '"CAC-UF.C4" -> "TAC-1.C2" [style=dashed];' in dot


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
