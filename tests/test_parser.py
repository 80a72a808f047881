import ast
import random
import re
import sys
import timeit
from decimal import Decimal
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actool import parser
from actool.diagnostics import Severity
from actool.model import (
    EDGE_ORDER,
    ID_PATTERN,
    UNKNOWN_SPAN,
    AssuranceCase,
    Bundle,
    CaseKind,
    ConcernKind,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    SourceSpan,
)
from actool.parser import _IDENT, _CaseParser, _Parser, parse_bundle, parse_case, print_case

import helpers
from conftest import CORPUS, GOLDEN

sys.path.insert(0, str(CORPUS.parent / "perfbench"))
import gen  # noqa: E402  (read-only: the benchmark's generator)


def errors(result):
    return [d for d in result.diagnostics if d.severity is Severity.ERROR]


def rule_ids(result):
    return [d.rule_id for d in result.diagnostics]


def test_corpus_cac_structure(cac_case):
    assert cac_case.kind is CaseKind.CLINICAL
    assert cac_case.associated_tac == "TAC-1"
    c4 = cac_case.element("C4")
    c5 = cac_case.element("C5")
    assert c4.is_undeveloped and c4.away_ref == ("TAC-1", "C2")
    assert c5.is_undeveloped and c5.away_ref == ("TAC-1", "C3")
    assert cac_case.element("C1").is_root
    assert c4.concern is ConcernKind.EFFECTIVENESS


def test_corpus_tac_structure(tac_case):
    assert tac_case.kind is CaseKind.TECHNOLOGICAL
    assert tac_case.element("C2").is_public and tac_case.element("C2").is_module
    assert tac_case.element("S").kind is ElementKind.STRATEGY
    assert len(tac_case.capabilities) == 4
    power = tac_case.capabilities[0]
    assert (power.name, power.unit, power.low, power.high) == (
        "acoustic_power",
        "W",
        Decimal(0),
        Decimal(300),
    )


def test_empty_input():
    result = parse_case("", "empty.acd")
    assert result.case is None
    assert len(result.diagnostics) == 1
    assert "expected 'case'" in result.diagnostics[0].message
    assert result.diagnostics[0].severity is Severity.ERROR


def test_source_order_preserved():
    src = 'case A kind monolithic {\nclaim C2 "b"\nclaim C1 "a" root\nC1 supportedBy C2\n}'
    case = parse_case(src, "t.acd").case
    assert [e.id for e in case.elements] == ["C2", "C1"]


def test_spans_point_into_source():
    src = 'case A kind monolithic {\n  claim C1 "x" root\n  claim C2 "y"\n}\n'
    case = parse_case(src, "t.acd").case
    lines = src.splitlines()
    for element in case.elements:
        span = element.span
        line = lines[span.line - 1]
        assert line[span.column - 1 : span.column - 1 + span.length] == element.id


def test_statements_and_semicolons():
    src = 'case A kind monolithic { claim C1 "x" root; claim C2 "y"; C1 supportedBy C2 }'
    result = parse_case(src, "t.acd")
    assert not result.diagnostics
    assert len(result.case.elements) == 2
    assert result.case.edges[0].kind is EdgeKind.SUPPORTED_BY


def test_error_recovery_reports_all_errors():
    src = "\n".join(
        [
            "case A kind monolithic {",
            '  claim C1 "ok" root',
            "  claim missing-statement",
            '  strategy S "s" undeveloped',
            "  C1 frobnicates C9",
            '  claim C2 "fine"',
            "}",
        ]
    )
    result = parse_case(src, "t.acd")
    assert result.case is not None
    ids = {e.id for e in result.case.elements}
    assert {"C1", "C2"} <= ids
    messages = [d.message for d in result.diagnostics]
    assert any("expected statement string" in m for m in messages)
    assert any("not allowed on strategy" in m for m in messages)
    assert any("'supportedBy' or 'inContextOf'" in m for m in messages)
    # strategy survives with the bad flag dropped
    assert not result.case.element("S").is_undeveloped


def test_duplicate_id_p1():
    src = 'case A kind monolithic { claim C1 "a" root\nclaim C1 "b" }'
    result = parse_case(src, "t.acd")
    assert "P1" in rule_ids(result)
    assert len(result.case.elements) == 1
    assert result.case.element("C1").statement == "a"
    # A dropped duplicate's flags are not checked: P1 is its only finding.
    src = 'case A kind monolithic { claim C1 "a" root\ncontext C1 "b" root awayref T.C2 }'
    result = parse_case(src, "t.acd")
    assert [d.line() for d in result.diagnostics] == [
        "t.acd:2:9: error P1: duplicate element id 'C1' (first declared at line 1)"
    ]
    assert result.diagnostics[0].elements == (("A", "C1"),)
    assert result.case.element("C1").kind is ElementKind.CLAIM


def test_dangling_edge_p2():
    src = 'case A kind monolithic { claim C1 "a" root\nC1 supportedBy GHOST }'
    result = parse_case(src, "t.acd")
    assert "P2" in rule_ids(result)
    assert result.case.edges == ()


def test_awayref_without_undeveloped_p3():
    src = 'case A kind monolithic { claim C1 "a" root awayref T.C2 }'
    result = parse_case(src, "t.acd")
    assert "P3" in rule_ids(result)
    assert result.case.element("C1").away_ref is None


def test_associates_restrictions_p7():
    result = parse_case('case A kind monolithic { associates T\nassociates U }', "t.acd")
    assert [d.line() for d in result.diagnostics] == [
        "t.acd:1:37: error P7: 'associates' is only allowed in a clinical case",
        "t.acd:2:12: error P7: 'associates' is only allowed in a clinical case",
    ]
    assert result.case.associated_tac is None

    result = parse_case('case A kind clinical { claim C1 "x" root undeveloped }', "t.acd")
    assert [d.line() for d in result.diagnostics] == [
        "t.acd:1:6: error P7: clinical case 'A' must declare 'associates'"
    ]

    result = parse_case(
        'case A kind clinical { associates T\nassociates U\nclaim C1 "x" root undeveloped }',
        "t.acd",
    )
    assert [d.line() for d in result.diagnostics] == ["t.acd:2:12: error P7: duplicate 'associates' declaration"]
    assert result.case.associated_tac == "T"


def test_string_escapes_round_trip():
    statement = 'quote " backslash \\ newline \n done'
    src = 'case A kind monolithic { claim C1 ' + (
        '"quote \\" backslash \\\\ newline \n done"'
    ) + ' root undeveloped }'
    result = parse_case(src, "t.acd")
    assert not errors(result)
    assert result.case.element("C1").statement == statement
    reparsed = parse_case(print_case(result.case), "t2.acd")
    assert print_case(reparsed.case) == print_case(result.case)


def test_invalid_escape_and_unterminated_string():
    result = parse_case('case A kind monolithic { claim C1 "bad \\n" }', "t.acd")
    assert any("invalid escape" in d.message for d in result.diagnostics)
    result = parse_case('case A kind monolithic { claim C1 "open', "t.acd")
    assert any("unterminated string" in d.message for d in result.diagnostics)


@pytest.mark.parametrize("text, closed, value", [
    ('"bad \\q escape"', True, "bad  escape"),
    ('"abc\\', False, "abc"),
    ('"open', False, "open"),
    ('"\\"\\\\ \\q\\\n\\', False, '"\\ '),
], ids=["invalid", "trailing-backslash", "unterminated", "all"])
def test_unescape_decodes_as_the_group_template_did(text, closed, value):
    # An invalid escape, a lone trailing backslash and an unterminated string each decode as `sub(r"\1", ...)`
    # did: an unset group gives "".
    decoded = _Parser(text, "t.acd")._unescape(text, 0, closed)
    assert decoded == value == parser._ESCAPE.sub(r"\1", text[1:len(text) - closed])


LEXER_EDGE_CASES = {
    # A lone backslash at end of input inside a string: the escape error and
    # the unterminated-string error both start at the opening quote.
    "trailing_backslash": (
        'case A kind monolithic {\n  claim C1 "abc\\',
        [
            "t.acd:2:12: error P0: invalid escape sequence '\\\\'",
            "t.acd:2:12: error P0: unterminated string",
            "t.acd:2:17: error P0: expected '}'",
            "t.acd:2:17: error P0: expected statement string",
        ],
    ),
    "invalid_escape_then_quote": (
        'case A kind monolithic {\n  claim C1 "bad \\q" root\n}\n',
        ["t.acd:2:12: error P0: invalid escape sequence '\\\\q'"],
    ),
    "multi_line_string": (
        'case A kind monolithic {\n  claim C1 "one\ntwo\nthree" root\n  claim C2 @ "x"\n}\n',
        ["t.acd:5:12: error P0: unexpected character '@'"],
    ),
    "minus_and_trailing_dot": (
        "case A kind monolithic {\n"
        "  provides capability p unit W range [-x, 1]\n"
        "  provides capability q unit W range [0, 1.]\n"
        "  1..2\n"
        "}\n",
        [
            "t.acd:2:39: error P0: unexpected character '-'",
            "t.acd:2:40: error P0: expected number",
            "t.acd:3:43: error P0: expected ']'",
            "t.acd:4:3: error P0: unexpected token '1'; expected a statement",
        ],
    ),
    "non_ascii_letters": (
        'case A kind monolithic {\n  claim é "x"\n  claim µC "y"\n}\n',
        [
            "t.acd:2:9: error P0: unexpected character 'é'",
            "t.acd:2:11: error P0: expected element id",
            "t.acd:3:9: error P0: unexpected character 'µ'",
        ],
    ),
    "lone_slash": (
        'case A kind monolithic {\n  claim C1 "x" / root // comment\n}\n',
        ["t.acd:2:16: error P0: unexpected character '/'"],
    ),
    "crlf": (
        'case A kind monolithic {\r\n  claim C1 "x" root\r\n  claim C2 @\r\n}\r\n',
        [
            "t.acd:3:12: error P0: unexpected character '@'",
            "t.acd:3:14: error P0: expected statement string",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(LEXER_EDGE_CASES))
def test_lexer_edge_case_diagnostics(name):
    source, expected = LEXER_EDGE_CASES[name]
    result = parse_case(source, "t.acd")
    assert result.case is not None
    assert [d.line() for d in result.diagnostics] == expected
    for diagnostic in result.diagnostics:
        assert _offset(source, diagnostic.span) + diagnostic.span.length <= len(source), diagnostic.line()


def _pinned_spans(case) -> list[tuple[str, str, object]]:
    """(what, name, span) for the case header, each element id, edge source and capability name."""
    pinned = [("case", case.id, case.span)] + [("element", e.id, e.span) for e in case.elements]
    pinned += [("edge", e.source, e.span) for e in case.edges]
    return pinned + [("capability", c.name, c.span) for c in case.capabilities]


def _offset(source: str, span) -> int:
    lines = source.split("\n")
    return sum(len(line) + 1 for line in lines[: span.line - 1]) + span.column - 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_spans_point_at_ids_in_generated_text(seed, semicolons):
    # Statements from gen_case contain newlines, tabs and non-ASCII letters,
    # so many element declarations span several lines.
    source = print_case(helpers.gen_case(random.Random(seed)))
    if semicolons:
        source = source.replace("\n  ", ";  ")
    result = parse_case(source, "gen.acd")
    assert not result.diagnostics
    for _, expected, span in _pinned_spans(result.case):
        start = _offset(source, span)
        assert span.length == len(expected)
        assert source[start : start + span.length] == expected


def test_round_trip_generated_cases():
    rng = random.Random(21)
    for _ in range(80):
        case = helpers.gen_case(rng)
        printed = print_case(case)
        result = parse_case(printed, "gen.acd")
        assert result.case is not None, [d.line() for d in result.diagnostics]
        assert not errors(result), [d.line() for d in result.diagnostics]
        assert print_case(result.case) == print_case(case)


def test_print_case_keeps_every_digit():
    source = (
        "case T kind technological {\n"
        "  provides capability p unit W range [-0.00000000000000000000000000001, 1000.0000000000000000000000000001]\n"
        "}\n"
    )
    result = parse_case(source, "t.acd")
    assert not result.diagnostics
    assert print_case(result.case) == source


def test_print_case_reads_each_flag_by_its_truth():
    # As the model's checks do: a flag given as another true or false value than a bool prints as that bool.
    loose = Element("A", ElementKind.CLAIM, "a", is_root=1, is_public="yes", is_undeveloped=[], is_module=None)
    strict = Element("A", ElementKind.CLAIM, "a", is_root=True, is_public=True)
    printed = [print_case(AssuranceCase("K", CaseKind.MONOLITHIC, (element,))) for element in (loose, strict)]
    assert printed[0] == printed[1] and '  claim A "a" root public\n' in printed[0]


# Ids that are often prefixes of one another, with every class of id character after the first: `-`, a digit,
# `_`, and both letter cases
_PREFIXED_IDS = st.one_of(st.sampled_from(["A", "A-", "A-1", "A0", "A_", "a"]),
                          st.builds(str.__add__, st.sampled_from("Aa"), st.text("-1_0aZ", max_size=3)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_PREFIXED_IDS, st.sampled_from(EdgeKind), _PREFIXED_IDS), min_size=1, max_size=30),
       st.integers(0, 5))
@example([("A", EdgeKind.SUPPORTED_BY, "B"), ("A-", EdgeKind.SUPPORTED_BY, "B")], 0)
def test_print_case_writes_edges_in_edge_order(triples, repeated):
    # `print_case` sorts its edge lines as strings; the section must read as EDGE_ORDER sorts the edges, duplicates
    # (drawn, and the first `repeated` edges once more) included.
    edges = [Edge(source, target, kind) for source, kind, target in triples + triples[:repeated]]
    ids = sorted({end for edge in edges for end in (edge.source, edge.target)})
    case = AssuranceCase("K", CaseKind.MONOLITHIC, tuple(Element(i, ElementKind.CLAIM, "") for i in ids), tuple(edges))
    edge_kinds = [[kind.value] for kind in EdgeKind]
    section = [line for line in print_case(case).splitlines() if line.split()[1:2] in edge_kinds]
    assert section == [f"  {edge.source} {edge.kind.value} {edge.target}" for edge in sorted(edges, key=EDGE_ORDER)]


def test_print_case_is_fixed_point(tac_case, cac_case, mono_case):
    for case in (tac_case, cac_case, mono_case):
        printed = print_case(case)
        again = parse_case(printed, "x.acd").case
        assert print_case(again) == printed


def dict_loader(files):
    def loader(path):
        if path not in files:
            raise FileNotFoundError(path)
        return files[path]

    return loader


TAC_MIN = 'case T kind technological { claim C1 "t" root public undeveloped }'
CAC_MIN = 'case C kind clinical { associates T\nclaim C1 "c" root undeveloped }'
MONO_MIN = 'case M kind monolithic { claim C1 "m" root undeveloped }'


def test_parse_bundle_ok():
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "t.acd"\ncac "c.acd" }',
        dict_loader({"t.acd": TAC_MIN, "c.acd": CAC_MIN}),
    )
    assert not diagnostics
    assert bundle is not None
    assert bundle.tac.id == "T"
    assert [c.id for c in bundle.cacs] == ["C"]


def test_parse_bundle_requires_cac():
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "t.acd" }', dict_loader({"t.acd": TAC_MIN})
    )
    assert bundle is None
    assert any("at least one cac" in d.message for d in diagnostics)


def test_parse_bundle_kind_mismatch_p4():
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "m.acd"\ncac "c.acd" }',
        dict_loader({"m.acd": MONO_MIN, "c.acd": CAC_MIN}),
    )
    assert bundle is None
    assert any(d.rule_id == "P4" and "monolithic" in d.message for d in diagnostics)


def test_parse_bundle_duplicate_case_id_p5():
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "t.acd"\ncac "c.acd"\ncac "c2.acd" }',
        dict_loader(
            {"t.acd": TAC_MIN, "c.acd": CAC_MIN, "c2.acd": CAC_MIN}
        ),
    )
    assert bundle is None
    assert any(d.rule_id == "P5" for d in diagnostics)


def test_parse_bundle_missing_file_p6():
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "t.acd"\ncac "gone.acd" }', dict_loader({"t.acd": TAC_MIN})
    )
    assert bundle is None
    assert any(d.rule_id == "P6" and "gone.acd" in d.message for d in diagnostics)


def test_parse_bundle_reports_content_after_brace():
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "t.acd"\ncac "c.acd" } junk',
        dict_loader({"t.acd": TAC_MIN, "c.acd": CAC_MIN}),
        "m.acb",
    )
    assert [d.line() for d in diagnostics] == ["m.acb:2:15: error P0: unexpected content after '}'"]
    assert bundle is not None  # built anyway, as a case is; the P0 still fails the run


def test_parse_bundle_collects_member_diagnostics():
    broken_cac = 'case C kind clinical { associates T\nclaim C1 "c" root undeveloped\nclaim C1 "dup" }'
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "t.acd"\ncac "c.acd" }',
        dict_loader({"t.acd": TAC_MIN, "c.acd": broken_cac}),
    )
    assert bundle is not None  # P1 recovers; the case itself still parses
    assert any(d.rule_id == "P1" and d.span.file == "c.acd" for d in diagnostics)


def _tac(*lines):
    """A technological case: `lines`, then a valid claim that shows parsing resumed."""
    return "case T kind technological {\n" + "\n".join(lines) + '\nclaim OK "ok"\n}\n'


_CAPABILITY = "provides capability power unit W range "
_MANIFEST_FILES = {"t.acd": TAC_MIN, "c.acd": CAC_MIN}

# One input per P0 message of the case and manifest parsers, and lexical P0s
# where the parser reads no statement: after a header error, after the closing
# `}` and in a statement skipped to recover. Each entry: the file name, the
# text, every diagnostic line, and what survived (the body lines of the
# canonical case text, or the bundle's case ids; None for no case/bundle).
RECOVERY_SITES = {
    "case-word": ("t.acd", 'bogus T kind technological {\nclaim OK "ok"\n}\n',
                  ["t.acd:1:1: error P0: expected 'case'"], None),
    "case-id": ("t.acd", 'case { claim OK "ok" }\n',
                ["t.acd:1:6: error P0: expected case id"], None),
    "kind-word": ("t.acd", 'case T type technological {\nclaim OK "ok"\n}\n',
                  ["t.acd:1:8: error P0: expected 'kind'"], None),
    "case-kind": ("t.acd", 'case T kind other {\nclaim OK "ok"\n}\n',
                  ["t.acd:1:13: error P0: expected case kind ('monolithic', 'technological' or 'clinical')"], None),
    "open-brace": ("t.acd", 'case T kind technological\nclaim OK "ok"\n}\n',
                   ["t.acd:2:1: error P0: expected '{'"], None),
    "element-id": ("t.acd", _tac('claim "a"'),
                   ["t.acd:2:7: error P0: expected element id"], ['claim OK "ok"']),
    "statement": ("t.acd", _tac("claim A root"),
                  ["t.acd:2:9: error P0: expected statement string"], ['claim OK "ok"']),
    "unknown-flag": ("t.acd", _tac('claim A "a" root bogus'),
                     ["t.acd:2:18: error P0: unknown flag 'bogus'"], ['claim A "a" root', 'claim OK "ok"']),
    "concern": ("t.acd", _tac('claim A "a" concern high'),
                ["t.acd:2:21: error P0: expected 'safety' or 'effectiveness'"], ['claim A "a"', 'claim OK "ok"']),
    "awayref-case": ("t.acd", _tac('claim A "a" undeveloped awayref 7'),
                     ["t.acd:2:33: error P0: expected case id after 'awayref'"],
                     ['claim A "a" undeveloped', 'claim OK "ok"']),
    "awayref-dot": ("t.acd", _tac('claim A "a" undeveloped awayref X Y'),
                    ["t.acd:2:35: error P0: expected '.'"], ['claim A "a" undeveloped', 'claim OK "ok"']),
    "awayref-element": ("t.acd", _tac('claim A "a" undeveloped awayref X.'),
                        ["t.acd:2:35: error P0: expected element id after '.'"],
                        ['claim A "a" undeveloped', 'claim OK "ok"']),
    "associates": ("c.acd", 'case C kind clinical {\nassociates "T"\nassociates T\nclaim OK "ok"\n}\n',
                   ["c.acd:2:12: error P0: expected case id after 'associates'"], ["associates T", 'claim OK "ok"']),
    "capability-word": ("t.acd", _tac("provides capabilty power unit W range [0, 1]"),
                        ["t.acd:2:10: error P0: expected 'capability'"], ['claim OK "ok"']),
    "capability-name": ("t.acd", _tac("provides capability 9 unit W range [0, 1]"),
                        ["t.acd:2:21: error P0: expected capability name"], ['claim OK "ok"']),
    "unit-word": ("t.acd", _tac("provides capability power units W range [0, 1]"),
                  ["t.acd:2:27: error P0: expected 'unit'"], ['claim OK "ok"']),
    "unit-symbol": ("t.acd", _tac('provides capability power unit "W" range [0, 1]'),
                    ["t.acd:2:32: error P0: expected unit symbol"], ['claim OK "ok"']),
    "range-word": ("t.acd", _tac("provides capability power unit W span [0, 1]"),
                   ["t.acd:2:34: error P0: expected 'range'"], ['claim OK "ok"']),
    "open-bracket": ("t.acd", _tac(_CAPABILITY + "0, 1]"),
                     ["t.acd:2:40: error P0: expected '['"], ['claim OK "ok"']),
    "low": ("t.acd", _tac(_CAPABILITY + "[low, 1]"),
            ["t.acd:2:41: error P0: expected number"], ['claim OK "ok"']),
    "comma": ("t.acd", _tac(_CAPABILITY + "[0 1]"),
              ["t.acd:2:43: error P0: expected ','"], ['claim OK "ok"']),
    "high": ("t.acd", _tac(_CAPABILITY + "[0, high]"),
             ["t.acd:2:44: error P0: expected number"], ['claim OK "ok"']),
    "close-bracket": ("t.acd", _tac(_CAPABILITY + "[0, 1"),
                      ["t.acd:2:45: error P0: expected ']'"], ['claim OK "ok"']),
    "edge-kind": ("t.acd", _tac('claim A "a"; A linksTo OK'),
                  ["t.acd:2:16: error P0: expected 'supportedBy' or 'inContextOf'"], ['claim A "a"', 'claim OK "ok"']),
    "edge-target": ("t.acd", _tac('claim A "a"; A supportedBy "OK"'),
                    ["t.acd:2:28: error P0: expected element id"], ['claim A "a"', 'claim OK "ok"']),
    "terminator": ("t.acd", _tac('claim A "a"; A supportedBy OK OK'),
                   ["t.acd:2:31: error P0: expected end of statement"],
                   ['claim A "a"', 'claim OK "ok"', "A supportedBy OK"]),
    "not-a-statement": ("t.acd", _tac('"A" supportedBy OK'),
                        ["t.acd:2:1: error P0: unexpected token '\"A\"'; expected a statement"], ['claim OK "ok"']),
    "close-brace": ("t.acd", 'case T kind technological {\nclaim A "a" bogus\nclaim OK "ok"\n',
                    ["t.acd:2:13: error P0: unknown flag 'bogus'", "t.acd:4:1: error P0: expected '}'"],
                    ['claim A "a"', 'claim OK "ok"']),
    "after-brace": ("t.acd", 'case T kind technological {\nclaim OK "ok"\n}\njunk\n',
                    ["t.acd:4:1: error P0: unexpected content after '}'"], ['claim OK "ok"']),
    "bundle-word": ("m.acb", 'bundel B {\ntac "t.acd"\ncac "c.acd"\n}\n',
                    ["m.acb:1:1: error P0: expected 'bundle'"], None),
    "bundle-id": ("m.acb", 'bundle {\ntac "t.acd"\ncac "c.acd"\n}\n',
                  ["m.acb:1:8: error P0: expected bundle id"], None),
    "bundle-brace": ("m.acb", 'bundle B\ntac "t.acd"\ncac "c.acd"\n}\n',
                     ["m.acb:2:1: error P0: expected '{'"], None),
    "path": ("m.acb", 'bundle B {\ncac\ntac "t.acd"\ncac "c.acd"\n}\n',
             ["m.acb:2:4: error P0: expected file path string"], ["T", "C"]),
    "entry": ("m.acb", 'bundle B {\ntic "t.acd"\ntac "t.acd"\ncac "c.acd"\n}\n',
              ["m.acb:2:1: error P0: expected 'tac' or 'cac' entry, found 'tic'"], ["T", "C"]),
    "entry-terminator": ("m.acb", 'bundle B {\ntac "t.acd" junk\ncac "c.acd"\n}\n',
                         ["m.acb:2:13: error P0: expected end of statement"], ["T", "C"]),
    "bundle-close": ("m.acb", 'bundle B {\ntac "t.acd"\ncac "c.acd" "x"\n',
                     ["m.acb:3:13: error P0: expected end of statement", "m.acb:4:1: error P0: expected '}'"],
                     ["T", "C"]),
    "lex-after-header": ("t.acd", 'case T kind other {\nclaim OK "ok" @\nclaim B "\\q"\n}\n',
                         ["t.acd:1:13: error P0: expected case kind ('monolithic', 'technological' or 'clinical')",
                          "t.acd:2:15: error P0: unexpected character '@'",
                          "t.acd:3:9: error P0: invalid escape sequence '\\\\q'"], None),
    "lex-after-brace": ("t.acd", 'case T kind technological {\nclaim OK "ok"\n}\n@ "\\q"\n"open',
                        ["t.acd:4:1: error P0: unexpected character '@'",
                         "t.acd:4:3: error P0: invalid escape sequence '\\\\q'",
                         "t.acd:4:3: error P0: unexpected content after '}'",
                         "t.acd:5:1: error P0: unterminated string"], ['claim OK "ok"']),
    "lex-in-skipped": ("t.acd", _tac('claim A root "\\q" @ 1..2'),
                       ["t.acd:2:9: error P0: expected statement string",
                        "t.acd:2:14: error P0: invalid escape sequence '\\\\q'",
                        "t.acd:2:19: error P0: unexpected character '@'"], ['claim OK "ok"']),
    "lex-after-bundle-header": ("m.acb", 'bundle {\ntac "t.acd" @\ncac "\\q"\n}\n',
                                ["m.acb:1:8: error P0: expected bundle id",
                                 "m.acb:2:13: error P0: unexpected character '@'",
                                 "m.acb:3:5: error P0: invalid escape sequence '\\\\q'"], None),
    "lex-after-bundle-brace": ("m.acb", 'bundle B {\ntac "t.acd"\n} @ "\\q"',
                               ["m.acb:3:3: error P0: unexpected character '@'",
                                "m.acb:3:5: error P0: invalid escape sequence '\\\\q'",
                                "m.acb:3:5: error P0: unexpected content after '}'",
                                "m.acb:3:9: error P6: bundle requires at least one cac"], None),
}


@pytest.mark.parametrize("site", RECOVERY_SITES)
def test_recovery_site(site):
    file_name, source, lines, survivors = RECOVERY_SITES[site]
    if file_name.endswith(".acb"):
        bundle, diagnostics = parse_bundle(source, dict_loader(_MANIFEST_FILES), file_name)
        kept = None if bundle is None else [bundle.tac.id] + [cac.id for cac in bundle.cacs]
    else:
        result = parse_case(source, file_name)
        diagnostics = result.diagnostics
        kept = None if result.case is None else [
            line.strip() for line in print_case(result.case).splitlines()[1:-1] if line
        ]
    assert [d.line() for d in diagnostics] == lines
    assert kept == survivors


def test_empty_body_round_trip():
    from actool.model import AssuranceCase, CaseKind

    case = AssuranceCase("X", CaseKind.MONOLITHIC, ())
    printed = print_case(case)
    assert printed == "case X kind monolithic {\n}\n"
    result = parse_case(printed, "x.acd")
    assert not result.diagnostics
    assert print_case(result.case) == print_case(case)


# What a P0 span may cover, read without the lexer: one token, or nothing
# at the end of the input.
_ONE_TOKEN = re.compile(r'[A-Za-z][A-Za-z0-9_-]*|-?[0-9]+(\.[0-9]+)?|"([^"\\]|\\.)*"|[{}\[\],.;\n]', re.S)
_QUOTED = re.compile(r"(?:unexpected character|unexpected token|unknown flag|found) ('(?:[^'\\]|\\.)*'|\"[^\"]*\")")


def test_diagnostic_spans_index_real_positions():
    rng = random.Random(22)
    garbage = ["@@@", '"unterminated', "claim", "}", ";;", "supportedBy", "\\", '"a\\q"', "\r\n", "é"]
    checked = 0
    for _ in range(60):
        source = print_case(helpers.gen_case(rng, max_elements=6))
        cut = rng.randrange(len(source))
        mutated = source[:cut] + rng.choice(garbage) + source[cut:]
        result = parse_case(mutated, "broken.acd")
        lines = mutated.split("\n")
        for diagnostic in result.diagnostics:
            # Every rule's span lies inside the text ...
            span = diagnostic.span
            assert 1 <= span.line <= len(lines), diagnostic.line()
            assert 1 <= span.column <= len(lines[span.line - 1]) + 1, diagnostic.line()
            start, length = _offset(mutated, span), span.length
            piece = mutated[start : start + length]
            assert start + length <= len(mutated) and len(piece) == length, diagnostic.line()
            if diagnostic.rule_id == "P2":  # ... a P2 span is the id it names ...
                assert repr(piece) == re.search(r"'[^']*'", diagnostic.message)[0], diagnostic.line()
            if diagnostic.rule_id != "P0":
                continue
            # ... and a P0 span starts exactly at the offending text.
            quoted = _QUOTED.search(diagnostic.message)
            if quoted:
                assert piece == ast.literal_eval(quoted[1]), diagnostic.line()
            elif "escape" in diagnostic.message or "unterminated" in diagnostic.message:
                assert piece.startswith('"') and "\\" in piece or start + length == len(mutated), diagnostic.line()
            else:
                assert _ONE_TOKEN.fullmatch(piece) or (piece == "" and start == len(mutated)), diagnostic.line()
            checked += 1
    assert checked > 40


# Places where offsets and lines are easy to get wrong: a string across
# lines, `\r\n` endings, no final newline, `;` between statements, spans
# asked for behind the line-run parser's cursor (the header's P7, P2 and an
# edge read before its target), and statements read right after comment and
# blank lines led by tabs and `;`. Each entry: the text, its diagnostic lines,
# and (what, name, line:col+length) for the case, its elements, edges and
# capabilities.
SPAN_CORNERS = {
    "string_across_lines": (
        'case A kind monolithic {\n  claim C1 "one\ntwo" root; claim C2 "x" bogus\n  C1 supportedBy 7\n}\n',
        ["t.acd:3:25: error P0: unknown flag 'bogus'", "t.acd:4:18: error P0: expected element id"],
        [("case", "A", "1:6+1"), ("element", "C1", "2:9+2"), ("element", "C2", "3:18+2")],
    ),
    "crlf": (
        'case T kind technological {\r\n  claim C1 "x"\r\n  evidence E1 "e"\r\n  C1 supportedBy E1\r\n'
        "  provides capability p unit W range [0, 1]\r\n  E1 inContextOf @\r\n}\r\n",
        ["t.acd:6:18: error P0: unexpected character '@'", "t.acd:6:20: error P0: expected element id"],
        [("case", "T", "1:6+1"), ("element", "C1", "2:9+2"), ("element", "E1", "3:12+2"), ("edge", "C1", "4:3+2"),
         ("capability", "p", "5:23+1")],
    ),
    "no_final_newline": (
        'case A kind monolithic {\n  claim C1 "x"\n  C1 supportedBy C1',
        ["t.acd:3:20: error P0: expected '}'"],
        [("case", "A", "1:6+1"), ("element", "C1", "2:9+2"), ("edge", "C1", "3:3+2")],
    ),
    "semicolons": (
        'case T kind technological { claim C1 "x"; evidence E1 "e"; C1 supportedBy E1; '
        "provides capability p unit W range [0, 1]; C1 supportedBy E9 }",
        ["t.acd:1:137: error P2: edge references unknown element 'E9'"],
        [("case", "T", "1:6+1"), ("element", "C1", "1:35+2"), ("element", "E1", "1:52+2"), ("edge", "C1", "1:60+2"),
         ("capability", "p", "1:99+1")],
    ),
    "backward_spans": (
        'case C kind clinical {\r\n  claim C1 "x" root\r\n  C1 supportedBy E1\r\n  E1 inContextOf GHOST\r\n'
        '  evidence E1 "e \\"q\\""\r\n\r\n  // late\r\n  context X1 "x"; X1 inContextOf C1\r\n  GHOST supportedBy X1\r\n}\r\n',
        ["t.acd:1:6: error P7: clinical case 'C' must declare 'associates'",
         "t.acd:4:18: error P2: edge references unknown element 'GHOST'",
         "t.acd:9:3: error P2: edge references unknown element 'GHOST'"],
        [("case", "C", "1:6+1"), ("element", "C1", "2:9+2"), ("element", "E1", "5:12+2"), ("element", "X1", "8:11+2"),
         ("edge", "C1", "3:3+2"), ("edge", "X1", "8:19+2")],
    ),
    "after_comment_lines": (
        'case A kind monolithic {\n  claim C1 "x" root\n  // one\n\t// two\n \t claim C2 "y"\n;\n  ;  // three\n'
        "\tC1 supportedBy C2\n  C2 inContextOf GHOST\n}\n",
        ["t.acd:9:18: error P2: edge references unknown element 'GHOST'"],
        [("case", "A", "1:6+1"), ("element", "C1", "2:9+2"), ("element", "C2", "5:10+2"), ("edge", "C1", "8:2+2")],
    ),
}


@pytest.mark.parametrize("name", SPAN_CORNERS)
def test_span_corner(name):
    source, lines, spans = SPAN_CORNERS[name]
    case, diagnostics = parse_case(source, "t.acd")
    assert [d.line() for d in diagnostics] == lines
    assert [(what, label, f"{s.line}:{s.column}+{s.length}") for what, label, s in _pinned_spans(case)] == spans


def test_manifest_end_of_input_span():
    # P6 for a missing entry points just past the last character of the manifest.
    for source, line in [
        ('bundle B {\n  tac "t.acd"\n}', "m.acb:3:2: error P6: bundle requires at least one cac"),
        ('bundle B {\n  cac "c.acd"\n}\n// end', "m.acb:4:7: error P6: bundle requires a tac entry"),
    ]:
        bundle, diagnostics = parse_bundle(source, dict_loader(_MANIFEST_FILES), "m.acb")
        assert bundle is None
        assert [d.line() for d in diagnostics] == [line]
        assert diagnostics[0].span.length == 0


def test_parser_total_on_junk_input():
    rng = random.Random(23)
    alphabet = 'case kind{}[]".,;\\-0123456789abcXYZ_ µ\n\t/'
    for _ in range(400):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        result = parse_case(source, "fuzz.acd")
        if result.case is None:
            assert any(d.severity is Severity.ERROR for d in result.diagnostics)


def test_bundle_parser_total_on_junk_input():
    rng = random.Random(24)
    alphabet = 'bundle tac cac{}"./;\nabc-'
    for _ in range(200):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        bundle, diagnostics = parse_bundle(source, dict_loader({}), "fuzz.acb")
        if bundle is None:
            assert any(d.severity is Severity.ERROR for d in diagnostics)


_SPAN_GARBAGE = ["@@@", '"open', '"a\\q"', "claim", "}", "{", ";;", "\n", "\r\n", "\r", "\\", "[1,", "awayref",
                 "supportedBy", '\n  evidence N0 "dup" root\n', '; claim X1 "x" undeveloped awayref A.B concern safety '
                 "concern safety", '\nassociates T; evidence X2 "e\n" module\n']
_SPAN_JUNK = ["claim", "evidence", "N1", "N2", "root", "concern", "safety", "supportedBy", "inContextOf", "associates",
              "provides capability p unit W range [", "-0.5", "1", ",", "]", ".", "\r", "\t", '"s"', '"a\nb"',
              '"q\\"', '"x\\\\"', "\\", '"', "{", "}", "// c", "é", "@"]
_SPAN_ENTRIES = ['tac "t.acd"', 'cac "c.acd"', 'cac "m.acd"', 'tac "c.acd"', 'cac "gone.acd"', 'cac "bad.acd"',
                 'cac "c2.acd"', "tac", "junk", '"x"', "\\", "@"]
_SPAN_FILES = {"t.acd": TAC_MIN, "c.acd": CAC_MIN, "c2.acd": CAC_MIN, "m.acd": MONO_MIN,
               "bad.acd": 'case C9 kind clinical {\nassociates T\nclaim C1 "c" root undeveloped; claim C1 "d" @\n}'}


def _span_results():
    """(number, bundle or case or None, diagnostics) for a fixed seeded set of
    mutated `gen_case` texts (0-249), token-soup case texts (250-439) and
    token-soup manifests (440-499)."""
    rng = random.Random(91)

    def soup(words: list[str], count: int) -> str:
        return "".join(rng.choice(words) + rng.choice([" ", " ", "\n", ";", "\r\n", ""]) for _ in range(count))

    for number in range(500):
        if number >= 440:
            source = rng.choice(["bundle B {", "bundle B {\n", "bundle {", ""]) + soup(_SPAN_ENTRIES, rng.randint(0, 6))
            source += rng.choice(["}", "}\n", "", "} x", "\n}\n\n"])
            yield (number, *parse_bundle(source, dict_loader(_SPAN_FILES), f"m{number}.acb"))
            continue
        if number < 250:
            source = print_case(helpers.gen_case(rng, max_elements=6))
            for _ in range(rng.randint(1, 3)):
                cut = rng.randrange(len(source) + 1)
                source = source[:cut] + rng.choice(_SPAN_GARBAGE) + source[cut:]
        else:
            source = soup(_SPAN_JUNK, rng.randint(0, 30))
            if rng.random() < 0.8:
                source = rng.choice(["case J kind technological {", "case J kind clinical {\n"]) + source
        yield (number, *parse_case(source, f"t{number}.acd"))


def _span_report() -> str:
    """For each of `_span_results`: every sorted diagnostic line, and the
    span of the case, each element, edge and capability. Recorded in
    `golden/parse_spans.txt`; a lexer or parser change must keep it."""
    out: list[str] = []
    for number, value, diagnostics in _span_results():
        out.append(f"== {number} bundle {value is not None}" if number >= 440 else f"== {number}")
        out.extend(d.line() for d in diagnostics)
        if number < 440 and value is not None:
            out.extend(f"{what} {label} {s.file}:{s.line}:{s.column}+{s.length}" for what, label, s in _pinned_spans(value))
    return "\n".join(out) + "\n"


def test_parse_spans_match_golden():
    # A lexer or parser change must leave this file byte-identical. After an
    # intended change of spans or messages, rewrite it from `_span_report()`.
    expected = (GOLDEN / "parse_spans.txt").read_text(encoding="utf-8")
    assert _span_report() == expected


def test_parsed_values_pass_their_constructors_checks():
    # The line-run parser builds SourceSpan, Edge and Element values, and the
    # case, without their constructors; each must be of the exact type and
    # one that its checked constructor accepts (Edge's checks nothing), and
    # the case's index must find what the public constructor's would.
    results = [(value, diagnostics) for _, value, diagnostics in _span_results()]
    for path in sorted(CORPUS.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".acb":
            results.append(parse_bundle(text, lambda name: (CORPUS / name).read_text(encoding="utf-8"), path.name))
        else:
            results.append(parse_case(text, path.name))
    cases = 0
    for value, diagnostics in results:
        spans = [d.span for d in diagnostics]
        for case in value.cases() if isinstance(value, Bundle) else () if value is None else (value,):
            cases += 1
            spans += [span for _, _, span in _pinned_spans(case)]
            for edge in case.edges:
                assert type(edge) is Edge, edge
            for element in case.elements:
                assert type(element) is Element and Element(*element) == element, element
            checked = AssuranceCase(*case._asdict().values())
            assert type(case) is AssuranceCase and checked == case
            assert [case.find(e.id) for e in checked.elements] == [checked.find(e.id) for e in checked.elements]
            assert case.find("NO-SUCH-ID") is None
        for span in spans:
            assert type(span) is SourceSpan and SourceSpan(*span) == span, span
    assert cases > 300


def _with_comments(source: str) -> str:
    """`source` with ` // x` at the end of every line but the first and last:
    each statement then goes to the token path, and no id moves."""
    lines = source.split("\n")
    for number in range(1, len(lines) - 2):
        line = lines[number]
        lines[number] = line[:-1] + " // x\r" if line.endswith("\r") else line + " // x"
    return "\n".join(lines)


_KEYWORDS = sorted(
    {kind.value for enum in (ElementKind, CaseKind, EdgeKind, ConcernKind, Direction) for kind in enum}
    | {"associates", "capability", "unit", "range", "case", "kind", "root", "public", "undeveloped", "module",
       "concern", "awayref", "bundle", "tac", "cac"}
)


def test_print_case_round_trips_keyword_ids():
    # Each keyword as an element id, the source and target of both edge kinds
    # and an away reference; `claim supportedBy E` is an edge, not a node.
    elements = [Element(word, ElementKind.CLAIM, word) for word in _KEYWORDS]
    elements += [Element("E", ElementKind.EVIDENCE, "e"), Element("X", ElementKind.CONTEXT, "x"),
                 Element("A", ElementKind.CLAIM, "a", is_undeveloped=True, away_ref=("claim", "supportedBy"))]
    edges = [Edge(word, "E", EdgeKind.SUPPORTED_BY) for word in _KEYWORDS]
    edges += [Edge(word, "X", EdgeKind.IN_CONTEXT_OF) for word in _KEYWORDS]
    edges += [Edge("A", word, EdgeKind.SUPPORTED_BY) for word in _KEYWORDS]
    printed = print_case(AssuranceCase("case", CaseKind.MONOLITHIC, tuple(elements), tuple(edges)))
    for source in (printed, _with_comments(printed)):
        result = parse_case(source, "k.acd")
        assert [d.line() for d in result.diagnostics] == []
        assert print_case(result.case) == printed


def test_line_regex_ids_are_the_model_ids():
    # `_line` builds elements without their constructor's id check, which `_IDENT` makes.
    assert _IDENT + r"\Z" == ID_PATTERN.pattern


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_statement_regex_and_token_path_agree(seed):
    source = helpers.mixed_case_text(random.Random(seed))
    fast, slow = parse_case(source, "k.acd"), parse_case(_with_comments(source), "k.acd")
    assert sorted(d.line() for d in fast.diagnostics) == sorted(d.line() for d in slow.diagnostics)
    assert print_case(fast.case) == print_case(slow.case)
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)


def test_canonical_node_and_edge_lines_skip_the_token_path(monkeypatch):
    # A count, not a timing: a statement regex that silently matched nothing
    # would send every line through `_node` and `_edge`, and an edge run read
    # one edge at a time would send its edges through `_wait`. The corpus and
    # the benchmark's case-tree and bundle-wide case files are read by
    # `_NODE_LINE` and by the `map` builder alone.
    calls = {"_node": 0, "_edge": 0, "_wait": 0}
    for name in calls:
        def counted(self, *args, name=name, method=getattr(_CaseParser, name)):
            calls[name] += 1
            method(self, *args)

        monkeypatch.setattr(_CaseParser, name, counted)
    files = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(CORPUS.glob("*.acd"))]
    files += [*gen.case_tree(3, 400).files.items(), *gen.bundle_wide(3, 512).files.items()]
    for name, text in files:
        if name.endswith(".acd"):
            assert parse_case(text, name).case.elements
    assert calls == {"_node": 0, "_edge": 0, "_wait": 0}
    rng = random.Random(26)
    multi_line = 0
    for _ in range(40):
        case = helpers.gen_case(rng)
        assert print_case(parse_case(print_case(case), "gen.acd").case) == print_case(case)
        multi_line += sum("\n" in element.statement for element in case.elements)
    assert calls == {"_node": multi_line, "_edge": 0, "_wait": 0}


@pytest.mark.parametrize("seed", [3, 14, 15])
def test_a_run_resumes_after_each_token_path_statement(monkeypatch, seed):
    # Four planted statements take the token path: a duplicate id (P1), a flag
    # misuse (P3), the first of a `;`-joined pair and an edge with a comment.
    # Every other line, the second of the pair too, is read by a run.
    calls = {"_node": 0, "_edge": 0}
    for name in calls:
        def counted(self, name=name, method=getattr(_CaseParser, name)):
            calls[name] += 1
            method(self)

        monkeypatch.setattr(_CaseParser, name, counted)
    rng = random.Random(seed)
    lines = ['  claim N0 "root claim" root']
    lines += [f'  {rng.choice(["claim", "evidence", "context"])} N{i} "statement {i}"' for i in range(1, 150)]
    lines += [f"  N{i // 4} supportedBy N{i}" for i in range(1, 150)]
    for planted in ['  claim N7 "again"', '  evidence E "x" root', '  claim P1 "p"; claim P2 "q"',
                    "  N0 supportedBy P1 // c"]:
        lines.insert(rng.randrange(1, len(lines) + 1), planted)
    source = "case K kind monolithic {\n" + "\n".join(lines) + "\n}\n"
    fast = parse_case(source, "k.acd")
    assert calls == {"_node": 3, "_edge": 1}
    slow = parse_case(_with_comments(source), "k.acd")
    assert sorted(d.rule_id for d in fast.diagnostics) == ["P1", "P3"]
    assert [d.line() for d in fast.diagnostics] == [d.line() for d in slow.diagnostics]
    assert print_case(fast.case) == print_case(slow.case)
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)


def _token_path_calls(monkeypatch) -> dict[str, int]:
    """How often `_node` and `_edge` run from here on."""
    calls = {"_node": 0, "_edge": 0}
    for name in calls:
        def counted(self, name=name, method=getattr(_CaseParser, name)):
            calls[name] += 1
            method(self)

        monkeypatch.setattr(_CaseParser, name, counted)
    return calls


def test_every_flag_combination_the_model_accepts_stays_in_the_run(monkeypatch):
    # Each kind with every combination of the four boolean flags, a concern
    # and an away reference that `Element` accepts: each flag tail that
    # `print_case` writes is in `_FLAG_TAILS`, so no line takes the token path.
    calls = _token_path_calls(monkeypatch)
    elements = []
    for kind, (root, public, undeveloped, module), concern, away_ref in product(
        ElementKind, product((False, True), repeat=4), (None, *ConcernKind), (None, ("T", "C2"))
    ):
        try:
            elements.append(Element(f"{kind.value}{len(elements)}", kind, f"statement {len(elements)}", root, public,
                                    undeveloped, module, concern, away_ref))
        except ValueError:
            continue
    assert len(elements) == 72 + 5 * 6  # claims: 96 less 24 away references without `undeveloped`
    ids = [element.id for element in elements]
    edges = [Edge(a, b, [*EdgeKind][number % 2]) for number, (a, b) in enumerate(zip(ids, ids[1:]))]
    printed = print_case(AssuranceCase("K", CaseKind.MONOLITHIC, tuple(elements), tuple(edges)))
    fast = parse_case(printed, "k.acd")
    assert calls == {"_node": 0, "_edge": 0}
    assert fast.diagnostics == []
    assert sorted(element._replace(span=UNKNOWN_SPAN) for element in fast.case.elements) == sorted(elements)
    assert print_case(fast.case) == printed
    slow = parse_case(_with_comments(printed), "k.acd")
    assert calls == {"_node": len(elements), "_edge": len(edges)}
    assert fast.case == slow.case
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)


def test_every_flag_misuse_leaves_the_run_once(monkeypatch):
    # Each kind but claim with every non-empty set of the claim-only flags, and a claim with `awayref` but no
    # `undeveloped` beside every set of its other flags, each written in `print_case`'s flag order and followed by
    # a canonical line. Each misuse is read once, by the token path, and reads as it does in the commented text.
    calls = _token_path_calls(monkeypatch)
    claim_only = [flags for n in range(1, 5) for flags in combinations(("root", "undeveloped", "module", "awayref"), n)]
    lines, messages = ['  claim A "a" root'], []
    for kind in [kind for kind in ElementKind if kind is not ElementKind.CLAIM]:
        for flag_set in claim_only:
            node_id = f"N{len(lines)}"
            lines += [f'  {kind.value} {node_id} "s" ' + " ".join(flag_set).replace("awayref", "awayref T.C2"),
                      f'  evidence E{len(lines)} "e"']
            messages += [f"{'flag ' * (flag != 'awayref')}{flag!r} is not allowed on {kind.value} {node_id!r}"
                         for flag in flag_set]
    for flag_set in product(("", " root"), ("", " public"), ("", " module"), ("", " concern safety")):
        node_id = f"N{len(lines)}"
        lines += [f'  claim {node_id} "s"{"".join(flag_set)} awayref T.C2', f'  evidence E{len(lines)} "e"']
        messages.append(f"'awayref' on claim {node_id!r} requires the 'undeveloped' flag")
    source = "case K kind monolithic {\n" + "\n".join(lines) + "\n}\n"
    fast = parse_case(source, "k.acd")
    assert calls == {"_node": 5 * 15 + 16, "_edge": 0}
    assert sorted(d.message for d in fast.diagnostics) == sorted(messages)
    assert {d.rule_id for d in fast.diagnostics} == {"P3"}
    slow = parse_case(_with_comments(source), "k.acd")
    assert [d.line() for d in fast.diagnostics] == [d.line() for d in slow.diagnostics]
    assert fast.case == slow.case
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)


@pytest.mark.parametrize("flags", ["public root", "root root", "module undeveloped", "concern safety public",
                                   "awayref T.C2 undeveloped", "public public", "concern safety concern effectiveness"])
def test_flags_out_of_order_or_repeated_take_the_token_path_once(monkeypatch, flags):
    calls = _token_path_calls(monkeypatch)
    source = ('case K kind monolithic {\n  claim A "a" root\n  claim B "b" ' + flags
              + '\n  claim C "c" public\n  A supportedBy B\n  A inContextOf C\n}\n')
    fast = parse_case(source, "k.acd")
    assert calls == {"_node": 1, "_edge": 0}  # B alone; the run resumes at C
    slow = parse_case(_with_comments(source), "k.acd")
    assert fast.case.element("B") == slow.case.element("B")
    assert [d.line() for d in fast.diagnostics] == [d.line() for d in slow.diagnostics]
    assert fast.case == slow.case


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_hand_spaced_flags_and_trailing_blanks_leave_the_run(monkeypatch, newline):
    # The table holds `print_case`'s flag texts only, so spaces and tabs between and after the flags, an away
    # reference among them, send each line to the token path once, with the same result.
    calls = _token_path_calls(monkeypatch)
    lines = ['  claim A "a"\troot  public ', '  claim B "b" undeveloped \t awayref  T.C2\t', '  evidence E "e"  ',
             '  context X "x" public\t\t', '  claim C "c" concern   safety']
    source = newline.join(["case K kind monolithic {", *lines, "}", ""])
    fast = parse_case(source, "k.acd")
    assert calls == {"_node": 5, "_edge": 0}
    slow = parse_case(_with_comments(source), "k.acd")
    assert fast.diagnostics == slow.diagnostics == [] and fast.case == slow.case
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)


def _bulk_source(indent: str, other: str) -> str:
    """A case whose edge section, indented by `indent`, is longer than one bounded run of 256 lines. Edges wait for an
    element declared after them inside a run and on both sides of the bound; one names no element (P2). A run starts
    after a `;`-joined statement, edges indented by `other` stand between runs and one run changes to `other` midway,
    and an edge line with a trailing blank stands between two runs."""
    nodes = ['  claim N0 "root" root'] + [f'  evidence N{i} "e {i}"' for i in range(1, 330)]
    edges = [f"{indent}N{i // 4} supportedBy N{i}" for i in range(1, 321)]
    for at, target in ((100, "W1"), (255, "W2"), (256, "W3"), (200, "MISSING")):
        edges[at] = f"{indent}N{at // 4} inContextOf {target}"
    edges += ['  evidence J "j";  N1 supportedBy J', f"{indent}N2 supportedBy J", f"{other}N3 supportedBy N5",
              f"{indent}N3 supportedBy W1", f"{other}N4 inContextOf W2", f"{indent}N5 supportedBy N6",
              f"{indent}N6 supportedBy N7 ", *(f"{indent}N6 supportedBy N{i}" for i in (8, 9, 10)),
              *(f"{other}N7 inContextOf N{i}" for i in (11, 12, 13))]
    late = [f'  context W{i} "w {i}"' for i in (1, 2, 3)]
    return "case K kind monolithic {\n" + "\n".join([*nodes, "", *edges, "", *late]) + "\n}\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("indent, other", [("  ", "\t"), ("    ", "  "), ("\t", "  "), ("", "  "), (" \t", "\t ")],
                         ids=["two-spaces", "four-spaces", "tab", "none", "space-tab"])
def test_runs_of_print_case_edge_lines_read_as_the_token_path_reads_them(monkeypatch, indent, other, newline):
    # `_EDGES` reads a run of up to 256 edge lines with one indentation and one line ending in one match, and only
    # from a line start; a change of indentation ends the run. The `;`-joined node and the edge after it, and the
    # edge line with a trailing blank, take the token path.
    calls = _token_path_calls(monkeypatch)
    bulk_lines = []

    class CountedEdges:
        def match(self, source, pos, match=parser._EDGES.match):
            found = match(source, pos)
            if found:
                bulk_lines.append(found[0].count("\n"))
            return found

    monkeypatch.setattr(parser, "_EDGES", CountedEdges())
    source = _bulk_source(indent, other).replace("\n", newline)
    fast = parse_case(source, "k.acd")
    assert calls == {"_node": 1, "_edge": 2}
    assert bulk_lines == [256, 64, 1, 1, 1, 1, 1, 3, 3]
    slow = parse_case(_with_comments(source), "k.acd")
    assert [d.rule_id for d in fast.diagnostics] == ["P2"]
    assert [d.line() for d in fast.diagnostics] == [d.line() for d in slow.diagnostics]
    assert fast.case == slow.case
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)


def _edge_ends_are_id_strings(case: AssuranceCase) -> bool:
    return all(edge.source is case.element(edge.source).id and edge.target is case.element(edge.target).id
               for edge in case.edges)


def test_edge_ends_are_their_elements_id_strings(monkeypatch):
    # Each id string is kept once: an edge end that copied it would cost memory
    # and a full comparison in every later dict lookup. Edges built in a run,
    # edges that wait for their target, the token path's, and bundle members'.
    calls = _token_path_calls(monkeypatch)
    rng = random.Random(29)
    cases = []
    for _ in range(20):
        header, *body, end = print_case(helpers.gen_case(rng)).split("\n")
        edges_first = [line for line in body if " supportedBy " in line or " inContextOf " in line]
        edges_first += [line for line in body if line not in edges_first]
        for source in ("\n".join([header, *body, end]), "\n".join([header, *edges_first, end])):
            cases += [parse_case(source, "k.acd").case, parse_case(_with_comments(source), "k.acd").case]
    cases += [parse_case(helpers.mixed_case_text(random.Random(seed)), "k.acd").case for seed in range(5)]
    bundle, _ = parse_bundle((CORPUS / "bundle_mrgfus.acb").read_text(encoding="utf-8"),
                             lambda name: (CORPUS / name).read_text(encoding="utf-8"), "bundle_mrgfus.acb")
    cases += bundle.cases()
    assert calls["_edge"] > 100 and sum(len(case.edges) for case in cases) > 500
    for case in cases:
        assert _edge_ends_are_id_strings(case), case.id


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='\n\r;"ab', max_size=120), st.data())
def test_locate_answers_offsets_asked_for_in_any_order(source, data):
    # The parser asks in text order but for a few spans; the cursor must also be right after a long jump back.
    parser = _Parser(source, "f")
    offsets = data.draw(st.lists(st.integers(0, len(source)), max_size=20))
    for offset in [*offsets, len(source), 0, *offsets[::-1]]:
        assert parser.locate(offset) == (source.count("\n", 0, offset) + 1, source.rfind("\n", 0, offset) + 1)


def _joined(count: int, closing: str) -> str:
    """`count` claims joined by `;` on one line after the header line; a blank
    last line, so that `_with_comments` comments the line of claims."""
    return "case K kind monolithic {\n  " + "; ".join(f'claim N{i} "s {i}"' for i in range(count)) + closing + "\n"


@pytest.mark.parametrize("closing", [" }\n", "\n}\n"])
def test_statements_joined_on_one_line_parse_in_linear_time(closing):
    # A run tries `_NODE_LINE` and `_BLANKS` before each statement; a statement
    # scan that read to the end of the line made k statements cost k times
    # the line.
    def seconds(count: int) -> float:
        source = _joined(count, closing)
        best = min(timeit.repeat(lambda: parse_case(source, "k.acd"), number=1, repeat=3))
        fast, slow = parse_case(source, "k.acd"), parse_case(_with_comments(source), "k.acd")
        assert len(fast.case.elements) == count and fast.diagnostics == slow.diagnostics == []
        assert fast.case == slow.case and _pinned_spans(fast.case) == _pinned_spans(slow.case)
        return best

    assert seconds(8 * 250) / seconds(250) < 24  # about 8 when linear, about 60 when quadratic


def test_flag_tails_are_the_tails_print_case_writes():
    # The reader's table holds, for each kind, exactly the flag tails that `print_case` writes after the statement
    # of an element that `Element` accepts, each read as that element's kind and flags. An away reference is
    # written last, after a tail that reads `undeveloped`, and is read apart from the table.
    expected: dict[str, dict] = {kind.value: {} for kind in ElementKind}
    away_tails = 0
    for kind, values, concern, away_ref in product(ElementKind, product((False, True), repeat=4),
                                                   (None, *ConcernKind), (None, ("T", "C2"))):
        try:
            element = Element("A", kind, "s", *values, concern, away_ref)
        except ValueError:
            continue
        tail = print_case(AssuranceCase("K", CaseKind.MONOLITHIC, (element,))).split("\n")[1].partition('"s"')[2]
        if away_ref is None:
            expected[kind.value][tail] = (kind, *values, concern)
        else:
            head, awayref, payload = tail.partition(" awayref ")
            assert awayref and payload == "T.C2"
            assert parser._FLAG_TAILS[kind.value][head] == (kind, *values, concern) and values[2]  # `undeveloped`
            away_tails += 1
    assert parser._FLAG_TAILS == expected
    assert sum(map(len, expected.values())) == 48 + 5 * 6 and away_tails == 24


_FLAG_WORDS = ["root", "public", "undeveloped", "module", "concern safety", "concern effectiveness", "awayref T.C2",
               "awayref claim.awayref", "awayref T . C2"]
_BLANK_RUNS = st.one_of(st.just(" "), st.text(" \t", min_size=1, max_size=4), st.just(" \x0b"))


@st.composite
def _node_line(draw) -> str:
    """A node line of any kind, with a keyword or plain id and any flag words, a word each from the flag words:
    any subset, in any order, repeated, each word led by one space or by a run of spaces and tabs (now and then by a
    vertical tab, which the lexer rejects), and then trailing blanks or none."""
    words = [draw(st.sampled_from(ElementKind)).value, draw(st.sampled_from([*_KEYWORDS, "A", "B-1", "c_2"])),
             '"' + draw(st.sampled_from(["s", 'a \\" b', "x \\\\", ""])) + '"']
    words += " ".join(draw(st.lists(st.sampled_from(_FLAG_WORDS), max_size=5))).split()
    return "  " + "".join(draw(_BLANK_RUNS) + word for word in words)[1:] + draw(st.sampled_from(["", " ", "\t", " \t"]))


@settings(max_examples=120, deadline=None)
@given(st.lists(_node_line(), min_size=1, max_size=8), st.sampled_from(["\n", "\r\n"]))
@example(['  claim A "s" root  public\t', '  claim B "s" undeveloped   awayref T.C2 '], "\n")
@example(['  evidence E "s" root', '  claim C "s" awayref T.C2', '  claim D "s"\x0broot'], "\r\n")
def test_node_lines_read_as_the_token_path_reads_them(lines, newline):
    # Each drawn line, then a canonical one: the fast parse must read as its commented twin, which the token path
    # reads whole, in values, diagnostics and spans.
    body = [line for number, line in enumerate(lines) for line in (line, f'  evidence E{number} "e"')]
    source = newline.join(["case K kind monolithic {", *body, "}", ""])
    fast, slow = parse_case(source, "k.acd"), parse_case(_with_comments(source), "k.acd")
    assert [d.line() for d in fast.diagnostics] == [d.line() for d in slow.diagnostics]
    assert fast.case == slow.case
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)


_DIGITS = st.text("0123456789", min_size=1, max_size=40)
# A capability bound as decimal text: a sign or none, 1 to 40 integer digits (leading zeros and `-0` among them) and
# a fraction of 1 to 40 digits or none
_BOUND_TEXT = st.builds("{}{}{}".format, st.sampled_from(["", "-"]), _DIGITS,
                        st.one_of(st.just(""), _DIGITS.map(".{}".format)))
_CAPABILITY_IDS = st.one_of(st.sampled_from(_KEYWORDS),
                            st.builds(str.__add__, st.sampled_from("AaZz"), st.text("aZ09_-", max_size=6)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(Direction), _CAPABILITY_IDS, _CAPABILITY_IDS, _BOUND_TEXT, _BOUND_TEXT),
                min_size=1, max_size=6),
       st.sampled_from(["\n", "\r\n"]))
@example([(Direction.REQUIRED, "unit", "range", "-0", "-00.50"), (Direction.PROVIDED, "capability", "unit", "0", "7")],
         "\r\n")
def test_capability_lines_read_as_the_token_path_reads_them(capabilities, newline):
    # Each drawn capability line laid out as `print_case` writes it, after a node line, and its twin ending in
    # ` // c`, which the token path reads at the same columns. `_line` reads every canonical line, and the twins
    # agree in values (by `repr`, which tells `-0` from `0` and `1.0` from `1`), spans and diagnostics.
    lines = [f"  {direction.value} capability {name} unit {unit} range [{low}, {high}]"
             for direction, name, unit, low, high in capabilities]

    def case(tail: str) -> str:
        return newline.join(["case K kind technological {", '  claim A "a" root', *(line + tail for line in lines),
                             "}", ""])

    read = []  # one entry per capability line that the token path reads
    token_path = _CaseParser._capability

    def counted(self):
        read.append(self)
        token_path(self)

    with mock.patch.object(_CaseParser, "_capability", counted):
        fast = parse_case(case(""), "k.acd")
        assert read == []
        slow = parse_case(case(" // c"), "k.acd")
        assert len(read) == len(lines)
    assert repr(fast.case.capabilities) == repr(slow.case.capabilities)
    assert [(repr(c.low), repr(c.high)) for c in fast.case.capabilities] == [
        (repr(Decimal(low)), repr(Decimal(high))) for *_, low, high in capabilities]
    assert _pinned_spans(fast.case) == _pinned_spans(slow.case)
    assert [d.line() for d in fast.diagnostics] == [d.line() for d in slow.diagnostics]


# --- FORMATS.md's grammar as an oracle -------------------------------------------------------------------------
# The grammar block is read from FORMATS.md itself, so an edit to the document changes the oracle. Its notation:
# `NAME := expression` with continuation lines, `|`, `*`, `?`, parentheses and quoted terminals. ID, STRING and NUM
# are lexical rules in prose and regex notation; they are coded by hand below, each after its FORMATS.md line.


def _grammar() -> dict[str, tuple]:
    """FORMATS.md's case-file grammar: each rule name to its expression, as nested tuples ("alt", [...]),
    ("seq", [...]), ("star", x), ("opt", x), ("lit", text) and ("ref", name); the hand-coded rules left out."""
    text = (CORPUS.parent / "FORMATS.md").read_text(encoding="utf-8")
    block = text.partition("## Case files (`.acd`)")[2].split("```")[1]
    bodies: dict[str, str] = {}
    for line in block.strip().splitlines():
        name, defined, body = line.partition(":=")
        if defined:
            bodies[last := name.strip()] = body
        else:
            bodies[last] += " " + line
    rules = {}
    for name, body in bodies.items():
        if name not in _LEXICAL:
            tokens = re.findall(r'"[^"]*"|[A-Za-z]+|[()|*?]', body)
            rules[name], rest = _alternatives(tokens)
            assert not rest, (name, rest)
    return rules


def _alternatives(tokens: list[str]) -> tuple[tuple, list[str]]:
    options = []
    while True:
        sequence = []
        while tokens and tokens[0] not in "|)":
            token, tokens = tokens[0], tokens[1:]
            if token == "(":
                atom, tokens = _alternatives(tokens)
                assert tokens[0] == ")"
                tokens = tokens[1:]
            else:
                atom = ("lit", token[1:-1]) if token.startswith('"') else ("ref", token)
            while tokens and tokens[0] in ("*", "?"):
                atom, tokens = ("star" if tokens[0] == "*" else "opt", atom), tokens[1:]
            sequence.append(atom)
        options.append(("seq", sequence))
        if not tokens or tokens[0] != "|":
            return ("alt", options), tokens
        tokens = tokens[1:]


def _terminals(expression: tuple) -> set[str]:
    if expression[0] == "lit":
        return {expression[1]}
    if expression[0] == "ref":
        return set()
    parts = expression[1] if expression[0] in ("alt", "seq") else [expression[1]]
    return set().union(*map(_terminals, parts))


def _string(rng: random.Random) -> str:
    # STRING := '"' (any char, \" and \\ escapes) '"'; "Strings may span lines; the only escapes are `\"` and `\\`",
    # and "inside strings [a carriage return] is kept"
    pieces = ['\\"', "\\\\", "//", ";", "{", "}", "a", "é", " ", "\t", "claim"] + ["\n", "\r"] * (rng.random() < 0.3)
    return '"' + "".join(rng.choices(pieces, k=rng.randint(0, 6))) + '"'


def _number(rng: random.Random) -> str:
    # NUM := "-"? digits ("." digits)?
    digits = "".join(rng.choices("0123456789", k=rng.randint(1, 4)))
    return rng.choice(["", "-"]) + digits + rng.choice(["", "." + "".join(rng.choices("09", k=rng.randint(1, 3)))])


_LEXICAL = {"ID", "STRING", "NUM"}
_SEPARATOR = object()  # a statement boundary: "statements terminated by newline or `;`"


def _sentence(rng: random.Random, rules: dict[str, tuple], keywords: list[str]) -> list:
    """The tokens of one random `caseDecl`, with `_SEPARATOR` before each `item` and before the closing `}`."""
    def identifier() -> str:
        # ID := [A-Za-z][A-Za-z0-9_-]*; "Any ID may be a keyword"
        if rng.random() < 0.4:
            return rng.choice(keywords)
        return rng.choice("ABab") + "".join(rng.choices("AB01_-", k=rng.randint(0, 2)))

    lexical = {"ID": identifier, "STRING": lambda: _string(rng), "NUM": lambda: _number(rng)}
    out: list = []

    def expand(expression: tuple) -> None:
        kind, part = expression
        if kind == "lit":
            if part == "}":
                out.append(_SEPARATOR)
            out.append(part)
        elif kind == "ref":
            if part == "item":
                out.append(_SEPARATOR)
            if part in lexical:
                out.append(lexical[part]())
            else:
                expand(rules[part])
        elif kind == "alt":
            expand(rng.choice(part))
        elif kind == "seq":
            for each in part:
                expand(each)
        else:
            # about ten items a case, and a flag or two a node
            rate = 0.1 if part == ("ref", "item") else 0.8
            for _ in range(rng.randint(0, 1) if kind == "opt" else min(int(rng.expovariate(rate)), 30)):
                expand(part)

    expand(rules["caseDecl"])
    return out


def _render(tokens: list, rng: random.Random) -> tuple[str, str]:
    """A sentence's text and its commented twin: the same tokens and blanks, with ` // x` before each line break
    that ends a statement, so that the token path reads every statement of the twin."""
    text = twin = ""
    for token in tokens:
        if token is _SEPARATOR:
            separator = rng.choice(["\n", "\n", "\n", ";", "\r\n", " // c\n"])
            text += separator
            twin += " // x" + separator if separator in ("\n", "\r\n") else separator
        else:
            blank = rng.choice([" "] * 12 + ["\t", "  ", " \t", "\r "]) if text else ""
            text, twin = text + blank + token, twin + blank + token
    return text, twin


def test_grammar_sentences_parse_without_p0(monkeypatch):
    # Accept side: every sentence of the grammar parses with no P0, and reads as its commented twin in values,
    # diagnostics and spans, so the node lines, the edge runs and the token path all read the same sentences.
    calls = _token_path_calls(monkeypatch)
    fast_reads = {"node": 0, "edge": 0}
    rules = _grammar()
    assert {"caseDecl", "item", "node", "edge", "flag", "capability", "UNIT"} <= rules.keys()
    keywords = sorted(word for word in set().union(*map(_terminals, rules.values())) if ID_PATTERN.match(word))
    assert {"case", "supportedBy", "awayref", "safety", "capability", "range"} <= set(keywords)
    rng = random.Random(17)
    for number in range(1000):
        text, twin = _render(_sentence(rng, rules, keywords), rng)
        before = dict(calls)
        fast = parse_case(text, "g.acd")
        between = dict(calls)
        slow = parse_case(twin, "g.acd")
        for what in fast_reads:  # the statements that a run read: the twin sends each to the token path
            fast_reads[what] += calls[f"_{what}"] - 2 * between[f"_{what}"] + before[f"_{what}"]
        assert [d.line() for d in fast.diagnostics if d.rule_id == "P0"] == [], (number, text)
        assert [d.line() for d in fast.diagnostics] == [d.line() for d in slow.diagnostics], (number, text)
        assert fast.case == slow.case and _pinned_spans(fast.case) == _pinned_spans(slow.case), (number, text)
    assert fast_reads["node"] > 500 and fast_reads["edge"] > 500 and min(calls.values()) > 500, (fast_reads, calls)


# --- the reject side: one-token mutants against a recognizer of the same grammar ----------------------------------
_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?\Z")
_LEXICAL_TOKENS = {"ID": ID_PATTERN.match, "STRING": lambda token: token[0] == '"', "NUM": _NUMBER.match}
_BREAKS = ("star", ("sep", None))


def _file_rule(rules: dict[str, tuple]) -> tuple:
    """`caseDecl` with the statement breaks of FORMATS.md's prose: "statements terminated by newline or `;`", where a
    run of breaks may stand before the header, before its `{`, between statements and after the `}`, and the last
    statement before the `}` needs none."""
    (_, header), = rules["caseDecl"][1]
    assert header[4:] == [("lit", "{"), ("star", ("ref", "item")), ("lit", "}")], header
    items = ("opt", ("seq", [("ref", "item"), ("star", ("seq", [("sep", None), _BREAKS, ("ref", "item")]))]))
    return ("seq", [_BREAKS, *header[:4], _BREAKS, ("lit", "{"), _BREAKS, items, _BREAKS, ("lit", "}"), _BREAKS])


def _ends(expression: tuple, tokens: list, start: int, rules: dict[str, tuple], memo: dict) -> set[int]:
    """Each offset in `tokens` at which a match of `expression` begun at `start` can end; `memo` keeps the ends of
    each rule at each offset."""
    kind, part = expression
    token = tokens[start] if start < len(tokens) else None
    if kind == "sep":
        return {start + 1} if token is _SEPARATOR else set()
    if kind == "lit":
        return {start + 1} if token == part else set()
    if kind == "ref" and part in _LEXICAL_TOKENS:
        return {start + 1} if isinstance(token, str) and _LEXICAL_TOKENS[part](token) else set()
    if kind == "ref":
        if (part, start) not in memo:
            memo[part, start] = _ends(rules[part], tokens, start, rules, memo)
        return memo[part, start]
    if kind == "alt":
        ends = set().union(*(_ends(option, tokens, start, rules, memo) for option in part))
    elif kind == "seq":
        ends = {start}
        for each in part:
            if not ends:
                break
            ends = set().union(*(_ends(each, tokens, at, rules, memo) for at in ends))
    else:  # "opt" or "star": a star stops when a round finds no new end
        ends = frontier = {start}
        while frontier:
            frontier = set().union(*(_ends(part, tokens, at, rules, memo) for at in frontier)) - ends
            ends = ends | frontier
            if kind == "opt":
                break
    return ends


def _mutant(tokens: list, rng: random.Random, pool: list) -> list:
    """`tokens` with one token deleted, duplicated, swapped with the next, or replaced by one from `pool`."""
    how = rng.choice(["delete", "duplicate", "swap", "replace"])
    at, mutated = rng.randrange(len(tokens) - (how == "swap")), list(tokens)
    if how == "delete":
        del mutated[at]
    elif how == "duplicate":
        mutated.insert(at, tokens[at])
    elif how == "swap":
        mutated[at:at + 2] = tokens[at + 1], tokens[at]
    else:
        replacement = rng.choice(pool)
        mutated[at] = replacement(rng) if callable(replacement) else replacement
    return mutated


def test_one_token_mutants_are_rejected_exactly_when_the_grammar_rejects_them():
    # Reject side: each sentence, mutated by one token, must give a P0 exactly when a recognizer of FORMATS.md's
    # grammar and statement breaks rejects it. The recognizer reads the tokens the generator drew, not the text.
    rules = _grammar()
    file_rule = _file_rule(rules)
    keywords = sorted(word for word in set().union(*map(_terminals, rules.values())) if ID_PATTERN.match(word))
    pool = [*keywords, *"{}[],.", _SEPARATOR, lambda rng: rng.choice("ABab"), _string, _number]
    rng = random.Random(35)
    outcomes = {True: 0, False: 0}
    for number in range(1000):
        tokens = _mutant(_sentence(rng, rules, keywords), rng, pool)
        text = _render(tokens, rng)[0]
        recognized = len(tokens) in _ends(file_rule, tokens, 0, rules, {})
        p0 = [d.line() for d in parse_case(text, "m.acd").diagnostics if d.rule_id == "P0"]
        assert recognized == (not p0), (number, text, p0)
        outcomes[recognized] += 1
    assert outcomes[True] > 100 and outcomes[False] > 500, outcomes
