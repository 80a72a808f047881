import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actool.diagnostics import Severity
from actool.model import CaseKind, ConcernKind, EdgeKind, ElementKind
from actool.parser import parse_bundle, parse_case, print_case

import helpers


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
    result = parse_case('case A kind monolithic { associates T }', "t.acd")
    assert "P7" in rule_ids(result)
    assert result.case.associated_tac is None

    result = parse_case('case A kind clinical { claim C1 "x" root undeveloped }', "t.acd")
    assert "P7" in rule_ids(result)

    result = parse_case(
        'case A kind clinical { associates T\nassociates U\nclaim C1 "x" root undeveloped }',
        "t.acd",
    )
    assert rule_ids(result).count("P7") == 1
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
    pinned = [(e.span, e.id) for e in result.case.elements]
    pinned += [(e.span, e.source) for e in result.case.edges]
    for span, expected in pinned:
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


def test_parse_bundle_collects_member_diagnostics():
    broken_cac = 'case C kind clinical { associates T\nclaim C1 "c" root undeveloped\nclaim C1 "dup" }'
    bundle, diagnostics = parse_bundle(
        'bundle B { tac "t.acd"\ncac "c.acd" }',
        dict_loader({"t.acd": TAC_MIN, "c.acd": broken_cac}),
    )
    assert bundle is not None  # P1 recovers; the case itself still parses
    assert any(d.rule_id == "P1" and d.span.file == "c.acd" for d in diagnostics)


def test_empty_body_round_trip():
    from actool.model import AssuranceCase, CaseKind

    case = AssuranceCase("X", CaseKind.MONOLITHIC, ())
    printed = print_case(case)
    assert printed == "case X kind monolithic {\n}\n"
    result = parse_case(printed, "x.acd")
    assert not result.diagnostics
    assert print_case(result.case) == print_case(case)


def test_diagnostic_spans_index_real_positions():
    rng = random.Random(22)
    garbage = ["@@@", '"unterminated', "claim", "}", ";;", "supportedBy", "\\"]
    for _ in range(60):
        source = print_case(helpers.gen_case(rng, max_elements=6))
        cut = rng.randrange(len(source))
        mutated = source[:cut] + rng.choice(garbage) + source[cut:]
        result = parse_case(mutated, "broken.acd")
        lines = mutated.splitlines() or [""]
        for diagnostic in result.diagnostics:
            span = diagnostic.span
            assert 1 <= span.line <= len(lines) + 1, diagnostic.line()
            if span.line <= len(lines):
                assert 1 <= span.column <= len(lines[span.line - 1]) + 1, diagnostic.line()


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
