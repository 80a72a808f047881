import random
import re
import sys
from collections import Counter
from decimal import MAX_EMAX, MIN_ETINY, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actool.diagnostics import Severity
from actool.model import (
    AssuranceCase,
    Bundle,
    Capability,
    CaseKind,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    SourceSpan,
    format_decimal,
)
from actool.parser import parse_case
from actool.units import BUILTIN_UNITS, UnitDef, UnitError, parse_units_file
from actool.validate import (
    MatchStatus,
    match_capabilities,
    validate_bundle,
    validate_case,
)

import helpers
from conftest import CORPUS

sys.path.insert(0, str(CORPUS.parent / "perfbench"))
import gen  # noqa: E402  (read-only: the benchmark's generator)


def claim(id, **kw):
    return Element(id, ElementKind.CLAIM, f"statement {id}", **kw)


def case_of(*elements, edges=(), kind=CaseKind.MONOLITHIC, capabilities=(), **kw):
    return AssuranceCase(
        id=kw.pop("id", "T"),
        kind=kind,
        elements=elements,
        edges=edges,
        capabilities=capabilities,
        **kw,
    )


def errors(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def by_rule(diagnostics, rule):
    return [d for d in diagnostics if d.rule_id == rule]


# --- units -------------------------------------------------------------------


def _formats_units() -> list[tuple[str, str, str]]:
    """FORMATS.md's "Dimension | Units (scale)" table, one (symbol, dimension, scale text) per unit, in order."""
    text = (CORPUS.parent / "FORMATS.md").read_text(encoding="utf-8")
    table = text.partition("| Dimension | Units (scale) |")[2].partition("\n\n")[0]
    rows = []
    for line in table.strip().splitlines()[1:]:  # the first line is the header rule
        dimension, units = (cell.strip() for cell in line.strip().strip("|").split("|"))
        rows += [(symbol, dimension, scale) for symbol, scale in re.findall(r"(\S+) \(([^)]*)\)", units)]
    return rows


def test_builtin_units_have_one_base_per_dimension():
    # FORMATS.md's table is the oracle: BUILTIN_UNITS holds its rows in order, each scale as written there, and
    # perfbench/gen.py's UNITS, restated from the same table, agrees with it.
    rows = _formats_units()
    assert len(rows) == 16
    assert [(unit.symbol, unit.dimension, str(unit.scale_to_base)) for unit in BUILTIN_UNITS.units] == rows
    bases = [dimension for _, dimension, scale in rows if Decimal(scale) == 1]
    assert sorted(bases) == sorted(set(bases)) == sorted({dimension for _, dimension, _ in rows})
    assert gen.UNITS == {symbol: (dimension, Fraction(scale)) for symbol, dimension, scale in rows}


def test_unit_table_rejects_conflicts():
    with pytest.raises(UnitError, match="defined twice"):
        BUILTIN_UNITS.extended([UnitDef("W", "Power", Decimal(2))])
    with pytest.raises(UnitError, match="two base units"):
        BUILTIN_UNITS.extended([UnitDef("watt2", "Power", Decimal(1))])
    with pytest.raises(UnitError, match="positive"):
        UnitDef("neg", "Power", Decimal(-1))


def test_a_dimension_named_by_a_str_is_the_builtin_one_of_that_name():
    # The library path FORMATS.md's units table implies: a UnitDef names its dimension as a `.units` line does.
    # `uW` in "Power" converts to `W`, and a second scale-1 unit of "Power" is a second base unit of that
    # dimension, not the base of a new one that never matches `W`.
    table = BUILTIN_UNITS.extended([UnitDef("uW", "Power", Decimal("1e-6"))])
    assert verdict(table, ("uW", 1500000, 1500000), ("W", "1.5", "1.5")) is MatchStatus.SATISFIED
    assert verdict(table, ("uW", 1500000, 1500001), ("W", "1.5", "1.5")) is MatchStatus.RANGE_NOT_COVERED
    with pytest.raises(UnitError, match="^dimension Power has two base units: 'W' and 'PW'$"):
        BUILTIN_UNITS.extended([UnitDef("PW", "Power", 1)])


def test_parse_units_file():
    defs = parse_units_file("# comment\nus Time 0.000001\nuW Power 1e-6 # inline\n")
    assert [(d.symbol, d.dimension) for d in defs] == [("us", "Time"), ("uW", "Power")]
    extended = BUILTIN_UNITS.extended(defs)
    assert verdict(extended, ("s", "1.5", "1.5"), ("us", 1500000, 1500000)) is MatchStatus.SATISFIED
    assert verdict(extended, ("s", "1.5", "1.5"), ("us", 1500001, 1500001)) is MatchStatus.RANGE_NOT_COVERED
    # A dimension is the name its base unit declares, so a file can add one: absorbed dose, for radiotherapy.
    dose = BUILTIN_UNITS.extended(parse_units_file("Gy Dose 1\ncGy Dose 0.01\n"))
    assert verdict(dose, ("cGy", 150, 200), ("Gy", "1.5", 2)) is MatchStatus.SATISFIED
    assert verdict(dose, ("cGy", 150, 201), ("Gy", "1.5", 2)) is MatchStatus.RANGE_NOT_COVERED
    assert verdict(dose, ("cGy", 150, 200), ("W", "1.5", 2)) is MatchStatus.UNIT_MISMATCH
    with pytest.raises(UnitError, match="^dimension Dose has no base unit$"):
        BUILTIN_UNITS.extended(parse_units_file("us Dose 0.000001\n"))
    with pytest.raises(UnitError, match="expected"):
        parse_units_file("x Power\n")
    with pytest.raises(UnitError, match="invalid scale"):
        parse_units_file("x Power banana\n")


@pytest.mark.parametrize("scale", ["NaN", "sNaN", "-NaN", "Infinity", "-Infinity"])
def test_non_finite_scales_rejected(scale):
    with pytest.raises(UnitError, match="x.units:1: scale must be finite"):
        parse_units_file(f"x Power {scale}\n", "x.units")
    with pytest.raises(UnitError, match="finite"):
        UnitDef("x", "Power", Decimal(scale))


@pytest.mark.parametrize("scale", ["0", "-0", "0.000", "-1", "-0.001"])
def test_zero_and_negative_scales_rejected(scale):
    with pytest.raises(UnitError, match=r"^x.units:2: scale must be positive$"):
        parse_units_file(f"# units\nx Power {scale}\n", "x.units")


def test_matching_exact_beyond_28_digits():
    required = [Capability("p", Direction.REQUIRED, "W", Decimal(0), Decimal("1000.0000000000000000000000000001"))]
    provided = [Capability("p", Direction.PROVIDED, "kW", Decimal(0), Decimal(1))]
    assert match_capabilities(required, provided, BUILTIN_UNITS)[0].status is MatchStatus.RANGE_NOT_COVERED
    required = [Capability("p", Direction.REQUIRED, "W", Decimal(0), Decimal("999.99999999999999999999999999999"))]
    assert match_capabilities(required, provided, BUILTIN_UNITS)[0].status is MatchStatus.SATISFIED


def verdict(table, required, provided):
    """The status of one requirement `(unit, low, high)` against one provider `(unit, low, high)`."""
    return match_capabilities([req("p", *required)], [prov("p", *provided)], table)[0].status


def test_matching_exact_at_extreme_exponents():
    table = BUILTIN_UNITS.extended(
        [UnitDef("huge", "Power", Decimal("1e999999999")), UnitDef("tiny", "Power", Decimal("1e-999999999"))]
    )
    assert verdict(table, ("W", "2e999999999", "2e999999999"), ("huge", 2, 2)) is MatchStatus.SATISFIED
    point = ("W", "2.000001e999999999", "2.000001e999999999")
    assert verdict(table, point, ("huge", 0, 2)) is MatchStatus.RANGE_NOT_COVERED
    assert verdict(table, ("W", "5e-1000000000", "5e-1000000000"), ("tiny", "0.5", 1)) is MatchStatus.SATISFIED
    assert verdict(table, ("W", "4.9e-1000000000", "5e-1000000000"), ("tiny", "0.5", 1)) is MatchStatus.RANGE_NOT_COVERED


def test_matching_past_the_largest_decimal_exponent():
    # 50 xW is 5E+1000000000000000000 W, which no Decimal can hold; so is 500 yW.
    table = BUILTIN_UNITS.extended([UnitDef("xW", "Power", Decimal("1E+999999999999999999")),
                                    UnitDef("yW", "Power", Decimal("1E+999999999999999998"))])
    assert verdict(table, ("xW", 50, 50), ("W", 0, 300)) is MatchStatus.RANGE_NOT_COVERED
    assert verdict(table, ("W", 0, 300), ("xW", 0, 50)) is MatchStatus.SATISFIED
    assert verdict(table, ("xW", 50, 50), ("yW", 0, 500)) is MatchStatus.SATISFIED
    assert verdict(table, ("xW", 50, 50), ("yW", 0, 499)) is MatchStatus.RANGE_NOT_COVERED


def test_matching_below_the_smallest_decimal_exponent():
    # 1E-10 xW is 1E-1000000000000000009 W: not 0 W, and 1E+999999999999999988 zW.
    table = BUILTIN_UNITS.extended([UnitDef("xW", "Power", Decimal("1E-999999999999999999")),
                                    UnitDef("zW", "Power", Decimal(f"1E{MIN_ETINY}"))])
    point = ("xW", "0.0000000001", "0.0000000001")
    assert verdict(table, point, ("W", 0, 0)) is MatchStatus.RANGE_NOT_COVERED
    assert verdict(table, point, ("W", 0, 300)) is MatchStatus.SATISFIED
    assert verdict(table, ("xW", "0.01", "0.01"), ("W", 0, 300)) is MatchStatus.SATISFIED
    high = "1E+999999999999999989"
    assert verdict(table, point, ("zW", "1E+999999999999999988", high)) is MatchStatus.SATISFIED
    assert verdict(table, point, ("zW", "1.000000001E+999999999999999988", high)) is MatchStatus.RANGE_NOT_COVERED


@pytest.mark.parametrize("required, provided, status", [
    (("huge", 0, 0), ("tiny", -1, 1), MatchStatus.SATISFIED),
    (("huge", "-0", 0), ("tiny", 0, 0), MatchStatus.SATISFIED),
    (("huge", 1, 1), ("tiny", -1, 1), MatchStatus.RANGE_NOT_COVERED),
    (("huge", -1, -1), ("tiny", -1, 1), MatchStatus.RANGE_NOT_COVERED),
    (("tiny", -9, 9), ("huge", -1, 1), MatchStatus.SATISFIED),
    (("tiny", -9, 9), ("huge", 0, 1), MatchStatus.RANGE_NOT_COVERED),
    (("tiny", -9, 9), ("huge", -1, 0), MatchStatus.RANGE_NOT_COVERED),
    (("tiny", 1, 1), ("W", 0, "1E-999999999999999999"), MatchStatus.SATISFIED),
    (("tiny", -1, 1), ("W", "-1E-999999999999999999", 0), MatchStatus.RANGE_NOT_COVERED),
])
def test_matching_across_the_whole_exponent_range(required, provided, status):
    # Base-unit bounds 1E+999999999999999999 and 1E-1999999999999999997 apart: only signs decide.
    table = BUILTIN_UNITS.extended([UnitDef("huge", "Power", Decimal(f"1E{MAX_EMAX}")),
                                    UnitDef("tiny", "Power", Decimal(f"1E{MIN_ETINY}"))])
    assert verdict(table, required, provided) is status


def test_matching_exact_on_bounds_of_more_than_4300_digits():
    # 5,001 digits: past the limit of int's conversion from a decimal string.
    digits = (7, *random.Random(5).choices(range(10), k=4999), 5)
    below_digits = (*digits[:-1], 4)
    bound, bound_in_thousands = Decimal((0, digits, 0)), Decimal((0, digits, -3))
    below, below_in_thousands = Decimal((0, below_digits, 0)), Decimal((0, below_digits, -3))
    for required, provided, status in [
        (("W", 0, bound), ("W", 0, bound), MatchStatus.SATISFIED),
        (("W", 0, bound), ("W", 0, below), MatchStatus.RANGE_NOT_COVERED),
        (("W", 0, bound), ("kW", 0, bound_in_thousands), MatchStatus.SATISFIED),
        (("W", 0, bound), ("kW", 0, below_in_thousands), MatchStatus.RANGE_NOT_COVERED),
        (("mW", bound, bound), ("W", 0, bound_in_thousands), MatchStatus.SATISFIED),
        (("mW", bound, bound), ("W", below_in_thousands, below_in_thousands), MatchStatus.RANGE_NOT_COVERED),
    ]:
        assert verdict(BUILTIN_UNITS, required, provided) is status


def extreme_scales():
    """Scales of up to 12 digits whose exponent is within 40 of the smallest or the largest there is."""
    return st.builds(
        lambda digits, offset, small: Decimal((0, digits, MIN_ETINY + offset if small else
                                                MAX_EMAX - len(digits) + 1 - offset)),
        st.lists(st.integers(0, 9), max_size=11).map(lambda d: (1, *d)),
        st.integers(0, 40),
        st.booleans(),
    )


def dsl_decimals():
    """Bounds as the DSL writes them: up to 12 digits, at most 6 after the point."""
    return st.builds(lambda digits, exponent, negative: Decimal((negative, digits, -exponent)),
                     st.lists(st.integers(0, 9), min_size=1, max_size=12), st.integers(0, 6), st.booleans())


@settings(max_examples=150, deadline=None)
@given(dsl_decimals(), dsl_decimals(), extreme_scales(), st.integers(0, 40), st.sampled_from([-1, 0, 1]))
def test_a_point_one_unit_past_a_bound_at_extreme_scales(low, high, scale, shift, nudge):
    # The provider is in `big`; each point lies on one of its bounds, or one unit in a digit past
    # the last digit of both bounds to one side, written in `near`, whose exponent is `shift` from big's.
    low, high = min(low, high), max(low, high)
    _, scale_digits, scale_exponent = scale.as_tuple()
    near_exponent = scale_exponent + shift if scale_exponent < 0 else scale_exponent - shift
    table = BUILTIN_UNITS.extended([UnitDef("big", "Power", scale),
                                    UnitDef("near", "Power", Decimal((0, (1,), near_exponent)))])
    last = min(low.as_tuple().exponent, high.as_tuple().exponent) - 1
    scale_coefficient = int(Decimal((0, scale_digits, 0)))
    for bound, inward in ((low, 1), (high, -1)):
        sign, digits, exponent = bound.as_tuple()
        coefficient = int(Decimal((sign, digits, 0))) * scale_coefficient * 10 ** (exponent - last) + nudge
        point = Decimal(f"{coefficient}E{last + scale_exponent - near_exponent}")
        covered = nudge == 0 or (nudge == inward and low < high)
        assert verdict(table, ("near", point, point), ("big", low, high)) is \
            (MatchStatus.SATISFIED if covered else MatchStatus.RANGE_NOT_COVERED)


def _assert_plain_and_exact(value: Decimal) -> None:
    text = format_decimal(value)
    assert "E" not in text.upper() and Decimal(text) == value


@pytest.mark.parametrize("value", ["1E+1000000", "1E-1000001", "-4.5E+1000000", "12345E-1000010"])
def test_format_decimal_past_the_default_exponent_range(value):
    # The default context's Emax and Emin are 999999 and -999999.
    _assert_plain_and_exact(Decimal(value))


@settings(max_examples=40, deadline=None)
@given(st.builds(
    lambda digits, exponent, small, negative: Decimal((negative, digits, -exponent if small else exponent)),
    st.lists(st.integers(0, 9), max_size=30).map(lambda d: (1, *d)),
    st.integers(999_000, 1_100_000),
    st.booleans(),
    st.booleans(),
))
def test_format_decimal_exact_at_wide_exponents(value):
    _assert_plain_and_exact(value)


def long_decimals():
    """Decimals with 29 to 60 significant digits and a random exponent."""
    return st.builds(
        lambda digits, exponent, negative: Decimal((negative, digits, exponent)),
        st.lists(st.integers(0, 9), min_size=28, max_size=59).map(lambda d: (1, *d)),
        st.integers(-40, 10),
        st.booleans(),
    )


@settings(max_examples=200, deadline=None)
@given(long_decimals(), long_decimals(), long_decimals())
def test_matching_exact_against_fractions(low, high, scale):
    low, high, scale = min(low, high), max(low, high), abs(scale)
    table = BUILTIN_UNITS.extended([UnitDef("big", "Power", scale)])
    provided = [Capability("p", Direction.PROVIDED, "big", low, high)]
    _, scale_digits, scale_exponent = scale.as_tuple()
    for bound in (low, high):
        # A point requirement in W at a provided bound, and moved by one unit
        # in the digit after the last digit of the exact product.
        sign, digits, exponent = bound.as_tuple()
        product = int("".join(map(str, digits))) * int("".join(map(str, scale_digits)))
        for nudge in (-1, 0, 1):
            point = Decimal(f"{'-' if sign else ''}{product * 10 + nudge}e{exponent + scale_exponent - 1}")
            required = [Capability("p", Direction.REQUIRED, "W", point, point)]
            covered = Fraction(low) * Fraction(scale) <= Fraction(point) <= Fraction(high) * Fraction(scale)
            status = match_capabilities(required, provided, table)[0].status
            assert status is (MatchStatus.SATISFIED if covered else MatchStatus.RANGE_NOT_COVERED)


# --- G rules -----------------------------------------------------------------


def test_corpus_cases_zero_errors(tac_case, cac_case, mono_case):
    for case in (tac_case, cac_case, mono_case):
        assert validate_case(case) == []


def test_g1_two_roots():
    diagnostics = validate_case(case_of(claim("A", is_root=True), claim("B", is_root=True, is_undeveloped=True)))
    g1 = by_rule(diagnostics, "G1")
    assert len(g1) == 1
    assert g1[0].severity is Severity.ERROR
    assert ("T", "A") in g1[0].elements and ("T", "B") in g1[0].elements


def test_g1_no_root():
    diagnostics = validate_case(case_of(claim("A", is_undeveloped=True)))
    assert len(by_rule(diagnostics, "G1")) == 1


def test_g2_cycle():
    case = case_of(
        claim("A", is_root=True),
        claim("B"),
        edges=(Edge("A", "B", EdgeKind.SUPPORTED_BY), Edge("B", "A", EdgeKind.SUPPORTED_BY)),
    )
    g2 = by_rule(validate_case(case), "G2")
    assert len(g2) == 1
    assert "cycle" in g2[0].message


def lines_and_elements(diagnostics, rule):
    return [(d.line(), d.elements) for d in by_rule(diagnostics, rule)]


def test_g3_strategy_must_support_claims():
    # a bad target kind is reported before the strategy-specific rule
    case = case_of(
        claim("A", is_root=True),
        Element("S1", ElementKind.STRATEGY, "s"),
        Element("E1", ElementKind.EVIDENCE, "e"),
        Element("X1", ElementKind.CONTEXT, "x"),
        edges=(
            Edge("A", "S1", EdgeKind.SUPPORTED_BY),
            Edge("S1", "E1", EdgeKind.SUPPORTED_BY),
            Edge("S1", "X1", EdgeKind.SUPPORTED_BY),
        ),
    )
    assert lines_and_elements(validate_case(case), "G3") == [
        (
            "<unknown>:1:1: error G3: context 'X1' cannot be the target of a supportedBy edge",
            (("T", "X1"),),
        ),
        (
            "<unknown>:1:1: error G3: strategy 'S1' must be supported by claims only, not evidence 'E1'",
            (("T", "S1"), ("T", "E1")),
        ),
    ]


def test_g3_bad_source_and_target():
    case = case_of(
        claim("A", is_root=True, is_undeveloped=True),
        Element("X1", ElementKind.CONTEXT, "x"),
        Element("E1", ElementKind.EVIDENCE, "e"),
        edges=(
            Edge("E1", "A", EdgeKind.SUPPORTED_BY),
            Edge("A", "X1", EdgeKind.SUPPORTED_BY),
        ),
    )
    assert lines_and_elements(validate_case(case), "G3") == [
        (
            "<unknown>:1:1: error G3: context 'X1' cannot be the target of a supportedBy edge",
            (("T", "X1"),),
        ),
        (
            "<unknown>:1:1: error G3: evidence 'E1' cannot be the source of a supportedBy edge",
            (("T", "E1"),),
        ),
    ]


def test_g4_context_edges():
    case = case_of(
        claim("A", is_root=True, is_undeveloped=True),
        Element("X1", ElementKind.CONTEXT, "x"),
        Element("E1", ElementKind.EVIDENCE, "e"),
        Element("S1", ElementKind.STRATEGY, "s"),
        edges=(
            Edge("A", "E1", EdgeKind.IN_CONTEXT_OF),  # bad target
            Edge("X1", "X1", EdgeKind.IN_CONTEXT_OF),  # bad source
            Edge("S1", "X1", EdgeKind.IN_CONTEXT_OF),  # a strategy may have context
        ),
    )
    assert lines_and_elements(validate_case(case), "G4") == [
        (
            "<unknown>:1:1: error G4: context 'X1' cannot be the source of an inContextOf edge",
            (("T", "X1"),),
        ),
        (
            "<unknown>:1:1: error G4: evidence 'E1' cannot be the target of an inContextOf edge",
            (("T", "E1"),),
        ),
    ]


def typing_findings(case):
    return Counter((d.rule_id, d.span, d.elements) for d in validate_case(case) if d.rule_id in ("G3", "G4"))


def test_g3_g4_each_edge_matches_typing_oracle_on_every_two_node_case():
    # every kind on both nodes, every subset of the 8 edges of both kinds, self-loops included
    checked = 0
    for case in helpers.enum_typed_digraphs(2, kinds=tuple(ElementKind), edge_kinds=tuple(EdgeKind)):
        assert typing_findings(case) == helpers.brute_typing(case)
        checked += 1
    assert checked == 6**2 * 2**8


def test_g3_g4_each_edge_matches_typing_oracle_on_random_cases():
    rng = random.Random(3131)
    found = 0
    for _ in range(600):
        case = helpers.gen_case(rng)
        # one span per edge, so a finding on the wrong edge shows
        case = case._replace(edges=[edge._replace(span=SourceSpan("g.acd", line, 1)) for line, edge in
                                    enumerate(case.edges + case.edges[:2], 1)])  # two duplicate edges
        expected = helpers.brute_typing(case)
        assert typing_findings(case) == expected
        found += len(expected)
    assert found > 1000


def test_g3_g4_each_edge_of_a_parsed_case():
    text = (
        "case T kind monolithic {\n"
        '  claim A "a" root\n'
        '  strategy S "s"\n'
        '  claim B "b" undeveloped\n'
        '  evidence E "e"\n'
        '  context X "x"\n'
        "  A supportedBy S\n"
        "  S supportedBy B\n"
        "  S supportedBy E\n"  # only this edge of S is reported
        "  A supportedBy X\n"
        "  A supportedBy X\n"  # the same illegal edge on a second line
        "  X supportedBy A\n"  # a context as the source of both edge kinds
        "  X inContextOf A\n"
        "  A inContextOf X\n"
        "}\n"
    )
    case = parse_case(text, "t.acd").case
    assert typing_findings(case) == helpers.brute_typing(case)
    assert [d.line() for d in validate_case(case) if d.rule_id in ("G3", "G4")] == [
        "t.acd:9:3: error G3: strategy 'S' must be supported by claims only, not evidence 'E'",
        "t.acd:10:3: error G3: context 'X' cannot be the target of a supportedBy edge",
        "t.acd:11:3: error G3: context 'X' cannot be the target of a supportedBy edge",
        "t.acd:12:3: error G3: context 'X' cannot be the source of a supportedBy edge",
        "t.acd:13:3: error G4: context 'X' cannot be the source of an inContextOf edge",
    ]


def test_g5_bare_leaf_claim():
    case = case_of(claim("A", is_root=True), claim("B"), edges=(Edge("A", "B", EdgeKind.SUPPORTED_BY),))
    g5 = by_rule(validate_case(case), "G5")
    assert [d.elements for d in g5] == [(("T", "B"),)]


def test_g5_satisfied_by_evidence_undeveloped_or_awayref():
    case = case_of(
        claim("A", is_root=True),
        claim("B"),
        claim("C", is_undeveloped=True),
        claim("D", is_undeveloped=True, away_ref=("T2", "C9")),
        Element("E1", ElementKind.EVIDENCE, "e"),
        edges=(
            Edge("A", "B", EdgeKind.SUPPORTED_BY),
            Edge("A", "C", EdgeKind.SUPPORTED_BY),
            Edge("A", "D", EdgeKind.SUPPORTED_BY),
            Edge("B", "E1", EdgeKind.SUPPORTED_BY),
        ),
    )
    assert by_rule(validate_case(case), "G5") == []


def test_g6_orphan_is_warning_only():
    case = case_of(
        claim("A", is_root=True, is_undeveloped=True),
        Element("X1", ElementKind.CONTEXT, "x"),
    )
    diagnostics = validate_case(case)
    g6 = by_rule(diagnostics, "G6")
    assert len(g6) == 1
    assert g6[0].severity is Severity.WARNING
    assert not errors(diagnostics)


def test_g7_childless_strategy():
    case = case_of(
        claim("A", is_root=True),
        Element("S1", ElementKind.STRATEGY, "s"),
        edges=(Edge("A", "S1", EdgeKind.SUPPORTED_BY),),
    )
    assert len(by_rule(validate_case(case), "G7")) == 1


def test_g7_strategy_supported_by_evidence_only_is_left_to_g3():
    # G7 flags a strategy with no supportedBy edge at all; one whose only support is evidence is G3's
    case = case_of(
        claim("A", is_root=True),
        Element("S", ElementKind.STRATEGY, "s"),
        Element("E", ElementKind.EVIDENCE, "e"),
        edges=(Edge("A", "S", EdgeKind.SUPPORTED_BY), Edge("S", "E", EdgeKind.SUPPORTED_BY)),
    )
    assert [d.line() for d in validate_case(case)] == [
        "<unknown>:1:1: error G3: strategy 'S' must be supported by claims only, not evidence 'E'",
    ]


def test_g8_capability_placement():
    provided = Capability("p", Direction.PROVIDED, "W", Decimal(0), Decimal(1))
    required = Capability("r", Direction.REQUIRED, "W", Decimal(0), Decimal(1))
    mono = case_of(claim("A", is_root=True, is_undeveloped=True), capabilities=(provided, required))
    assert [(d.severity, d.message, d.elements) for d in by_rule(validate_case(mono), "G8")] == [
        (
            Severity.ERROR,
            "a 'provides' capability is only allowed in a technological case ('p' in monolithic case 'T')",
            (),
        ),
        (
            Severity.ERROR,
            "a 'requires' capability is only allowed in a clinical case ('r' in monolithic case 'T')",
            (),
        ),
    ]
    tech = case_of(
        claim("A", is_root=True, is_public=True, is_undeveloped=True),
        kind=CaseKind.TECHNOLOGICAL,
        capabilities=(provided, required),
    )
    assert [d.message for d in by_rule(validate_case(tech), "G8")] == [
        "a 'requires' capability is only allowed in a clinical case ('r' in technological case 'T')"
    ]
    clinical = case_of(
        claim("A", is_root=True, is_undeveloped=True),
        kind=CaseKind.CLINICAL,
        capabilities=(provided, required),
        id="K",
    )
    assert [d.message for d in by_rule(validate_case(clinical), "G8")] == [
        "a 'provides' capability is only allowed in a technological case ('p' in clinical case 'K')"
    ]


def test_u1_unknown_unit_and_u2_empty_range():
    caps = (
        Capability("p", Direction.PROVIDED, "furlong", Decimal(0), Decimal(1)),
        Capability("q", Direction.PROVIDED, "W", Decimal(5), Decimal(1)),
    )
    case = case_of(
        claim("A", is_root=True, is_public=True, is_undeveloped=True),
        kind=CaseKind.TECHNOLOGICAL,
        capabilities=caps,
    )
    diagnostics = validate_case(case)
    assert len(by_rule(diagnostics, "U1")) == 1
    assert len(by_rule(diagnostics, "U2")) == 1


def test_validate_case_deterministic(tac_case):
    case = helpers.gen_case(random.Random(31))
    assert validate_case(case) == validate_case(case)
    assert validate_case(tac_case) == validate_case(tac_case)


def test_g2_g3_verdicts_exhaustive_two_nodes():
    for case in helpers.enum_typed_digraphs(2):
        diagnostics = validate_case(case)
        assert bool(by_rule(diagnostics, "G2")) == helpers.brute_has_supported_by_cycle(case)
        assert bool(by_rule(diagnostics, "G3")) == helpers.brute_g3_violated(case)


# --- capability matching -------------------------------------------------------


def cap(name, direction, unit, low, high):
    return Capability(name, direction, unit, Decimal(str(low)), Decimal(str(high)))


def req(name, unit, low, high):
    return cap(name, Direction.REQUIRED, unit, low, high)


def prov(name, unit, low, high):
    return cap(name, Direction.PROVIDED, unit, low, high)


def test_match_simple_containment():
    results = match_capabilities(
        [req("acoustic_power", "W", 0, 200)], [prov("acoustic_power", "W", 0, 300)], BUILTIN_UNITS
    )
    assert results[0].status is MatchStatus.SATISFIED
    assert results[0].matched_provider is not None


def test_match_cross_unit_mw():
    results = match_capabilities(
        [req("acoustic_power", "mW", 0, 300000)], [prov("acoustic_power", "W", 0, 300)], BUILTIN_UNITS
    )
    assert results[0].status is MatchStatus.SATISFIED


def test_match_range_not_covered():
    results = match_capabilities(
        [req("sonication_frequency", "MHz", 0.5, 1.5)],
        [prov("sonication_frequency", "MHz", 0.6, 1.4)],
        BUILTIN_UNITS,
    )
    assert results[0].status is MatchStatus.RANGE_NOT_COVERED
    assert results[0].matched_provider is None


def test_match_missing_and_unit_mismatch():
    results = match_capabilities(
        [req("a", "W", 0, 1), req("b", "W", 0, 1)],
        [prov("b", "s", 0, 10)],
        BUILTIN_UNITS,
    )
    assert results[0].status is MatchStatus.MISSING
    assert results[1].status is MatchStatus.UNIT_MISMATCH


def test_match_first_satisfying_provider_wins():
    providers = [prov("a", "W", 0, 1), prov("a", "W", -5, 5), prov("a", "W", -10, 10)]
    results = match_capabilities([req("a", "W", -2, 2)], providers, BUILTIN_UNITS)
    assert results[0].matched_provider == providers[1]


def test_match_unknown_unit_raises():
    with pytest.raises(UnitError, match="furlong"):
        match_capabilities([req("a", "furlong", 0, 1)], [], BUILTIN_UNITS)


def test_match_direction_precondition():
    with pytest.raises(ValueError, match="^capability 'a' is not a required capability$"):
        match_capabilities([prov("a", "W", 0, 1)], [], BUILTIN_UNITS)
    with pytest.raises(ValueError, match="^capability 'b' is not a provided capability$"):
        match_capabilities([req("a", "W", 0, 1)], [prov("a", "W", 0, 1), req("b", "W", 0, 1)], BUILTIN_UNITS)


# --- S rules -----------------------------------------------------------------


def test_corpus_bundle_zero_diagnostics(corpus_bundle):
    assert validate_bundle(corpus_bundle) == []


def minimal_tac(*extra_elements, edges=(), capabilities=()):
    return AssuranceCase(
        id="T",
        kind=CaseKind.TECHNOLOGICAL,
        elements=(
            claim("C1", is_root=True, is_public=True, is_undeveloped=True),
            *extra_elements,
        ),
        edges=edges,
        capabilities=capabilities,
    )


def minimal_cac(*extra_elements, edges=(), capabilities=(), associated="T"):
    return AssuranceCase(
        id="C",
        kind=CaseKind.CLINICAL,
        elements=(claim("C1", is_root=True, is_undeveloped=True), *extra_elements),
        edges=edges,
        capabilities=capabilities,
        associated_tac=associated,
    )


def test_s1_direction_rule():
    tac = minimal_tac(claim("C2", is_undeveloped=True, away_ref=("C", "C1")))
    bundle = Bundle(tac, (minimal_cac(),))
    s1 = by_rule(validate_bundle(bundle), "S1")
    assert len(s1) == 1
    assert s1[0].severity is Severity.ERROR
    assert s1[0].elements == (("T", "C2"),)


def test_s8_other_tac_reference_is_warning():
    tac = minimal_tac(claim("C2", is_undeveloped=True, away_ref=("ELSEWHERE", "C1")))
    bundle = Bundle(tac, (minimal_cac(),))
    diagnostics = validate_bundle(bundle)
    assert by_rule(diagnostics, "S1") == []
    s8 = by_rule(diagnostics, "S8")
    assert len(s8) == 1 and s8[0].severity is Severity.WARNING


def test_s2_wrong_target_case():
    cac = minimal_cac(
        claim("C4", is_undeveloped=True, away_ref=("ELSEWHERE", "C1")),
        Element("X1", ElementKind.CONTEXT, "x"),
        edges=(Edge("C4", "X1", EdgeKind.IN_CONTEXT_OF),),
    )
    s2 = by_rule(validate_bundle(Bundle(minimal_tac(), (cac,))), "S2")
    assert len(s2) == 1
    assert s2[0].elements == (("C", "C4"),)


def test_s3_missing_documenting_context():
    cac = minimal_cac(claim("C4", is_undeveloped=True, away_ref=("T", "C1")))
    s3 = by_rule(validate_bundle(Bundle(minimal_tac(), (cac,))), "S3")
    assert len(s3) == 1
    assert s3[0].elements == (("C", "C4"),)


def test_s3_assumption_does_not_count():
    cac = minimal_cac(
        claim("C4", is_undeveloped=True, away_ref=("T", "C1")),
        Element("A1", ElementKind.ASSUMPTION, "a"),
        edges=(Edge("C4", "A1", EdgeKind.IN_CONTEXT_OF),),
    )
    assert len(by_rule(validate_bundle(Bundle(minimal_tac(), (cac,))), "S3")) == 1


def test_s4_missing_capability():
    cac = minimal_cac(capabilities=(req("flux", "W", 0, 1),))
    s4 = by_rule(validate_bundle(Bundle(minimal_tac(), (cac,))), "S4")
    assert len(s4) == 1
    assert "no capability" in s4[0].message


def test_s4_satisfied_cross_unit():
    tac = minimal_tac(capabilities=(prov("dur", "s", 1, 30),))
    cac = minimal_cac(capabilities=(req("dur", "ms", 2000, 20000),))
    assert by_rule(validate_bundle(Bundle(tac, (cac,))), "S4") == []


def test_s5_target_missing_not_claim_not_public():
    tac = minimal_tac(
        Element("E1", ElementKind.EVIDENCE, "e"),
        claim("C3", is_undeveloped=True),  # not public
    )
    cac = minimal_cac(
        claim("A1", is_undeveloped=True, away_ref=("T", "GHOST")),
        claim("A2", is_undeveloped=True, away_ref=("T", "E1")),
        claim("A3", is_undeveloped=True, away_ref=("T", "C3")),
        Element("X1", ElementKind.CONTEXT, "x"),
        edges=(
            Edge("A1", "X1", EdgeKind.IN_CONTEXT_OF),
            Edge("A2", "X1", EdgeKind.IN_CONTEXT_OF),
            Edge("A3", "X1", EdgeKind.IN_CONTEXT_OF),
        ),
    )
    s5 = by_rule(validate_bundle(Bundle(tac, (cac,))), "S5")
    assert len(s5) == 3
    messages = " | ".join(d.message for d in s5)
    assert "does not exist" in messages and "not a claim" in messages and "not public" in messages


def test_s5_non_claim_target_message_names_its_kind_with_its_article():
    tac = minimal_tac(
        Element("E1", ElementKind.EVIDENCE, "e"),
        Element("AS1", ElementKind.ASSUMPTION, "a"),
        Element("X1", ElementKind.CONTEXT, "x"),
    )
    cac = minimal_cac(
        claim("A1", is_undeveloped=True, away_ref=("T", "E1")),
        claim("A2", is_undeveloped=True, away_ref=("T", "AS1")),
        claim("A3", is_undeveloped=True, away_ref=("T", "X1")),
    )
    s5 = by_rule(validate_bundle(Bundle(tac, (cac,))), "S5")
    assert sorted(d.message for d in s5) == [
        "away reference target T.AS1 is an assumption, not a claim",
        "away reference target T.E1 is an evidence, not a claim",
        "away reference target T.X1 is a context, not a claim",
    ]


def test_s6_wrong_association():
    cac = minimal_cac(associated="OTHER")
    s6 = by_rule(validate_bundle(Bundle(minimal_tac(), (cac,))), "S6")
    assert len(s6) == 1 and "OTHER" in s6[0].message


def test_s7_statement_drift_warning():
    tac = minimal_tac()
    cac = minimal_cac(
        Element("C4", ElementKind.CLAIM, "different words", is_undeveloped=True, away_ref=("T", "C1")),
        Element("X1", ElementKind.CONTEXT, "x"),
        edges=(Edge("C4", "X1", EdgeKind.IN_CONTEXT_OF),),
    )
    diagnostics = validate_bundle(Bundle(tac, (cac,)))
    s7 = by_rule(diagnostics, "S7")
    assert len(s7) == 1 and s7[0].severity is Severity.WARNING
    assert not errors(diagnostics)


def test_bad_corpus_bundles_yield_exactly_one_error(corpus_dir):
    from conftest import load_corpus_bundle

    for name, rule in (("bad_s1.acb", "S1"), ("bad_s2.acb", "S2"), ("bad_s3.acb", "S3")):
        bundle, diagnostics = load_corpus_bundle(name)
        assert bundle is not None and not diagnostics, name
        found = validate_bundle(bundle)
        assert [d.rule_id for d in errors(found)] == [rule], name


def test_bundle_rules_deterministic():
    rng = random.Random(32)
    for _ in range(20):
        bundle = helpers.gen_valid_bundle(rng)
        assert validate_bundle(bundle) == validate_bundle(bundle)
        assert validate_bundle(bundle) == []


def test_capability_reflexivity_property():
    rng = random.Random(33)
    for _ in range(300):
        unit = rng.choice(helpers.UNIT_CHOICES)
        low = helpers.gen_decimal(rng)
        high = low + abs(helpers.gen_decimal(rng))
        provided = prov("x", unit, low, high)
        required = req("x", unit, low, high)
        results = match_capabilities([required], [provided], BUILTIN_UNITS)
        assert results[0].status is MatchStatus.SATISFIED
