"""The contract of actool's model values: each is a named tuple whose fields
are read-only, equal values hash equal, constructors take their fields by
position or keyword, `_replace` re-runs the constructor's checks, and `repr`
of the parsed corpus is pinned in `golden/value_reprs.txt`."""

from __future__ import annotations

import copy
import pickle
from decimal import Decimal

import pytest

from actool import (
    BUILTIN_UNITS,
    AssuranceCase,
    Bundle,
    BundleMetrics,
    Capability,
    CaseKind,
    CaseMetrics,
    Diagnostic,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    ImpactReport,
    MatchResult,
    ResolvedBundle,
    SourceSpan,
    UnitDef,
    UnitTable,
    bundle_match_results,
    bundle_metrics,
    case_metrics,
    impact,
    inline_bundle,
    resolve_links,
    validate_bundle,
    validate_case,
)

from conftest import GOLDEN, load_corpus_bundle, load_corpus_case

FIELDS = {
    SourceSpan: ("file", "line", "column", "length"),
    Element: ("id", "kind", "statement", "is_root", "is_public", "is_undeveloped", "is_module", "concern",
              "away_ref", "span"),
    Edge: ("source", "target", "kind", "span"),
    Capability: ("name", "direction", "unit", "low", "high", "span"),
    AssuranceCase: ("id", "kind", "elements", "edges", "capabilities", "associated_tac", "span"),
    Bundle: ("tac", "cacs"),
    Diagnostic: ("rule_id", "severity", "span", "message", "elements"),
    ResolvedBundle: ("bundle",),
    MatchResult: ("required", "status", "matched_provider"),
    ImpactReport: ("changed", "affected", "affected_cacs"),
    CaseMetrics: ("case_id", "kind", "element_counts", "edge_counts", "depth", "undeveloped_count",
                  "evidence_coverage", "concern_counts"),
    BundleMetrics: ("cases", "cross_link_count"),
    UnitDef: ("symbol", "dimension", "scale_to_base"),
    UnitTable: ("units",),
}


def _corpus_values() -> dict[type, object]:
    """One value of each public type, built from the corpus."""
    bundle, _ = load_corpus_bundle()
    resolved, _ = resolve_links(bundle)
    bad_bundle, _ = load_corpus_bundle("bad_s1.acb")
    tac = bundle.tac
    return {
        SourceSpan: tac.span,
        Element: tac.elements[0],
        Edge: tac.edges[0],
        Capability: tac.capabilities[0],
        AssuranceCase: tac,
        Bundle: bundle,
        Diagnostic: validate_bundle(bad_bundle)[0],
        ResolvedBundle: resolved,
        MatchResult: bundle_match_results(bundle)[0][1],
        ImpactReport: impact(resolved, [("TAC-1", "E1")]),
        CaseMetrics: case_metrics(tac),
        BundleMetrics: bundle_metrics(bundle),
        UnitDef: BUILTIN_UNITS.units[0],
        UnitTable: BUILTIN_UNITS,
    }


def test_every_value_is_a_named_tuple():
    for kind, fields in FIELDS.items():
        assert issubclass(kind, tuple) and kind._fields == fields, kind.__name__


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_fields_are_read_only(kind):
    value = _corpus_values()[kind]
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_constructor_takes_fields_by_keyword_and_position(kind):
    value = _corpus_values()[kind]
    fields = {name: getattr(value, name) for name in FIELDS[kind]}
    assert kind(**fields) == value
    assert kind(*fields.values()) == value


def test_equal_values_hash_equal():
    first, second = _corpus_values(), _corpus_values()
    for kind, value in first.items():
        assert value == second[kind]
        if kind in (ImpactReport, CaseMetrics, BundleMetrics):  # they hold dicts
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(second[kind])


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_pickle_and_copy_round_trip(kind):
    value = _corpus_values()[kind]
    if kind is AssuranceCase:
        value._kind_targets()  # the twins copy an index that has been built
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is kind and twin == value
        if kind is AssuranceCase:
            assert twin._kind_targets() == value._kind_targets()
        elif kind is UnitTable:
            assert twin.find("W") == value.find("W") is not None
        elif kind is Bundle:
            assert list(twin._by_id.items()) == [(case.id, case) for case in value.cases()]


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickle_carries_the_fields_and_no_private_index(protocol):
    # The constructor rebuilds the index; a walk's index is built again when it is first read.
    case = load_corpus_case("tac_mrgfus.acd")
    case._kind_targets()
    bundle = load_corpus_bundle()[0]
    for value, index in ((case, b"_by_id"), (case, b"_targets"), (BUILTIN_UNITS, b"_by_symbol"), (bundle, b"_by_id")):
        assert index not in pickle.dumps(value, protocol)
    twin = pickle.loads(pickle.dumps(case, protocol))
    assert twin == case and twin.element("C1") is not None and twin._targets is None
    assert pickle.loads(pickle.dumps(BUILTIN_UNITS, protocol)).find("W") == BUILTIN_UNITS.find("W")


def test_constructor_defaults():
    span = SourceSpan("f", 2, 3)
    assert span.length == 0
    element = Element("A", ElementKind.CLAIM, "a")
    assert (element.is_root, element.is_public, element.is_undeveloped, element.is_module) == (False,) * 4
    assert (element.concern, element.away_ref, element.span) == (None, None, SourceSpan("<unknown>", 1, 1, 0))
    assert Edge("A", "A", EdgeKind.SUPPORTED_BY).span == element.span
    case = AssuranceCase("K", CaseKind.MONOLITHIC, [element])
    assert (case.elements, case.edges, case.capabilities, case.associated_tac) == ((element,), (), (), None)
    assert Capability("c", Direction.PROVIDED, "W", 1, "2.5").high == Decimal("2.5")
    assert UnitTable([UnitDef("W", "Power", 1)]).units == (UnitDef("W", "Power", Decimal(1)),)


@pytest.mark.parametrize(
    "line, column, length", [(0, 1, 0), (1, 0, 0), (1, 1, -1), (-3, 5, 2)], ids=["line", "column", "length", "all"]
)
def test_source_span_rejects_out_of_range(line, column, length):
    with pytest.raises(ValueError, match="invalid source span"):
        SourceSpan("f", line, column, length)


def test_replace_rechecks(tac_case):
    root = next(element for element in tac_case.elements if element.is_root)
    capability = tac_case.capabilities[0]
    bundle, _ = load_corpus_bundle()
    broken = [
        lambda: root._replace(kind=ElementKind.EVIDENCE),
        lambda: root._replace(id="1C"),
        lambda: root._replace(away_ref=("TAC-1", "C2")),  # not undeveloped
        lambda: root.span._replace(line=0),
        lambda: root.span._replace(column=0),
        lambda: root.span._replace(length=-1),
        lambda: capability._replace(name="no name"),
        lambda: capability._replace(high=Decimal("Infinity")),
        lambda: tac_case._replace(id="TAC 1"),
        lambda: tac_case._replace(associated_tac="TAC-0"),  # on a technological case
        lambda: tac_case._replace(elements=tac_case.elements + (root,)),
        lambda: tac_case._replace(elements=tac_case.elements[1:]),  # its edges lose an endpoint
        lambda: bundle._replace(cacs=()),
        lambda: BUILTIN_UNITS.units[0]._replace(scale_to_base=0),
        lambda: BUILTIN_UNITS._replace(units=BUILTIN_UNITS.units[1:]),  # Power loses its base unit
        lambda: Element._make(("A", ElementKind.EVIDENCE, "a", True, False, False, False, None, None, root.span)),
    ]
    for number, attempt in enumerate(broken):
        with pytest.raises(ValueError):
            attempt()
            pytest.fail(f"attempt {number} passed")


def test_replace_builds_a_checked_copy(tac_case):
    root = next(element for element in tac_case.elements if element.is_root)
    restated = root._replace(statement="s")
    assert type(restated) is Element and restated == (*root[:2], "s", *root[3:])
    assert type(root.span._replace(line=9)) is SourceSpan
    renamed = tac_case._replace(id="TAC-2")
    assert (renamed.id, renamed.elements) == ("TAC-2", tac_case.elements)
    assert renamed.element(root.id) is root
    assert renamed._kind_targets() == tac_case._kind_targets()
    assert tac_case.capabilities[0]._replace(low="0.5").low == Decimal("0.5")


def _value_report() -> str:
    """`repr` of corpus values: the technological case and its diagnostics,
    the linked bundle and its link diagnostics, the bad bundles' rule
    findings, capability matches, one inlined clinical case, bundle metrics
    and the built-in unit table. Long lines break after each `), `."""
    out: list[str] = []

    def put(label: str, value) -> None:
        out.append(f"== {label}")
        out.append(repr(value).replace("), ", "),\n"))

    tac = load_corpus_case("tac_mrgfus.acd")
    put("tac_mrgfus.acd case", tac)
    put("tac_mrgfus.acd validate_case", validate_case(tac))
    bundle, diagnostics = load_corpus_bundle()
    put("bundle_mrgfus.acb parse diagnostics", diagnostics)
    resolved, link_diagnostics = resolve_links(bundle)
    put("bundle_mrgfus.acb resolve_links", (resolved, link_diagnostics))
    put("bundle_mrgfus.acb bundle_match_results", bundle_match_results(bundle))
    for name in ("bad_s1.acb", "bad_s2.acb", "bad_s3.acb"):
        bad, _ = load_corpus_bundle(name)
        put(f"{name} resolve_links", resolve_links(bad)[1])
        put(f"{name} validate_bundle", validate_bundle(bad))
    put("bundle_mrgfus.acb inline CAC-UF", inline_bundle(resolved, "CAC-UF"))
    put("bundle_mrgfus.acb bundle_metrics", bundle_metrics(bundle))
    put("BUILTIN_UNITS", BUILTIN_UNITS)
    return "\n".join(out) + "\n"


def test_value_reprs_match_golden():
    # Recorded from `_value_report()`; a change to model values must keep it.
    expected = (GOLDEN / "value_reprs.txt").read_text(encoding="utf-8")
    assert _value_report() == expected
