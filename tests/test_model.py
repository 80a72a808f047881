import pickle
import random
import re
from collections import Counter
from decimal import Decimal
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actool.analyze import case_metrics, impact
from actool.cli import run
from actool.link import resolve_links
from actool.model import (
    AssuranceCase,
    Capability,
    CaseKind,
    ConcernKind,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    reach,
    supported_by_cycle,
)
from actool.parser import parse_case, print_case
from actool.validate import validate_case

import helpers
from conftest import CORPUS, load_corpus_bundle


def claim(id, **kw):
    return Element(id, ElementKind.CLAIM, f"statement {id}", **kw)


def targets(case, node, kind):
    """The case's own index of `node`'s targets over `kind` edges."""
    return dict(zip(EdgeKind, case._kind_targets()))[kind].get(node, [])


def supported_by_ancestors(case, node):
    """Every element above `node` over supportedBy edges, by an upward walk
    of the case's supportedBy index turned around."""
    sources = {}
    for source, below in case._kind_targets()[0].items():
        for target in below:
            sources.setdefault(target, []).append(source)
    return set(reach([node], lambda n: sources.get(n, []))[1:])


def test_children_corpus_top_claim(cac_case):
    assert targets(cac_case, "C1", EdgeKind.SUPPORTED_BY) == ["S"]


def test_children_evidence_leaf(tac_case):
    assert all("E1" not in index for index in tac_case._kind_targets())


def test_children_matches_edge_scan():
    rng = random.Random(11)
    for _ in range(60):
        case = helpers.gen_case(rng, max_elements=10)
        for element in case.elements:
            for kind in EdgeKind:
                assert targets(case, element.id, kind) == helpers.brute_children(case, element.id, kind)


def test_children_union_covers_outgoing_edges():
    rng = random.Random(12)
    for _ in range(40):
        case = helpers.gen_case(rng)
        indexed = [(source, target, kind) for kind, index in zip(EdgeKind, case._kind_targets())
                   for source, below in index.items() for target in below]
        assert Counter(indexed) == Counter((e.source, e.target, e.kind) for e in case.edges)


def test_ancestors_context_has_none(tac_case):
    assert supported_by_ancestors(tac_case, "Xa") == set()


def test_ancestors_away_claim(cac_case):
    assert supported_by_ancestors(cac_case, "C4") == {"S", "C1"}


def test_ancestors_matches_brute_force():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        case = helpers.gen_case(rng, max_elements=12)
        if supported_by_cycle(case) is not None:
            continue
        checked += 1
        for element in case.elements:
            assert supported_by_ancestors(case, element.id) == helpers.brute_ancestors(case, element.id)


def test_validate_and_metrics_walk_each_case_once(monkeypatch):
    # Nothing caches the supportedBy walk, so a G2 or depth pass that walked
    # once per element would make `validate` and `metrics` quadratic; the
    # per-kind target index is built once per case and kept on it.
    import actool.analyze
    import actool.model

    walks = []
    builds = []
    real_walk = actool.model.supported_by_dfs
    real_build = actool.model._targets_by_kind

    def counting_walk(case):
        walks.append(case.id)
        return real_walk(case)

    def counting_build(edges):
        builds.append(edges)
        return real_build(edges)

    monkeypatch.setattr(actool.model, "supported_by_dfs", counting_walk)
    monkeypatch.setattr(actool.analyze, "supported_by_dfs", counting_walk)  # bound there by import
    monkeypatch.setattr(actool.model, "_targets_by_kind", counting_build)
    rng = random.Random(15)
    for _ in range(20):
        case = helpers.gen_case(rng)
        for check in (validate_case, case_metrics):
            walks.clear()
            builds.clear()
            check(case._replace())  # an equal case with no index built yet
            assert walks == [case.id], check.__name__
            assert builds == [case.edges], check.__name__
    bundle, _ = load_corpus_bundle()
    for argv in (["validate"], ["validate", "--json"]):
        walks.clear()
        builds.clear()
        assert run([*argv, str(CORPUS / "bundle_mrgfus.acb")]) == 0
        assert walks == [case.id for case in bundle.cases()], argv
        assert builds == [case.edges for case in bundle.cases()], argv


def test_validate_json_matches_each_bundle_requirement_once(monkeypatch):
    # S4 and the JSON `capabilities` section read one matching pass.
    import actool.validate

    matched = []
    real = actool.validate.match_capabilities

    def counting(required, provided, units):
        matched.append([cap.name for cap in required])
        return real(required, provided, units)

    monkeypatch.setattr(actool.validate, "match_capabilities", counting)
    bundle, _ = load_corpus_bundle()
    assert run(["validate", "--json", str(CORPUS / "bundle_mrgfus.acb")]) == 0
    assert matched == [[cap.name for cap in cac.capabilities] for cac in bundle.cacs]
    assert all(matched)


def test_cycle_finder_agrees_with_closed_walk_oracle():
    rng = random.Random(14)
    for _ in range(200):
        case = helpers.gen_case(rng, max_elements=8)
        assert (supported_by_cycle(case) is not None) == helpers.brute_has_supported_by_cycle(case)


def test_canonicalize_deterministic(tac_case):
    assert print_case(tac_case) == print_case(tac_case)


def test_canonicalize_ignores_declaration_order(tac_case):
    reordered = AssuranceCase(
        id=tac_case.id,
        kind=tac_case.kind,
        elements=tuple(reversed(tac_case.elements)),
        edges=tuple(reversed(tac_case.edges)),
        capabilities=tuple(reversed(tac_case.capabilities)),
    )
    assert print_case(reordered) == print_case(tac_case)


def test_canonicalize_sensitive_to_statement_change(tac_case):
    changed_elements = tuple(
        Element(e.id, e.kind, e.statement + "!", is_root=e.is_root, is_public=e.is_public,
                is_undeveloped=e.is_undeveloped, is_module=e.is_module, concern=e.concern,
                away_ref=e.away_ref)
        if e.id == "C1"
        else e
        for e in tac_case.elements
    )
    changed = AssuranceCase(
        id=tac_case.id,
        kind=tac_case.kind,
        elements=changed_elements,
        edges=tac_case.edges,
        capabilities=tac_case.capabilities,
    )
    assert print_case(changed) != print_case(tac_case)


def test_flag_restrictions_enforced():
    with pytest.raises(ValueError):
        Element("E1", ElementKind.EVIDENCE, "x", is_root=True)
    with pytest.raises(ValueError):
        Element("S1", ElementKind.STRATEGY, "x", is_undeveloped=True)
    with pytest.raises(ValueError):
        Element("C1", ElementKind.CLAIM, "x", away_ref=("T", "C2"))  # not undeveloped
    with pytest.raises(ValueError):
        Element("bad id!", ElementKind.CLAIM, "x")


_CLAIM_ONLY = ("root", "undeveloped", "module", "awayref")  # in the order the constructor checks them
_CLAIM_ONLY_FIELDS = {"root": ("is_root", True), "undeveloped": ("is_undeveloped", True),
                      "module": ("is_module", True), "awayref": ("away_ref", ("T", "C2"))}


@pytest.mark.parametrize("kind", [kind for kind in ElementKind if kind is not ElementKind.CLAIM])
@pytest.mark.parametrize("flags", [s for n in range(1, 5) for s in combinations(_CLAIM_ONLY, n)], ids="+".join)
def test_claim_only_flags_name_the_first_in_check_order(kind, flags):
    fields = dict(_CLAIM_ONLY_FIELDS[flag] for flag in flags)
    message = f"'{flags[0]}' only applies to claims, not {kind.value} 'N1'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Element("N1", kind, "x", is_public=True, **fields)


@pytest.mark.parametrize("element, message", [
    (lambda: Element("C1", ElementKind.CLAIM, "x", away_ref=("T", "C2")),
     "away-referenced claim 'C1' must be undeveloped"),
    (lambda: Element("C1", ElementKind.CLAIM, "x", is_root=True, is_module=True, away_ref=("T", "C2")),
     "away-referenced claim 'C1' must be undeveloped"),
    (lambda: Element("9C", ElementKind.CLAIM, "x"), "invalid element id '9C'"),
    (lambda: Element("", ElementKind.EVIDENCE, "x", is_root=True), "invalid element id ''"),
    (lambda: Element("C1", ElementKind.CLAIM, "x", is_undeveloped=True, away_ref=("T.1", "C2")),
     "invalid case id 'T.1'"),
    (lambda: Element("C1", ElementKind.CLAIM, "x", is_undeveloped=True, away_ref=("T", "C 2")),
     "invalid element id 'C 2'"),
    (lambda: Element("C1", ElementKind.CLAIM, "x", is_undeveloped=True, away_ref=("-", "-")),
     "invalid case id '-'"),
    (lambda: Element("C1", ElementKind.CLAIM, "x", is_undeveloped=True, away_ref=("T", "C2", "C3")),
     "away reference ('T', 'C2', 'C3') of 'C1' is not a (case id, element id) pair"),
    (lambda: Element("C1", ElementKind.CLAIM, "x", is_undeveloped=True, away_ref=()),
     "away reference () of 'C1' is not a (case id, element id) pair"),
    (lambda: Element("E1", ElementKind.EVIDENCE, "x", away_ref=()),
     "away reference () of 'E1' is not a (case id, element id) pair"),
    (lambda: Element("C1", ElementKind.CLAIM, "x", is_undeveloped=True, away_ref="TC"),
     "away reference 'TC' of 'C1' is not a (case id, element id) pair"),
])
def test_element_constructor_messages(element, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        element()


def test_element_flags_are_held_as_bools():
    # Any true or false value is read by its truth and held as that bool, so the writers read one table each.
    loose = Element("A", ElementKind.CLAIM, "a", is_root=1, is_public="yes", is_undeveloped=[], is_module=None)
    assert loose[3:7] == (True, True, False, False) and all(type(flag) is bool for flag in loose[3:7])
    assert loose == Element("A", ElementKind.CLAIM, "a", is_root=True, is_public=True)


def test_an_away_reference_is_held_as_a_tuple():
    # A list as the reference is read as `AssuranceCase` reads its sequences: the element equals its twin built
    # from a tuple, hashes and pickles, and `impact` reads a bundle holding such elements as the parsed bundle.
    listed = claim("A", is_undeveloped=True, away_ref=["T", "R"])
    paired = claim("A", is_undeveloped=True, away_ref=("T", "R"))
    assert listed == paired and hash(listed) == hash(paired) and type(listed.away_ref) is tuple
    assert pickle.loads(pickle.dumps(listed)) == paired
    parsed, _ = load_corpus_bundle()
    cacs = tuple(cac._replace(elements=tuple(element._replace(away_ref=list(element.away_ref)) if element.away_ref
                                             else element for element in cac.elements)) for cac in parsed.cacs)
    built = parsed._replace(cacs=cacs)
    assert built == parsed and any(element.away_ref for cac in cacs for element in cac.elements)
    changed = {("TAC-1", element.id) for element in parsed.tac.elements}
    assert impact(resolve_links(built)[0], changed) == impact(resolve_links(parsed)[0], changed)


def _rejected(good, field, bad, message):
    """A value like `good` with `bad` as its `field`, built, `_replace`d or unpickled from a copy made past the
    checks: each raises ValueError with `message`."""
    fields = {**good._asdict(), field: bad}
    forged = tuple.__new__(type(good), fields.values())
    for make in (lambda: type(good)(**fields), lambda: good._replace(**{field: bad}),
                 lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


@pytest.mark.parametrize("bad", ["claim", EdgeKind.SUPPORTED_BY])
def test_element_kind_must_be_an_element_kind(bad):
    _rejected(claim("A"), "kind", bad, f"kind {bad!r} of 'A' is not an ElementKind")
    with pytest.raises(ValueError, match="is not an ElementKind$"):  # before the claim-only flags are checked
        Element("A", bad, "s", is_root=True)


@pytest.mark.parametrize("bad", ["safety", ElementKind.CLAIM])
def test_element_concern_must_be_a_concern_kind(bad):
    _rejected(claim("A", concern=ConcernKind.SAFETY), "concern", bad, f"concern {bad!r} of 'A' is not a ConcernKind")


@pytest.mark.parametrize("bad", ["technological", ElementKind.CLAIM])
def test_case_kind_must_be_a_case_kind(bad):
    case = AssuranceCase("X", CaseKind.TECHNOLOGICAL, (claim("A"),))
    _rejected(case, "kind", bad, f"kind {bad!r} of case 'X' is not a CaseKind")


@pytest.mark.parametrize("bad", ["supportedBy", CaseKind.CLINICAL])
def test_edge_kind_must_be_an_edge_kind(bad):
    case = AssuranceCase("X", CaseKind.MONOLITHIC, (claim("A"), claim("B")), (Edge("A", "B", EdgeKind.SUPPORTED_BY),))
    edges = (*case.edges, Edge("B", "A", bad))
    _rejected(case, "edges", edges, f"kind {bad!r} of edge 'B' -> 'A' in case 'X' is not an EdgeKind")


@pytest.mark.parametrize("bad", ["provides", EdgeKind.SUPPORTED_BY])
def test_capability_direction_must_be_a_direction(bad):
    capability = Capability("p", Direction.PROVIDED, "W", 0, 1)
    _rejected(capability, "direction", bad, f"direction {bad!r} of capability 'p' is not a Direction")


@pytest.mark.parametrize("bad", [5, None, b"s", ["s"], ElementKind.CLAIM])
def test_element_statement_must_be_a_str(bad):
    _rejected(claim("A"), "statement", bad, f"statement {bad!r} of 'A' is not a str")
    with pytest.raises(ValueError, match="is not a str$"):  # before the claim-only flags are checked
        Element("A", ElementKind.EVIDENCE, bad, is_root=True)


@pytest.mark.parametrize("bad", ["bad id", "9T", "", "T.1", "T\n", 5, b"T"])
def test_associated_tac_must_be_a_case_id(bad):
    case = AssuranceCase("X", CaseKind.CLINICAL, (claim("A"),), associated_tac="T")
    _rejected(case, "associated_tac", bad, f"invalid associated case id {bad!r}")


@pytest.mark.parametrize("bad", ["k W", "", "%", "2W", "W;", None, 5])
def test_capability_unit_must_be_an_identifier(bad):
    _rejected(Capability("p", Direction.PROVIDED, "W", 0, 1), "unit", bad, f"invalid unit {bad!r}")


_FIELD_TEXT = st.one_of(st.sampled_from(["T", "kW", "W_per_cm2", "a-1", "k W", "9T", "", "T.1", "W;", "%"]),
                        st.text("aZ09_-. ;\t\n\"\\", max_size=6))


@settings(max_examples=150, deadline=None)
@given(_FIELD_TEXT, _FIELD_TEXT, st.text(max_size=12))
def test_every_case_the_constructors_accept_reprints_from_its_text(associated, unit, statement):
    # `print_case` writes the associated case id, each unit and each statement as they are; a value the
    # constructors accept must reparse with no diagnostic to one that prints the same text.
    try:
        capability = Capability("p", Direction.REQUIRED, unit, 0, 1)
        case = AssuranceCase("X", CaseKind.CLINICAL, (claim("A"), Element("B", ElementKind.EVIDENCE, statement)),
                             (Edge("A", "B", EdgeKind.SUPPORTED_BY),), (capability,), associated)
    except ValueError:
        return
    printed = print_case(case)
    result = parse_case(printed, "x.acd")
    assert [d.line() for d in result.diagnostics] == []
    assert print_case(result.case) == printed
    assert result.case.associated_tac == associated and result.case.capabilities[0].unit == unit
    assert result.case.element("B").statement == statement


def test_duplicate_element_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        AssuranceCase("X", CaseKind.MONOLITHIC, (claim("A"), claim("A")))


def test_dangling_edge_rejected():
    for source, target in (("A", "GHOST"), ("GHOST", "A")):
        with pytest.raises(ValueError, match="unknown element 'GHOST'"):
            AssuranceCase("X", CaseKind.MONOLITHIC, (claim("A"),), (Edge(source, target, EdgeKind.SUPPORTED_BY),))


def test_bundle_shape_enforced(tac_case, cac_case):
    from actool.model import Bundle

    with pytest.raises(ValueError, match="at least one"):
        Bundle(tac_case, ())
    with pytest.raises(ValueError, match="technological"):
        Bundle(cac_case, (cac_case,))
    assert Bundle(tac_case, (cac_case,)).cases() == (tac_case, cac_case)


def test_bundle_members_are_distinct_clinical_cases(tac_case, cac_case, mono_case):
    from actool.model import Bundle

    with pytest.raises(ValueError, match=r"^bundle cac 'MONO-UF' must be a clinical case$"):
        Bundle(tac_case, (cac_case, mono_case))
    with pytest.raises(ValueError, match=r"^bundle cac 'TAC-1' must be a clinical case$"):
        Bundle(tac_case, (tac_case,))
    with pytest.raises(ValueError, match=r"^duplicate case id 'CAC-UF' in bundle$"):
        Bundle(tac_case, (cac_case, cac_case))
    with pytest.raises(ValueError, match=r"^duplicate case id 'TAC-1' in bundle$"):
        Bundle(tac_case, (cac_case._replace(id="TAC-1"),))


@pytest.mark.parametrize("bound", ["NaN", "sNaN", "-NaN", "Infinity", "-Infinity"])
def test_non_finite_capability_bounds_rejected(bound):
    # A NaN bound would raise decimal.InvalidOperation at the U2 comparison.
    with pytest.raises(ValueError, match="finite"):
        Capability("p", Direction.PROVIDED, "W", Decimal(bound), 1)
    with pytest.raises(ValueError, match="finite"):
        Capability("p", Direction.REQUIRED, "W", 0, Decimal(bound))
