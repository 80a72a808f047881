"""RULES.md is the rule catalog: `diagnostics.RULES`, the table every
diagnostic takes its severity from, holds exactly its rules and severities,
and the code emits every rule it lists, with the listed severity, and no rule
it does not list."""

import random
import re
from pathlib import Path

import pytest

from actool.diagnostics import RULES, Severity, finding
from actool.model import UNKNOWN_SPAN, Bundle, CaseKind
from actool.parser import parse_bundle, parse_case, print_case
from actool.validate import validate_bundle, validate_case

import helpers
from conftest import CORPUS

RULES_MD = Path(__file__).resolve().parent.parent / "RULES.md"
SEVERITY = {"E": Severity.ERROR, "W": Severity.WARNING}

# Findings the corpus and the generators do not produce.
FILES = {
    "dup.acd": 'case A kind monolithic {\n  claim C1 "a" root undeveloped\n  claim C1 "b"\n  evidence E1 "e" root\n}\n',
    "units.acd": (
        "case U kind technological {\n"
        '  claim C1 "u" root public undeveloped\n'
        "  provides capability p unit furlong range [0, 1]\n"
        "  provides capability q unit W range [2, 1]\n"
        "}\n"
    ),
    "t.acd": (
        "case T kind technological {\n"
        '  claim C1 "t" root public\n'
        '  claim C2 "o" undeveloped awayref X.C1\n'
        "  C1 supportedBy C2\n"
        "}\n"
    ),
    "c.acd": (
        "case C kind clinical {\n"
        "  associates T\n"
        '  claim K1 "restated differently" root undeveloped awayref T.C1\n'
        "}\n"
    ),
    "c2.acd": 'case D kind clinical {\n  associates Z\n  claim K1 "k" root undeveloped awayref T.C9\n}\n',
}
MANIFESTS = (
    'bundle B {\n  tac "t.acd"\n  cac "c.acd"\n  cac "c2.acd"\n}\n',
    'bundle B {\n  tac "t.acd"\n  tac "t.acd"\n  cac "t.acd"\n  cac "c.acd"\n  cac "c.acd"\n  cac "nope.acd"\n}\n',
)


def catalog() -> dict[str, Severity]:
    rows = re.findall(r"^\| ([A-Z]\d+) \| ([EW]) \|", RULES_MD.read_text(encoding="utf-8"), re.MULTILINE)
    return {rule: SEVERITY[sev] for rule, sev in rows}


def corpus_loader(name: str) -> str:
    if name in FILES:
        return FILES[name]
    return (CORPUS / name).read_text(encoding="utf-8")


def emitted_diagnostics():
    """Parser and validator findings over the corpus, the crafted files above
    and seeded random input."""
    cases, bundles = [], []
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(CORPUS.iterdir())]
    sources += [*FILES.items(), *((f"m{i}.acb", text) for i, text in enumerate(MANIFESTS))]
    for name, text in sources:
        if name.endswith(".acb"):
            bundle, diagnostics = parse_bundle(text, corpus_loader, name)
            bundles.append(bundle)
        else:
            case, diagnostics = parse_case(text, name)
            cases.append(case)
        yield from diagnostics
    rng = random.Random(8)
    for _ in range(300):
        case = helpers.gen_case(rng)
        cases.append(case)
        text = print_case(case)
        # a truncated file leaves unclosed blocks and dangling edge endpoints
        yield from parse_case(text[: rng.randrange(len(text))], "cut.acd").diagnostics
    for _ in range(100):
        bundles.append(helpers.gen_valid_bundle(rng))
        # arbitrary members, with ids the generator's away references use
        tac = helpers.gen_case(rng)._replace(id="CASE-0", kind=CaseKind.TECHNOLOGICAL, associated_tac=None)
        cac = helpers.gen_case(rng)._replace(id="CASE-1", kind=CaseKind.CLINICAL, associated_tac="CASE-0")
        bundles.append(Bundle(tac, (cac,)))
    for case in cases:
        if case is not None:
            yield from validate_case(case)
    for bundle in bundles:
        if bundle is not None:
            yield from validate_bundle(bundle)


def test_emitted_rules_have_their_catalog_severity():
    table = catalog()
    assert [rule for rule, severity in table.items() if severity is Severity.WARNING] == ["G6", "S7", "S8"]
    seen = set()
    for diagnostic in emitted_diagnostics():
        assert diagnostic.rule_id in table, diagnostic.line()
        assert diagnostic.severity is table[diagnostic.rule_id], diagnostic.line()
        seen.add(diagnostic.rule_id)
    assert seen == set(table)


def test_the_severity_table_is_the_catalog():
    assert list(RULES.items()) == list(catalog().items())


def test_a_rule_id_outside_the_catalog_raises():
    with pytest.raises(KeyError, match="G9"):
        finding("G9", UNKNOWN_SPAN, "no such rule")
