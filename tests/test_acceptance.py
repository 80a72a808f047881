"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Expected values are hand-computed or produced by the independent brute-force
oracles in helpers.py; no tolerance is applied anywhere (all comparisons are
exact; the two timing budgets are stated inline).
"""

from __future__ import annotations

import functools
import io
import json
import random
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

from actool.cli import run
from actool.diagnostics import Severity
from actool.link import inline_bundle, resolve_links
from actool.parser import parse_case, print_case
from actool.units import BUILTIN_UNITS
from actool.validate import (
    MatchStatus,
    match_capabilities,
    validate_bundle,
    validate_case,
)

import helpers
from conftest import CORPUS, GOLDEN, load_corpus_bundle, load_corpus_case
from test_link import normalize
from test_validate import prov, req


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL  {label}")
                raise
            print(f"criterion {number:02d} PASS  {label}")

        return wrapper

    return decorate


def cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def corpus(name: str) -> str:
    return str(CORPUS / name)


@criterion(1, "corpus reproduction: three cases + bundle, zero errors, < 1 s")
def test_criterion_01_corpus_reproduction():
    started = time.perf_counter()
    for name in ("monolithic_mrgfus.acd", "tac_mrgfus.acd", "cac_uterine_fibroids.acd"):
        case = load_corpus_case(name)
        findings = validate_case(case)
        assert [d for d in findings if d.severity is Severity.ERROR] == [], name
    bundle, diagnostics = load_corpus_bundle()
    assert bundle is not None and diagnostics == []
    assert validate_bundle(bundle) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"corpus run took {elapsed:.3f} s"

    mono = load_corpus_case("monolithic_mrgfus.acd")
    assert mono.element("C1").is_root
    assert mono.element("S").kind.value == "strategy"
    assert mono.element("C2").is_module and mono.element("C3").is_module

    tac = load_corpus_case("tac_mrgfus.acd")
    for context_id in ("Xa", "Xb", "Xc"):
        assert tac.element(context_id).kind.value == "context"
    assert tac.element("C2").is_public and tac.element("C3").is_public

    cac = load_corpus_case("cac_uterine_fibroids.acd")
    assert cac.element("C4").away_ref == ("TAC-1", "C2")
    assert cac.element("C5").away_ref == ("TAC-1", "C3")
    assert cac.element("C4").is_undeveloped and cac.element("C5").is_undeveloped


@criterion(2, "direction rule: one S1 error (exit 1) / one S2 error on mutated corpora")
def test_criterion_02_direction_rule():
    code, _, err = cli(["validate", corpus("bad_s1.acb")])
    assert code == 1
    error_lines = [line for line in err.splitlines() if " error " in line]
    assert len(error_lines) == 1 and " S1: " in error_lines[0]

    bundle, diagnostics = load_corpus_bundle("bad_s2.acb")
    assert bundle is not None and diagnostics == []
    findings = [d for d in validate_bundle(bundle) if d.severity is Severity.ERROR]
    assert len(findings) == 1 and findings[0].rule_id == "S2"


@criterion(3, "documentation rule: removing C4's context yields one S3 naming (CAC-UF, C4)")
def test_criterion_03_documentation_rule():
    bundle, diagnostics = load_corpus_bundle("bad_s3.acb")
    assert bundle is not None and diagnostics == []
    findings = [d for d in validate_bundle(bundle) if d.severity is Severity.ERROR]
    assert len(findings) == 1
    assert findings[0].rule_id == "S3"
    assert findings[0].elements == (("CAC-UF", "C4"),)


# (required, providers, expected status) — statuses computed by hand.
CAPABILITY_MATRIX = [
    # containment, same unit
    (req("acoustic_power", "W", 0, 200), [prov("acoustic_power", "W", 0, 300)], MatchStatus.SATISFIED),
    (req("power", "W", 5, 5), [prov("power", "W", 5, 5)], MatchStatus.SATISFIED),
    (req("energy", "J", 100, 200), [prov("energy", "J", 100, 200)], MatchStatus.SATISFIED),
    # cross-unit conversions: mW<->W, kHz<->MHz, ms<->s, mm<->cm, kJ<->J, min<->s
    (req("acoustic_power", "mW", 0, 300000), [prov("acoustic_power", "W", 0, 300)], MatchStatus.SATISFIED),
    (req("dur", "ms", 2000, 20000), [prov("dur", "s", 1, 30)], MatchStatus.SATISFIED),
    (req("freq", "kHz", 500, 1500), [prov("freq", "MHz", "0.5", "1.5")], MatchStatus.SATISFIED),
    (req("depth", "mm", 40, 100), [prov("depth", "cm", 3, 12)], MatchStatus.SATISFIED),
    (req("dose", "kJ", 1, 2), [prov("dose", "J", 0, 2500)], MatchStatus.SATISFIED),
    (req("wait", "min", 1, 2), [prov("wait", "s", 0, 300)], MatchStatus.SATISFIED),
    # range not covered
    (req("freq", "MHz", "0.5", "1.5"), [prov("freq", "MHz", "0.6", "1.4")], MatchStatus.RANGE_NOT_COVERED),
    (req("power", "W", 0, 301), [prov("power", "W", 0, 300)], MatchStatus.RANGE_NOT_COVERED),
    (req("power", "W", -1, 300), [prov("power", "W", 0, 300)], MatchStatus.RANGE_NOT_COVERED),
    (req("power", "mW", 0, 300000), [prov("power", "W", "0.001", 300)], MatchStatus.RANGE_NOT_COVERED),
    (req("freq", "kHz", 400, 900), [prov("freq", "MHz", "0.5", "1.5")], MatchStatus.RANGE_NOT_COVERED),
    (req("dur", "s", "0.5", 10), [prov("dur", "ms", 600, 30000)], MatchStatus.RANGE_NOT_COVERED),
    # missing
    (req("flux", "W", 0, 1), [prov("power", "W", 0, 300)], MatchStatus.MISSING),
    (req("acoustic_power", "W", 0, 1), [], MatchStatus.MISSING),
    (req("beam_count", "Hz", 0, 1), [prov("beam_power", "W", 0, 1)], MatchStatus.MISSING),
    # unit mismatch (name matches, dimension never does)
    (req("acoustic_power", "s", 0, 1), [prov("acoustic_power", "W", 0, 300)], MatchStatus.UNIT_MISMATCH),
    (req("dose", "J", 0, 5), [prov("dose", "degC", 0, 100)], MatchStatus.UNIT_MISMATCH),
    (req("rate", "Hz", 0, 5), [prov("rate", "s", 0, 5)], MatchStatus.UNIT_MISMATCH),
    (req("depth", "mm", 0, 5), [prov("depth", "W_per_cm2", 0, 5)], MatchStatus.UNIT_MISMATCH),
    # provider ordering and mixed-dimension candidate sets
    (
        req("x", "W", 10, 20),
        [prov("x", "W", 15, 25), prov("x", "W", 0, 100)],
        MatchStatus.SATISFIED,
    ),
    (
        req("x", "W", 0, 10),
        [prov("x", "s", 0, 99), prov("x", "W", 0, 5)],
        MatchStatus.RANGE_NOT_COVERED,
    ),
    (
        req("x", "W", 0, 10),
        [prov("x", "s", 0, 99), prov("x", "W", 0, 50)],
        MatchStatus.SATISFIED,
    ),
]


@criterion(4, "capability matrix: 25 hand-computed statuses, exact decimals, 6 conversions")
def test_criterion_04_capability_matrix():
    assert len(CAPABILITY_MATRIX) >= 20
    for index, (required, providers, expected) in enumerate(CAPABILITY_MATRIX):
        results = match_capabilities([required], providers, BUILTIN_UNITS)
        assert results[0].status is expected, f"row {index}: got {results[0].status}"
        if expected is MatchStatus.SATISFIED:
            assert results[0].matched_provider is not None
        else:
            assert results[0].matched_provider is None
    # declaration order decides the reported provider
    ordered = match_capabilities(
        [req("x", "W", 10, 20)],
        [prov("x", "W", 15, 25), prov("x", "W", 0, 100), prov("x", "W", 0, 200)],
        BUILTIN_UNITS,
    )
    assert ordered[0].matched_provider.high == Decimal(100)


@criterion(5, "inlining equivalence: canonical match with the hand-authored monolithic oracle")
def test_criterion_05_inlining_equivalence():
    bundle, _ = load_corpus_bundle()
    resolved, _ = resolve_links(bundle)
    assert dict(resolved.resolutions) == {
        ("CAC-UF", "C4"): ("TAC-1", "C2"),
        ("CAC-UF", "C5"): ("TAC-1", "C3"),
    }
    inlined = inline_bundle(resolved, "CAC-UF")
    oracle = load_corpus_case("monolithic_mrgfus.acd")
    left = print_case(normalize(inlined, "TAC-1__", "M"))
    right = print_case(normalize(oracle, "TAC-1__", "M"))
    assert left == right
    assert validate_case(inlined) == []  # G1-G7 (and the rest) with zero findings


@criterion(6, "impact oracle: 1000 random bundles agree with brute force in < 5 s")
def test_criterion_06_impact_oracle():
    from actool.analyze import impact

    rng = random.Random(606)
    started = time.perf_counter()
    for _ in range(1000):
        bundle = helpers.gen_valid_bundle(rng)
        total = sum(len(case.elements) for case in bundle.cases())
        assert total <= 30, total
        resolved, diagnostics = resolve_links(bundle)
        assert resolved is not None, [d.line() for d in diagnostics]
        pairs = [(c.id, e.id) for c in bundle.cases() for e in c.elements]
        changed = set(rng.sample(pairs, k=min(len(pairs), rng.randint(0, 3))))
        report = impact(resolved, changed)
        expected = helpers.brute_affected(bundle, dict(resolved.resolutions), changed)
        assert {k: set(v) for k, v in report.affected.items()} == expected
        assert report.affected_cacs == frozenset(
            cac.id for cac in bundle.cacs if expected[cac.id]
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"impact oracle took {elapsed:.2f} s"


@criterion(7, "graph-rule oracle: exhaustive <=3-node digraphs plus 500 random graphs")
def test_criterion_07_graph_rule_oracle():
    for n in (1, 2, 3):
        for case in helpers.enum_typed_digraphs(n):
            diagnostics = validate_case(case)
            g2 = any(d.rule_id == "G2" for d in diagnostics)
            g3 = any(d.rule_id == "G3" for d in diagnostics)
            assert g2 == helpers.brute_has_supported_by_cycle(case)
            assert g3 == helpers.brute_g3_violated(case)
    rng = random.Random(707)
    for _ in range(500):
        case = helpers.gen_case(rng, max_elements=15)
        diagnostics = validate_case(case)
        g2 = any(d.rule_id == "G2" for d in diagnostics)
        g3 = any(d.rule_id == "G3" for d in diagnostics)
        assert g2 == helpers.brute_has_supported_by_cycle(case)
        assert g3 == helpers.brute_g3_violated(case)


@criterion(8, "round-trip: 500 generated cases, parse-print-parse canonical; fmt --check")
def test_criterion_08_round_trip():
    rng = random.Random(808)
    cases = [helpers.gen_case(rng) for _ in range(500)]
    for case in cases:
        printed = print_case(case)
        result = parse_case(printed, "generated.acd")
        assert result.case is not None
        assert not [d for d in result.diagnostics if d.severity is Severity.ERROR]
        assert print_case(result.case) == print_case(case)
    with tempfile.TemporaryDirectory() as scratch:
        for index, case in enumerate(cases[:20]):
            path = Path(scratch, f"case_{index}.acd")
            path.write_text(print_case(case), encoding="utf-8")
            code, out, _ = cli(["fmt", "--check", str(path)])
            assert code == 0 and out == ""


@criterion(9, "determinism: byte-identical stdout per subcommand; DOT/JSON match goldens")
def test_criterion_09_determinism():
    commands = [
        ["validate", "--json", corpus("bundle_mrgfus.acb")],
        ["validate", corpus("tac_mrgfus.acd")],
        ["link", corpus("bundle_mrgfus.acb")],
        ["impact", corpus("bundle_mrgfus.acb"), "--changed", "TAC-1.C2"],
        ["inline", corpus("bundle_mrgfus.acb"), "--cac", "CAC-UF"],
        ["render", corpus("tac_mrgfus.acd")],
        ["render", corpus("bundle_mrgfus.acb")],
        ["metrics", corpus("bundle_mrgfus.acb")],
        ["metrics", "--json", corpus("bundle_mrgfus.acb")],
        ["fmt", corpus("cac_uterine_fibroids.acd")],
    ]
    for argv in commands:
        first_code, first_out, _ = cli(argv)
        second_code, second_out, _ = cli(argv)
        assert first_code == second_code == 0
        assert first_out == second_out, argv
    goldens = {
        "tac_mrgfus.dot": ["render", corpus("tac_mrgfus.acd")],
        "bundle_mrgfus.dot": ["render", corpus("bundle_mrgfus.acb")],
        "validate_bundle.json": ["validate", "--json", corpus("bundle_mrgfus.acb")],
        "metrics_bundle.json": ["metrics", "--json", corpus("bundle_mrgfus.acb")],
    }
    for name, argv in goldens.items():
        _, out, _ = cli(argv)
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name
    json.loads((GOLDEN / "validate_bundle.json").read_text(encoding="utf-8"))


def exact_rescale(value: Decimal, from_unit: str, to_unit: str) -> Decimal:
    ratio = BUILTIN_UNITS.lookup(from_unit).scale_to_base / BUILTIN_UNITS.lookup(to_unit).scale_to_base
    return value * ratio


POWER_OF_TEN_FAMILIES = [
    ("W", "mW", "kW"),
    ("Hz", "kHz", "MHz"),
    ("s", "ms"),
    ("m", "mm", "cm"),
    ("J", "kJ"),
]


@criterion(10, "capability properties: reflexivity, monotonicity, scale invariance x1000")
def test_criterion_10_capability_properties():
    rng = random.Random(1010)

    for _ in range(1000):  # reflexivity
        unit = rng.choice(helpers.UNIT_CHOICES)
        low = helpers.gen_decimal(rng)
        high = low + abs(helpers.gen_decimal(rng))
        results = match_capabilities([req("c", unit, low, high)], [prov("c", unit, low, high)], BUILTIN_UNITS)
        assert results[0].status is MatchStatus.SATISFIED

    for _ in range(1000):  # containment monotonicity
        unit = rng.choice(helpers.UNIT_CHOICES)
        low = helpers.gen_decimal(rng)
        high = low + abs(helpers.gen_decimal(rng)) + 2
        provider = prov("c", unit, low, high)
        r_low = low + 1
        r_high = high - 1
        shrink = (r_high - r_low) / 4
        inner = req("c", unit, r_low + shrink, r_high - shrink)
        outer = req("c", unit, r_low, r_high)
        outer_result = match_capabilities([outer], [provider], BUILTIN_UNITS)[0]
        inner_result = match_capabilities([inner], [provider], BUILTIN_UNITS)[0]
        assert outer_result.status is MatchStatus.SATISFIED
        assert inner_result.status is MatchStatus.SATISFIED
        assert inner_result.matched_provider == provider

    for _ in range(1000):  # scale invariance across power-of-ten unit families
        family = rng.choice(POWER_OF_TEN_FAMILIES)
        req_unit, prov_unit = rng.choice(family), rng.choice(family)
        r_low = helpers.gen_decimal(rng)
        r_high = r_low + abs(helpers.gen_decimal(rng))
        p_low = r_low - abs(helpers.gen_decimal(rng))
        p_high = r_high + abs(helpers.gen_decimal(rng)) if rng.random() < 0.7 else r_low + (r_high - r_low) / 2
        before = match_capabilities(
            [req("c", req_unit, r_low, r_high)], [prov("c", prov_unit, p_low, p_high)], BUILTIN_UNITS
        )[0].status
        alt_req = rng.choice(family)
        alt_prov = rng.choice(family)
        after = match_capabilities(
            [req("c", alt_req, exact_rescale(r_low, req_unit, alt_req), exact_rescale(r_high, req_unit, alt_req))],
            [prov("c", alt_prov, exact_rescale(p_low, prov_unit, alt_prov), exact_rescale(p_high, prov_unit, alt_prov))],
            BUILTIN_UNITS,
        )[0].status
        assert before is after
