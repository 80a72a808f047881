"""actool's guarantees as an assurance case in its own notation.

`guarantees.acd` is a monolithic case. Its root claim says that the
documented guarantees hold; a strategy splits it into one claim per
guarantee of the roadmap's "Correctness and robustness" bullet (exact
decimal arithmetic, a total `parse_case`, exit codes 0, 1 or 2 with no
traceback, no dependence on the recursion limit), and each of those claims
is supported by evidence whose statement is the pytest node id of a test
that holds it. The file is in canonical form, so it has no comments.
"""

from __future__ import annotations

import ast
from pathlib import Path

from actool.model import EdgeKind, ElementKind
from actool.parser import parse_case, print_case
from actool.validate import validate_case

TESTS = Path(__file__).resolve().parent
CASE = TESTS / "guarantees.acd"


def _case():
    result = parse_case(CASE.read_text(encoding="utf-8"), CASE.name)
    assert result.case is not None and result.diagnostics == [], [d.line() for d in result.diagnostics]
    return result.case


def test_the_guarantees_case_validates_and_is_canonical():
    case = _case()
    assert [d.line() for d in validate_case(case)] == []
    assert print_case(case).encode("utf-8") == CASE.read_bytes()


def test_every_guarantee_is_supported_by_evidence():
    case = _case()
    supported_by = {}
    for edge in case.edges:
        if edge.kind is EdgeKind.SUPPORTED_BY:
            supported_by.setdefault(edge.source, []).append(case.element(edge.target))
    root, = (element for element in case.elements if element.is_root)
    strategy, = supported_by[root.id]
    guarantees = supported_by[strategy.id]
    assert strategy.kind is ElementKind.STRATEGY and len(guarantees) == 4
    for guarantee in guarantees:
        assert guarantee.kind is ElementKind.CLAIM
        assert any(target.kind is ElementKind.EVIDENCE for target in supported_by.get(guarantee.id, ())), guarantee.id


def test_every_named_test_exists():
    evidence = [element.statement for element in _case().elements if element.kind is ElementKind.EVIDENCE]
    assert evidence
    for node_id in evidence:
        path, name = node_id.split("::")
        tree = ast.parse((TESTS.parent / path).read_text(encoding="utf-8"), path)
        functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.startswith("test_") and name in functions, node_id
