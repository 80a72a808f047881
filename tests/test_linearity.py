"""A linearity gate: each layer's work, counted, grows at most linearly with its input.

The work of a call is the number of line events that `sys.settrace` reports
in frames whose code lives in the `actool` package. The count is exact and
the same on every run for one input, so the gate does not move with machine
noise. For each shape that `perfbench/gen.py` writes (a fan-out-4 tree, a deep
chain and a wide bundle) and each layer that reads it, the gate requires
count(4n) <= 4.2 * count(n). Each count is of one call on a fresh parse of
the input, after an uncounted first call. A linear layer stays near 4; with a
per-claim scan of the edge list planted in `validate_case`, that layer reads
about 9 to 11 on the three shapes.

Blind spot: a count sees only Python lines in `actool`. Work inside a C call
(`list.index`, `in` on a list, `str` concatenation, `sorted`) and inside the
standard library's own Python code is not counted, so a quadratic step hidden
there passes the gate. Timing remains the check for those: twelve families
of hostile case files are parsed and validated at n and 8n, and the least of
three times at 8n must stay within 20 times that at n. A linear parse reads
about 8; with `self.lexed += text` planted in the lexer's `_lex`, a quadratic
copy in C, four of the families read 27 to 62.
"""

from __future__ import annotations

import os
import sys
import time
from functools import cache

import pytest

import actool
from actool.analyze import bundle_metrics, case_metrics, impact
from actool.link import inline_bundle, resolve_links
from actool.parser import parse_bundle, parse_case, print_case
from actool.render import to_dot
from actool.validate import validate_bundle, validate_case

from conftest import CORPUS

sys.path.insert(0, str(CORPUS.parent / "perfbench"))
import gen  # noqa: E402  (read-only: the benchmark's generator)

_ACTOOL = os.path.dirname(actool.__file__) + os.sep
GROWTH = 4.2
SEED = 3
# The shape, the generator call that writes it at size n, and n
SHAPES = {
    "tree": (lambda n: gen.case_tree(SEED, n), 250),
    "chain": (lambda n: gen.case_chain(SEED, n), 125),
    "bundle": (lambda n: gen.bundle_wide(SEED, n), 512),  # 512 // 4 away-claims split evenly over 8 clinical cases
}


def line_events(work) -> int:
    """How many lines of `actool` code `work()` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(_ACTOOL) else None

    sys.settrace(calls)
    try:
        work()
    finally:
        sys.settrace(None)
    return count


class _Input:
    """A generated input at one size: its text, and what a layer reads, parsed (and linked) anew, so that no
    layer's count depends on what an earlier one cached in a case."""

    def __init__(self, files: dict[str, str], resolve: bool):
        self.files = files
        self.manifest = files.get("bundle.acb")
        self.bundle = self.resolved = None
        if self.manifest is None:
            (self.name, self.text), = files.items()
            self.cases = [parse_case(self.text, self.name).case]
        else:
            self.bundle = self.parse()[0]
            self.cases = list(self.bundle.cases())
            if resolve:
                self.resolved = resolve_links(self.bundle)[0]

    def parse(self):
        if self.manifest is None:
            return parse_case(self.text, self.name)
        return parse_bundle(self.manifest, self.files.__getitem__, "bundle.acb")


@cache
def _files(shape: str, scale: int) -> dict[str, str]:
    write, n = SHAPES[shape]
    return write(n * scale).files


# Each layer and the work it does on one input
LAYERS = {
    "parse": lambda i: i.parse(),
    "validate_case": lambda i: [validate_case(case) for case in i.cases],
    "metrics": lambda i: ([case_metrics(case) for case in i.cases], i.bundle and bundle_metrics(i.bundle)),
    "to_dot": lambda i: ([to_dot(case) for case in i.cases], i.bundle and to_dot(i.bundle)),
    "print_case": lambda i: [print_case(case) for case in i.cases],
    "validate_bundle": lambda i: validate_bundle(i.bundle),
    "resolve_links": lambda i: resolve_links(i.bundle),
    "inline_bundle": lambda i: [inline_bundle(i.resolved, cac.id) for cac in i.bundle.cacs],
    "impact": lambda i: impact(i.resolved, [(i.bundle.tac.id, element.id) for element in i.bundle.tac.elements[::7]]),
}
_BUNDLE_ONLY = ("validate_bundle", "resolve_links", "inline_bundle", "impact")
_READ_LINKS = ("inline_bundle", "impact")


def growth(shape: str, work, resolve: bool = False) -> float:
    """count(4n) / count(n) for `work` on `shape`, resolved first if `resolve`. An uncounted call comes first:
    what the process sets up once, on first use, is no part of a layer's growth."""
    counts = []
    for scale in (1, 1, 4):
        given = _Input(_files(shape, scale), resolve)
        counts.append(line_events(lambda: work(given)))
    _, small, large = counts
    assert small > 0
    return large / small


@pytest.mark.parametrize("shape, layer", [(shape, layer) for shape in SHAPES for layer in LAYERS
                                          if shape == "bundle" or layer not in _BUNDLE_ONLY])
def test_each_layer_grows_linearly(shape, layer):
    assert growth(shape, LAYERS[layer], layer in _READ_LINKS) <= GROWTH


def test_a_planted_per_claim_edge_scan_fails_the_gate():
    # The scan is compiled as a line of `validate.py`, so the counter sees it as actool code.
    planted: dict = {}
    code = ("def scan(case):\n"
            "    for claim in case.elements:\n"
            "        if claim.kind.name == 'CLAIM':\n"
            "            for edge in case.edges:\n"
            "                edge.source == claim.id\n")
    exec(compile(code, os.path.join(_ACTOOL, "validate.py"), "exec"), planted)

    def scanned(i: _Input) -> None:
        for case in i.cases:
            validate_case(case)
            planted["scan"](case)

    assert growth("tree", scanned) > GROWTH


# --- hostile parser inputs: timed, since a regular expression's backtracking and a copy in C are not counted --------

_HEAD = 'case T kind technological {\n  claim C0 "root" root public\n'
_TEXT = "a" * 300  # a statement long enough that text, not the count of lines, makes up most of a file
_QUOTE = '\\"'  # an escaped quote, as a statement holds it
_CAPABILITY = "provides capability P{} unit W range [-0.5, 300.25]"  # a capability line as `print_case` writes it


def _case(body: str) -> str:
    return f"{_HEAD}{body}}}\n"


# Twelve families of hostile case files, each written at size n
FAMILIES = {
    "a run of escaped quotes": lambda n: _case(f'  claim Q "{_QUOTE * 8 * n}" undeveloped\n'),
    "an unterminated string": lambda n: _case(f'  claim Q "{("a" + _QUOTE) * 8 * n}\n'),
    "runs of ;": lambda n: ";" * 4 * n + _case("  ;;;;\n" * n) + ";" * 4 * n,
    "statements joined by ;": lambda n: _case("  " + "; ".join(f'claim C{i} "{_TEXT}"' for i in range(1, n)) + "\n"),
    "dangling edges": lambda n: _case("".join(f"  A{i} supportedBy B{i}\n" for i in range(n))),
    "duplicate ids": lambda n: _case(f'  claim D "{_TEXT}" undeveloped\n' * n),
    "lines ended by a lone CR": lambda n: _case("".join(f'  claim C{i} "{_TEXT}"\r' for i in range(1, n)) + "\n"),
    "node lines ending in a comment": lambda n: _case("".join(f'  claim C{i} "{_TEXT}" // c\n' for i in range(1, n))),
    "a long statement with a bad flag tail": lambda n: _case(f'  claim L "{_TEXT * n}" undeveloped bogus\n'),
    "edges before their nodes": lambda n: _case("".join(f"  C0 supportedBy C{i}\n" for i in range(1, n))
                                                + "".join(f'  claim C{i} "{_TEXT}"\n' for i in range(1, n))),
    "capability lines": lambda n: _case("".join(f"  {_CAPABILITY.format(i)}\n" for i in range(1, n))),
    "capability lines ending in a comment": lambda n: _case("".join(f"  {_CAPABILITY.format(i)} // c\n"
                                                                     for i in range(1, n))),
}
HOSTILE_N = 500
RATIO = 20  # time(8n) / time(n): a linear parse reads about 8, a quadratic step about 64


def _parse_and_validate(text: str) -> None:
    case = parse_case(text, "hostile.acd").case
    if case is not None:
        validate_case(case)


def _least_time(text: str) -> float:
    """The least of three timings of parsing and validating `text`."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _parse_and_validate(text)
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.mark.parametrize("family", FAMILIES)
def test_hostile_parser_inputs_grow_linearly(family):
    """Time at 8n is at most RATIO times time at n, and the count of lines passes the gate above from n/4 to n.
    The count of the long statement stays flat, since one regular expression reads its text: only time checks it."""
    write = FAMILIES[family]
    small, large = write(HOSTILE_N), write(8 * HOSTILE_N)
    assert _least_time(large) <= RATIO * _least_time(small)
    quarter = write(HOSTILE_N // 4)
    assert line_events(lambda: _parse_and_validate(small)) <= GROWTH * line_events(lambda: _parse_and_validate(quarter))
