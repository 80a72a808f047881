"""The model of assurance cases and bundles.

An assurance case is a typed directed graph in Goal Structuring Notation
terms: claims, strategies, contexts, assumptions, justifications and evidence,
connected by supportedBy and inContextOf edges. A bundle pairs one
technological case with the clinical cases that build on it.

A value's fields are read-only; every operation in this module is a pure
function of its inputs and safe for concurrent use. A case's and a bundle's
private index lives in its instance dict and is not part of the value.
"""

from __future__ import annotations

import re
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from enum import Enum
from itertools import filterfalse
from operator import attrgetter
from typing import NamedTuple

_IDENT = r"[A-Za-z][A-Za-z0-9_-]*"  # the text of an element, case or capability id
ID_PATTERN = re.compile(_IDENT + r"\Z")


class ElementKind(Enum):
    CLAIM = "claim"
    STRATEGY = "strategy"
    CONTEXT = "context"
    ASSUMPTION = "assumption"
    JUSTIFICATION = "justification"
    EVIDENCE = "evidence"


class EdgeKind(Enum):
    SUPPORTED_BY = "supportedBy"
    IN_CONTEXT_OF = "inContextOf"


class CaseKind(Enum):
    MONOLITHIC = "monolithic"
    TECHNOLOGICAL = "technological"
    CLINICAL = "clinical"


class ConcernKind(Enum):
    SAFETY = "safety"
    EFFECTIVENESS = "effectiveness"


class Direction(Enum):
    PROVIDED = "provides"
    REQUIRED = "requires"


class UnknownElementError(LookupError):
    """Raised when an operation names an element or case id that does not exist."""


class _Checked:
    """Mixin for a value whose constructor checks its fields: `_make`, `_replace`, `pickle` and
    `copy` build through it, so the checks hold for copies and a private index is rebuilt, not carried."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(self)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class SourceSpan(_Checked, namedtuple("SourceSpan", "file line column length")):
    __slots__ = ()

    def __new__(cls, file: str, line: int, column: int, length: int = 0):
        if line < 1 or column < 1 or length < 0:
            raise ValueError(f"invalid source span {line}:{column}+{length}")
        return tuple.__new__(cls, (file, line, column, length))


UNKNOWN_SPAN = SourceSpan("<unknown>", 1, 1, 0)


def _check_id(value: str, what: str) -> None:
    if not (isinstance(value, str) and ID_PATTERN.match(value)):
        raise ValueError(f"invalid {what} {value!r}")


# The node flags as the DSL names them, in the order `print_case` writes them, and the Element field each sets
FLAG_FIELDS = {"root": "is_root", "public": "is_public", "undeveloped": "is_undeveloped", "module": "is_module",
               "concern": "concern", "awayref": "away_ref"}
# The flags that only claims take
CLAIM_ONLY_FLAGS = ("root", "undeveloped", "module", "awayref")
# An element's values of the CLAIM_ONLY_FLAGS, in order
_claim_only = attrgetter(*(FLAG_FIELDS[flag] for flag in CLAIM_ONLY_FLAGS))


class Element(_Checked, namedtuple("Element", "id kind statement is_root is_public is_undeveloped is_module "
                                              "concern away_ref span")):
    """One GSN node. Only a claim may carry a flag of `CLAIM_ONLY_FLAGS`; a claim
    with an away reference is developed in the case it references, so it must be
    undeveloped here. Four flags are held as bools, an away reference as a tuple."""

    __slots__ = ()

    def __new__(cls, id: str, kind: ElementKind, statement: str, is_root: bool = False, is_public: bool = False,
                is_undeveloped: bool = False, is_module: bool = False, concern: ConcernKind | None = None,
                away_ref: tuple[str, str] | None = None, span: SourceSpan = UNKNOWN_SPAN):
        _check_id(id, "element id")
        # each enum field by `type(...) is`: a lookup in a set of members would run `Enum.__hash__`, Python code
        if type(kind) is not ElementKind:
            raise ValueError(f"kind {kind!r} of {id!r} is not an ElementKind")
        if not isinstance(statement, str):
            raise ValueError(f"statement {statement!r} of {id!r} is not a str")
        if concern is not None and type(concern) is not ConcernKind:
            raise ValueError(f"concern {concern!r} of {id!r} is not a ConcernKind")
        # a str is refused before `tuple` splits it; the length check makes a given reference a true value
        if away_ref is not None and (isinstance(away_ref, str) or len(away_ref := tuple(away_ref)) != 2):
            raise ValueError(f"away reference {away_ref!r} of {id!r} is not a (case id, element id) pair")
        element = tuple.__new__(cls, (id, kind, statement, bool(is_root), bool(is_public), bool(is_undeveloped),
                                      bool(is_module), concern, away_ref, span))
        if kind is not ElementKind.CLAIM and any(_claim_only(element)):
            name = next(flag for flag, value in zip(CLAIM_ONLY_FLAGS, _claim_only(element)) if value)
            raise ValueError(f"'{name}' only applies to claims, not {kind.value} {id!r}")
        if away_ref is not None and not is_undeveloped:
            raise ValueError(f"away-referenced claim {id!r} must be undeveloped")
        if away_ref is not None:
            _check_id(away_ref[0], "case id")
            _check_id(away_ref[1], "element id")
        return element


class Edge(NamedTuple):
    source: str
    target: str
    kind: EdgeKind
    span: SourceSpan = UNKNOWN_SPAN


# The canonical order of a case's elements and of its edges, in which `print_case` and `to_dot` write them
ELEMENT_ORDER = attrgetter("id")
EDGE_ORDER = attrgetter("source", "kind._value_", "target")  # `_value_`: the `value` property costs ten times as much


class Capability(_Checked, namedtuple("Capability", "name direction unit low high span")):
    """A named, unit-bearing output interval.

    Provided capabilities state what a technological case delivers; required
    capabilities state what a clinical case depends on. Bounds are exact
    decimals, never floats.
    """

    __slots__ = ()

    def __new__(cls, name: str, direction: Direction, unit: str, low: Decimal, high: Decimal,
                span: SourceSpan = UNKNOWN_SPAN):
        _check_id(name, "capability name")
        if type(direction) is not Direction:
            raise ValueError(f"direction {direction!r} of capability {name!r} is not a Direction")
        _check_id(unit, "unit")
        low, high = Decimal(low), Decimal(high)
        if not (low.is_finite() and high.is_finite()):
            raise ValueError(f"capability {name!r} must have finite bounds")
        return tuple.__new__(cls, (name, direction, unit, low, high, span))


class AssuranceCase(_Checked, namedtuple("AssuranceCase", "id kind elements edges capabilities associated_tac span")):
    """One parsed assurance case.

    Element ids are unique within the case, and every edge names two
    existing elements (the parser drops the others as P2); the association
    to a technological case is only carried by clinical cases. Rule-level
    constraints (single root, acyclicity, edge typing, capability placement)
    are deliberately not enforced here — they are reported as diagnostics by
    the validator so that partially authored cases remain representable.

    A case keeps one adjacency index, private to this package: each
    source's supportedBy targets and, apart, its inContextOf targets, as ids
    in declaration order (`_kind_targets`). One pass over the edges builds it
    when the first walk that reads it runs on the case, so that parse-only
    paths never pay for it. The G-rules, the supportedBy walk, the metrics'
    coverage and S3 read the index; G3/G4 read `edges` only for the spans of
    the sources it flags. A walk that needs edges by their target, or whole
    `Edge`s, groups `edges` itself in the one pass it makes.
    """

    def __new__(cls, id: str, kind: CaseKind, elements: tuple[Element, ...], edges: tuple[Edge, ...] = (),
                capabilities: tuple[Capability, ...] = (), associated_tac: str | None = None,
                span: SourceSpan = UNKNOWN_SPAN):
        _check_id(id, "case id")
        if type(kind) is not CaseKind:
            raise ValueError(f"kind {kind!r} of case {id!r} is not a CaseKind")
        elements, edges, capabilities = tuple(elements), tuple(edges), tuple(capabilities)
        by_id: dict[str, Element] = {}
        for element in elements:
            if element.id in by_id:
                raise ValueError(f"duplicate element id {element.id!r} in case {id!r}")
            by_id[element.id] = element
        if associated_tac is not None:
            if kind is not CaseKind.CLINICAL:
                raise ValueError(f"only a clinical case may associate a technological case ({id!r})")
            _check_id(associated_tac, "associated case id")
        for source, target, edge_kind, _ in edges:
            if source not in by_id or target not in by_id:
                missing = target if source in by_id else source
                raise ValueError(f"edge references unknown element {missing!r} in case {id!r}")
            if type(edge_kind) is not EdgeKind:
                message = f"kind {edge_kind!r} of edge {source!r} -> {target!r} in case {id!r} is not an EdgeKind"
                raise ValueError(message)
        case = tuple.__new__(cls, (id, kind, elements, edges, capabilities, associated_tac, span))
        case._by_id, case._targets = by_id, None
        return case

    @classmethod
    def _parsed(cls, id: str, kind: CaseKind, by_id: dict[str, Element], edges: tuple[Edge, ...],
                capabilities: tuple[Capability, ...], associated_tac: str | None, span: SourceSpan) -> AssuranceCase:
        """A case without `__new__`'s checks, which each caller has made: `_CaseParser.parse` drops P1, P2 and P7
        items, `inline_bundle` gives copies fresh ids; `by_id` maps each id to its element, in order, as the index."""
        case = tuple.__new__(cls, (id, kind, tuple(by_id.values()), edges, capabilities, associated_tac, span))
        case._by_id, case._targets = by_id, None
        return case

    def element(self, element_id: str) -> Element:
        try:
            return self._by_id[element_id]
        except KeyError:
            raise UnknownElementError(f"unknown element id {element_id!r} in case {self.id!r}") from None

    def find(self, element_id: str) -> Element | None:
        return self._by_id.get(element_id)

    def _kind_targets(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """The supportedBy and the inContextOf targets of each source that has
        any. Two threads that race to build it build equal maps, so either may win."""
        if self._targets is None:
            self._targets = _targets_by_kind(self.edges)
        return self._targets


def _targets_by_kind(edges: tuple[Edge, ...]) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    supported_by: dict[str, list[str]] = {}
    in_context_of: dict[str, list[str]] = {}
    support = EdgeKind.SUPPORTED_BY
    for source, target, kind, _ in edges:
        (supported_by if kind is support else in_context_of).setdefault(source, []).append(target)
    return supported_by, in_context_of


class Bundle(_Checked, namedtuple("Bundle", "tac cacs")):
    """One technological case plus the clinical cases linked to it. Its private index, `_by_id`, holds each case
    by its id, the technological case first: every lookup of a bundle's case by id reads it."""

    def __new__(cls, tac: AssuranceCase, cacs: tuple[AssuranceCase, ...]):
        cacs = tuple(cacs)
        if tac.kind is not CaseKind.TECHNOLOGICAL:
            raise ValueError(f"bundle tac {tac.id!r} must be a technological case")
        if not cacs:
            raise ValueError("bundle requires at least one cac")
        by_id = {tac.id: tac}
        for cac in cacs:
            if cac.kind is not CaseKind.CLINICAL:
                raise ValueError(f"bundle cac {cac.id!r} must be a clinical case")
            if cac.id in by_id:
                raise ValueError(f"duplicate case id {cac.id!r} in bundle")
            by_id[cac.id] = cac
        bundle = tuple.__new__(cls, (tac, cacs))
        bundle._by_id = by_id
        return bundle

    def cases(self) -> tuple[AssuranceCase, ...]:
        return (self.tac, *self.cacs)


def _element_pairs(cases: dict[str, AssuranceCase], pairs) -> frozenset[tuple[str, str]]:
    """The (case id, element id) `pairs`, each checked to name an element of a
    case in `cases` (keyed by id); UnknownElementError names the first that does not."""
    pairs = list(pairs)
    for case_id, element_id in pairs:
        if case_id not in cases:
            raise UnknownElementError(f"unknown case id {case_id!r}")
        cases[case_id].element(element_id)
    return frozenset(pairs)


def _away_claims(cases) -> list[tuple[AssuranceCase, Element]]:
    """Each `(case, element)` of `cases` whose element carries an away reference, in case order and then
    declaration order: the one reader of the references that link a bundle's cases, for every rule and walk."""
    return [(case, element) for case in cases for element in case.elements if element.away_ref is not None]


def reach(starts, successors) -> list:
    """`starts` and every node reachable from them over `successors(node)`,
    each once, in breadth-first order."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for node in order:  # `order` doubles as the queue; appends extend this loop
        for successor in successors(node):
            if successor not in seen:
                seen.add(successor)
                order.append(successor)
    return order


def supported_by_dfs(case: AssuranceCase) -> tuple[list[str], list[str] | None]:
    """One depth-first walk of the supportedBy subgraph, started from each
    unvisited element in declaration order, out-edges in declaration order.

    Returns every element id in postorder, and the first cycle the walk
    closes, as [n0, n1, ..., n0], or None if the subgraph is acyclic. The
    stack is explicit, so chain length is not bounded by the recursion limit.
    An element with no supportedBy target is finished where it is reached.
    """
    supported_by = case._kind_targets()[0]
    finished: dict[str, bool] = {}  # False while on the path, True once done
    postorder: list[str] = []
    cycle = None
    path: list[str] = []
    # the bottom of the stack yields the unvisited elements, the starts, in declaration order
    pending = [filterfalse(finished.__contains__, case._by_id)]
    while pending:
        for target in pending[-1]:
            done = finished.get(target)
            if done is None:
                targets = supported_by.get(target)
                if targets is None:
                    finished[target] = True
                    postorder.append(target)
                    continue
                finished[target] = False
                path.append(target)
                pending.append(iter(targets))
                break
            if not done and cycle is None:
                cycle = path[path.index(target):] + [target]
        else:
            pending.pop()
            if path:  # the starts have no node on the path
                node = path.pop()
                finished[node] = True
                postorder.append(node)
    return postorder, cycle


def supported_by_cycle(case: AssuranceCase) -> list[str] | None:
    """Find one cycle in the supportedBy subgraph, as [n0, n1, ..., n0]; None if acyclic."""
    return supported_by_dfs(case)[1]


SUPPORT_SOURCES = (ElementKind.CLAIM, ElementKind.STRATEGY)
# G3: the supportedBy target kinds each source kind may take, keyed by the kind's value (hashing an enum member runs
# Python code); a strategy is supported by claims only, and a kind not named here takes none
_SUPPORTED_BY_LEGAL = {ElementKind.CLAIM.value: (ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE),
                       ElementKind.STRATEGY.value: (ElementKind.CLAIM,)}


def _supported_by_facts(case: AssuranceCase) -> tuple[set, set, set]:
    """One pass over the supportedBy index. Returns the ids of the sources with
    a claim or strategy target (a claim without one is a leaf claim), of those
    with an evidence target, and of those with a target their kind may not
    take (G3, by `_SUPPORTED_BY_LEGAL`)."""
    by_id = case._by_id
    claim, strategy, evidence = ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE
    argued, evidenced, illegal = set(), set(), set()
    for source, targets in case._kind_targets()[0].items():
        legal = _SUPPORTED_BY_LEGAL.get(by_id[source].kind._value_, ())
        for target in targets:
            if (kind := by_id[target].kind) not in legal:
                illegal.add(source)
            if kind is evidence:
                evidenced.add(source)
            elif kind is claim or kind is strategy:
                argued.add(source)
    return argued, evidenced, illegal


def format_decimal(value: Decimal) -> str:
    """Plain decimal text: no exponent, no trailing fractional zeros, -0 folded
    to 0, and every significant digit kept."""
    if value == 0:
        return "0"
    return format(value.normalize(Context(prec=len(value.as_tuple().digits), Emax=MAX_EMAX, Emin=MIN_EMIN)), "f")
