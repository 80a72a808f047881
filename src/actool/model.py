"""The model of assurance cases and bundles.

An assurance case is a typed directed graph in Goal Structuring Notation
terms: claims, strategies, contexts, assumptions, justifications and evidence,
connected by supportedBy and inContextOf edges. A bundle pairs one
technological case with the clinical cases that build on it.

All values are immutable after construction; every operation in this module
is a pure function of its inputs and safe for concurrent use.
"""

from __future__ import annotations

import re
from collections import namedtuple
from decimal import Context, Decimal
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

ID_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


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
    """Mixin for a value whose constructor checks its fields: `_make` and
    `_replace` build through that constructor, so the checks hold for copies."""

    __slots__ = ()

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
    if not ID_PATTERN.match(value):
        raise ValueError(f"invalid {what} {value!r}")


class Element(_Checked, namedtuple("Element", "id kind statement is_root is_public is_undeveloped is_module "
                                              "concern away_ref span")):
    """One GSN node.

    The root/undeveloped/module flags and the away reference are restricted
    to claims; an away-referenced claim must also be undeveloped, since it is
    not developed locally.
    """

    __slots__ = ()

    def __new__(cls, id: str, kind: ElementKind, statement: str, is_root: bool = False, is_public: bool = False,
                is_undeveloped: bool = False, is_module: bool = False, concern: ConcernKind | None = None,
                away_ref: tuple[str, str] | None = None, span: SourceSpan = UNKNOWN_SPAN):
        _check_id(id, "element id")
        if kind is not ElementKind.CLAIM:
            for flag, name in (
                (is_root, "root"),
                (is_undeveloped, "undeveloped"),
                (is_module, "module"),
                (away_ref is not None, "awayref"),
            ):
                if flag:
                    raise ValueError(f"'{name}' only applies to claims, not {kind.value} {id!r}")
        if away_ref is not None:
            if not is_undeveloped:
                raise ValueError(f"away-referenced claim {id!r} must be undeveloped")
            _check_id(away_ref[0], "case id")
            _check_id(away_ref[1], "element id")
        fields = (id, kind, statement, is_root, is_public, is_undeveloped, is_module, concern, away_ref, span)
        return tuple.__new__(cls, fields)


class Edge(NamedTuple):
    source: str
    target: str
    kind: EdgeKind
    span: SourceSpan = UNKNOWN_SPAN


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
        low, high = Decimal(low), Decimal(high)
        if not (low.is_finite() and high.is_finite()):
            raise ValueError(f"capability {name!r} must have finite bounds")
        return tuple.__new__(cls, (name, direction, unit, low, high, span))


class _Record(_Checked):
    """Base of the values that keep private state (lazily built indexes) in
    slots beside their fields: equality, hashing, `repr` and pickling read the
    fields named in `_fields` only, and no attribute can be reassigned."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        return self._asdict() == other._asdict() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self._asdict().values())


class AssuranceCase(_Record):
    """One parsed assurance case.

    Element ids are unique within the case, and every edge names two
    existing elements (the parser drops the others as P2); the association
    to a technological case is only carried by clinical cases. Rule-level
    constraints (single root, acyclicity, edge typing, capability placement)
    are deliberately not enforced here — they are reported as diagnostics by
    the validator so that partially authored cases remain representable.

    `out_edges` and `in_edges` answer adjacency queries from an index of
    the edges by endpoint, each half built on its first query, so that
    parse-only paths never pay for it.
    """

    _fields = ("id", "kind", "elements", "edges", "capabilities", "associated_tac", "span")
    __slots__ = (*_fields, "_by_id", "_out_edges", "_in_edges")

    def __init__(self, id: str, kind: CaseKind, elements: tuple[Element, ...], edges: tuple[Edge, ...] = (),
                 capabilities: tuple[Capability, ...] = (), associated_tac: str | None = None,
                 span: SourceSpan = UNKNOWN_SPAN):
        _check_id(id, "case id")
        elements, edges, capabilities = tuple(elements), tuple(edges), tuple(capabilities)
        by_id: dict[str, Element] = {}
        for element in elements:
            if element.id in by_id:
                raise ValueError(f"duplicate element id {element.id!r} in case {id!r}")
            by_id[element.id] = element
        if associated_tac is not None and kind is not CaseKind.CLINICAL:
            raise ValueError(f"only a clinical case may associate a technological case ({id!r})")
        for edge in edges:
            if edge.source not in by_id or edge.target not in by_id:
                missing = edge.target if edge.source in by_id else edge.source
                raise ValueError(f"edge references unknown element {missing!r} in case {id!r}")
        self._set(id=id, kind=kind, elements=elements, edges=edges, capabilities=capabilities,
                  associated_tac=associated_tac, span=span, _by_id=by_id, _out_edges=None, _in_edges=None)

    def element(self, element_id: str) -> Element:
        try:
            return self._by_id[element_id]
        except KeyError:
            raise UnknownElementError(f"unknown element id {element_id!r} in case {self.id!r}") from None

    def find(self, element_id: str) -> Element | None:
        return self._by_id.get(element_id)

    def out_edges(self, element_id: str) -> tuple[Edge, ...]:
        """Edges whose source is the element, in declaration order."""
        if self._out_edges is None:
            self._set(_out_edges=_group_edges(self.edges, attrgetter("source")))
        return self._out_edges.get(element_id, ())

    def in_edges(self, element_id: str) -> tuple[Edge, ...]:
        """Edges whose target is the element, in declaration order."""
        if self._in_edges is None:
            self._set(_in_edges=_group_edges(self.edges, attrgetter("target")))
        return self._in_edges.get(element_id, ())


def _group_edges(edges: tuple[Edge, ...], endpoint) -> dict[str, tuple[Edge, ...]]:
    """Edges keyed by `endpoint(edge)`, in declaration order. Two threads
    that race to build the same index build equal maps, so either may win."""
    groups: dict[str, list[Edge]] = {}
    for edge in edges:
        groups.setdefault(endpoint(edge), []).append(edge)
    return {node: tuple(group) for node, group in groups.items()}


class Bundle(_Checked, namedtuple("Bundle", "tac cacs")):
    """One technological case plus the clinical cases linked to it."""

    __slots__ = ()

    def __new__(cls, tac: AssuranceCase, cacs: tuple[AssuranceCase, ...]):
        cacs = tuple(cacs)
        if tac.kind is not CaseKind.TECHNOLOGICAL:
            raise ValueError(f"bundle tac {tac.id!r} must be a technological case")
        if not cacs:
            raise ValueError("bundle requires at least one cac")
        seen = {tac.id}
        for cac in cacs:
            if cac.kind is not CaseKind.CLINICAL:
                raise ValueError(f"bundle cac {cac.id!r} must be a clinical case")
            if cac.id in seen:
                raise ValueError(f"duplicate case id {cac.id!r} in bundle")
            seen.add(cac.id)
        return tuple.__new__(cls, (tac, cacs))

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
    """
    finished: dict[str, bool] = {}  # False while on the path, True once done
    postorder: list[str] = []
    cycle = None
    for element in case.elements:
        if element.id in finished:
            continue
        finished[element.id] = False
        path = [element.id]
        pending = [iter(case.out_edges(element.id))]
        while pending:
            for edge in pending[-1]:
                if edge.kind is not EdgeKind.SUPPORTED_BY:
                    continue
                target = edge.target
                done = finished.get(target)
                if done is None:
                    finished[target] = False
                    path.append(target)
                    pending.append(iter(case.out_edges(target)))
                    break
                if not done and cycle is None:
                    cycle = path[path.index(target):] + [target]
            else:
                node = path.pop()
                finished[node] = True
                postorder.append(node)
                pending.pop()
    return postorder, cycle


def supported_by_cycle(case: AssuranceCase) -> list[str] | None:
    """Find one cycle in the supportedBy subgraph, as [n0, n1, ..., n0]; None if acyclic."""
    return supported_by_dfs(case)[1]


def format_decimal(value: Decimal) -> str:
    """Plain decimal text: no exponent, no trailing fractional zeros, -0 folded
    to 0, and every significant digit kept."""
    if value == 0:
        return "0"
    return format(value.normalize(Context(prec=len(value.as_tuple().digits))), "f")
