"""In-memory model of assurance cases and bundles.

An assurance case is a typed directed graph in Goal Structuring Notation
terms: claims, strategies, contexts, assumptions, justifications and evidence,
connected by supportedBy and inContextOf edges. A bundle pairs one
technological case with the clinical cases that build on it.

All values are immutable after construction; every operation in this module
is a pure function of its inputs and safe for concurrent use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Context, Decimal
from enum import Enum
from operator import attrgetter

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


class CycleError(ValueError):
    """Raised when a traversal requires an acyclic supportedBy graph but finds a cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("supportedBy cycle: " + " -> ".join(cycle))
        self.cycle = cycle


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int
    length: int = 0

    def __post_init__(self):
        if self.line < 1 or self.column < 1 or self.length < 0:
            raise ValueError(f"invalid source span {self.line}:{self.column}+{self.length}")


UNKNOWN_SPAN = SourceSpan("<unknown>", 1, 1, 0)


def _check_id(value: str, what: str) -> None:
    if not ID_PATTERN.match(value):
        raise ValueError(f"invalid {what} {value!r}")


@dataclass(frozen=True)
class Element:
    """One GSN node.

    The root/undeveloped/module flags and the away reference are restricted
    to claims; an away-referenced claim must also be undeveloped, since it is
    not developed locally.
    """

    id: str
    kind: ElementKind
    statement: str
    is_root: bool = False
    is_public: bool = False
    is_undeveloped: bool = False
    is_module: bool = False
    concern: ConcernKind | None = None
    away_ref: tuple[str, str] | None = None
    span: SourceSpan = UNKNOWN_SPAN

    def __post_init__(self):
        _check_id(self.id, "element id")
        if self.kind is not ElementKind.CLAIM:
            for flag, name in (
                (self.is_root, "root"),
                (self.is_undeveloped, "undeveloped"),
                (self.is_module, "module"),
                (self.away_ref is not None, "awayref"),
            ):
                if flag:
                    raise ValueError(f"'{name}' only applies to claims, not {self.kind.value} {self.id!r}")
        if self.away_ref is not None:
            if not self.is_undeveloped:
                raise ValueError(f"away-referenced claim {self.id!r} must be undeveloped")
            _check_id(self.away_ref[0], "case id")
            _check_id(self.away_ref[1], "element id")


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    kind: EdgeKind
    span: SourceSpan = UNKNOWN_SPAN


@dataclass(frozen=True)
class Capability:
    """A named, unit-bearing output interval.

    Provided capabilities state what a technological case delivers; required
    capabilities state what a clinical case depends on. Bounds are exact
    decimals, never floats.
    """

    name: str
    direction: Direction
    unit: str
    low: Decimal
    high: Decimal
    span: SourceSpan = UNKNOWN_SPAN

    def __post_init__(self):
        _check_id(self.name, "capability name")
        if not isinstance(self.low, Decimal):
            object.__setattr__(self, "low", Decimal(self.low))
        if not isinstance(self.high, Decimal):
            object.__setattr__(self, "high", Decimal(self.high))
        if not (self.low.is_finite() and self.high.is_finite()):
            raise ValueError(f"capability {self.name!r} must have finite bounds")


@dataclass(frozen=True)
class AssuranceCase:
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

    id: str
    kind: CaseKind
    elements: tuple[Element, ...]
    edges: tuple[Edge, ...] = ()
    capabilities: tuple[Capability, ...] = ()
    associated_tac: str | None = None
    span: SourceSpan = UNKNOWN_SPAN
    _by_id: dict = field(init=False, repr=False, compare=False)
    _out_edges: dict | None = field(init=False, repr=False, compare=False)
    _in_edges: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_id(self.id, "case id")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "capabilities", tuple(self.capabilities))
        by_id: dict[str, Element] = {}
        for element in self.elements:
            if element.id in by_id:
                raise ValueError(f"duplicate element id {element.id!r} in case {self.id!r}")
            by_id[element.id] = element
        if self.associated_tac is not None and self.kind is not CaseKind.CLINICAL:
            raise ValueError(f"only a clinical case may associate a technological case ({self.id!r})")
        for edge in self.edges:
            if edge.source not in by_id or edge.target not in by_id:
                missing = edge.target if edge.source in by_id else edge.source
                raise ValueError(f"edge references unknown element {missing!r} in case {self.id!r}")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_out_edges", None)
        object.__setattr__(self, "_in_edges", None)

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
            object.__setattr__(self, "_out_edges", _group_edges(self.edges, attrgetter("source")))
        return self._out_edges.get(element_id, ())

    def in_edges(self, element_id: str) -> tuple[Edge, ...]:
        """Edges whose target is the element, in declaration order."""
        if self._in_edges is None:
            object.__setattr__(self, "_in_edges", _group_edges(self.edges, attrgetter("target")))
        return self._in_edges.get(element_id, ())


def _group_edges(edges: tuple[Edge, ...], endpoint) -> dict[str, tuple[Edge, ...]]:
    """Edges keyed by `endpoint(edge)`, in declaration order. Two threads
    that race to build the same index build equal maps, so either may win."""
    groups: dict[str, list[Edge]] = {}
    for edge in edges:
        groups.setdefault(endpoint(edge), []).append(edge)
    return {node: tuple(group) for node, group in groups.items()}


@dataclass(frozen=True)
class Bundle:
    """One technological case plus the clinical cases linked to it."""

    tac: AssuranceCase
    cacs: tuple[AssuranceCase, ...]

    def __post_init__(self):
        object.__setattr__(self, "cacs", tuple(self.cacs))
        if self.tac.kind is not CaseKind.TECHNOLOGICAL:
            raise ValueError(f"bundle tac {self.tac.id!r} must be a technological case")
        if not self.cacs:
            raise ValueError("bundle requires at least one cac")
        seen = {self.tac.id}
        for cac in self.cacs:
            if cac.kind is not CaseKind.CLINICAL:
                raise ValueError(f"bundle cac {cac.id!r} must be a clinical case")
            if cac.id in seen:
                raise ValueError(f"duplicate case id {cac.id!r} in bundle")
            seen.add(cac.id)

    def cases(self) -> tuple[AssuranceCase, ...]:
        return (self.tac, *self.cacs)


def children(case: AssuranceCase, node: str, kind: EdgeKind) -> list[str]:
    """Targets of the node's outgoing edges of the given kind, in declaration order."""
    case.element(node)
    return [edge.target for edge in case.out_edges(node) if edge.kind is kind]


def supported_by_cycle(case: AssuranceCase) -> list[str] | None:
    """Find one cycle in the supportedBy subgraph, as [n0, n1, ..., n0]; None if acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {element.id: WHITE for element in case.elements}
    for start in color:
        if color[start] != WHITE:
            continue
        path: list[str] = []
        stack: list[tuple[str, int]] = [(start, 0)]
        while stack:
            node, next_edge = stack[-1]
            if next_edge == 0:
                color[node] = GRAY
                path.append(node)
            edges = case.out_edges(node)
            if next_edge < len(edges):
                stack[-1] = (node, next_edge + 1)
                edge = edges[next_edge]
                if edge.kind is not EdgeKind.SUPPORTED_BY:
                    continue
                child = edge.target
                if color[child] == GRAY:
                    return path[path.index(child):] + [child]
                if color[child] == WHITE:
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def ancestors(case: AssuranceCase, node: str) -> set[str]:
    """All elements from which `node` is reachable over supportedBy edges.

    Excludes `node` itself. Raises CycleError when the case's supportedBy
    subgraph is not acyclic.
    """
    case.element(node)
    cycle = supported_by_cycle(case)
    if cycle is not None:
        raise CycleError(cycle)
    seen: set[str] = set()
    frontier = [node]
    while frontier:
        current = frontier.pop()
        for edge in case.in_edges(current):
            if edge.kind is EdgeKind.SUPPORTED_BY and edge.source not in seen:
                seen.add(edge.source)
                frontier.append(edge.source)
    seen.discard(node)
    return seen


def format_decimal(value: Decimal) -> str:
    """Plain decimal text: no exponent, no trailing fractional zeros, -0 folded
    to 0, and every significant digit kept."""
    if value == 0:
        return "0"
    return format(value.normalize(Context(prec=len(value.as_tuple().digits))), "f")
