"""Seeded generators and independent brute-force oracles used across the suite.

The oracles deliberately avoid the library's own traversal code: reachability
is checked by exhaustive forward walks, cycles by closed-walk detection over
boolean adjacency powers, and impact by fixpoint relaxation over the explicit
union edge list. `brute_dot` writes DOT from FORMATS.md's description of it,
not from `render.py`.
"""

from __future__ import annotations

import random
from collections import Counter
from decimal import Decimal

from actool.model import (
    AssuranceCase,
    Bundle,
    Capability,
    CaseKind,
    ConcernKind,
    Direction,
    Edge,
    EdgeKind,
    Element,
    ElementKind,
    SourceSpan,
)

STATEMENT_CHARS = (
    "abcdefghij KLMNOP 0123456789 .,:;!?()-"
    '"\\\n\t'
    "µéβ≤"
)

UNIT_CHOICES = ["W", "mW", "kW", "s", "ms", "Hz", "kHz", "MHz", "mm", "cm", "m", "degC"]


def gen_statement(rng: random.Random, max_len: int = 40) -> str:
    return "".join(rng.choice(STATEMENT_CHARS) for _ in range(rng.randint(0, max_len)))


def gen_decimal(rng: random.Random) -> Decimal:
    return Decimal(rng.randint(-999999, 999999)).scaleb(-rng.randint(0, 4))


def gen_case(rng: random.Random, max_elements: int = 12) -> AssuranceCase:
    """Arbitrary model-valid case: flags respect element kinds, everything
    else (edge typing, root count, capability placement) is unconstrained."""
    n = rng.randint(1, max_elements)
    elements = []
    for i in range(n):
        kind = rng.choice(list(ElementKind))
        is_claim = kind is ElementKind.CLAIM
        undeveloped = is_claim and rng.random() < 0.2
        away = None
        if undeveloped and rng.random() < 0.4:
            away = (f"CASE-{rng.randint(0, 3)}", f"T{rng.randint(0, 9)}")
        elements.append(
            Element(
                id=f"N{i}",
                kind=kind,
                statement=gen_statement(rng),
                is_root=is_claim and rng.random() < 0.2,
                is_public=rng.random() < 0.2,
                is_undeveloped=undeveloped,
                is_module=is_claim and rng.random() < 0.15,
                concern=rng.choice([None, ConcernKind.SAFETY, ConcernKind.EFFECTIVENESS]),
                away_ref=away,
            )
        )
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        edges.append(
            Edge(
                source=f"N{rng.randrange(n)}",
                target=f"N{rng.randrange(n)}",
                kind=rng.choice(list(EdgeKind)),
            )
        )
    capabilities = []
    case_kind = rng.choice(list(CaseKind))
    for i in range(rng.randint(0, 3)):
        low = gen_decimal(rng)
        capabilities.append(
            Capability(
                name=f"cap_{i}",
                direction=rng.choice(list(Direction)),
                unit=rng.choice(UNIT_CHOICES),
                low=low,
                high=low + abs(gen_decimal(rng)),
            )
        )
    return AssuranceCase(
        id=f"CASE-{rng.randint(0, 3)}",
        kind=case_kind,
        elements=tuple(elements),
        edges=tuple(edges),
        capabilities=tuple(capabilities),
        associated_tac="SOME-TAC" if case_kind is CaseKind.CLINICAL else None,
    )


class _ValidCaseBuilder:
    """Layered construction that passes G1-G8/U1-U2 by design."""

    def __init__(self, rng: random.Random, case_id: str, kind: CaseKind, max_elements: int):
        self.rng = rng
        self.kind = kind
        self.case_id = case_id
        self.max_elements = max_elements
        self.elements: list[Element] = []
        self.edges: list[Edge] = []
        self.counter = 0

    def _fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def build(self) -> AssuranceCase:
        rng = self.rng
        root_id = self._fresh("G")
        public = self.kind is CaseKind.TECHNOLOGICAL
        self.elements.append(
            Element(root_id, ElementKind.CLAIM, gen_statement(rng), is_root=True, is_public=public)
        )
        frontier = [(root_id, rng.randint(1, 3))]
        while frontier and len(self.elements) < self.max_elements:
            claim_id, depth = frontier.pop(0)
            self._develop(claim_id, depth)
        # whatever is left undeveloped must say so
        developed = {e.source for e in self.edges if e.kind is EdgeKind.SUPPORTED_BY}
        finished = []
        for element in self.elements:
            if element.kind is ElementKind.CLAIM and element.id not in developed:
                finished.append(
                    Element(
                        element.id,
                        element.kind,
                        element.statement,
                        is_root=element.is_root,
                        is_public=element.is_public,
                        is_undeveloped=True,
                        concern=element.concern,
                    )
                )
            else:
                finished.append(element)
        for _ in range(rng.randint(0, 2)):
            holder = rng.choice([e for e in finished if e.kind in (ElementKind.CLAIM, ElementKind.STRATEGY)])
            ctx_kind = rng.choice([ElementKind.CONTEXT, ElementKind.ASSUMPTION, ElementKind.JUSTIFICATION])
            ctx_id = self._fresh("X")
            finished.append(Element(ctx_id, ctx_kind, gen_statement(rng)))
            self.edges.append(Edge(holder.id, ctx_id, EdgeKind.IN_CONTEXT_OF))
        return AssuranceCase(
            id=self.case_id,
            kind=self.kind,
            elements=tuple(finished),
            edges=tuple(self.edges),
            associated_tac=None,
        )

    def _develop(self, claim_id: str, depth: int) -> None:
        rng = self.rng
        if depth <= 0 or len(self.elements) >= self.max_elements:
            if rng.random() < 0.5:
                evidence_id = self._fresh("E")
                self.elements.append(Element(evidence_id, ElementKind.EVIDENCE, gen_statement(rng)))
                self.edges.append(Edge(claim_id, evidence_id, EdgeKind.SUPPORTED_BY))
            return
        choice = rng.random()
        if choice < 0.35:
            evidence_id = self._fresh("E")
            self.elements.append(Element(evidence_id, ElementKind.EVIDENCE, gen_statement(rng)))
            self.edges.append(Edge(claim_id, evidence_id, EdgeKind.SUPPORTED_BY))
        elif choice < 0.55:
            return  # stays a leaf; marked undeveloped in build()
        else:
            parent = claim_id
            if rng.random() < 0.5:
                strategy_id = self._fresh("S")
                self.elements.append(Element(strategy_id, ElementKind.STRATEGY, gen_statement(rng)))
                self.edges.append(Edge(claim_id, strategy_id, EdgeKind.SUPPORTED_BY))
                parent = strategy_id
            for _ in range(rng.randint(1, 2)):
                public = self.kind is CaseKind.TECHNOLOGICAL and rng.random() < 0.5
                child = self._fresh("G")
                self.elements.append(
                    Element(
                        child,
                        ElementKind.CLAIM,
                        gen_statement(rng),
                        is_public=public,
                        concern=rng.choice([None, ConcernKind.SAFETY, ConcernKind.EFFECTIVENESS]),
                    )
                )
                self.edges.append(Edge(parent, child, EdgeKind.SUPPORTED_BY))
                self._develop(child, depth - 1)


def gen_tree_case(rng: random.Random, size: int) -> AssuranceCase:
    """A case of `size` elements grown as a GSN tree from claim N0: each new
    element hangs under an earlier claim or strategy, over supportedBy or, for
    a context, assumption or justification, inContextOf. Then the tree is
    disturbed: a few elements hang nowhere, some claims are undeveloped, some
    strategies and claims stay unsupported, the root count is sometimes 0 or
    2, and extra edges of both kinds between random elements (self-loops
    included) add cycles and ill-typed edges."""
    contextual = (ElementKind.CONTEXT, ElementKind.ASSUMPTION, ElementKind.JUSTIFICATION)
    kinds = [ElementKind.CLAIM, *rng.choices(list(ElementKind), weights=(5, 2, 1, 1, 1, 3), k=size - 1)]
    claims = [i for i, kind in enumerate(kinds) if kind is ElementKind.CLAIM]
    roots = rng.choice([{0}, {0}, {0}, set(), {0, rng.choice(claims)}])
    edges = []
    holders = [0]
    for i in range(1, size):
        if rng.random() >= 0.03:
            kind = EdgeKind.IN_CONTEXT_OF if kinds[i] in contextual else EdgeKind.SUPPORTED_BY
            edges.append((rng.choice(holders), i, kind))
        if kinds[i] in (ElementKind.CLAIM, ElementKind.STRATEGY):
            holders.append(i)
    for _ in range(rng.choice([0, 1, 3, size // 20])):
        edges.append((rng.randrange(size), rng.randrange(size), rng.choice(list(EdgeKind))))
    for _ in range(rng.choice([0, 0, 1])):
        node = rng.randrange(size)
        edges.append((node, node, EdgeKind.SUPPORTED_BY))
    rng.shuffle(edges)
    elements = tuple(
        Element(
            f"N{i}",
            kind,
            "",
            is_root=i in roots,
            is_undeveloped=kind is ElementKind.CLAIM and rng.random() < 0.1,
        )
        for i, kind in enumerate(kinds)
    )
    return AssuranceCase(
        id="TREE",
        kind=CaseKind.MONOLITHIC,
        elements=elements,
        edges=tuple(Edge(f"N{a}", f"N{b}", kind) for a, b, kind in edges),
    )


def gen_valid_case(
    rng: random.Random, case_id: str, kind: CaseKind, max_elements: int = 12
) -> AssuranceCase:
    return _ValidCaseBuilder(rng, case_id, kind, max_elements).build()


def gen_valid_bundle(rng: random.Random, max_elements: int = 30) -> Bundle:
    """A bundle that passes every G- and S-rule: away-claims target public
    technological claims, restate them, and carry a documenting context.
    Never exceeds max_elements in total."""
    while True:
        bundle = _gen_valid_bundle_once(rng, max_elements)
        if sum(len(case.elements) for case in bundle.cases()) <= max_elements:
            return bundle


def _gen_valid_bundle_once(rng: random.Random, max_elements: int) -> Bundle:
    tac = gen_valid_case(rng, "TAC", CaseKind.TECHNOLOGICAL, max_elements=rng.randint(4, 10))
    public = [e for e in tac.elements if e.kind is ElementKind.CLAIM and e.is_public]
    budget = max_elements - len(tac.elements)
    cacs = []
    for index in range(rng.randint(1, 2)):
        size = rng.randint(4, max(4, budget // 2))
        cac = gen_valid_case(rng, f"CAC-{index}", CaseKind.CLINICAL, max_elements=min(size, 8))
        elements = list(cac.elements)
        edges = list(cac.edges)
        holders = [e.id for e in elements if e.kind in (ElementKind.CLAIM, ElementKind.STRATEGY)]
        for ref in range(rng.randint(0, min(3, len(public)))):
            target = rng.choice(public)
            away_id = f"A{ref}"
            ctx_id = f"AX{ref}"
            elements.append(
                Element(
                    away_id,
                    ElementKind.CLAIM,
                    target.statement,
                    is_undeveloped=True,
                    away_ref=(tac.id, target.id),
                )
            )
            elements.append(Element(ctx_id, ElementKind.CONTEXT, gen_statement(rng)))
            edges.append(Edge(rng.choice(holders), away_id, EdgeKind.SUPPORTED_BY))
            edges.append(Edge(away_id, ctx_id, EdgeKind.IN_CONTEXT_OF))
        cacs.append(
            AssuranceCase(
                id=cac.id,
                kind=CaseKind.CLINICAL,
                elements=tuple(elements),
                edges=tuple(edges),
                associated_tac=tac.id,
            )
        )
        budget -= len(elements)
    return Bundle(tac, tuple(cacs))


# --- independent oracles ----------------------------------------------------


def brute_children(case: AssuranceCase, node: str, kind: EdgeKind) -> list[str]:
    return [e.target for e in case.edges if e.source == node and e.kind is kind]


def brute_reaches(case: AssuranceCase, start: str, goal: str) -> bool:
    """Forward walk over supportedBy edges, no shared traversal code."""
    stack = [start]
    visited = set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in visited:
            continue
        visited.add(node)
        for edge in case.edges:
            if edge.kind is EdgeKind.SUPPORTED_BY and edge.source == node:
                stack.append(edge.target)
    return False


def brute_ancestors(case: AssuranceCase, node: str) -> set[str]:
    result = set()
    for element in case.elements:
        if element.id == node:
            continue
        if brute_reaches(case, element.id, node):
            result.add(element.id)
    return result


def brute_reachable(case: AssuranceCase, start: str, kinds=tuple(EdgeKind)) -> set[str]:
    """Ids reachable from `start` (inclusive) over edges of the given kinds,
    rescanning the whole edge list at every step."""
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for edge in case.edges:
            if edge.source == node and edge.kind in kinds and edge.target not in seen:
                seen.add(edge.target)
                stack.append(edge.target)
    return seen


def _kind_of(case: AssuranceCase, element_id: str) -> ElementKind:
    return next(e.kind for e in case.elements if e.id == element_id)


def _supported_kinds(case: AssuranceCase, element_id: str) -> set[ElementKind]:
    return {
        _kind_of(case, edge.target)
        for edge in case.edges
        if edge.source == element_id and edge.kind is EdgeKind.SUPPORTED_BY
    }


def brute_leaf_claims(case: AssuranceCase) -> set[str]:
    """Claims with no supportedBy edge to a claim or strategy."""
    return {
        e.id
        for e in case.elements
        if e.kind is ElementKind.CLAIM
        and not _supported_kinds(case, e.id) & {ElementKind.CLAIM, ElementKind.STRATEGY}
    }


def brute_evidence_coverage(case: AssuranceCase) -> float:
    leaves = brute_leaf_claims(case)
    if not leaves:
        return 1.0
    covered = [leaf for leaf in leaves if ElementKind.EVIDENCE in _supported_kinds(case, leaf)]
    return len(covered) / len(leaves)


def brute_g5(case: AssuranceCase) -> set[str]:
    leaves = brute_leaf_claims(case)
    return {
        e.id
        for e in case.elements
        if e.id in leaves
        and ElementKind.EVIDENCE not in _supported_kinds(case, e.id)
        and not e.is_undeveloped
        and e.away_ref is None
    }


def brute_g6(case: AssuranceCase) -> set[str]:
    roots = [e.id for e in case.elements if e.is_root]
    if len(roots) != 1:
        return set()
    return {e.id for e in case.elements} - brute_reachable(case, roots[0])


def brute_g7(case: AssuranceCase) -> set[str]:
    return {
        e.id
        for e in case.elements
        if e.kind is ElementKind.STRATEGY
        and not any(edge.source == e.id and edge.kind is EdgeKind.SUPPORTED_BY for edge in case.edges)
    }


def brute_s3(bundle: Bundle) -> set[tuple[str, str]]:
    """Away-claims without an inContextOf edge to a context element."""
    return {
        (cac.id, e.id)
        for cac in bundle.cacs
        for e in cac.elements
        if e.away_ref is not None
        and not any(
            edge.source == e.id
            and edge.kind is EdgeKind.IN_CONTEXT_OF
            and _kind_of(cac, edge.target) is ElementKind.CONTEXT
            for edge in cac.edges
        )
    }


def brute_acyclic_depth(case: AssuranceCase) -> int:
    """Longest supportedBy path in nodes, by |V| rounds of relaxation over
    the edge list; only meaningful when the supportedBy graph is acyclic."""
    depth = {e.id: 1 for e in case.elements}
    for _ in range(len(depth)):
        for edge in case.edges:
            if edge.kind is EdgeKind.SUPPORTED_BY:
                depth[edge.source] = max(depth[edge.source], depth[edge.target] + 1)
    return max(depth.values(), default=0)


def brute_dfs(case: AssuranceCase) -> tuple[int, list[str] | None, list[str]]:
    """The supportedBy depth-first walk restated recursively, rescanning the
    edge list: starts in declaration order, out-edges in declaration order.

    Returns the longest path in nodes with the walk's back edges ignored, the
    first cycle the walk closes as [n0, ..., n0] (None when acyclic), and
    every element id in the order the walk finishes it."""
    depth: dict[str, int] = {}
    path: list[str] = []
    postorder: list[str] = []
    cycle = None

    def visit(node: str) -> None:
        nonlocal cycle
        path.append(node)
        best = 0
        for edge in case.edges:
            if edge.source != node or edge.kind is not EdgeKind.SUPPORTED_BY:
                continue
            if edge.target in path:
                if cycle is None:
                    cycle = path[path.index(edge.target):] + [edge.target]
                continue
            if edge.target not in depth:
                visit(edge.target)
            best = max(best, depth[edge.target])
        path.pop()
        depth[node] = 1 + best
        postorder.append(node)

    for element in case.elements:
        if element.id not in depth:
            visit(element.id)
    return max(depth.values(), default=0), cycle, postorder


def brute_has_supported_by_cycle(case: AssuranceCase) -> bool:
    """Closed-walk detection: boolean adjacency powers up to |V|."""
    ids = [e.id for e in case.elements]
    index = {node: i for i, node in enumerate(ids)}
    n = len(ids)
    adjacency = [[False] * n for _ in range(n)]
    for edge in case.edges:
        if edge.kind is EdgeKind.SUPPORTED_BY and edge.source in index and edge.target in index:
            adjacency[index[edge.source]][index[edge.target]] = True
    power = [row[:] for row in adjacency]
    for _ in range(n):
        if any(power[i][i] for i in range(n)):
            return True
        power = [
            [any(power[i][k] and adjacency[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return False


def brute_g3_violated(case: AssuranceCase) -> bool:
    """Edge-kind legality for supportedBy, restated straight from the rules."""
    kinds = {e.id: e.kind for e in case.elements}
    for edge in case.edges:
        if edge.kind is not EdgeKind.SUPPORTED_BY:
            continue
        src = kinds.get(edge.source)
        tgt = kinds.get(edge.target)
        if src is None or tgt is None:
            return True
        if src not in (ElementKind.CLAIM, ElementKind.STRATEGY):
            return True
        if tgt not in (ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE):
            return True
        if src is ElementKind.STRATEGY and tgt is not ElementKind.CLAIM:
            return True
    return False


def brute_typing(case: AssuranceCase) -> Counter:
    """G3 and G4 restated from RULES.md, edge by edge over the edge list: the
    multiset of (rule, edge span, implicated elements). An edge whose source
    is not a claim or strategy implicates its source; else one whose target
    its edge kind may never take implicates its target; else a strategy
    supported by a non-claim implicates both ends."""
    kinds = {e.id: e.kind for e in case.elements}
    sources = (ElementKind.CLAIM, ElementKind.STRATEGY)
    found: Counter = Counter()
    for edge in case.edges:
        support = edge.kind is EdgeKind.SUPPORTED_BY
        rule = "G3" if support else "G4"
        targets = (
            (ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE)
            if support
            else (ElementKind.CONTEXT, ElementKind.ASSUMPTION, ElementKind.JUSTIFICATION)
        )
        source, target = kinds[edge.source], kinds[edge.target]
        if source not in sources:
            implicated = (edge.source,)
        elif target not in targets:
            implicated = (edge.target,)
        elif support and source is ElementKind.STRATEGY and target is not ElementKind.CLAIM:
            implicated = (edge.source, edge.target)
        else:
            continue
        found[rule, edge.span, tuple((case.id, node) for node in implicated)] += 1
    return found


def brute_affected(bundle: Bundle, changed: set[tuple[str, str]]) -> dict[str, set[str]]:
    """Reverse reachability on the union graph by fixpoint relaxation. The
    cross edges come straight from the clinical cases' away references."""
    edges: list[tuple[tuple[str, str], tuple[str, str]]] = []
    for case in bundle.cases():
        for edge in case.edges:
            edges.append(((case.id, edge.source), (case.id, edge.target)))
    for cac in bundle.cacs:
        for element in cac.elements:
            if element.away_ref is not None:
                edges.append(((cac.id, element.id), element.away_ref))
    affected = set(changed)
    while True:
        added = False
        for upper, lower in edges:
            if lower in affected and upper not in affected:
                affected.add(upper)
                added = True
        if not added:
            break
    result: dict[str, set[str]] = {case.id: set() for case in bundle.cases()}
    for case_id, element_id in affected:
        result[case_id].add(element_id)
    return result


def _brute_node(case: AssuranceCase, element: Element, prefix: str, highlight: set[tuple[str, str]]) -> str:
    """One node line, attribute by attribute as FORMATS.md's "DOT output" lists them."""
    kind = element.kind.value
    if kind == "claim" and element.is_module:
        shape = "tab"
    elif kind == "strategy":
        shape = "parallelogram"
    elif kind == "evidence":
        shape = "circle"
    else:
        shape = "box"
    highlighted = (case.id, element.id) in highlight
    styles = []
    if kind in ("context", "assumption", "justification"):
        styles.append("rounded")
    if highlighted:
        styles.append("filled")
    attributes = [f"shape={shape}"]
    if styles:
        attributes.append('style="' + ",".join(styles) + '"')
    if highlighted:
        attributes.append("fillcolor=lightgray")
    label = element.id + "\n" + element.statement
    if kind == "claim" and element.is_undeveloped:
        label += "\n◇"
    escaped = "".join({"\\": "\\\\", '"': '\\"', "\n": "\\n"}.get(character, character) for character in label)
    attributes.append(f'label="{escaped}"')
    return f'"{prefix}{element.id}" [' + ", ".join(attributes) + "];"


def brute_dot(subject: AssuranceCase | Bundle, highlight=()) -> str:
    """`to_dot` restated from FORMATS.md's "DOT output": each line written
    out as the document spells it, the label escaped a character at a time,
    a highlight tested as its (case id, element id) pair, and every order
    sorted by the keys the document names."""
    highlight = set(highlight)
    bundle = isinstance(subject, Bundle)
    cases = sorted(subject.cases(), key=lambda case: case.id) if bundle else [subject]
    lines = ["digraph bundle {" if bundle else f'digraph "{subject.id}" {{',
             "  graph [rankdir=TB, ranksep=0.6];",
             '  node [fontname="Helvetica", fontsize=10];']
    for case in cases:
        indent, prefix = ("    ", case.id + ".") if bundle else ("  ", "")
        if bundle:
            lines.append(f'  subgraph "cluster_{case.id}" {{')
            lines.append(f'    label="{case.id} ({case.kind.value})";')
        for element in sorted(case.elements, key=lambda element: element.id):
            lines.append(indent + _brute_node(case, element, prefix, highlight))
        for edge in sorted(case.edges, key=lambda edge: (edge.source, edge.kind.value, edge.target)):
            arrow = " [arrowhead=onormal]" if edge.kind.value == "inContextOf" else ""
            lines.append(f'{indent}"{prefix}{edge.source}" -> "{prefix}{edge.target}"{arrow};')
        if bundle:
            lines.append("  }")
    if bundle:
        ids = {(case.id, element.id) for case in cases for element in case.elements}
        dashed = sorted((f"{case.id}.{element.id}", ".".join(element.away_ref))
                        for case in cases for element in case.elements
                        if element.away_ref is not None and tuple(element.away_ref) in ids)
        lines += [f'  "{source}" -> "{target}" [style=dashed];' for source, target in dashed]
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def enum_typed_digraphs(
    n: int,
    kinds=(ElementKind.CLAIM, ElementKind.STRATEGY, ElementKind.EVIDENCE),
    edge_kinds=(EdgeKind.SUPPORTED_BY,),
):
    """Every digraph over n nodes (self-loops included) with edges of
    `edge_kinds`, over every assignment of `kinds` to the nodes: by default
    supportedBy edges over {claim, strategy, evidence}. Each edge has its own
    span, on the line of its bit in the edge mask."""
    ids = [f"N{i}" for i in range(n)]
    pairs = [(a, b, edge_kind) for edge_kind in edge_kinds for a in ids for b in ids]
    for assignment in range(len(kinds) ** n):
        chosen = []
        value = assignment
        for _ in range(n):
            chosen.append(kinds[value % len(kinds)])
            value //= len(kinds)
        elements = tuple(
            Element(ids[i], chosen[i], "") for i in range(n)
        )
        for mask in range(1 << len(pairs)):
            edges = tuple(
                Edge(*pairs[bit], SourceSpan("enum.acd", bit + 1, 1))
                for bit in range(len(pairs))
                if mask >> bit & 1
            )
            yield AssuranceCase(id="ENUM", kind=CaseKind.MONOLITHIC, elements=elements, edges=edges)


_MIXED_IDS = ["N0", "N1", "N2", "N3", "N-4", "n_5", "claim", "evidence", "associates", "provides", "requires",
              "supportedBy", "inContextOf", "root", "concern", "case"]
_MIXED_STRINGS = ['"plain"', '"say \\"hi\\""', '"back \\\\ slash"', '"bad \\q escape"', '""', '"µé ≤ // in text"']
_MIXED_FLAGS = ["root", "public", "undeveloped", "module", "concern safety", "concern effectiveness", "awayref T.C2",
                "awayref claim.root"]


def _mixed_statement(rng: random.Random) -> str:
    gap = rng.choice([" ", " ", " ", "\t", "  "])
    if rng.random() < 0.5:
        words = [rng.choice(list(ElementKind)).value, rng.choice(_MIXED_IDS), rng.choice(_MIXED_STRINGS)]
        words += rng.choices(_MIXED_FLAGS, k=rng.choice([0, 0, 1, 2, 3]))
        if rng.random() < 0.05:  # a second string after the flags
            words.append(rng.choice(_MIXED_STRINGS))
    elif rng.random() < 0.95:
        ends = _MIXED_IDS + ["GHOST"]
        words = [rng.choice(ends), rng.choice(list(EdgeKind)).value, rng.choice(ends)]
    else:
        words = [rng.choice(list(Direction)).value, "capability", rng.choice(_MIXED_IDS), "unit W range [0, 1]"]
    return gap.join(words)


_MIXED_GAPS = ["", "  ", "\t", "\r", " \t\r ", ";", "// between", "  // between ; \"x\"", "; // between",
               "\t// between", ";\t;// c"]


def mixed_case_text(rng: random.Random) -> str:
    """A case of hundreds of one-line statements: escapes, `\\r\\n`, duplicate
    and keyword ids, misused and repeated flags, `awayref` without
    `undeveloped`, dangling edges, a second string after a node's flags,
    `;`-joined pairs, and blank and comment lines, led by blanks, tabs, `\\r`
    or `;`, between statements and before the closing `}`."""
    kind = rng.choice(list(CaseKind))
    lines = [f"case K kind {kind.value} {{"] + (["  associates T"] if kind is CaseKind.CLINICAL else [])
    for _ in range(rng.randint(100, 300)):
        lines.append("  " + _mixed_statement(rng))
        if rng.random() < 0.05:
            lines[-1] += rng.choice([";", "; ", " ;"]) + _mixed_statement(rng)
        if rng.random() < 0.1:
            lines += rng.choices(_MIXED_GAPS, k=rng.randint(1, 3))
    if rng.random() < 0.5:
        lines.append(rng.choice(["  // last", "\t// last", ";// last"]))
    return "".join(line + rng.choice(["\n", "\n", "\r\n"]) for line in lines) + "}\n"
