"""Parser and pretty-printer for the assurance-case DSL.

Case files (`.acd`) hold one `case ID kind KIND { ... }` block whose items are
node declarations, edges, capability declarations and (for clinical cases) an
`associates` line. Bundle manifests (`.acb`) list one `tac` entry and one or
more `cac` entries with paths resolved by the caller-supplied loader.

Parsing is total: a syntax error skips to the next statement boundary
(newline, `;` or `}`) and parsing continues, so one run reports every
diagnosable error. A case value is produced whenever the case header parses;
offending items are dropped so the resulting value never violates the model
invariants.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import Callable

from .diagnostics import Diagnostic, Severity, sorted_diagnostics
from .model import (
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
    format_decimal,
)

NODE_KINDS = {kind.value: kind for kind in ElementKind}
CASE_KINDS = {kind.value: kind for kind in CaseKind}
EDGE_KINDS = {kind.value: kind for kind in EdgeKind}
BOOL_FLAGS = ("root", "public", "undeveloped", "module")


@dataclass
class ParseResult:
    case: AssuranceCase | None
    diagnostics: list[Diagnostic]


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | string | number | punct | break | eof
    text: str
    span: SourceSpan
    value: object = None


_TOKEN_PATTERN = re.compile(
    r"(?P<skip>[ \t\r]+|//[^\n]*)|(?P<break>[\n;])|(?P<punct>[{}\[\],.])"
    r'|(?P<string>"(?:[^"\\]+|\\[\s\S])*(?:(?P<closed>")|\\?\Z))'
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_-]*)|(?P<number>-?[0-9]+(?:\.[0-9]+)?)|(?P<other>[\s\S])"
)
_ESCAPE = re.compile(r'\\(["\\])|\\[\s\S]?')  # group 1 is unset for an invalid escape


def _tokenize(source: str, file_name: str) -> tuple[list[_Token], list[Diagnostic]]:
    """The tokens, ending in one eof token, and the P0 errors of the text.
    A token's span starts at its first character, even when it spans lines."""
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    for match in _TOKEN_PATTERN.finditer(source):
        kind, text, value = match.lastgroup, match.group(), None
        if kind == "skip":
            continue
        span = SourceSpan(file_name, line, match.start() - line_start + 1, len(text))
        if kind == "ident":
            text = sys.intern(text)
        elif kind == "number":
            value = Decimal(text)
        elif kind == "string":
            closed = match["closed"] is not None
            value = _unescape(text, closed, span, diagnostics) if "\\" in text or not closed else text[1:-1]
        elif kind == "other":
            diagnostics.append(Diagnostic("P0", Severity.ERROR, span, f"unexpected character {text!r}"))
            continue
        if "\n" in text:
            line, line_start = line + text.count("\n"), match.start() + text.rindex("\n") + 1
        if kind != "string" or closed:
            tokens.append(_Token(kind, text, span, value))
    tokens.append(_Token("eof", "", SourceSpan(file_name, line, len(source) - line_start + 1, 0)))
    return tokens, diagnostics


def _unescape(text: str, closed: bool, span: SourceSpan, diagnostics: list[Diagnostic]) -> str:
    """Decode a string token, reporting each invalid escape and a missing
    closing quote as P0 errors that span from the opening quote to their end."""
    end = length = len(text) - closed
    for escape in _ESCAPE.finditer(text, 1, end):
        if escape[1] is None:
            stop = escape.start() + 2  # past the end of the text for a final lone backslash
            length = max(length, stop)
            message = f"invalid escape sequence {escape[0]!r}"
            diagnostics.append(Diagnostic("P0", Severity.ERROR, replace(span, length=stop), message))
    if not closed:
        diagnostics.append(Diagnostic("P0", Severity.ERROR, replace(span, length=length), "unterminated string"))
    return _ESCAPE.sub(r"\1", text[1:end])


@dataclass
class _RawNode:
    kind: ElementKind
    id_token: _Token
    statement: str
    flags: list[tuple[str, _Token, object]] = field(default_factory=list)


@dataclass
class _RawEdge:
    source: _Token
    kind: EdgeKind
    target: _Token


@dataclass
class _RawCapability:
    direction: Direction
    name: _Token
    unit: _Token
    low: Decimal
    high: Decimal


class _Parser:
    """Shared machinery for case files and bundle manifests."""

    def __init__(self, source: str, file_name: str):
        self.tokens, self.diagnostics = _tokenize(source, file_name)
        self.index = 0

    # --- token primitives -------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def at_ident(self, *texts: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and (not texts or token.text in texts)

    def at_punct(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.text == text

    def skip_breaks(self) -> None:
        while self.peek().kind == "break":
            self.advance()

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diagnostics.append(
            Diagnostic("P0", Severity.ERROR, span or self.peek().span, message)
        )

    def recover(self) -> None:
        """Skip to the next statement boundary: past a break, or before `}`/eof."""
        while True:
            token = self.peek()
            if token.kind == "eof" or (token.kind == "punct" and token.text == "}"):
                return
            self.advance()
            if token.kind == "break":
                return

    def expect_keyword(self, word: str) -> bool:
        if self.at_ident(word):
            self.advance()
            return True
        self.error(f"expected '{word}'")
        return False

    def expect(self, kind: str, what: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.advance()
        self.error(f"expected {what}")
        return None

    def expect_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.advance()
            return True
        self.error(f"expected '{text}'")
        return False

    def expect_terminator(self) -> bool:
        token = self.peek()
        if token.kind == "break":
            self.advance()
            return True
        if token.kind == "eof" or (token.kind == "punct" and token.text == "}"):
            return True
        self.error("expected end of statement")
        self.recover()
        return False


class _CaseParser(_Parser):
    def __init__(self, source: str, file_name: str):
        super().__init__(source, file_name)
        self.nodes: list[_RawNode] = []
        self.edges: list[_RawEdge] = []
        self.capabilities: list[_RawCapability] = []
        self.associations: list[_Token] = []

    def parse(self) -> ParseResult:
        header = self._header()
        if header is None:
            return ParseResult(None, sorted_diagnostics(self.diagnostics))
        id_token, kind = header
        self._items()
        case = self._build(id_token, kind)
        return ParseResult(case, sorted_diagnostics(self.diagnostics))

    def _header(self) -> tuple[_Token, CaseKind] | None:
        self.skip_breaks()
        if not self.expect_keyword("case"):
            return None
        id_token = self.expect("ident", "case id")
        if id_token is None:
            return None
        if not self.expect_keyword("kind"):
            return None
        kind_token = self.peek()
        if kind_token.kind == "ident" and kind_token.text in CASE_KINDS:
            self.advance()
        else:
            self.error("expected case kind ('monolithic', 'technological' or 'clinical')")
            return None
        self.skip_breaks()
        if not self.expect_punct("{"):
            return None
        return id_token, CASE_KINDS[kind_token.text]

    def _items(self) -> None:
        closed = False
        while True:
            self.skip_breaks()
            token = self.peek()
            if token.kind == "eof":
                if not closed:
                    self.error("expected '}'")
                return
            if token.kind == "punct" and token.text == "}":
                self.advance()
                closed = True
                self.skip_breaks()
                if self.peek().kind != "eof":
                    self.error("unexpected content after '}'")
                return
            if token.kind == "ident" and token.text in NODE_KINDS:
                self._node()
            elif token.kind == "ident" and token.text == "associates":
                self._associates()
            elif token.kind == "ident" and token.text in ("provides", "requires"):
                self._capability()
            elif token.kind == "ident":
                self._edge()
            else:
                self.error(f"unexpected token {token.text!r}; expected a statement")
                self.recover()

    def _node(self) -> None:
        kind = NODE_KINDS[self.advance().text]
        id_token = self.expect("ident", "element id")
        if id_token is None:
            self.recover()
            return
        statement = self.expect("string", "statement string")
        if statement is None:
            self.recover()
            return
        node = _RawNode(kind, id_token, str(statement.value))
        self.nodes.append(node)
        while self.peek().kind == "ident":
            flag_token = self.advance()
            if flag_token.text in BOOL_FLAGS:
                node.flags.append((flag_token.text, flag_token, None))
            elif flag_token.text == "concern":
                value = self.peek()
                if value.kind == "ident" and value.text in ("safety", "effectiveness"):
                    self.advance()
                    node.flags.append(("concern", flag_token, ConcernKind(value.text)))
                else:
                    self.error("expected 'safety' or 'effectiveness'")
                    self.recover()
                    return
            elif flag_token.text == "awayref":
                case_token = self.expect("ident", "case id after 'awayref'")
                if case_token is None or not self.expect_punct("."):
                    self.recover()
                    return
                elem_token = self.expect("ident", "element id after '.'")
                if elem_token is None:
                    self.recover()
                    return
                node.flags.append(("awayref", flag_token, (case_token.text, elem_token.text)))
            else:
                self.error(f"unknown flag {flag_token.text!r}", flag_token.span)
                self.recover()
                return
        self.expect_terminator()

    def _associates(self) -> None:
        self.advance()
        target = self.expect("ident", "case id after 'associates'")
        if target is None:
            self.recover()
            return
        self.associations.append(target)
        self.expect_terminator()

    def _capability(self) -> None:
        direction = Direction(self.advance().text)
        if not self.expect_keyword("capability"):
            self.recover()
            return
        name = self.expect("ident", "capability name")
        if name is None or not self.expect_keyword("unit"):
            self.recover()
            return
        unit = self.expect("ident", "unit symbol")
        if unit is None or not self.expect_keyword("range") or not self.expect_punct("["):
            self.recover()
            return
        low = self.expect("number", "number")
        if low is None or not self.expect_punct(","):
            self.recover()
            return
        high = self.expect("number", "number")
        if high is None or not self.expect_punct("]"):
            self.recover()
            return
        self.capabilities.append(
            _RawCapability(direction, name, unit, Decimal(str(low.value)), Decimal(str(high.value)))
        )
        self.expect_terminator()

    def _edge(self) -> None:
        source = self.advance()
        kind_token = self.peek()
        if kind_token.kind == "ident" and kind_token.text in EDGE_KINDS:
            self.advance()
        else:
            self.error("expected 'supportedBy' or 'inContextOf'")
            self.recover()
            return
        target = self.expect("ident", "element id")
        if target is None:
            self.recover()
            return
        self.edges.append(_RawEdge(source, EDGE_KINDS[kind_token.text], target))
        self.expect_terminator()

    # --- model construction (P1, P2, P3, P7) ------------------------------

    def _diag(self, rule: str, span: SourceSpan, message: str, *elements: tuple[str, str]) -> None:
        self.diagnostics.append(Diagnostic(rule, Severity.ERROR, span, message, tuple(elements)))

    def _build(self, id_token: _Token, kind: CaseKind) -> AssuranceCase:
        case_id = id_token.text
        elements: list[Element] = []
        seen: dict[str, SourceSpan] = {}
        for node in self.nodes:
            node_id = node.id_token.text
            if node_id in seen:
                first = seen[node_id]
                self._diag(
                    "P1",
                    node.id_token.span,
                    f"duplicate element id {node_id!r} (first declared at line {first.line})",
                    (case_id, node_id),
                )
                continue
            seen[node_id] = node.id_token.span
            elements.append(self._element(case_id, node))
        ids = set(seen)
        edges: list[Edge] = []
        for raw in self.edges:
            ok = True
            for endpoint in (raw.source, raw.target):
                if endpoint.text not in ids:
                    self._diag("P2", endpoint.span, f"edge references unknown element {endpoint.text!r}")
                    ok = False
            if ok:
                edges.append(Edge(raw.source.text, raw.target.text, raw.kind, raw.source.span))
        capabilities = [
            Capability(c.name.text, c.direction, c.unit.text, c.low, c.high, c.name.span)
            for c in self.capabilities
        ]
        associated: str | None = None
        for token in self.associations:
            if kind is not CaseKind.CLINICAL:
                self._diag("P7", token.span, "'associates' is only allowed in a clinical case")
            elif associated is not None:
                self._diag("P7", token.span, "duplicate 'associates' declaration")
            else:
                associated = token.text
        if kind is CaseKind.CLINICAL and associated is None:
            self._diag("P7", id_token.span, f"clinical case {case_id!r} must declare 'associates'")
        return AssuranceCase(
            id=case_id,
            kind=kind,
            elements=tuple(elements),
            edges=tuple(edges),
            capabilities=tuple(capabilities),
            associated_tac=associated,
            span=id_token.span,
        )

    def _element(self, case_id: str, node: _RawNode) -> Element:
        node_id = node.id_token.text
        is_claim = node.kind is ElementKind.CLAIM
        flags = {"root": False, "public": False, "undeveloped": False, "module": False}
        concern: ConcernKind | None = None
        away: tuple[str, str] | None = None
        away_span: SourceSpan | None = None
        for name, token, payload in node.flags:
            if name in ("root", "undeveloped", "module") and not is_claim:
                self._diag(
                    "P3",
                    token.span,
                    f"flag {name!r} is not allowed on {node.kind.value} {node_id!r}",
                    (case_id, node_id),
                )
            elif name == "awayref" and not is_claim:
                self._diag(
                    "P3",
                    token.span,
                    f"'awayref' is not allowed on {node.kind.value} {node_id!r}",
                    (case_id, node_id),
                )
            elif name == "concern":
                if concern is not None:
                    self._diag("P3", token.span, f"duplicate 'concern' flag on {node_id!r}", (case_id, node_id))
                else:
                    concern = payload
            elif name == "awayref":
                if away is not None:
                    self._diag("P3", token.span, f"duplicate 'awayref' flag on {node_id!r}", (case_id, node_id))
                else:
                    away = payload
                    away_span = token.span
            else:
                flags[name] = True
        if away is not None and not flags["undeveloped"]:
            self._diag(
                "P3",
                away_span or node.id_token.span,
                f"'awayref' on claim {node_id!r} requires the 'undeveloped' flag",
                (case_id, node_id),
            )
            away = None
        return Element(
            id=node_id,
            kind=node.kind,
            statement=node.statement,
            is_root=flags["root"],
            is_public=flags["public"],
            is_undeveloped=flags["undeveloped"],
            is_module=flags["module"],
            concern=concern,
            away_ref=away,
            span=node.id_token.span,
        )


def parse_case(source: str, file_name: str) -> ParseResult:
    """Parse one `.acd` case file. Never raises on malformed input."""
    return _CaseParser(source, file_name).parse()


class _BundleParser(_Parser):
    def parse(self) -> tuple[str | None, list[tuple[str, _Token]]]:
        """Returns (bundle id, [(slot, path token), ...]); id None if the header failed."""
        self.skip_breaks()
        if not self.expect_keyword("bundle"):
            return None, []
        id_token = self.expect("ident", "bundle id")
        if id_token is None:
            return None, []
        self.skip_breaks()
        if not self.expect_punct("{"):
            return None, []
        entries: list[tuple[str, _Token]] = []
        while True:
            self.skip_breaks()
            token = self.peek()
            if token.kind == "eof":
                self.error("expected '}'")
                break
            if token.kind == "punct" and token.text == "}":
                self.advance()
                break
            if token.kind == "ident" and token.text in ("tac", "cac"):
                slot = self.advance().text
                path = self.expect("string", "file path string")
                if path is None:
                    self.recover()
                    continue
                entries.append((slot, path))
                self.expect_terminator()
            else:
                self.error(f"expected 'tac' or 'cac' entry, found {token.text!r}")
                self.recover()
        return id_token.text, entries


def parse_bundle(
    source: str,
    file_loader: Callable[[str], str],
    file_name: str = "<bundle>",
) -> tuple[Bundle | None, list[Diagnostic]]:
    """Parse a bundle manifest and every case file it references.

    The loader receives each path exactly as written in the manifest; callers
    resolve paths relative to the manifest; an OSError or UnicodeDecodeError
    it raises is reported as P6. A bundle is produced only when all files
    load and parse, each slot holds a case of the declared kind
    (P4), case ids are unique (P5), and the manifest names a tac and at least
    one cac (P6).
    """
    parser = _BundleParser(source, file_name)
    bundle_id, entries = parser.parse()
    diagnostics = parser.diagnostics
    complete = bundle_id is not None

    def fail(rule: str, span: SourceSpan, message: str) -> None:
        nonlocal complete
        diagnostics.append(Diagnostic(rule, Severity.ERROR, span, message))
        complete = False

    expected = {"tac": CaseKind.TECHNOLOGICAL, "cac": CaseKind.CLINICAL}
    tac: AssuranceCase | None = None
    tac_seen = False
    cacs: list[AssuranceCase] = []
    case_ids: dict[str, str] = {}
    for slot, path_token in entries:
        path = str(path_token.value)
        if slot == "tac":
            if tac_seen:
                fail("P6", path_token.span, "duplicate 'tac' entry")
                continue
            tac_seen = True
        try:
            text = file_loader(path)
        except (OSError, UnicodeDecodeError) as exc:
            fail("P6", path_token.span, f"cannot read case file {path!r}: {exc}")
            continue
        result = parse_case(text, path)
        diagnostics.extend(result.diagnostics)
        case = result.case
        if case is None:
            complete = False
            continue
        if case.kind is not expected[slot]:
            fail(
                "P4",
                path_token.span,
                f"bundle slot '{slot}' requires a {expected[slot].value} case, "
                f"but {path!r} declares a {case.kind.value} case",
            )
            continue
        if case.id in case_ids:
            fail("P5", path_token.span, f"duplicate case id {case.id!r} in bundle (also in {case_ids[case.id]!r})")
            continue
        case_ids[case.id] = path
        if slot == "tac":
            tac = case
        else:
            cacs.append(case)
    eof_span = parser.tokens[-1].span
    if bundle_id is not None and not tac_seen:
        fail("P6", eof_span, "bundle requires a tac entry")
    if bundle_id is not None and not any(slot == "cac" for slot, _ in entries):
        fail("P6", eof_span, "bundle requires at least one cac")
    bundle = None
    if complete and tac is not None and len(cacs) == sum(1 for slot, _ in entries if slot == "cac"):
        bundle = Bundle(tac, tuple(cacs))
    return bundle, sorted_diagnostics(diagnostics)


def _escape(statement: str) -> str:
    return '"' + statement.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _flag_text(element: Element) -> str:
    parts: list[str] = []
    if element.is_root:
        parts.append("root")
    if element.is_public:
        parts.append("public")
    if element.is_undeveloped:
        parts.append("undeveloped")
    if element.is_module:
        parts.append("module")
    if element.concern is not None:
        parts.append(f"concern {element.concern.value}")
    if element.away_ref is not None:
        parts.append(f"awayref {element.away_ref[0]}.{element.away_ref[1]}")
    return (" " + " ".join(parts)) if parts else ""


def print_case(case: AssuranceCase) -> str:
    """Emit canonical DSL text that reparses to a structurally equal case.

    Elements are sorted by id, edges by (source, kind, target), capabilities
    by (direction, name); this is the formatting `fmt` checks against.
    """
    sections: list[list[str]] = []
    if case.associated_tac is not None:
        sections.append([f"  associates {case.associated_tac}"])
    element_lines = [
        f"  {e.kind.value} {e.id} {_escape(e.statement)}{_flag_text(e)}"
        for e in sorted(case.elements, key=lambda e: e.id)
    ]
    if element_lines:
        sections.append(element_lines)
    edge_lines = [
        f"  {e.source} {e.kind.value} {e.target}"
        for e in sorted(case.edges, key=lambda e: (e.source, e.kind.value, e.target))
    ]
    if edge_lines:
        sections.append(edge_lines)
    capability_lines = [
        f"  {c.direction.value} capability {c.name} unit {c.unit} "
        f"range [{format_decimal(c.low)}, {format_decimal(c.high)}]"
        for c in sorted(case.capabilities, key=lambda c: (c.direction.value, c.name, c.unit, c.low, c.high))
    ]
    if capability_lines:
        sections.append(capability_lines)
    body = "\n\n".join("\n".join(lines) for lines in sections)
    header = f"case {case.id} kind {case.kind.value} {{"
    if not body:
        return header + "\n}\n"
    return header + "\n" + body + "\n}\n"
