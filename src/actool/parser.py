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
from dataclasses import dataclass, replace
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
CONCERN_KINDS = {kind.value: kind for kind in ConcernKind}
BOOL_FLAGS = ("root", "public", "undeveloped", "module")
FLAG_FIELDS = {
    "root": "is_root",
    "public": "is_public",
    "undeveloped": "is_undeveloped",
    "module": "is_module",
    "concern": "concern",
    "awayref": "away_ref",
}


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
    end = len(text) - closed
    for escape in _ESCAPE.finditer(text, 1, end):
        if escape[1] is None:
            stop = min(escape.start() + 2, len(text))
            message = f"invalid escape sequence {escape[0]!r}"
            diagnostics.append(Diagnostic("P0", Severity.ERROR, replace(span, length=stop), message))
    if not closed:
        diagnostics.append(Diagnostic("P0", Severity.ERROR, replace(span, length=end), "unterminated string"))
    return _ESCAPE.sub(r"\1", text[1:end])


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

    def at_punct(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.text == text

    def accept(self, words: dict[str, object]) -> object | None:
        """Consume an identifier that is a key of `words` and return its value."""
        token = self.peek()
        if token.kind == "ident" and token.text in words:
            self.advance()
            return words[token.text]
        return None

    def skip_breaks(self) -> None:
        while self.peek().kind == "break":
            self.advance()

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diagnostics.append(
            Diagnostic("P0", Severity.ERROR, span or self.peek().span, message)
        )

    def recover(self) -> None:
        """Skip to the next statement boundary: past a break, or before `}`/eof."""
        while self.peek().kind != "eof" and not self.at_punct("}"):
            if self.advance().kind == "break":
                return

    def expect_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "ident" and token.text == word:
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
        if self.peek().kind == "break":
            self.advance()
            return True
        if self.peek().kind == "eof" or self.at_punct("}"):
            return True
        self.error("expected end of statement")
        self.recover()
        return False


class _CaseParser(_Parser):
    """Builds the case as it reads each statement.

    P1 (duplicate id) is checked when a node's id has parsed, and P3 (flag
    misuse) as each flag's payload parses, except on a dropped duplicate,
    whose flags are consumed but not checked. P7 is checked at each
    `associates` statement, and for a missing one after the last item. P2
    needs every node, so edges wait as (source, kind, target) token triples
    until the items are read.
    """

    def __init__(self, source: str, file_name: str):
        super().__init__(source, file_name)
        self.case_id = ""
        self.kind = CaseKind.MONOLITHIC
        self.elements: dict[str, Element] = {}
        self.edges: list[tuple[_Token, EdgeKind, _Token]] = []
        self.capabilities: list[Capability] = []
        self.associated: str | None = None

    def parse(self) -> ParseResult:
        id_token = self._header()
        if id_token is None:
            return ParseResult(None, sorted_diagnostics(self.diagnostics))
        self._items()
        if self.kind is CaseKind.CLINICAL and self.associated is None:
            self._diag("P7", id_token.span, f"clinical case {self.case_id!r} must declare 'associates'")
        edges: list[Edge] = []
        for source, kind, target in self.edges:
            unknown = [endpoint for endpoint in (source, target) if endpoint.text not in self.elements]
            for endpoint in unknown:
                self._diag("P2", endpoint.span, f"edge references unknown element {endpoint.text!r}")
            if not unknown:
                edges.append(Edge(source.text, target.text, kind, source.span))
        case = AssuranceCase(
            id=self.case_id,
            kind=self.kind,
            elements=tuple(self.elements.values()),
            edges=tuple(edges),
            capabilities=tuple(self.capabilities),
            associated_tac=self.associated,
            span=id_token.span,
        )
        return ParseResult(case, sorted_diagnostics(self.diagnostics))

    def _diag(self, rule: str, span: SourceSpan, message: str, *elements: tuple[str, str]) -> None:
        self.diagnostics.append(Diagnostic(rule, Severity.ERROR, span, message, tuple(elements)))

    def _header(self) -> _Token | None:
        """The case id token, with `case_id` and `kind` set; None on a P0 error."""
        self.skip_breaks()
        if not self.expect_keyword("case"):
            return None
        id_token = self.expect("ident", "case id")
        if id_token is None or not self.expect_keyword("kind"):
            return None
        kind = self.accept(CASE_KINDS)
        if kind is None:
            self.error("expected case kind ('monolithic', 'technological' or 'clinical')")
            return None
        self.skip_breaks()
        if not self.expect_punct("{"):
            return None
        self.case_id, self.kind = id_token.text, kind
        return id_token

    def _items(self) -> None:
        while True:
            self.skip_breaks()
            token = self.peek()
            if token.kind == "eof":
                self.error("expected '}'")
                return
            if self.at_punct("}"):
                self.advance()
                self.skip_breaks()
                if self.peek().kind != "eof":
                    self.error("unexpected content after '}'")
                return
            if token.kind != "ident":
                self.error(f"unexpected token {token.text!r}; expected a statement")
                self.recover()
            elif token.text in NODE_KINDS:
                self._node()
            elif token.text == "associates":
                self._associates()
            elif token.text in ("provides", "requires"):
                self._capability()
            else:
                self._edge()

    def _node(self) -> None:
        kind = NODE_KINDS[self.advance().text]
        id_token = self.expect("ident", "element id")
        statement = self.expect("string", "statement string") if id_token else None
        if statement is None:
            self.recover()
            return
        node_id = id_token.text
        first = self.elements.get(node_id)
        if first is not None:
            message = f"duplicate element id {node_id!r} (first declared at line {first.span.line})"
            self._diag("P1", id_token.span, message, (self.case_id, node_id))

        def misuse(token: _Token, message: str) -> None:
            if first is None:
                self._diag("P3", token.span, message, (self.case_id, node_id))

        fields: dict[str, object] = {}
        away_token: _Token | None = None
        while self.peek().kind == "ident":
            token = self.advance()
            value = self._flag_value(token)
            if value is None:
                self.recover()
                break
            name, field = token.text, FLAG_FIELDS[token.text]
            if name in ("root", "undeveloped", "module") and kind is not ElementKind.CLAIM:
                misuse(token, f"flag {name!r} is not allowed on {kind.value} {node_id!r}")
            elif name == "awayref" and kind is not ElementKind.CLAIM:
                misuse(token, f"'awayref' is not allowed on {kind.value} {node_id!r}")
            elif name in ("concern", "awayref") and field in fields:
                misuse(token, f"duplicate {name!r} flag on {node_id!r}")
            else:
                fields[field] = value
                if name == "awayref":
                    away_token = token
        else:  # a flag error has already recovered to the next statement
            self.expect_terminator()
        if away_token is not None and "is_undeveloped" not in fields:
            misuse(away_token, f"'awayref' on claim {node_id!r} requires the 'undeveloped' flag")
            del fields["away_ref"]
        if first is None:
            self.elements[node_id] = Element(node_id, kind, statement.value, span=id_token.span, **fields)

    def _flag_value(self, token: _Token) -> object | None:
        """The payload of the flag `token` (True for a bare flag); None after a P0 error."""
        if token.text in BOOL_FLAGS:
            return True
        if token.text == "concern":
            concern = self.accept(CONCERN_KINDS)
            if concern is None:
                self.error("expected 'safety' or 'effectiveness'")
            return concern
        if token.text != "awayref":
            self.error(f"unknown flag {token.text!r}", token.span)
            return None
        case_token = self.expect("ident", "case id after 'awayref'")
        if case_token is None or not self.expect_punct("."):
            return None
        elem_token = self.expect("ident", "element id after '.'")
        return None if elem_token is None else (case_token.text, elem_token.text)

    def _associates(self) -> None:
        self.advance()
        target = self.expect("ident", "case id after 'associates'")
        if target is None:
            self.recover()
            return
        if self.kind is not CaseKind.CLINICAL:
            self._diag("P7", target.span, "'associates' is only allowed in a clinical case")
        elif self.associated is not None:
            self._diag("P7", target.span, "duplicate 'associates' declaration")
        else:
            self.associated = target.text
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
        self.capabilities.append(Capability(name.text, direction, unit.text, low.value, high.value, name.span))
        self.expect_terminator()

    def _edge(self) -> None:
        source = self.advance()
        kind = self.accept(EDGE_KINDS)
        if kind is None:
            self.error("expected 'supportedBy' or 'inContextOf'")
            self.recover()
            return
        target = self.expect("ident", "element id")
        if target is None:
            self.recover()
            return
        self.edges.append((source, kind, target))
        self.expect_terminator()


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
            if self.at_punct("}"):
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
    resolve paths relative to the manifest; an OSError or ValueError it
    raises (a path holding a NUL byte, a file that is not UTF-8) is reported
    as P6. A bundle is produced only when all files load and parse, each
    slot holds a case of the declared kind (P4), case ids are unique (P5),
    and the manifest names a tac and at least one cac (P6).
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
        except (OSError, ValueError) as exc:
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
    return (Bundle(tac, tuple(cacs)) if complete else None), sorted_diagnostics(diagnostics)


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
