"""Parser and pretty-printer for the assurance-case DSL.

Case files (`.acd`) hold one `case ID kind KIND { ... }` block whose items are
node declarations, edges, capability declarations and (for clinical cases) an
`associates` line. Bundle manifests (`.acb`) list one `tac` entry and one or
more `cac` entries with paths resolved by the caller-supplied loader.

Parsing is total, so one run reports every diagnosable error. A syntax
error (P0) skips to the next statement boundary (newline, `;` or `}`) and
parsing goes on; an error in a node's flags keeps the node; an error in the
header gives no case or bundle. `_Parser` states how the code keeps this.
A case value is produced whenever the case header parses; offending items
are dropped so the resulting value never violates the model invariants.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import Callable, NamedTuple, NoReturn

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


class ParseResult(NamedTuple):
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


class _Skip(Exception):
    """Raised by a primitive after it has recorded its P0 error."""


class _Parser:
    """Token primitives, the block header and the statement loop shared by
    case files and bundle manifests.

    Recovery contract: a primitive returns a valid token or value, or records
    one P0 error and raises `_Skip`. Three places catch it. The statement
    loop skips to the next statement boundary and goes on. A header error
    gives no case and no bundle. An error in a node's flags or terminator
    also skips to the boundary, but keeps the node with the flags read
    before the error.
    """

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

    def skip_breaks(self) -> None:
        while self.peek().kind == "break":
            self.advance()

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diagnostics.append(
            Diagnostic("P0", Severity.ERROR, span or self.peek().span, message)
        )

    def fail(self, message: str, span: SourceSpan | None = None) -> NoReturn:
        self.error(message, span)
        raise _Skip

    def recover(self) -> None:
        """Skip to the next statement boundary: past a break, or before `}`/eof."""
        while self.peek().kind != "eof" and not self.at_punct("}"):
            if self.advance().kind == "break":
                return

    def expect_word(self, *words: str, what: str = "") -> str:
        """Consume an identifier that is one of `words` and return it; `what`
        names the choice in the error (default: the first word)."""
        token = self.peek()
        if token.kind != "ident" or token.text not in words:
            self.fail(f"expected {what or repr(words[0])}")
        return self.advance().text

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            self.fail(f"expected {what}")
        return self.advance()

    def expect_punct(self, text: str) -> None:
        if not self.at_punct(text):
            self.fail(f"expected '{text}'")
        self.advance()

    def expect_terminator(self) -> None:
        if self.peek().kind == "break":
            self.advance()
        elif self.peek().kind != "eof" and not self.at_punct("}"):
            self.fail("expected end of statement")

    # --- blocks -------------------------------------------------------------

    def header(self, word: str, rest: Callable[[], None] = lambda: None) -> _Token | None:
        """Read `WORD ID`, then `rest`, then `{`; the id token, or None after a P0 error."""
        self.skip_breaks()
        try:
            self.expect_word(word)
            id_token = self.expect("ident", f"{word} id")
            rest()
            self.skip_breaks()
            self.expect_punct("{")
        except _Skip:
            return None
        return id_token

    def statements(self, statement: Callable[[], None]) -> None:
        """Call `statement` at each statement up to the closing `}`, after
        which only blank space, `;` and comments may follow."""
        while True:
            self.skip_breaks()
            if self.peek().kind == "eof":
                self.error("expected '}'")
                return
            if self.at_punct("}"):
                self.advance()
                self.skip_breaks()
                if self.peek().kind != "eof":
                    self.error("unexpected content after '}'")
                return
            try:
                statement()
            except _Skip:
                self.recover()


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
        id_token = self.header("case", self._kind)
        if id_token is None:
            return ParseResult(None, sorted_diagnostics(self.diagnostics))
        self.case_id = id_token.text
        self.statements(self._statement)
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

    def _kind(self) -> None:
        self.expect_word("kind")
        what = "case kind ('monolithic', 'technological' or 'clinical')"
        self.kind = CASE_KINDS[self.expect_word(*CASE_KINDS, what=what)]

    def _statement(self) -> None:
        token = self.peek()
        if token.kind != "ident":
            self.fail(f"unexpected token {token.text!r}; expected a statement")
        if token.text in NODE_KINDS:
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
        statement = self.expect("string", "statement string")
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
        try:
            while self.peek().kind == "ident":
                token = self.advance()
                value = self._flag_value(token)
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
            self.expect_terminator()
        except _Skip:  # the node keeps the flags read before the error
            self.recover()
        if away_token is not None and "is_undeveloped" not in fields:
            misuse(away_token, f"'awayref' on claim {node_id!r} requires the 'undeveloped' flag")
            del fields["away_ref"]
        if first is None:
            self.elements[node_id] = Element(node_id, kind, statement.value, span=id_token.span, **fields)

    def _flag_value(self, token: _Token) -> object:
        """The payload of the flag `token` (True for a bare flag)."""
        if token.text in BOOL_FLAGS:
            return True
        if token.text == "concern":
            return CONCERN_KINDS[self.expect_word(*CONCERN_KINDS, what="'safety' or 'effectiveness'")]
        if token.text != "awayref":
            self.fail(f"unknown flag {token.text!r}", token.span)
        case_token = self.expect("ident", "case id after 'awayref'")
        self.expect_punct(".")
        return case_token.text, self.expect("ident", "element id after '.'").text

    def _associates(self) -> None:
        self.advance()
        target = self.expect("ident", "case id after 'associates'")
        if self.kind is not CaseKind.CLINICAL:
            self._diag("P7", target.span, "'associates' is only allowed in a clinical case")
        elif self.associated is not None:
            self._diag("P7", target.span, "duplicate 'associates' declaration")
        else:
            self.associated = target.text
        self.expect_terminator()

    def _capability(self) -> None:
        direction = Direction(self.advance().text)
        self.expect_word("capability")
        name = self.expect("ident", "capability name")
        self.expect_word("unit")
        unit = self.expect("ident", "unit symbol")
        self.expect_word("range")
        self.expect_punct("[")
        low = self.expect("number", "number")
        self.expect_punct(",")
        high = self.expect("number", "number")
        self.expect_punct("]")
        self.capabilities.append(Capability(name.text, direction, unit.text, low.value, high.value, name.span))
        self.expect_terminator()

    def _edge(self) -> None:
        source = self.advance()
        kind = EDGE_KINDS[self.expect_word(*EDGE_KINDS, what="'supportedBy' or 'inContextOf'")]
        self.edges.append((source, kind, self.expect("ident", "element id")))
        self.expect_terminator()


def parse_case(source: str, file_name: str) -> ParseResult:
    """Parse one `.acd` case file. Never raises on malformed input."""
    return _CaseParser(source, file_name).parse()


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
    parser = _Parser(source, file_name)
    entries: list[tuple[str, _Token]] = []

    def entry() -> None:
        slot = parser.expect_word("tac", "cac", what=f"'tac' or 'cac' entry, found {parser.peek().text!r}")
        entries.append((slot, parser.expect("string", "file path string")))
        parser.expect_terminator()

    id_token = parser.header("bundle")
    if id_token is not None:
        parser.statements(entry)
    diagnostics = parser.diagnostics
    complete = id_token is not None

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
        path = path_token.value
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
    if id_token is not None and not tac_seen:
        fail("P6", eof_span, "bundle requires a tac entry")
    if id_token is not None and not any(slot == "cac" for slot, _ in entries):
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
