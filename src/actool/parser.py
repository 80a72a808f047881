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
from decimal import Decimal
from itertools import product, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, NoReturn

from .diagnostics import Diagnostic, finding, sorted_diagnostics
from .model import (
    CLAIM_ONLY_FLAGS,
    ELEMENT_ORDER,
    FLAG_FIELDS,
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
    _IDENT,
    format_decimal,
)

NODE_KINDS = {kind.value: kind for kind in ElementKind}
CASE_KINDS = {kind.value: kind for kind in CaseKind}
EDGE_KINDS = {kind.value: kind for kind in EdgeKind}
CONCERN_KINDS = {kind.value: kind for kind in ConcernKind}
BOOL_FLAGS = ("root", "public", "undeveloped", "module")


class ParseResult(NamedTuple):
    case: AssuranceCase | None
    diagnostics: list[Diagnostic]


class _Token(NamedTuple):
    kind: str  # ident | string | number | punct | break | eof
    text: str
    start: int  # offset of the first character in the source
    value: object = None


_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?"  # the text of a capability bound
_TOKEN_PATTERN = re.compile(  # blank space and comments, then one token; `\Z` matches the eof token
    r"(?:[ \t\r]+|//[^\n]*)*(?:(?P<break>[\n;])|(?P<punct>[{}\[\],.])"
    r'|(?P<string>"(?:[^"\\]+|\\[\s\S])*(?:(?P<closed>")|\\?\Z))'
    rf"|(?P<ident>{_IDENT})|(?P<number>{_NUMBER})|(?P<other>[\s\S])|(?P<eof>\Z))"
)
_ESCAPE = re.compile(r'\\(["\\])|\\[\s\S]?')  # group 1 is unset for an invalid escape


def _unescaped(escape: re.Match) -> str:  # `_ESCAPE.sub`'s replacement: 3.10 and 3.11 expand `r"\1"` in Python code
    return escape[1] or ""


# After a statement's first identifier: the rest of `ID supportedBy|inContextOf ID`.
_EDGE_AHEAD = re.compile(rf'[ \t\r]*(?:{"|".join(EDGE_KINDS)})(?![A-Za-z0-9_-])[ \t\r]*[A-Za-z]')


# Canonical node lines, each from its indentation through its newline: a one-line string with only `\"` and `\\`
# escapes, a flag tail that `_FLAG_TAILS` reads (see `_line`), no comment. They hold no lexical error, so skipping
# the lexer loses no P0. `_NODE_LINE` groups: 1 kind, 2 id, 3 statement, 4 the flag tail.
# Group 3 runs to a `"` that the tail and the newline follow. It stops at each `"`, so a `;`-joined line fails at
# its first `;`, and it scans far faster than an escape-aware body. A statement holding `\` or a newline must then
# match `_STATEMENT`, the one-line string body with only `\"` and `\\` escapes, or the line is not canonical. The
# tail holds only id characters, `.`, spaces and tabs: no `"`, so group 3 cannot stop at an escaped one.
_NODE_LINE = re.compile(
    rf'[ \t\r;]*({"|".join(NODE_KINDS)})[ \t]+({_IDENT})[ \t]+"([^"]*(?:\\"[^"]*)*)"([A-Za-z0-9_. \t-]*)\r?\n')
_AWAY_REF = re.compile(rf"({_IDENT})\.({_IDENT})\Z")  # the payload of `awayref`, as `print_case` writes it
# Up to 256 edge lines, read from a line start: each is the first line's indentation (group 1), three words with
# one space between them, and the first line's line ending (group 2). An edge line with more blank space between
# or after its words, a comment, or a `;` before it takes the token path. The bound keeps the run's word list small.
_EDGE_WORDS = rf'{_IDENT} (?:{"|".join(EDGE_KINDS)}) {_IDENT}'
_EDGES = re.compile(rf"([ \t]*){_EDGE_WORDS}(\r?\n)(?:\1{_EDGE_WORDS}\2){{0,255}}")
# A capability line as `print_case` writes it, read from a line start: groups 1 direction, 2 name, 3 unit, 4 and 5
# the bounds. One with other blank space, a comment or a `;` takes the token path.
_CAPABILITY_LINE = re.compile(
    rf"[ \t]*(provides|requires) capability ({_IDENT}) unit ({_IDENT}) range \[({_NUMBER}), ({_NUMBER})\]\r?\n")
# The blank and comment lines between two statements, each through its newline
_BLANKS = re.compile(r"(?:[ \t\r;]*(?://[^\n]*)?\n)*")
_STATEMENT = re.compile(r'[^"\\\n]*(?:\\["\\][^"\\\n]*)*\Z')


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

    Tokens are lexed one at a time from offset `pos`, when `peek` first asks
    for one, so the node, edge, capability and blank lines `_CaseParser._line`
    reads with regular expressions, a line or a run a match, are never lexed.
    Tokens carry offsets; `span` builds a SourceSpan only where one is kept:
    for ids, edge sources, capability names and diagnostics. `locate` moves
    `cursor` over the text between two offsets, and spans are asked for in
    text order but for a few within one statement and `_CaseParser`'s
    waiting edges, so a parse stays linear in the text.
    """

    def __init__(self, source: str, file_name: str):
        self.source = source
        self.file_name = file_name
        self.cursor = (0, 1, 0)  # (offset, its line, the offset its line starts at)
        self.diagnostics: list[Diagnostic] = []
        self.pos = 0  # where the next token is lexed
        self.token: _Token | None = None  # the lexed token that `advance` consumes next

    def _lex(self) -> _Token:
        """Lex the token at `pos`, recording a P0 for each invalid piece of text before it."""
        while True:
            match = _TOKEN_PATTERN.match(self.source, self.pos)
            self.pos = match.end()
            kind = match.lastgroup
            text, start, value = match[kind], match.start(kind), None
            if kind == "number":
                value = Decimal(text)
            elif kind == "string":
                closed = match["closed"] is not None
                value = self._unescape(text, start, closed) if "\\" in text or not closed else text[1:-1]
                if not closed:
                    continue
            elif kind == "other":
                self.error(f"unexpected character {text!r}", self.span(start, 1))
                continue
            # as _Token(...), minus the Python-level __new__ that cost a quarter of the loop
            self.token = tuple.__new__(_Token, (kind, text, start, value))
            return self.token

    def _unescape(self, text: str, start: int, closed: bool) -> str:
        """Decode a string token at offset `start`. Each invalid escape and a missing
        closing quote is an error that runs from the opening quote to its end."""
        end = len(text) - closed
        for escape in _ESCAPE.finditer(text, 1, end):
            if escape[1] is None:
                self.error(f"invalid escape sequence {escape[0]!r}", self.span(start, escape.end()))
        if not closed:
            self.error("unterminated string", self.span(start, end))
        return _ESCAPE.sub(_unescaped, text[1:end])

    def locate(self, offset: int) -> tuple[int, int]:
        """The line of `offset` and the offset that line starts at; a `\\n` belongs to the line it ends. The cursor
        moves either way, counting the line breaks it passes, so a span asked for out of order pays for the distance."""
        at, line, line_start = self.cursor
        gap = self.source.count("\n", at, offset) - self.source.count("\n", offset, at)  # one count is empty
        if gap:
            line += gap
            line_start = self.source.rfind("\n", 0, offset) + 1
        self.cursor = (offset, line, line_start)
        return line, line_start

    def span(self, start: int, length: int) -> SourceSpan:
        """The span of `length` characters from offset `start`."""
        line, line_start = self.locate(start)
        return SourceSpan(self.file_name, line, start - line_start + 1, length)

    def span_of(self, token: _Token) -> SourceSpan:
        return self.span(token.start, len(token.text))

    # --- token primitives -------------------------------------------------

    def peek(self) -> _Token:
        return self.token or self._lex()

    def advance(self) -> _Token:
        token = self.token or self._lex()
        if token.kind != "eof":
            self.token = None
        return token

    def at_punct(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.text == text

    def skip_breaks(self) -> None:
        while self.peek().kind == "break":
            self.advance()

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diagnostics.append(finding("P0", span or self.span_of(self.peek()), message))

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

    def drain(self) -> None:
        """Lex the rest of the text, for its P0 errors."""
        while self.advance().kind != "eof":
            pass

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
            self.drain()
            return None
        return id_token

    def statements(self, statement: Callable[[], None], line: Callable[[], bool] = lambda: False) -> None:
        """Call `statement` at each statement up to the closing `}`, after
        which only blank space, `;` and comments may follow. Before a
        statement is lexed, `line` may read it whole and say that it did."""
        while True:
            if self.token is None and line():
                continue
            self.skip_breaks()
            if self.peek().kind == "eof":
                self.error("expected '}'")
                return
            if self.at_punct("}"):
                self.advance()
                self.skip_breaks()
                if self.peek().kind != "eof":
                    self.error("unexpected content after '}'")
                    self.drain()
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
    is checked in `parse`, after the last item: a run of edge lines that
    `_line` reads after all their ends is built there and then, and every
    other edge waits in `waiting` as a plain tuple, with None holding its
    place in `edges`.
    `_line` reads each run of canonical node, edge and capability lines
    without tokens, carrying the line number; `associates` and every other
    statement go to the token path. Of the spans kept, only those `parse`
    makes for waiting edges lie behind `_Parser`'s cursor.
    `elements`, the id dict, becomes the case's index; an edge's ends are
    its id strings, taken from the ends' elements, so nothing is interned.
    """

    def __init__(self, source: str, file_name: str):
        super().__init__(source, file_name)
        self.case_id = ""
        self.kind = CaseKind.MONOLITHIC
        self.elements: dict[str, Element] = {}
        self.edges: list[Edge | None] = []  # None holds a waiting edge's place
        # (its place in `edges`, source, offset, kind, target, offset) of each waiting edge
        self.waiting: list[tuple[int, str, int, EdgeKind, str, int]] = []
        self.capabilities: list[Capability] = []
        self.associated: str | None = None

    def parse(self) -> ParseResult:
        id_token = self.header("case", self._kind)
        if id_token is None:
            return ParseResult(None, sorted_diagnostics(self.diagnostics))
        self.case_id, case_span = id_token.text, self.span_of(id_token)
        self.statements(self._statement, self._line)
        if self.kind is CaseKind.CLINICAL and self.associated is None:
            message = f"clinical case {self.case_id!r} must declare 'associates'"
            self.diagnostics.append(finding("P7", case_span, message))
        edges, elements, span = self.edges, self.elements, self.span
        for place, source, source_start, kind, target, target_start in self.waiting:
            head, tail = elements.get(source), elements.get(target)
            if head is not None and tail is not None:  # the ends are the id dict's own strings
                edges[place] = Edge(head.id, tail.id, kind, span(source_start, len(source)))
                continue
            for endpoint, start in ((source, source_start), (target, target_start)):
                if endpoint not in elements:
                    message = f"edge references unknown element {endpoint!r}"
                    self.diagnostics.append(finding("P2", span(start, len(endpoint)), message))
        # AssuranceCase's checks hold: an identifier as the id, unique element ids (P1), declared edge ends (P2)
        # and `associates` only in a clinical case (P7)
        case = AssuranceCase._parsed(self.case_id, self.kind, elements, tuple(filter(None, edges)),
                                     tuple(self.capabilities), self.associated, case_span)
        return ParseResult(case, sorted_diagnostics(self.diagnostics))

    def _wait(self, source: str, source_start: int, kind: EdgeKind, target: str, target_start: int) -> None:
        """Hold an edge's place in `edges` until `parse` has read every element."""
        self.waiting.append((len(self.edges), source, source_start, kind, target, target_start))
        self.edges.append(None)

    def _kind(self) -> None:
        self.expect_word("kind")
        what = "case kind ('monolithic', 'technological' or 'clinical')"
        self.kind = CASE_KINDS[self.expect_word(*CASE_KINDS, what=what)]

    def _statement(self) -> None:
        token = self.peek()
        if token.kind != "ident":
            self.fail(f"unexpected token {token.text!r}; expected a statement")
        if _EDGE_AHEAD.match(self.source, token.start + len(token.text)):  # even when the source is a keyword
            self._edge()
        elif token.text in NODE_KINDS:
            self._node()
        elif token.text == "associates":
            self._associates()
        elif token.text in ("provides", "requires"):
            self._capability()
        else:
            self._edge()

    def _line(self) -> bool:
        """Read the run of canonical node, edge and capability lines at `pos` as `_node`, `_edge` and `_capability`
        would, and say whether it read anything. A node line, LF or CRLF, takes one `_NODE_LINE` match and a lookup of
        its flag tail in `_FLAG_TAILS` (`print_case`'s flag texts), on a miss once more with its away reference split
        off. A run of edge lines that starts at a line start and keeps one indentation and one line ending takes one
        `_EDGES` match, a capability line at a line start one `_CAPABILITY_LINE` match, and the blank and comment lines
        between two statements one `_BLANKS` match. A run of edges whose ends are all declared is built here with
        `map`; in a run with a forward reference every edge waits, as `_edge`'s do, for P2. The run stops, with `pos`
        at the start of the line, at any other text: a node line whose tail misses (flags out of `print_case`'s order,
        repeated, misused (P3), spaced otherwise or followed by blanks), a duplicate id (P1), an edge line with more
        blank space than one space between or after its words, or after a `;`, and a capability line spaced otherwise,
        ended by a comment, after a `;` or holding a P0."""
        source, elements, edges, file_name = self.source, self.elements, self.edges, self.file_name
        match_node, match_edges, match_blanks = _NODE_LINE.match, _EDGES.match, _BLANKS.match
        new, get, pos, start, flag_tails = tuple.__new__, elements.get, self.pos, self.pos, _FLAG_TAILS
        line, line_start = self.locate(pos)  # of `pos`, carried from line to line
        while True:
            if match := match_node(source, pos):
                kind, name, text, tail = match.groups()
                flags, away = (table := flag_tails[kind]).get(tail), None
                if flags is None:  # an away reference, after flags that read `undeveloped` (flags[3])
                    head, _, away = tail.partition(" awayref ")
                    if (flags := table.get(head)) is None or not (flags[3] and (away := _AWAY_REF.match(away))):
                        break
                    away = away.groups()
                if name in elements or ("\\" in text or "\n" in text) and not _STATEMENT.match(text):
                    break  # P1, or a statement that is not a one-line string
                text = _ESCAPE.sub(_unescaped, text) if "\\" in text else text
                kind, root, public, undeveloped, module, concern = flags
                # Element(...), minus its checks: `_IDENT` is the model's id pattern
                span = new(SourceSpan, (file_name, line, match.start(2) - line_start + 1, len(name)))
                elements[name] = new(Element, (
                    name, kind, text, root, public, undeveloped, module, concern, away, span))
                pos = line_start = match.end()
                line += 1
            elif pos == line_start and (match := match_edges(source, pos)):
                words = match[0].split()
                indent, count = len(match[1]), len(words) // 3
                # SourceSpan(...) and Edge(...), minus their checks: line and column are at least 1; an edge's ends are
                # its elements' own id strings
                if all(heads := [*map(get, sources := words[0::3])]) and all(tails := [*map(get, words[2::3])]):
                    spans = zip(repeat(file_name), range(line, line + count), repeat(indent + 1), map(len, sources))
                    edges += map(new, repeat(Edge), zip(map(itemgetter(0), heads), map(itemgetter(0), tails),
                                                         map(EDGE_KINDS.__getitem__, words[1::3]),
                                                         map(new, repeat(SourceSpan), spans)))
                else:  # a forward reference: every edge of the run waits, as `_edge`'s do
                    at, rest = pos + indent, indent + 2 + len(match[2])  # each line's length but for its three words
                    for edge_source, edge, target in zip(*[iter(words)] * 3):
                        self._wait(edge_source, at, EDGE_KINDS[edge], target, at + len(edge_source) + len(edge) + 2)
                        at += len(edge_source) + len(edge) + len(target) + rest
                line += count
                pos = line_start = match.end()
            elif pos == line_start and (match := _CAPABILITY_LINE.match(source, pos)):
                direction, name, unit, low, high = match.groups()
                # Capability(...), minus its checks: two identifiers and two finite bounds
                span = new(SourceSpan, (file_name, line, match.start(2) - line_start + 1, len(name)))
                self.capabilities.append(new(Capability, (name, Direction(direction), unit, Decimal(low),
                                                          Decimal(high), span)))
                pos = line_start = match.end()
                line += 1
            elif (end := match_blanks(source, pos).end()) != pos:
                line += source.count("\n", pos, end)
                pos = line_start = end
            else:
                break
        self.pos, self.cursor = pos, (pos, line, line_start)
        return pos != start

    def _node(self) -> None:
        kind = NODE_KINDS[self.advance().text]
        id_token = self.expect("ident", "element id")
        statement = self.expect("string", "statement string")
        node_id = id_token.text
        first = self.elements.get(node_id)
        if first is not None:
            message = f"duplicate element id {node_id!r} (first declared at line {first.span.line})"
            self.diagnostics.append(finding("P1", self.span_of(id_token), message, (self.case_id, node_id)))

        def misuse(token: _Token, message: str) -> None:
            if first is None:
                self.diagnostics.append(finding("P3", self.span_of(token), message, (self.case_id, node_id)))

        fields: dict[str, object] = {}
        away_token: _Token | None = None
        try:
            while self.peek().kind == "ident":
                token = self.advance()
                value = self._flag_value(token)
                name, field = token.text, FLAG_FIELDS[token.text]
                if name in CLAIM_ONLY_FLAGS and kind is not ElementKind.CLAIM:
                    flag = f"flag {name!r}" if name in BOOL_FLAGS else repr(name)
                    misuse(token, f"{flag} is not allowed on {kind.value} {node_id!r}")
                elif name not in BOOL_FLAGS and field in fields:  # a flag with a payload, repeated
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
            self.elements[node_id] = Element(node_id, kind, statement.value, span=self.span_of(id_token), **fields)

    def _flag_value(self, token: _Token) -> object:
        """The payload of the flag `token` (True for a bare flag)."""
        if token.text in BOOL_FLAGS:
            return True
        if token.text == "concern":
            return CONCERN_KINDS[self.expect_word(*CONCERN_KINDS, what="'safety' or 'effectiveness'")]
        if token.text != "awayref":
            self.fail(f"unknown flag {token.text!r}", self.span_of(token))
        case_token = self.expect("ident", "case id after 'awayref'")
        self.expect_punct(".")
        return case_token.text, self.expect("ident", "element id after '.'").text

    def _associates(self) -> None:
        self.advance()
        target = self.expect("ident", "case id after 'associates'")
        if self.kind is not CaseKind.CLINICAL:
            message = "'associates' is only allowed in a clinical case"
        elif self.associated is not None:
            message = "duplicate 'associates' declaration"
        else:
            self.associated, message = target.text, None
        if message is not None:
            self.diagnostics.append(finding("P7", self.span_of(target), message))
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
        self.capabilities.append(Capability(name.text, direction, unit.text, low.value, high.value, self.span_of(name)))
        self.expect_terminator()

    def _edge(self) -> None:
        source = self.advance()
        kind = EDGE_KINDS[self.expect_word(*EDGE_KINDS, what="'supportedBy' or 'inContextOf'")]
        target = self.expect("ident", "element id")
        self._wait(source.text, source.start, kind, target.text, target.start)
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
    entries: list[tuple[str, str, SourceSpan]] = []  # (slot, path, span of the path)

    def entry() -> None:
        slot = parser.expect_word("tac", "cac", what=f"'tac' or 'cac' entry, found {parser.peek().text!r}")
        path = parser.expect("string", "file path string")
        entries.append((slot, path.value, parser.span_of(path)))
        parser.expect_terminator()

    id_token = parser.header("bundle")
    if id_token is not None:
        parser.statements(entry)
    diagnostics = parser.diagnostics

    expected = {"tac": CaseKind.TECHNOLOGICAL, "cac": CaseKind.CLINICAL}
    tac: AssuranceCase | None = None
    tac_seen = False
    cacs: list[AssuranceCase] = []
    case_ids: dict[str, str] = {}
    for slot, path, span in entries:
        if slot == "tac":
            if tac_seen:
                diagnostics.append(finding("P6", span, "duplicate 'tac' entry"))
                continue
            tac_seen = True
        try:
            text = file_loader(path)
        except (OSError, ValueError) as exc:
            diagnostics.append(finding("P6", span, f"cannot read case file {path!r}: {exc}"))
            continue
        case, case_diagnostics = parse_case(text, path)
        diagnostics.extend(case_diagnostics)
        if case is None:
            continue
        if case.kind is not expected[slot]:
            message = f"bundle slot '{slot}' requires a {expected[slot].value} case, "
            diagnostics.append(finding("P4", span, message + f"but {path!r} declares a {case.kind.value} case"))
            continue
        if case.id in case_ids:
            message = f"duplicate case id {case.id!r} in bundle (also in {case_ids[case.id]!r})"
            diagnostics.append(finding("P5", span, message))
            continue
        case_ids[case.id] = path
        if slot == "tac":
            tac = case
        else:
            cacs.append(case)
    eof_span = parser.span_of(parser.peek())
    if id_token is not None and not tac_seen:
        diagnostics.append(finding("P6", eof_span, "bundle requires a tac entry"))
    if id_token is not None and not any(slot == "cac" for slot, _, _ in entries):
        diagnostics.append(finding("P6", eof_span, "bundle requires at least one cac"))
    complete = tac is not None and cacs and len(cacs) + 1 == len(entries)  # no entry was dropped
    return (Bundle(tac, tuple(cacs)) if complete else None), sorted_diagnostics(diagnostics)


# The text of each combination of the BOOL_FLAGS' values
_BOOL_FLAG_TEXT = {values: "".join(f" {flag}" for flag, value in zip(BOOL_FLAGS, values) if value)
                   for values in product((False, True), repeat=len(BOOL_FLAGS))}
# The text of a concern flag, and the flag tails that `_line` reads: for each node kind's text, each tail that
# `print_case` writes after such a node's statement but an away reference, read as the kind and the values of the
# BOOL_FLAGS and of `concern`
_CONCERN_TEXT = {None: "", **{concern: f" concern {concern._value_}" for concern in ConcernKind}}
_FLAG_TAILS = {kind._value_: {text + _CONCERN_TEXT[concern]: (kind, *values, concern)
                              for values, text in _BOOL_FLAG_TEXT.items() for concern in _CONCERN_TEXT
                              if kind is ElementKind.CLAIM or set(text.split()).isdisjoint(CLAIM_ONLY_FLAGS)}
               for kind in ElementKind}


def print_case(case: AssuranceCase) -> str:
    """Emit canonical DSL text that reparses to a structurally equal case.

    Elements are sorted by id, edges by (source, kind, target), capabilities
    by (direction, name); this is the formatting `fmt` checks against. An
    enum's text is read as `_value_`, an attribute, not through the `value`
    property, which costs ten times as much. Each edge line is sorted as a
    string: an id holds no character at or below the space that separates the
    line's words, so `"  SRC KIND TGT"` sorts as (source, kind, target) does.
    """
    nodes, flag_text = [], _BOOL_FLAG_TEXT
    elements = sorted(case.elements, key=ELEMENT_ORDER)
    for name, kind, statement, root, public, undeveloped, module, concern, away, _ in elements:
        flags = flag_text[root, public, undeveloped, module]  # `Element` holds each flag as a bool
        if concern is not None:
            flags += _CONCERN_TEXT[concern]
        if away is not None:
            flags += f" awayref {away[0]}.{away[1]}"
        statement = statement.replace("\\", "\\\\").replace('"', '\\"')
        nodes.append(f'  {kind._value_} {name} "{statement}"{flags}')
    edges = [f"  {source} {kind._value_} {target}" for source, target, kind, _ in case.edges]
    edges.sort()
    lines = [f"case {case.id} kind {case.kind._value_} {{"]
    for section in (
        [] if case.associated_tac is None else [f"  associates {case.associated_tac}"],
        nodes,
        edges,
        [
            f"  {c.direction._value_} capability {c.name} unit {c.unit} "
            f"range [{format_decimal(c.low)}, {format_decimal(c.high)}]"
            for c in sorted(case.capabilities, key=lambda c: (c.direction._value_, c.name, c.unit, c.low, c.high))
        ],
    ):
        if section:
            lines += [""] * (len(lines) > 1) + section  # a blank line between sections
    lines.append("}\n")
    return "\n".join(lines)  # one join: a `+` after it would copy the whole text again
