"""Parser for promise declaration documents.

Each declaration becomes the model record it declares (`Agent`,
`Superagent`, `Promise`, `Imposition` or `Assessment`), with the clause
defaults applied and spans covering the statement; `lower` only groups
the records and validates them. Outside braces and brackets a newline
ends the current statement; inside them newlines are insignificant, so
promise bodies can span lines.

`parse` first matches whole declarations from the top of a text of at
least `PATTERN_MIN_CHARS` characters, with one compiled pattern per form
(`patterns`). The patterns accept exactly what the token parser here
accepts without a diagnostic, and build the same records. From the first
declaration they miss, or from the top of a shorter text, the
recursive-descent token parser reads the rest (`tokenize(text, *position)`),
so it owns every diagnostic: on a grammar error it records one and skips
to the next top-level keyword, so one run reports every broken statement.
On a long clean document it sees only the end.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, List, NamedTuple, Tuple, Union

from .lexer import (
    EOF,
    IDENTIFIER,
    KEYWORD,
    NEWLINE,
    PUNCTUATION,
    STRING,
    ParseError,
    ParseFailure,
    Token,
    tokenize,
)
from .model import (
    Agent,
    AgentKind,
    Assessment,
    Body,
    Imposition,
    ImpositionKind,
    Polarity,
    Promise,
    Provenance,
    SourceSpan,
    Superagent,
    Verdict,
)

# each choice clause's words, in the order diagnostics list them
AGENT_KINDS = {k.value: k for k in AgentKind}
PROVENANCES = {p.value: p for p in Provenance}
IMPOSITION_KINDS = {k.value: k for k in ImpositionKind}
VERDICTS = {v.value: v for v in Verdict}

# module names: a name lookup is several times cheaper than `Polarity.OFFER`
OFFER, ACCEPT = Polarity

# The clause defaults are the records' own; the declaration patterns'
# builders use them too. NO_NAMES is shared by every omitted scope and
# affects clause, and every assessment keeps its default ordinal until
# `lower` numbers them in source order.
DEFAULT_AGENT_KIND = Agent._field_defaults["kind"]
DEFAULT_PROVENANCE = Promise._field_defaults["provenance"]
DEFAULT_IMPOSITION_KIND = Imposition._field_defaults["kind"]
NO_TEXT = Body._field_defaults["text"]
NO_NAMES: FrozenSet[str] = Promise._field_defaults["scope"]
UNNUMBERED = Assessment._field_defaults["ordinal"]

Item = Union[Agent, Superagent, Promise, Imposition, Assessment]


class Document(NamedTuple):
    """The declarations of one document, as model records in source order."""

    items: Tuple[Item, ...]


class _Parser:
    """A cursor over the token list. Inside braces and brackets (`depth` > 0)
    newlines are soft: `advance` steps over those that follow the token it
    consumes, so `peek` never sees one there, and the statement loop sees
    only the newlines that end statements."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # nesting of {} and []
        self.last = tokens[0]

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not EOF:
            self.pos += 1
        if token.kind is PUNCTUATION:
            if token.text in "{[":
                self.depth += 1
            elif token.text in "}]":
                self.depth = max(0, self.depth - 1)
        if self.depth:
            while self.tokens[self.pos].kind is NEWLINE:
                self.pos += 1
        self.last = token
        return token

    def fail(self, message: str) -> None:
        """Abandon the current statement; the statement loop recovers."""
        raise ParseFailure([ParseError(message, self.peek().span)])

    def match_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind is KEYWORD and token.text == word:
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if token.kind is not KEYWORD or token.text != word:
            self.fail("expected keyword %r, found %s" % (word, _describe(token)))
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        token = self.peek()
        if token.kind is not IDENTIFIER:
            self.fail("expected %s, found %s" % (what, _describe(token)))
        return self.advance()

    def expect_punct(self, char: str) -> Token:
        token = self.peek()
        if token.kind is not PUNCTUATION or token.text != char:
            self.fail("expected %r, found %s" % (char, _describe(token)))
        return self.advance()

    def expect_string(self) -> Token:
        token = self.peek()
        if token.kind is not STRING:
            self.fail("expected string literal, found %s" % _describe(token))
        return self.advance()

    def expect_choice(self, allowed: Dict[str, Enum], what: str) -> Enum:
        token = self.expect_ident(what)
        if token.text not in allowed:
            raise ParseFailure([ParseError(
                "expected %s (one of %s), found %r" % (what, ", ".join(allowed), token.text),
                token.span)])
        return allowed[token.text]

    def recover(self) -> None:
        """Skip to the next declaration keyword (or EOF)."""
        self.depth = 0
        if self.tokens[self.pos].kind is not EOF:
            self.pos += 1
        while True:
            token = self.tokens[self.pos]
            if token.kind is EOF:
                return
            if token.kind is KEYWORD and token.text in _ITEM_PARSERS:
                return
            self.pos += 1


def _describe(token: Token) -> str:
    if token.kind is EOF:
        return "end of input"
    if token.kind is NEWLINE:
        return "end of line"
    return "%s %r" % (token.kind.value, token.text)


def _span_between(start: Token, end: Token) -> SourceSpan:
    return SourceSpan(start.start, end.end, start.line, start.column)


def _ident_list(parser: _Parser, what: str) -> List[str]:
    names = [parser.expect_ident(what).text]
    while parser.peek().kind is PUNCTUATION and parser.peek().text == ",":
        parser.advance()
        names.append(parser.expect_ident(what).text)
    return names


def _parse_agent(parser: _Parser) -> Agent:
    start = parser.expect_keyword("agent")
    name = parser.expect_ident("agent name")
    kind = DEFAULT_AGENT_KIND
    if parser.match_keyword("kind"):
        parser.expect_punct("=")
        kind = parser.expect_choice(AGENT_KINDS, "agent kind")
    return Agent(name.text, kind, _span_between(start, parser.last))


def _parse_superagent(parser: _Parser) -> Superagent:
    start = parser.expect_keyword("superagent")
    name = parser.expect_ident("superagent name")
    parser.expect_punct("{")
    members = _ident_list(parser, "member name")
    parser.expect_punct("}")
    return Superagent(name.text, frozenset(members), _span_between(start, parser.last))


def _parse_bracket_list(parser: _Parser, what: str, allow_empty: bool) -> FrozenSet[str]:
    parser.expect_punct("[")
    closing = parser.peek()
    if closing.kind is PUNCTUATION and closing.text == "]":
        if not allow_empty:
            parser.fail("expected at least one %s" % what)
        parser.advance()
        return NO_NAMES
    names = _ident_list(parser, what)
    parser.expect_punct("]")
    return frozenset(names)


def _parse_body(parser: _Parser) -> Body:
    if parser.match_keyword("offer"):
        polarity = OFFER
    elif parser.match_keyword("accept"):
        polarity = ACCEPT
    else:
        parser.fail("expected keyword 'offer' or 'accept', found %s" % _describe(parser.peek()))
    topic = parser.expect_ident("topic")
    text = NO_TEXT
    if parser.peek().kind is STRING:
        text = parser.advance().value
    behalf = None
    if parser.match_keyword("behalf"):
        behalf = parser.expect_ident("behalf agent").text
    affects = NO_NAMES
    if parser.match_keyword("affects"):
        affects = _parse_bracket_list(parser, "affected agent", allow_empty=False)
    condition = None
    if parser.match_keyword("condition"):
        condition = parser.expect_string().value
    return Body(polarity, topic.text, text, behalf, affects, condition)


def _parse_promise(parser: _Parser) -> Promise:
    start = parser.expect_keyword("promise")
    name = parser.expect_ident("promise name")
    parser.expect_keyword("from")
    promiser = parser.expect_ident("promiser name")
    parser.expect_keyword("to")
    promisees = _ident_list(parser, "promisee name")
    scope = NO_NAMES
    if parser.match_keyword("scope"):
        scope = _parse_bracket_list(parser, "scope agent", allow_empty=True)
    provenance = DEFAULT_PROVENANCE
    if parser.match_keyword("provenance"):
        parser.expect_punct("=")
        provenance = parser.expect_choice(PROVENANCES, "provenance")
    parser.expect_punct("{")
    body = _parse_body(parser)
    parser.expect_punct("}")
    return Promise(name.text, promiser.text, frozenset(promisees), body, scope, provenance,
                   _span_between(start, parser.last))


def _parse_imposition(parser: _Parser) -> Imposition:
    start = parser.expect_keyword("imposition")
    name = parser.expect_ident("imposition name")
    parser.expect_keyword("from")
    imposer = parser.expect_ident("imposer name")
    parser.expect_keyword("to")
    imposee = parser.expect_ident("imposee name")
    kind = DEFAULT_IMPOSITION_KIND
    if parser.match_keyword("kind"):
        parser.expect_punct("=")
        kind = parser.expect_choice(IMPOSITION_KINDS, "imposition kind")
    parser.expect_punct("{")
    text = parser.expect_string().value
    parser.expect_punct("}")
    return Imposition(name.text, imposer.text, imposee.text, kind, text,
                      _span_between(start, parser.last))


def _parse_assessment(parser: _Parser) -> Assessment:
    start = parser.expect_keyword("assessment")
    name = parser.expect_ident("assessment name")
    parser.expect_keyword("by")
    assessor = parser.expect_ident("assessor name")
    parser.expect_keyword("on")
    target = parser.expect_ident("target promise name")
    parser.expect_keyword("verdict")
    parser.expect_punct("=")
    verdict = parser.expect_choice(VERDICTS, "verdict")
    note = None
    if parser.match_keyword("note"):
        note = parser.expect_string().value
    return Assessment(name.text, assessor.text, target.text, verdict, note, UNNUMBERED,
                      _span_between(start, parser.last))


_ITEM_PARSERS = {
    "agent": _parse_agent,
    "superagent": _parse_superagent,
    "promise": _parse_promise,
    "imposition": _parse_imposition,
    "assessment": _parse_assessment,
}


# Below this many characters the token parser reads the whole text.
# Compiling the declaration patterns, at their module's first import, takes
# a process 7-10 ms; on prose like the corpus's they save about 0.1 us a
# character, so they break even near this length.
PATTERN_MIN_CHARS = 65536


def parse(text: str) -> Document:
    """Parse a document; raises ParseFailure carrying every diagnostic."""
    items: List[Item] = []
    position = (0, 1, 0)  # offset, line, line start
    if len(text) >= PATTERN_MIN_CHARS:
        from .patterns import match_declarations
        position = match_declarations(text, items)
    parser = _Parser(tokenize(text, *position))
    errors: List[ParseError] = []

    while True:
        while parser.peek().kind is NEWLINE:
            parser.pos += 1
        token = parser.peek()
        if token.kind is EOF:
            break
        try:
            if token.kind is not KEYWORD or token.text not in _ITEM_PARSERS:
                parser.fail("expected a declaration, found %s" % _describe(token))
            items.append(_ITEM_PARSERS[token.text](parser))
            terminator = parser.peek()
            if terminator.kind not in (NEWLINE, EOF):
                parser.fail("expected end of statement, found %s" % _describe(terminator))
        except ParseFailure as failure:
            errors.extend(failure.errors)
            parser.recover()

    if errors:
        raise ParseFailure(errors)
    return Document(tuple(items))
