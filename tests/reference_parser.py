"""The hand-written token parser that the grammar table replaced, kept as
the test reference for both front-end paths: one function per declaration
form, each reading its tokens in a fixed order. This module does not import
pytest, so scripts can use it too (`scripts/floor_check.py`)."""

from enum import Enum
from typing import Dict, FrozenSet, List

from promisegraph.lexer import (
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
from promisegraph.model import (
    Agent,
    Assessment,
    Body,
    Imposition,
    Polarity,
    Promise,
    SourceSpan,
    Superagent,
)
from promisegraph.parser import (
    AGENT_KINDS,
    DEFAULT_AGENT_KIND,
    DEFAULT_IMPOSITION_KIND,
    DEFAULT_PROVENANCE,
    IMPOSITION_KINDS,
    NO_NAMES,
    NO_TEXT,
    PROVENANCES,
    UNNUMBERED,
    VERDICTS,
    Document,
    _describe,
)
from promisegraph.parser import _Parser as _Cursor

OFFER, ACCEPT = Polarity


class _Parser(_Cursor):
    """The cursor with the methods only the hand-written parsers use."""

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


def hand_parse(text):
    """`parse` on the token path alone, with the hand-written item parsers."""
    parser = _Parser(tokenize(text))
    items, errors = [], []
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
