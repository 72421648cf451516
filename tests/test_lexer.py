"""Token stream shape, span fidelity, and lexical error reporting."""

import re
import string
from dataclasses import dataclass
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promisegraph.corpus import load_builtin
from promisegraph.lexer import (
    KEYWORDS,
    ParseError,
    ParseFailure,
    TokenKind,
    tokenize,
)
from promisegraph.model import Agent, PromiseGraph, SourceSpan, validate


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text) if t.kind is not TokenKind.EOF]


def test_empty_input_is_just_eof():
    tokens = tokenize("")
    assert [t.kind for t in tokens] == [TokenKind.EOF]
    assert tokens[0].text == ""


def test_keywords_and_identifiers_are_distinguished():
    tokens = tokenize("agent Boeing kind=organization")
    assert [(t.kind, t.text) for t in tokens[:5]] == [
        (TokenKind.KEYWORD, "agent"),
        (TokenKind.IDENTIFIER, "Boeing"),
        (TokenKind.KEYWORD, "kind"),
        (TokenKind.PUNCTUATION, "="),
        (TokenKind.IDENTIFIER, "organization"),
    ]


def test_enum_values_are_plain_identifiers():
    # contextual words like offer/accept are keywords, but kinds and
    # verdicts are ordinary identifiers
    tokens = tokenize("organization imputed kept not-kept")
    assert all(t.kind is TokenKind.IDENTIFIER for t in tokens[:-1])


def test_hyphens_and_underscores_in_identifiers():
    tokens = tokenize("AOA-1 b737_max X-y_z-9")
    assert texts("AOA-1 b737_max X-y_z-9") == ["AOA-1", "b737_max", "X-y_z-9"]
    assert all(t.kind is TokenKind.IDENTIFIER for t in tokens[:-1])


def test_newlines_are_tokens_but_blank_space_is_not():
    assert kinds("a\nb") == [
        TokenKind.IDENTIFIER, TokenKind.NEWLINE, TokenKind.IDENTIFIER,
        TokenKind.EOF,
    ]
    assert kinds("a \t b") == [
        TokenKind.IDENTIFIER, TokenKind.IDENTIFIER, TokenKind.EOF,
    ]


def test_crlf_collapses_to_one_newline_token():
    tokens = tokenize("a\r\nb")
    assert [t.kind for t in tokens] == [
        TokenKind.IDENTIFIER, TokenKind.NEWLINE, TokenKind.IDENTIFIER,
        TokenKind.EOF,
    ]


def test_comments_run_to_end_of_line():
    tokens = tokenize("a # trailing words { } \" \nb")
    assert [t.kind for t in tokens] == [
        TokenKind.IDENTIFIER, TokenKind.NEWLINE, TokenKind.IDENTIFIER,
        TokenKind.EOF,
    ]
    # a comment that ends the input hides every token-like piece in it
    assert kinds('= #"x" a') == [TokenKind.PUNCTUATION, TokenKind.EOF]
    assert kinds('a # b "c { d') == [TokenKind.IDENTIFIER, TokenKind.EOF]


def test_string_escapes_unescape_in_value():
    token = tokenize(r'"a \"quoted\" \\ backslash"')[0]
    assert token.kind is TokenKind.STRING
    assert token.value == 'a "quoted" \\ backslash'
    # .text keeps the raw source slice
    assert token.text == r'"a \"quoted\" \\ backslash"'


def test_unterminated_string_is_a_failure():
    with pytest.raises(ParseFailure) as exc:
        tokenize('promise p { "never closed')
    assert len(exc.value.errors) == 1
    assert "string" in exc.value.errors[0].message


def test_string_may_not_span_lines():
    with pytest.raises(ParseFailure):
        tokenize('"line one\nline two"')


def test_illegal_escape_is_a_failure():
    with pytest.raises(ParseFailure) as exc:
        tokenize(r'"bad \n escape"')
    assert len(exc.value.errors) == 1


def test_illegal_character_is_a_failure():
    with pytest.raises(ParseFailure) as exc:
        tokenize("agent A; agent B")
    error = exc.value.errors[0]
    assert ";" in error.message or "character" in error.message


def test_spans_are_exact_source_slices():
    source = 'promise p1 from A to B, C {\n  offer topic "text"\n}\n'
    for token in tokenize(source):
        assert source[token.span.start:token.span.end] == token.text


def test_line_and_column_are_one_based():
    tokens = tokenize("agent A\nagent B")
    first_b_line = [t for t in tokens if t.text == "B"][0]
    assert (first_b_line.span.line, first_b_line.span.column) == (2, 7)
    assert tokens[0].span.line == 1 and tokens[0].span.column == 1


def test_every_keyword_round_trips():
    for kw in sorted(KEYWORDS):
        token = tokenize(kw)[0]
        assert token.kind is TokenKind.KEYWORD and token.text == kw


@given(st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1)
       .filter(lambda s: s[0].isalpha() and s not in KEYWORDS))
def test_any_wellformed_identifier_lexes_whole(name):
    tokens = tokenize(name)
    assert [t.text for t in tokens[:-1]] == [name]
    assert tokens[0].kind is TokenKind.IDENTIFIER


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40))
def test_tokenize_never_crashes_on_printable_ascii(source):
    try:
        tokens = tokenize(source)
    except ParseFailure as failure:
        assert failure.errors
        return
    # spans must tile onto the source exactly
    for token in tokens:
        assert source[token.span.start:token.span.end] == token.text


@given(st.text(max_size=30))
def test_tokenize_only_raises_parse_failure(source):
    try:
        tokenize(source)
    except ParseFailure:
        pass


# --- differential check against the per-character scanner -------------------
#
# `reference_tokenize` is the hand-rolled scanner the master-pattern lexer
# replaced, kept verbatim apart from its names; `tokenize` must agree with it
# token for token, span for span and error for error.

REFERENCE_PUNCTUATION = frozenset("={}[],")


@dataclass(frozen=True)
class ReferenceToken:
    kind: TokenKind
    text: str
    span: SourceSpan

    @property
    def value(self) -> str:
        if self.kind is not TokenKind.STRING:
            return self.text
        body = self.text[1:-1]
        out = []
        i = 0
        while i < len(body):
            if body[i] == "\\":
                out.append(body[i + 1])
                i += 2
            else:
                out.append(body[i])
                i += 1
        return "".join(out)


def _is_ident_start(ch: str) -> bool:
    return ch.isascii() and ch.isalpha()


def _is_ident_part(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch in "_-")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def span_from(self, start_pos: int, start_line: int, start_col: int) -> SourceSpan:
        return SourceSpan(start_pos, self.pos, start_line, start_col)

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def peek(self) -> Optional[str]:
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]


def reference_tokenize(text: str) -> List[ReferenceToken]:
    scanner = _Scanner(text)
    tokens: List[ReferenceToken] = []

    def fail(message: str, span: SourceSpan) -> None:
        raise ParseFailure([ParseError(message, span)])

    while scanner.peek() is not None:
        start_pos, start_line, start_col = scanner.pos, scanner.line, scanner.column
        ch = scanner.peek()

        if ch == "\n":
            scanner.advance()
            tokens.append(ReferenceToken(TokenKind.NEWLINE, "\n",
                                         scanner.span_from(start_pos, start_line, start_col)))
            continue
        if ch in " \t\r":
            scanner.advance()
            continue
        if ch == "#":
            while scanner.peek() is not None and scanner.peek() != "\n":
                scanner.advance()
            continue
        if ch in REFERENCE_PUNCTUATION:
            scanner.advance()
            tokens.append(ReferenceToken(TokenKind.PUNCTUATION, ch,
                                         scanner.span_from(start_pos, start_line, start_col)))
            continue
        if ch == '"':
            scanner.advance()
            while True:
                nxt = scanner.peek()
                if nxt is None or nxt == "\n":
                    fail("unterminated string literal",
                         scanner.span_from(start_pos, start_line, start_col))
                if nxt == "\\":
                    scanner.advance()
                    esc = scanner.peek()
                    if esc not in ('"', "\\"):
                        fail("illegal escape sequence in string literal",
                             scanner.span_from(start_pos, start_line, start_col))
                    scanner.advance()
                    continue
                scanner.advance()
                if nxt == '"':
                    break
            tokens.append(ReferenceToken(TokenKind.STRING,
                                         text[start_pos:scanner.pos],
                                         scanner.span_from(start_pos, start_line, start_col)))
            continue
        if _is_ident_start(ch):
            while scanner.peek() is not None and _is_ident_part(scanner.peek()):
                scanner.advance()
            word = text[start_pos:scanner.pos]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENTIFIER
            tokens.append(ReferenceToken(kind, word,
                                         scanner.span_from(start_pos, start_line, start_col)))
            continue

        scanner.advance()
        fail("illegal character %r" % ch,
             scanner.span_from(start_pos, start_line, start_col))

    tokens.append(ReferenceToken(TokenKind.EOF, "",
                                 SourceSpan(len(text), len(text), scanner.line, scanner.column)))
    return tokens


def lexed(lex, source):
    """Every token's (kind, text, span, value), or the single error's
    (message, span)."""
    try:
        tokens = lex(source)
    except ParseFailure as failure:
        assert len(failure.errors) == 1
        error = failure.errors[0]
        return ("error", error.message, error.span)
    return [(t.kind, t.text, t.span, t.value) for t in tokens]


EDGE_PIECES = (
    '"', '\\', "\r\n", "\n", "\r", "#", "=", "{", "}", "[", "]", ",", ";",
    " ", "\t", "é", "—", "\U0001d538", "\x00", "a", "Z9", "b-_", "0", "-",
    "_", '\\"', "\\\\", *sorted(KEYWORDS),
)

edge_sources = st.lists(st.sampled_from(EDGE_PIECES), max_size=40).map("".join)


@settings(max_examples=500)
@given(edge_sources)
def test_tokenize_matches_reference_on_edge_cases(source):
    assert lexed(tokenize, source) == lexed(reference_tokenize, source)


def test_tokenize_matches_reference_on_corpus():
    source = load_builtin()
    assert lexed(tokenize, source) == lexed(reference_tokenize, source)


@given(st.data())
def test_tokenize_matches_reference_on_corpus_slices(data):
    source = load_builtin()
    start = data.draw(st.integers(0, len(source)))
    end = data.draw(st.integers(start, min(len(source), start + 400)))
    piece = source[start:end]
    assert lexed(tokenize, piece) == lexed(reference_tokenize, piece)


def test_error_spans_match_reference():
    for source in ('x "open', 'x "open\nnext', '"bad \\n"', '"end \\', 'a\n  é',
                   '"ok" \x00', '"\\"\\\\', '\n\n  "a\\"b', 'a  @', 'a \t"open',
                   'a\r\n  # c\n \t@'):
        assert lexed(tokenize, source) == lexed(reference_tokenize, source)
        assert lexed(tokenize, source)[0] == "error"
    # blanks and a comment before EOF leave the EOF token after them
    assert lexed(tokenize, 'a # note') == lexed(reference_tokenize, 'a # note')


# --- span semantics: code-point offsets into the decoded text ----------------

BLANKS_AND_COMMENTS = re.compile(r"(?:[ \t\r]+|#[^\n]*)*")


def _string_literal(body):
    return '"%s"' % body.replace("\n", "").replace("\\", "\\\\").replace('"', '\\"')


def _comment(body):
    return "#" + body.replace("\n", "")


lexable_sources = st.lists(
    st.one_of(
        st.sampled_from(("\n", " ", "\t", "\r", "=", "{", "}", "[", "]", ",", "agent", "X-1")),
        st.text(max_size=8).map(_string_literal),
        st.text(max_size=8).map(_comment),
    ),
    max_size=30,
).map("".join)


def assert_spans_are_code_point_slices(source):
    tokens = tokenize(source)
    previous_end = 0
    for token in tokens:
        span = token.span
        assert source[span.start:span.end] == token.text
        assert BLANKS_AND_COMMENTS.fullmatch(source, previous_end, span.start)
        line_start = source.rfind("\n", 0, span.start) + 1
        assert span.line == source.count("\n", 0, span.start) + 1
        assert span.column == span.start - line_start + 1
        previous_end = span.end
    assert tokens[-1].kind is TokenKind.EOF
    assert tokens[-1].span.start == len(source)


@given(st.one_of(st.text(), lexable_sources))
def test_spans_are_code_point_slices_of_the_source(source):
    try:
        tokenize(source)
    except ParseFailure:
        return
    assert_spans_are_code_point_slices(source)


def test_spans_after_non_ascii_count_code_points():
    source = 'agent A\n"café — \U0001d538" B'
    tokens = tokenize(source)
    b = [t for t in tokens if t.text == "B"][0]
    assert (b.span.start, b.span.column) == (len(source) - 1, len(source) - 8)
    assert len(source.encode("utf-8")) > len(source)
    assert_spans_are_code_point_slices(source)


def test_token_span_is_a_validated_source_span():
    token = tokenize("agent A")[1]
    assert token.span == SourceSpan(6, 7, 1, 7)
    assert type(token.span) is SourceSpan
    # a span is checked where a graph is: `validate` rejects a declaration
    # that carries the span of a broken token
    for broken, problem in [(token._replace(line=0), "has a line or column below 1"),
                            (token._replace(start=8), "starts beyond its end")]:
        errors = validate(PromiseGraph(agents={"A": Agent("A", span=broken.span)}))
        assert [(e.locator, e.message) for e in errors] == [
            (("agents", 0, "span"), "agent 'A' span " + problem)]
