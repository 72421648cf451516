"""Tokenizer for the promise-declaration language.

One master pattern is matched at the current position: newlines,
punctuation, string literals and words are tokens. The blanks and `#`
comment in front of a token are matched with it, not as matches of their
own, so each match yields one token; those after the last token are
skipped before EOF. A `Token` is a plain tuple of kind, source slice,
offsets, line and column; its `SourceSpan` is built only when a
diagnostic or a declaration asks for it. Offsets and columns count code
points of the decoded text, and every token's offsets slice exactly its
text out of the source (the lossless-lexing property is tested against
this).
"""

from __future__ import annotations

import re
from enum import Enum
from typing import List, NamedTuple

from .model import SourceSpan

KEYWORDS = frozenset({
    "agent", "superagent", "promise", "imposition", "assessment",
    "from", "to", "scope", "provenance", "kind",
    "offer", "accept", "behalf", "affects", "condition",
    "by", "on", "verdict", "note",
})

# The lexical rules as pattern fragments; the parser's declaration patterns
# are built from the same ones. The lookahead keeps a comment from
# backtracking to expose a token inside it.
BLANKS = r"[ \t\r]*"
COMMENT = r"#[^\n]*(?![^\n])"
WORD = r"[A-Za-z][A-Za-z0-9_-]*"
_STRING_PREFIX = r'"[^"\\\n]*(?:\\["\\][^"\\\n]*)*'
STRING_LITERAL = _STRING_PREFIX + '"'
_TOKEN_RE = re.compile(
    BLANKS + "(?:" + COMMENT + r")?(?:(?P<newline>\n)|(?P<punctuation>[={}\[\],])"
    r"|(?P<string>" + STRING_LITERAL + ")|(?P<word>" + WORD + "))")
_TRAILING_RE = re.compile(BLANKS + "(?:" + COMMENT + ")?")


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    STRING = "string-literal"
    PUNCTUATION = "punctuation"
    NEWLINE = "newline"
    EOF = "eof"


# module names: a name lookup is several times cheaper than `TokenKind.EOF`
KEYWORD, IDENTIFIER, STRING, PUNCTUATION, NEWLINE, EOF = TokenKind


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end, self.line, self.column)

    @property
    def value(self) -> str:
        """Decoded payload: for strings the unescaped content, else the text."""
        return string_value(self.text) if self.kind is STRING else self.text


def string_value(literal: str) -> str:
    """The unescaped content of a string literal's source text."""
    body = literal[1:-1]
    # every escape starts with a backslash; `re` compiles the pattern on first use
    return re.sub(r'\\(["\\])', r"\1", body) if "\\" in body else body


class ParseError(NamedTuple):
    """One diagnostic: a message and the span of the offending text."""

    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return "%d:%d: %s" % (self.span.line, self.span.column, self.message)


class ParseFailure(Exception):
    """Raised when tokenize/parse cannot produce a document."""

    def __init__(self, errors: List[ParseError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


_GROUP_KINDS = {"newline": NEWLINE, "punctuation": PUNCTUATION, "string": STRING}


def _lex_error(text: str, pos: int, line: int, column: int) -> ParseFailure:
    """The error for the text at `pos`, where no token matches."""
    if text[pos] == '"':
        end = re.compile(_STRING_PREFIX).match(text, pos).end()  # `re` caches it
        if end < len(text) and text[end] == "\\":
            message, end = "illegal escape sequence in string literal", end + 1
        else:
            message = "unterminated string literal"
    else:
        message, end = "illegal character %r" % text[pos], pos + 1
    return ParseFailure([ParseError(message, SourceSpan(pos, end, line, column))])


def tokenize(text: str, start: int = 0, line: int = 1, line_start: int = 0) -> List[Token]:
    """Scan the input from offset `start` to its end; raises ParseFailure
    with a single error on the first unterminated string, illegal escape or
    illegal character. `start` must be where a token, or the blanks and
    comment before one, begins; `line` is its line number and `line_start`
    the offset where that line begins, so lines and columns still count
    from the top of the text."""
    tokens: List[Token] = []
    match = _TOKEN_RE.match
    new = tuple.__new__  # skips NamedTuple.__new__'s Python frame
    pos = start
    while (found := match(text, pos)) is not None:
        group = found.lastgroup
        first, end = found.span(group)
        if first == pos:
            first = pos  # share the previous token's `end` int: one per token, not two
        lexeme = text[first:end]
        if group == "word":
            kind = KEYWORD if lexeme in KEYWORDS else IDENTIFIER
        else:
            kind = _GROUP_KINDS[group]
        tokens.append(new(Token, (kind, lexeme, first, end, line, first - line_start + 1)))
        if kind is NEWLINE:
            line, line_start = line + 1, end
        pos = end
    pos = _TRAILING_RE.match(text, pos).end()
    if pos < len(text):
        raise _lex_error(text, pos, line, pos - line_start + 1)
    tokens.append(new(Token, (EOF, "", pos, pos, line, pos - line_start + 1)))
    return tokens
