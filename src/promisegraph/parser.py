"""Parser for promise declaration documents.

The grammar is one table, `FORMS`: each declaration keyword maps to a
template, which lists the form's tokens in order, and to the builder that
makes its model record, with the clause defaults applied and a span
covering the statement. Outside braces and brackets a newline ends the
current statement; inside them newlines are insignificant. Two readers
run the table.

For a text of at least `PATTERN_MIN_CHARS` characters, `parse` first
matches whole declarations from the top (`match_declarations`). Each
template compiles to one pattern, on the first such text (`_patterns`),
built from the lexer's rules for blanks, comments, words and string
literals. A pattern and its builder accept exactly what the token parser
accepts without a diagnostic, and make the same record with the same span.
From the first declaration they miss, or from the top of a shorter text,
the token parser reads the rest (`tokenize(text, *position)`), so it owns
every diagnostic: on a grammar error it records one and skips to the next
top-level keyword. On a long clean document it sees only the end.

The token parser runs each template as steps compiled at import, one per
piece, that expect the piece or report what they found. Three rules go
beyond that: `POLARITY`'s words are keywords; a required NAMES slot right
after `[` reports "expected at least one ..." when `]` is next; and an
optional clause is entered when its keyword or STRING is next, or, for a
clause that starts with a name list, unless `]` is next.

Both readers give a builder one slot value per slot, in template order (a
pattern's groups, less its end marker): the word of a NAME or choice, the
source text of a NAMES list (the token parser joins the names with `,`),
the source text of a STRING literal, or None for an omitted clause. A
builder returns None, a miss, when a name is a keyword, which only a
pattern can take. Spans, bodies and promises are made with
`tuple.__new__`, and the builders read a NAMES slot through a table that
each `parse` call makes and drops, keyed by the slot's source text, which
also keeps whether it names a keyword.
"""

from __future__ import annotations

import re
from functools import cache
from typing import (TYPE_CHECKING, Callable, Collection, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .lexer import (
    BLANKS,
    COMMENT,
    EOF,
    IDENTIFIER,
    KEYWORD,
    KEYWORDS,
    NEWLINE,
    PUNCTUATION,
    STRING,
    STRING_LITERAL,
    WORD,
    ParseError,
    ParseFailure,
    Token,
    TokenKind,
    string_value,
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

# each choice slot's words, in the order diagnostics list them
AGENT_KINDS = {k.value: k for k in AgentKind}
PROVENANCES = {p.value: p for p in Provenance}
POLARITIES = {p.value: p for p in Polarity}
IMPOSITION_KINDS = {k.value: k for k in ImpositionKind}
VERDICTS = {v.value: v for v in Verdict}
CHOICES = {"AGENT_KIND": AGENT_KINDS, "PROVENANCE": PROVENANCES, "POLARITY": POLARITIES,
           "IMPOSITION_KIND": IMPOSITION_KINDS, "VERDICT": VERDICTS}

# The clause defaults are the records' own. NO_NAMES is shared by every
# omitted scope and affects clause, and every assessment keeps its default
# ordinal until `lower` numbers them in source order.
DEFAULT_AGENT_KIND = Agent._field_defaults["kind"]
DEFAULT_PROVENANCE = Promise._field_defaults["provenance"]
DEFAULT_IMPOSITION_KIND = Imposition._field_defaults["kind"]
NO_TEXT = Body._field_defaults["text"]
NO_NAMES: FrozenSet[str] = Promise._field_defaults["scope"]
UNNUMBERED = Assessment._field_defaults["ordinal"]
# makes the records built most often, spans, bodies and promises, from every
# field, without the Python frame of their `NamedTuple.__new__`
_new = tuple.__new__

Item = Union[Agent, Superagent, Promise, Imposition, Assessment]

if TYPE_CHECKING:  # annotations only: building these aliases costs every import
    Values = Sequence[Optional[str]]
    Builder = Callable[[SourceSpan, Values, "_Names"], Optional[Item]]
    # a step reads one piece of a template and appends its slot values
    _Step = Callable[["_Parser", list], None]


class Document(NamedTuple):
    """The declarations of one document, as model records in source order."""

    items: Tuple[Item, ...]


class _Names(dict):
    """One `parse` call's NAMES slots: each source text, read once, maps to
    its names, or to None if one is a keyword. A document's lists repeat."""

    def __missing__(self, listed: Optional[str]) -> Optional[FrozenSet[str]]:
        text = listed or ""  # None: an omitted clause, or `scope [ ]`
        if "#" in text:  # a comment runs to the end of its line
            text = "".join(line.partition("#")[0] for line in text.split("\n"))
        names = frozenset(map(str.strip, text.split(","))) if text else NO_NAMES
        self[listed] = names = names if KEYWORDS.isdisjoint(names) else None
        return names


def _agent(span: SourceSpan, values: Values, names: _Names) -> Optional[Agent]:
    name, kind = values
    if name in KEYWORDS:
        return None
    return Agent(name, AGENT_KINDS.get(kind, DEFAULT_AGENT_KIND), span)


def _superagent(span: SourceSpan, values: Values, names: _Names) -> Optional[Superagent]:
    name, listed = values
    members = names[listed]
    if name in KEYWORDS or members is None:
        return None
    return Superagent(name, members, span)


def _promise(span: SourceSpan, values: Values, names: _Names) -> Optional[Promise]:
    (name, promiser, listed, scoped, provenance, polarity, topic, text, behalf, affected,
     condition) = values
    promisees, scope, affects = names[listed], names[scoped], names[affected]
    if (promisees is None or scope is None or affects is None or name in KEYWORDS
            or promiser in KEYWORDS or topic in KEYWORDS or behalf in KEYWORDS):
        return None
    body = _new(Body, (POLARITIES[polarity], topic, string_value(text) if text else NO_TEXT,
                       behalf, affects, None if condition is None else string_value(condition)))
    return _new(Promise, (name, promiser, promisees, body, scope,
                          PROVENANCES.get(provenance, DEFAULT_PROVENANCE), span))


def _imposition(span: SourceSpan, values: Values, names: _Names) -> Optional[Imposition]:
    name, imposer, imposee, kind, text = values
    if name in KEYWORDS or imposer in KEYWORDS or imposee in KEYWORDS:
        return None
    return Imposition(name, imposer, imposee, IMPOSITION_KINDS.get(kind, DEFAULT_IMPOSITION_KIND),
                      string_value(text), span)


def _assessment(span: SourceSpan, values: Values, names: _Names) -> Optional[Assessment]:
    name, assessor, target, verdict, note = values
    if name in KEYWORDS or assessor in KEYWORDS or target in KEYWORDS:
        return None
    return Assessment(name, assessor, target, VERDICTS[verdict],
                      None if note is None else string_value(note), UNNUMBERED, span)


# The grammar. Each template lists its form's tokens, with optional
# clauses written `(?: ... )?`. A slot is a NAME, a comma-separated list
# of NAMES, a STRING literal or a choice word (a key of CHOICES); after
# its colon comes the noun its diagnostic uses, with `_` for a space.
FORMS: Dict[str, Tuple[str, Builder]] = {
    "agent": ("agent NAME:agent_name (?: kind = AGENT_KIND:agent_kind )?", _agent),
    "superagent": ("superagent NAME:superagent_name { NAMES:member_name }", _superagent),
    "promise": ("promise NAME:promise_name from NAME:promiser_name to NAMES:promisee_name"
                " (?: scope [ (?: NAMES:scope_agent )? ] )?"
                " (?: provenance = PROVENANCE:provenance )?"
                " { POLARITY NAME:topic (?: STRING )? (?: behalf NAME:behalf_agent )?"
                " (?: affects [ NAMES:affected_agent ] )? (?: condition STRING )? }", _promise),
    "imposition": ("imposition NAME:imposition_name from NAME:imposer_name"
                   " to NAME:imposee_name (?: kind = IMPOSITION_KIND:imposition_kind )?"
                   " { STRING }", _imposition),
    "assessment": ("assessment NAME:assessment_name by NAME:assessor_name"
                   " on NAME:target_promise_name verdict = VERDICT:verdict (?: note STRING )?",
                   _assessment),
}


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

    def recover(self) -> None:
        """Skip to the next declaration keyword (or EOF)."""
        self.depth = 0
        if self.tokens[self.pos].kind is not EOF:
            self.pos += 1
        while True:
            token = self.tokens[self.pos]
            if token.kind is EOF:
                return
            if token.kind is KEYWORD and token.text in FORMS:
                return
            self.pos += 1


def _describe(token: Token) -> str:
    if token.kind is EOF:
        return "end of input"
    if token.kind is NEWLINE:
        return "end of line"
    return "%s %r" % (token.kind.value, token.text)


def _steps(pieces: List[str]) -> Tuple[List[_Step], int]:
    """Take the pieces up to the `)?` that closes them; return their steps
    and how many slot values those give."""
    steps, slots, before = [], 0, None
    while pieces and (piece := pieces.pop(0)) != ")?":
        if piece == "(?:":
            step, count = _optional(pieces[0], *_steps(pieces))
        else:
            step, count = _piece(piece, before)
        steps.append(step)
        slots += count
        before = piece
    return steps, slots


def _optional(first: str, steps: List[_Step], slots: int) -> Tuple[_Step, int]:
    """A step that runs the clause's steps when the clause starts next, and
    otherwise gives None for each of its slots."""
    omitted = (None,) * slots
    if first in KEYWORDS:
        kind, word, entered = KEYWORD, first, True
    elif first == "STRING":
        kind, word, entered = STRING, None, True
    else:  # a name list, as in `scope [ ]`
        kind, word, entered = PUNCTUATION, "]", False

    def step(parser: _Parser, values: list) -> None:
        token = parser.tokens[parser.pos]
        if (token.kind is kind and (word is None or token.text == word)) is entered:
            for read in steps:
                read(parser, values)
        else:
            values.extend(omitted)
    return step, slots


def _expect(kind: TokenKind, words: Optional[Collection[str]], what: str, slot: bool,
            unknown: str = "") -> _Step:
    """A step that takes a token of this kind, and one of `words` if they are
    given; it keeps the token's text as a slot value if `slot`. `unknown`, if
    given, is the message for a token of this kind that is not one of `words`."""
    def step(parser: _Parser, values: list) -> None:
        token = parser.tokens[parser.pos]
        if token.kind is not kind or words is not None and token.text not in words:
            parser.fail(unknown % token.text if unknown and token.kind is kind
                        else "expected %s, found %s" % (what, _describe(token)))
        parser.advance()
        if slot:
            values.append(token.text)
    return step


def _piece(piece: str, before: Optional[str]) -> Tuple[_Step, int]:
    """The step that reads one piece, and how many slot values it gives."""
    if piece in KEYWORDS:
        return _expect(KEYWORD, (piece,), "keyword %r" % piece, False), 0
    if piece in "={}[],":
        return _expect(PUNCTUATION, (piece,), repr(piece), False), 0
    if piece == "STRING":
        return _expect(STRING, None, "string literal", True), 1
    kind, _, label = piece.partition(":")
    words = CHOICES.get(kind)
    if words and KEYWORDS.issuperset(words):
        return _expect(KEYWORD, words, "keyword " + " or ".join(map(repr, words)), True), 1
    what = label.replace("_", " ")
    if words:
        unknown = "expected %s (one of %s), found %%r" % (what, ", ".join(words))
        return _expect(IDENTIFIER, words, what, True, unknown), 1
    name = _expect(IDENTIFIER, None, what, True)
    if kind == "NAME":
        return name, 1

    def names(parser: _Parser, values: list) -> None:
        token = parser.tokens[parser.pos]
        if before == "[" and token.kind is PUNCTUATION and token.text == "]":
            parser.fail("expected at least one %s" % what)
        listed: list = []
        name(parser, listed)
        while (token := parser.tokens[parser.pos]).kind is PUNCTUATION and token.text == ",":
            parser.advance()
            name(parser, listed)
        values.append(",".join(listed))
    return names, 1


def _reader(template: str, build: Builder) -> Callable[[_Parser, _Names], Item]:
    steps, _ = _steps(template.split())

    def read(parser: _Parser, names: _Names) -> Item:
        start = parser.tokens[parser.pos]
        values: List[Optional[str]] = []
        for step in steps:
            step(parser, values)
        end = parser.last
        # never None: the token parser takes no keyword as a name
        return build(_new(SourceSpan, (start.start, end.end, start.line, start.column)),
                     values, names)
    return read


_READERS = {keyword: _reader(*form) for keyword, form in FORMS.items()}

# A pattern puts between two tokens the gap the token parser allows there:
# blanks, or inside braces and brackets also comments and newlines. Every
# word ends where the lexer ends it, and a statement ends at a newline, a
# comment or the end of the text. A NAME takes any word, and its builder
# misses on a keyword, because a keyword lookahead in every name slot
# would cost half again the compile time.
# a word ends before any character that WORD's tail class could take
_WORD_END = "(?!%s)" % WORD[WORD.index("]") + 1:-1]
_NAME = WORD + _WORD_END
_SOFT_GAP = r"[ \t\r\n]*(?:%s[ \t\r\n]*)*" % COMMENT


def _compile(template: str) -> re.Pattern[str]:
    """One declaration, then the end of its statement and the gap to the
    next one. Each NAME, NAMES, STRING and choice is a group, and a last,
    empty group marks where the declaration ends."""
    out, depth = [], 0
    for piece in template.split():
        if piece in ("(?:", ")?"):
            out.append(piece)
            continue
        piece = piece.partition(":")[0]  # a slot's label is for diagnostics
        gap = _SOFT_GAP if depth else BLANKS
        if out:
            out.append(gap)
        if piece == "NAME":
            out.append("(%s)" % _NAME)
        elif piece == "NAMES":
            out.append("(%s(?:%s,%s%s)*)" % (_NAME, gap, gap, _NAME))
        elif piece == "STRING":
            out.append("(%s)" % STRING_LITERAL)
        elif piece in CHOICES:
            out.append("(%s)%s" % ("|".join(CHOICES[piece]), _WORD_END))
        elif piece in KEYWORDS:
            out.append(piece + _WORD_END)
        else:
            out.append(re.escape(piece))
            if piece in ("{", "["):
                depth += 1
            elif piece in ("}", "]"):
                depth -= 1
    out.append(r"()%s(?=[#\n]|\Z)%s" % (BLANKS, _SOFT_GAP))
    return re.compile("".join(out))


@cache
def _patterns() -> Dict[str, Tuple[re.Pattern[str], Builder]]:
    """Each form's pattern and builder, keyed by the first two letters of
    its keyword; compiled once, when the first long text needs them."""
    return {keyword[:2]: (_compile(template), build)
            for keyword, (template, build) in FORMS.items()}


def match_declarations(text: str, items: List[Item], names: _Names) -> Tuple[int, int, int]:
    """Append the records of the declarations the patterns match, from the
    top of the text; return where the first declaration they miss starts,
    or the end of the text, as `tokenize` takes it: offset, line, line start."""
    forms = _patterns()
    pos = re.match(_SOFT_GAP, text).end()
    line, counted = 1, 0
    while (form := forms.get(text[pos:pos + 2])) is not None:
        pattern, build = form
        found = pattern.match(text, pos)
        if found is None:
            break
        line += text.count("\n", counted, pos)
        counted = pos
        span = _new(SourceSpan, (pos, found.start(pattern.groups), line,
                                 pos - text.rfind("\n", 0, pos)))
        item = build(span, found.groups()[:-1], names)
        if item is None:
            break
        items.append(item)
        pos = found.end()
    return pos, line + text.count("\n", counted, pos), text.rfind("\n", 0, pos) + 1


# Below this many characters the token parser reads the whole text.
# Compiling the declaration patterns, on the first text this long, takes
# a process about 5-6.5 ms (CPython 3.11.7). Warm, on the corpus's 11,761
# characters, the patterns save 0.05-0.13 us a character (two measurements
# on one host disagree), so they break even somewhere near 40-130 K
# characters. The value stays until a timed workload sits below it.
PATTERN_MIN_CHARS = 65536


def parse(text: str) -> Document:
    """Parse a document; raises ParseFailure carrying every diagnostic."""
    items: List[Item] = []
    names = _Names()
    position = (0, 1, 0)  # offset, line, line start
    if len(text) >= PATTERN_MIN_CHARS:
        position = match_declarations(text, items, names)
    parser = _Parser(tokenize(text, *position))
    errors: List[ParseError] = []

    while True:
        while parser.peek().kind is NEWLINE:
            parser.pos += 1
        token = parser.peek()
        if token.kind is EOF:
            break
        try:
            if token.kind is not KEYWORD or token.text not in _READERS:
                parser.fail("expected a declaration, found %s" % _describe(token))
            items.append(_READERS[token.text](parser, names))
            terminator = parser.peek()
            if terminator.kind not in (NEWLINE, EOF):
                parser.fail("expected end of statement, found %s" % _describe(terminator))
        except ParseFailure as failure:
            errors.extend(failure.errors)
            parser.recover()

    if errors:
        raise ParseFailure(errors)
    return Document(tuple(items))
