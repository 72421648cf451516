"""Grammar coverage, error recovery, and multi-error reporting."""

import random
from collections import Counter

import pytest

from promisegraph import corpus
from promisegraph.model import (
    Agent,
    AgentKind,
    Assessment,
    Imposition,
    ImpositionKind,
    Polarity,
    Promise,
    Provenance,
    Superagent,
    Verdict,
)
from promisegraph.parser import (
    FORMS,
    POLARITIES,
    Document,
    _describe,
    parse,
)
from promisegraph.lexer import (
    KEYWORDS,
    ParseFailure,
    TokenKind,
    tokenize,
)

from conftest import AOA_TOY, BROKEN_TOY, CLEAN_TOY
from mutation import mutate
from reference_parser import _ITEM_PARSERS, _Parser


def only_item(source):
    document = parse(source)
    assert len(document.items) == 1
    return document.items[0]


def test_the_keywords_are_the_grammar_words_and_the_polarities():
    """A template's lower-case pieces are the words it expects; one missing
    from KEYWORDS would be read as a name slot, and nothing else would say so."""
    words = {piece for template, _ in FORMS.values() for piece in template.split()
             if piece.islower()}
    assert KEYWORDS == words | set(POLARITIES)


def test_agent_minimal():
    item = only_item("agent Boeing")
    assert isinstance(item, Agent)
    assert item.id == "Boeing" and item.kind is AgentKind.SYSTEM


def test_agent_with_kind():
    item = only_item("agent MCAS kind=software")
    assert item.kind is AgentKind.SOFTWARE


def test_agent_rejects_unknown_kind():
    with pytest.raises(ParseFailure) as exc:
        parse("agent X kind=airplane")
    assert "airplane" in str(exc.value.errors[0])


def test_superagent_members():
    item = only_item("superagent Public { Boeing, Pilots, FAA }")
    assert isinstance(item, Superagent)
    assert item.members == frozenset({"Boeing", "Pilots", "FAA"})


def test_superagent_requires_members():
    with pytest.raises(ParseFailure):
        parse("superagent Empty { }")


def test_promise_full_form():
    item = only_item(
        'promise p1 from A to B, C scope [S] provenance=inferred {\n'
        '    offer topic-x "body text" behalf D affects [B] condition "when asked"\n'
        '}'
    )
    assert isinstance(item, Promise)
    assert item.id == "p1"
    assert item.promiser == "A"
    assert item.promisees == frozenset({"B", "C"})
    assert item.scope == frozenset({"S"})
    assert item.provenance is Provenance.INFERRED
    assert item.body.polarity is Polarity.OFFER
    assert item.body.topic == "topic-x"
    assert item.body.text == "body text"
    assert item.body.behalf_of == "D"
    assert item.body.affects == frozenset({"B"})
    assert item.body.condition == "when asked"


def test_promise_minimal_form():
    item = only_item("promise p from A to B { accept t }")
    assert item.scope == frozenset()
    assert item.provenance is Provenance.EXPLICIT
    assert item.body.polarity is Polarity.ACCEPT
    assert item.body.text == ""
    assert item.body.behalf_of is None
    assert item.body.affects == frozenset()
    assert item.body.condition is None


def test_promise_scope_may_be_empty():
    # an explicit empty scope is how "no-one else may see this" is written
    item = only_item("promise p from A to B scope [] { offer t }")
    assert item.scope == frozenset()


def test_promise_affects_may_not_be_empty():
    with pytest.raises(ParseFailure):
        parse("promise p from A to B { offer t affects [] }")


def test_promise_body_spans_lines():
    source = (
        "promise p from A\n"
        "    to B,\n"
        "       C\n"
        "{\n"
        "    offer t\n"
        "}"
    )
    # newlines inside the statement header still terminate it
    with pytest.raises(ParseFailure):
        parse(source)
    item = only_item("promise p from A to B, C {\n    offer t\n}")
    assert item.promisees == frozenset({"B", "C"})


def test_newlines_inside_braces_are_ignored():
    item = only_item("superagent G {\n    A,\n    B\n}")
    assert item.members == frozenset({"A", "B"})


def test_imposition_full_form():
    item = only_item('imposition i1 from A to B kind=threat { "pay up" }')
    assert isinstance(item, Imposition)
    assert (item.imposer, item.imposee, item.kind) == ("A", "B", ImpositionKind.THREAT)
    assert item.text == "pay up"


def test_imposition_kind_defaults_to_requirement():
    item = only_item('imposition i1 from A to B { "please" }')
    assert item.kind is ImpositionKind.REQUIREMENT


def test_assessment_forms():
    item = only_item("assessment a1 by X on p1 verdict=not-kept")
    assert isinstance(item, Assessment)
    assert item.verdict is Verdict.NOT_KEPT
    assert item.note is None
    noted = only_item('assessment a2 by X on p2 verdict=kept note "observed"')
    assert noted.note == "observed"


def test_assessment_rejects_unknown_verdict():
    with pytest.raises(ParseFailure):
        parse("assessment a by X on p verdict=maybe")


def test_two_statements_need_a_newline():
    with pytest.raises(ParseFailure) as exc:
        parse("agent A agent B")
    assert any("end of statement" in str(e) for e in exc.value.errors)


def test_comments_and_blank_lines_between_items():
    document = parse(
        "# leading comment\n"
        "\n"
        "agent A\n"
        "   # indented comment\n"
        "agent B\n"
    )
    assert [item.id for item in document.items] == ["A", "B"]


def test_empty_document_is_valid():
    assert parse("") == Document(items=())
    assert parse("\n\n# only comments\n") == Document(items=())


def test_recovery_collects_every_error():
    source = (
        "agent A kind=bogus\n"
        "agent B\n"
        "promise broken from to X { offer t }\n"
        "agent C\n"
        "assessment a by X on p verdict=perhaps\n"
    )
    with pytest.raises(ParseFailure) as exc:
        parse(source)
    assert len(exc.value.errors) == 3


def test_recovery_resumes_at_next_top_level_keyword():
    source = (
        "promise broken from A { offer t }\n"
        "agent Fine\n"
    )
    with pytest.raises(ParseFailure) as exc:
        parse(source)
    # only the broken statement errors; "agent Fine" parses after recovery
    assert len(exc.value.errors) == 1


def test_stray_token_at_top_level():
    with pytest.raises(ParseFailure) as exc:
        parse("flying-circus\n")
    assert "declaration" in exc.value.errors[0].message


def test_error_spans_point_at_the_offending_token():
    source = "agent A kind=bogus"
    with pytest.raises(ParseFailure) as exc:
        parse(source)
    span = exc.value.errors[0].span
    assert source[span.start:span.end] == "bogus"


def test_item_spans_cover_their_statements():
    source = 'promise p from A to B { offer t }'
    item = only_item(source)
    assert source[item.span.start:item.span.end] == source


class ReferenceCursor(_Parser):
    """The earlier cursor, kept as a reference: `peek` and `advance` step
    over soft newlines on every look while depth > 0, and the statement
    loop reads the raw token list through `raw_peek`."""

    def raw_peek(self):
        return self.tokens[self.pos]

    def _skip_soft_newlines(self):
        while self.depth > 0 and self.tokens[self.pos].kind is TokenKind.NEWLINE:
            self.pos += 1

    def peek(self):
        self._skip_soft_newlines()
        return self.tokens[self.pos]

    def advance(self):
        self._skip_soft_newlines()
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        if token.kind is TokenKind.PUNCTUATION:
            if token.text in "{[":
                self.depth += 1
            elif token.text in "}]":
                self.depth = max(0, self.depth - 1)
        self.last = token
        return token

    def recover(self):
        self.depth = 0
        if self.tokens[self.pos].kind is not TokenKind.EOF:
            self.pos += 1
        while True:
            token = self.tokens[self.pos]
            if token.kind is TokenKind.EOF:
                return
            if token.kind is TokenKind.KEYWORD and token.text in _ITEM_PARSERS:
                return
            self.pos += 1


def reference_parse(text):
    """`parse` driven by ReferenceCursor and today's item parsers."""
    parser = ReferenceCursor(tokenize(text))
    items, errors = [], []
    while True:
        while parser.raw_peek().kind is TokenKind.NEWLINE:
            parser.pos += 1
        token = parser.raw_peek()
        if token.kind is TokenKind.EOF:
            break
        try:
            if token.kind is not TokenKind.KEYWORD or token.text not in _ITEM_PARSERS:
                parser.fail("expected a declaration, found %s" % _describe(token))
            items.append(_ITEM_PARSERS[token.text](parser))
            terminator = parser.raw_peek()
            if terminator.kind not in (TokenKind.NEWLINE, TokenKind.EOF):
                parser.fail("expected end of statement, found %s" % _describe(terminator))
        except ParseFailure as failure:
            errors.extend(failure.errors)
            parser.recover()
    if errors:
        raise ParseFailure(errors)
    return Document(tuple(items))


def parse_outcome(parse_fn, text):
    """The Document, or the (message, span) list of a rejection."""
    try:
        return parse_fn(text)
    except ParseFailure as failure:
        return [(error.message, error.span) for error in failure.errors]


SOURCES = [corpus.load_builtin(), CLEAN_TOY, AOA_TOY, BROKEN_TOY]


def mutated_document(rng):
    """`mutate` on one of the sources."""
    return mutate(rng, rng.choice(SOURCES))


def has_soft_newline(text):
    depth = 0
    for token in tokenize(text):
        if token.kind is TokenKind.PUNCTUATION and token.text in "{[":
            depth += 1
        elif token.kind is TokenKind.PUNCTUATION and token.text in "}]":
            depth = max(0, depth - 1)
        elif token.kind is TokenKind.NEWLINE and depth:
            return True
    return False


def test_parse_matches_the_reference_cursor_on_mutated_documents():
    rng = random.Random(20261018)
    tally = Counter()
    for _ in range(5000):
        text = mutated_document(rng)
        expected = parse_outcome(reference_parse, text)
        assert parse_outcome(parse, text) == expected, text
        verdict = "accepted" if isinstance(expected, Document) else "rejected"
        tally[verdict, has_soft_newline(text)] += 1
    assert len(tally) == 4 and min(tally.values()) > 50, tally
