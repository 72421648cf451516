"""The parser's declaration patterns against the token path.

`parse` matches whole declarations with one pattern each and hands the
text from the first miss to the token parser. Every outcome, records,
spans and diagnostics alike, must equal the hand-written token parser's
over the whole text (`reference_parse`, on `tests/reference_parser.py`),
which the grammar table replaced. `parse` leaves a text shorter than
`PATTERN_MIN_CHARS` to the token parser alone; here the patterns take
every non-empty text.
"""

import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import promisegraph
from promisegraph import corpus, parser, patterns
from promisegraph.lexer import KEYWORDS, ParseFailure, tokenize
from promisegraph.parser import (
    AGENT_KINDS,
    IMPOSITION_KINDS,
    PROVENANCES,
    VERDICTS,
    Document,
    parse,
)
from promisegraph.patterns import match_declarations

from conftest import load_gen
from test_lower import random_document
from test_parser import mutated_document, parse_outcome, reference_parse

SRC = str(pathlib.Path(promisegraph.__file__).resolve().parents[1])


@pytest.fixture(autouse=True, scope="module")
def patterns_at_any_length():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "PATTERN_MIN_CHARS", 1)
        yield


def position(text, offset):
    """The offset with its line and line start, counted from the top."""
    return offset, text.count("\n", 0, offset) + 1, text.rfind("\n", 0, offset) + 1


def pattern_reach(text):
    """'all', 'some' or 'none': how many declarations the patterns took.
    Also checks the line and line start they return with the stop offset."""
    items = []
    stop, line, line_start = match_declarations(text, items)
    assert (stop, line, line_start) == position(text, stop), text
    if stop == len(text):
        return "all"
    return "some" if items else "none"


def assert_same_outcome(text):
    """Equal outcomes; and the patterns take a whole document iff the token
    parser accepts it, so they accept exactly what it accepts."""
    outcome = parse_outcome(parse, text)
    assert outcome == parse_outcome(reference_parse, text), text
    reach = pattern_reach(text)
    assert (reach == "all") is isinstance(outcome, Document), text
    return reach


def test_mutated_documents_match_the_token_path():
    rng = random.Random(20261019)
    tally = Counter()
    for _ in range(5000):
        tally[assert_same_outcome(mutated_document(rng))] += 1
    assert min(tally[reach] for reach in ("all", "some", "none")) > 100, tally


def test_random_documents_match_the_token_path():
    rng = random.Random(20261020)
    tally = Counter()
    for _ in range(300):
        tally[assert_same_outcome(random_document(rng))] += 1
    assert tally["all"] > 250, tally


def test_corpus_and_benchmark_documents_are_matched_whole():
    gen = load_gen()
    texts = [corpus.load_builtin()]
    texts += [make(seed).text for make in (gen.sparse, gen.dense) for seed in (1, 5, 9)]
    for text in texts:
        assert pattern_reach(text) == "all"
        assert parse(text) == reference_parse(text)


def test_a_clean_document_leaves_the_token_parser_only_the_end(monkeypatch):
    lengths = []
    original = parser.tokenize

    def counting(*args):
        tokens = original(*args)
        lengths.append(len(tokens))
        return tokens

    monkeypatch.setattr(parser, "tokenize", counting)
    text = corpus.load_builtin()
    assert parse(text) == reference_parse(text)
    assert lengths == [1]


# Each form with every clause; each {} is a name slot.
EVERY_CLAUSE = [
    "agent {} kind = human",
    "superagent {} {{ {}, {} }}",
    'promise {} from {} to {}, {} scope [ {}, {} ] provenance = inferred'
    ' {{ offer {} "t" behalf {} affects [ {}, {} ] condition "c" }}',
    'imposition {} from {} to {} kind = threat {{ "t" }}',
    'assessment {} by {} on {} verdict = kept note "n"',
]


@pytest.mark.parametrize("template", EVERY_CLAUSE, ids=lambda t: t.split()[0])
def test_a_keyword_in_any_name_slot_is_a_miss(template):
    slots = template.count("{}")
    names = ["N%d" % i for i in range(slots)]
    assert pattern_reach(template.format(*names) + "\n") == "all"
    for slot in range(slots):
        for keyword in sorted(KEYWORDS):
            text = template.format(*names[:slot], keyword, *names[slot + 1:]) + "\n"
            parser._names.cache_clear()
            assert pattern_reach(text) == "none", text
            assert pattern_reach(text) == "none", text  # its name lists are cached now
            assert isinstance(parse_outcome(reference_parse, text), list), text
            assert parse_outcome(parse, text) == parse_outcome(reference_parse, text), text


def test_the_name_list_cache_stays_within_its_bound():
    bound = parser._names.cache_info().maxsize
    assert bound is not None
    parser._names.cache_clear()
    for document in range(3):  # each with twice as many distinct lists as the bound
        text = "".join("superagent G%d { A%d, B%d }\n" % (i, document, i)
                       for i in range(2 * bound))
        assert pattern_reach(text) == "all"
        assert parser._names.cache_info().currsize == bound


def test_parse_is_the_same_on_a_cold_and_a_warm_name_list_cache():
    rng = random.Random(20261019)
    texts = [mutated_document(rng) for _ in range(5000)]
    cold = []
    for text in texts:
        parser._names.cache_clear()
        cold.append(parse_outcome(parse, text))
    assert [parse_outcome(parse, text) for text in texts] == cold


@pytest.mark.parametrize("keyword", sorted(parser.FORMS))
def test_a_pattern_has_one_group_per_slot_the_token_parser_reads(keyword):
    """Both paths hand the builder the same number of slot values: the
    pattern's groups, less its end marker, and the interpreter's slots."""
    template, build = parser.FORMS[keyword]
    pattern, pattern_build = patterns._FORMS[keyword[:2]]
    assert pattern_build is build
    assert pattern.groups - 1 == parser._steps(template.split())[1]


def test_only_a_text_of_pattern_min_chars_goes_to_the_patterns(monkeypatch):
    starts = []
    original = parser.tokenize

    def recording(text, start=0, line=1, line_start=0):
        starts.append(start)
        assert (start, line, line_start) == position(text, start)
        return original(text, start, line, line_start)

    monkeypatch.setattr(parser, "tokenize", recording)
    text = corpus.load_builtin()
    for least, start in ((len(text) + 1, 0), (len(text), len(text))):
        monkeypatch.setattr(parser, "PATTERN_MIN_CHARS", least)
        assert parse(text) == reference_parse(text)
        assert starts.pop() == start


TOKENIZED = [
    "agent A\n\n# comment\nagent B kind=human\r\n",
    "superagent G {\n  A, # one\n  B\n}\npromise p from A to B { offer t }",
    'imposition i from A to B { "\\"x\\"" }  # end',
]


@pytest.mark.parametrize("text", TOKENIZED)
def test_tokenize_from_an_offset_numbers_from_the_top(text):
    everything = tokenize(text)
    for i, token in enumerate(everything):
        assert tokenize(text, *position(text, token.start)) == everything[i:]
        if i:
            # or from the blanks and comment in front of the token
            assert tokenize(text, *position(text, everything[i - 1].end)) == everything[i:]


@pytest.mark.parametrize("text", [t + "\n  x @ y" for t in TOKENIZED])
def test_tokenize_from_an_offset_reports_the_same_lexical_error(text):
    with pytest.raises(ParseFailure) as whole:
        tokenize(text)
    with pytest.raises(ParseFailure) as tail:
        tokenize(text, *position(text, text.rindex("x")))
    assert tail.value.errors == whole.value.errors
    assert whole.value.errors[0].span.line == text.count("\n") + 1


# -- backtracking guards ------------------------------------------------------
# Each input ends in a syntax error after a long run that the patterns repeat
# over. Two unbounded repeats that can split the same text two ways would
# make a failed match quadratic or worse here.

HUGE = 20_000
GUARDED = {
    "to-list": "agent A\npromise p from A to %s { offer t }}\n"
               % ", ".join("N%d" % i for i in range(HUGE)),
    "members": "superagent S {\n%s\n  M, }\n"
               % "".join("  M%d # member %d {x}\n  ,\n" % (i, i) for i in range(HUGE)),
    "blanks": "agent A\nsuperagent S { A" + " \t\r\n" * 25_000 + "B }\n",
    "line-blanks": "agent A kind=human" + " \t\r" * 33_334 + "x\n",
    "comments": "superagent S { A #" + "# {" * 33_334 + "\n",
}


TIME_MATCH = """
import sys, time
from promisegraph.patterns import match_declarations
with open(sys.argv[1], encoding="utf-8", newline="") as source:
    text = source.read()
started = time.perf_counter()
stop, _, _ = match_declarations(text, [])
print(time.perf_counter() - started, stop < len(text))
"""


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_failed_matches_stay_linear(name, tmp_path):
    text = GUARDED[name]
    path = tmp_path / "guarded.pml"
    path.write_text(text, encoding="utf-8", newline="")
    # in a child process, so that a runaway match fails the test, not hangs it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", TIME_MATCH, str(path)], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    elapsed, missed = done.stdout.split()
    assert missed == "True"
    assert float(elapsed) < 1.0, elapsed
    with pytest.raises(ParseFailure) as failure:
        parse(text)
    assert parse_outcome(reference_parse, text) == [
        (error.message, error.span) for error in failure.value.errors]


# -- generated documents --------------------------------------------------------
# Declarations built from tokens and gaps: every optional clause, now and then
# out of order, comments at line ends and inside braces and brackets, tabs,
# `\r\n`, escapes, non-ASCII strings, keywords and glued words in name
# positions, bad choice words, and a missing final newline. A declaration
# drawn as sloppy may take any gap and any string, so the first miss falls
# at any position in the document.

NAMES = ("A", "Bob-2", "c_3", "Zeta", "fromX", "toA", "offering", "kinds", "agent-1")
BAD_CHOICES = ("bogus", "Human", "kept2", "offer", "requirement-x")
LINE_GAPS = (" ", "  ", "\t", " \r", " \t ")
SOFT_GAPS = ("\n", " # note {x} [y]\n", "\r\n\t", "\n# alone\n  ", "#\n")
BAD_GAPS = ("", "\n", " # cut\n", "\x0c")
TERMINATORS = ("\n", "\r\n", " # done\n", "\n\n", "\t\n# after\n")
STRING_PIECES = ("a", " ", "é", "“q”", "#", "{", "]", "\\\"", "\\\\", "—", "agent", "Zürich")
BAD_STRING_PIECES = ("\\n", "\\q", "\n")


@st.composite
def names(draw, sloppy):
    if sloppy and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(sorted(KEYWORDS)))
    return draw(st.sampled_from(NAMES))


@st.composite
def choices(draw, words, sloppy):
    if sloppy and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(BAD_CHOICES))
    return draw(st.sampled_from(sorted(words)))


@st.composite
def strings(draw, sloppy):
    pieces = STRING_PIECES + (BAD_STRING_PIECES if sloppy else ())
    body = "".join(draw(st.lists(st.sampled_from(pieces), max_size=5)))
    closing = '"' if not sloppy or draw(st.integers(0, 5)) else ""
    return '"' + body + closing


@st.composite
def name_list(draw, sloppy, may_be_empty=False):
    items = draw(st.lists(names(sloppy), min_size=0 if may_be_empty or sloppy else 1,
                          max_size=3))
    return [token for i, name in enumerate(items) for token in ([","] if i else []) + [name]]


@st.composite
def declarations(draw):
    sloppy = draw(st.integers(0, 4)) == 0
    name, string = names(sloppy), strings(sloppy)

    def clause(*parts):
        return [draw(part) if isinstance(part, st.SearchStrategy) else part for part in parts]

    form = draw(st.sampled_from(["agent", "superagent", "promise", "imposition",
                                 "assessment"]))
    if form == "agent":
        head = clause("agent", name)
        optional = [clause("kind", "=", choices(AGENT_KINDS, sloppy))]
        tail = []
    elif form == "superagent":
        head = ["superagent", draw(name), "{"] + draw(name_list(sloppy)) + ["}"]
        optional, tail = [], []
    elif form == "promise":
        head = clause("promise", name, "from", name, "to") + draw(name_list(sloppy))
        optional = [["scope", "["] + draw(name_list(sloppy, may_be_empty=True)) + ["]"],
                    clause("provenance", "=", choices(PROVENANCES, sloppy))]
        body = [draw(st.sampled_from(["offer", "accept"])), draw(name)]
        body_options = [[draw(string)], clause("behalf", name),
                        ["affects", "["] + draw(name_list(sloppy)) + ["]"],
                        clause("condition", string)]
        body += draw(ordered(body_options, sloppy))
        tail = ["{"] + body + ["}"]
    elif form == "imposition":
        head = clause("imposition", name, "from", name, "to", name)
        optional = [clause("kind", "=", choices(IMPOSITION_KINDS, sloppy))]
        tail = ["{", draw(string), "}"]
    else:
        head = clause("assessment", name, "by", name, "on", name,
                      "verdict", "=", choices(VERDICTS, sloppy))
        optional = [clause("note", string)]
        tail = []
    tokens = head + draw(ordered(optional, sloppy)) + tail
    return draw(joined(tokens, sloppy))


@st.composite
def ordered(draw, clauses, sloppy):
    """Some of the clauses, in order unless the declaration is sloppy."""
    kept = [c for c in clauses if draw(st.booleans())]
    if sloppy and draw(st.booleans()):
        kept = draw(st.permutations(kept))
    return [token for c in kept for token in c]


def is_word(token):
    return token[:1].isalpha()


@st.composite
def joined(draw, tokens, sloppy):
    out, depth = [tokens[0]], 0
    for before, token in zip(tokens, tokens[1:]):
        if before in ("{", "["):
            depth += 1
        elif before in ("}", "]"):
            depth -= 1
        gaps = LINE_GAPS + (SOFT_GAPS if depth else ())
        if sloppy and draw(st.integers(0, 2)) == 0:
            gaps = gaps + BAD_GAPS + SOFT_GAPS
        elif not (is_word(before) and is_word(token)):
            gaps = gaps + ("",)
        out += [draw(st.sampled_from(gaps)), token]
    return "".join(out)


@st.composite
def generated_documents(draw):
    parts = [draw(st.sampled_from(["", "# header\n", "\n\n", " \t# indented\r\n"]))]
    for text in draw(st.lists(declarations(), max_size=6)):
        parts += [text, draw(st.sampled_from(TERMINATORS))]
    if len(parts) > 1 and draw(st.booleans()):
        parts.pop()  # no final newline
    return "".join(parts)


def test_generated_documents_match_the_token_path():
    """Also checks that the patterns take all, some and none of the
    generated declarations, each more than a few times."""
    tally = Counter()

    @settings(max_examples=500, deadline=None)
    @given(generated_documents())
    def compare(text):
        tally[assert_same_outcome(text)] += 1

    compare()
    assert min(tally[reach] for reach in ("all", "some", "none")) > 20, tally
