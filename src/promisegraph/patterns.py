"""Declaration patterns: `parse` reads whole declarations with them first.

Each declaration form has one compiled pattern, built from the lexer's
rules for blanks, comments, words and string literals. A pattern and its
builder accept exactly what the token parser accepts without a
diagnostic, and the builder makes the same record with the same span. At
the first declaration they miss, `parse` hands the rest of the text to
the token parser, which owns every diagnostic. The patterns compile when
this module is first imported, which `parse` does only for a text of at
least `PATTERN_MIN_CHARS` characters.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .lexer import BLANKS, COMMENT, KEYWORDS, STRING_LITERAL, WORD, string_value
from .model import Agent, Assessment, Body, Imposition, Polarity, Promise, SourceSpan, Superagent
from .parser import (
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
    Item,
)

_POLARITIES = {p.value: p for p in Polarity}
_CHOICES = {"AGENT_KIND": AGENT_KINDS, "PROVENANCE": PROVENANCES, "POLARITY": _POLARITIES,
            "IMPOSITION_KIND": IMPOSITION_KINDS, "VERDICT": VERDICTS}
# a word ends before any character that WORD's tail class could take
_WORD_END = "(?!%s)" % WORD[WORD.index("]") + 1:-1]
_NAME = WORD + _WORD_END
_SOFT_GAP = r"[ \t\r\n]*(?:%s[ \t\r\n]*)*" % COMMENT
_SOFT_GAP_RE = re.compile(_SOFT_GAP)
_COMMENT_RE = re.compile(COMMENT)
_WORDS = re.compile(WORD).findall

_Groups = Tuple[Optional[str], ...]


def _compile(template: str) -> re.Pattern[str]:
    """One declaration, then the end of its statement and the gap to the
    next one. Each NAME, NAMES, STRING and choice is a group, and a last,
    empty group marks where the declaration ends."""
    out, depth = [], 0
    for piece in template.split():
        if piece in ("(?:", ")?"):
            out.append(piece)
            continue
        gap = _SOFT_GAP if depth else BLANKS
        if out:
            out.append(gap)
        if piece == "NAME":
            out.append("(%s)" % _NAME)
        elif piece == "NAMES":
            out.append("(%s(?:%s,%s%s)*)" % (_NAME, gap, gap, _NAME))
        elif piece == "STRING":
            out.append("(%s)" % STRING_LITERAL)
        elif piece in _CHOICES:
            out.append("(%s)%s" % ("|".join(_CHOICES[piece]), _WORD_END))
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


def _names(listed: str) -> FrozenSet[str]:
    if "#" in listed:
        listed = _COMMENT_RE.sub("", listed)
    return frozenset(_WORDS(listed))


def _agent(span: SourceSpan, groups: _Groups) -> Optional[Agent]:
    name, kind, _ = groups
    if name in KEYWORDS:
        return None
    return Agent(name, AGENT_KINDS.get(kind, DEFAULT_AGENT_KIND), span)


def _superagent(span: SourceSpan, groups: _Groups) -> Optional[Superagent]:
    name, listed, _ = groups
    members = _names(listed)
    if name in KEYWORDS or not KEYWORDS.isdisjoint(members):
        return None
    return Superagent(name, members, span)


def _promise(span: SourceSpan, groups: _Groups) -> Optional[Promise]:
    (name, promiser, listed, scoped, provenance, polarity, topic, text, behalf, affected,
     condition, _) = groups
    promisees = _names(listed)
    scope = _names(scoped) if scoped else NO_NAMES
    affects = _names(affected) if affected else NO_NAMES
    if not KEYWORDS.isdisjoint((name, promiser, topic, behalf, *promisees, *scope, *affects)):
        return None
    body = Body(_POLARITIES[polarity], topic, string_value(text) if text else NO_TEXT, behalf,
                affects, None if condition is None else string_value(condition))
    return Promise(name, promiser, promisees, body, scope,
                   PROVENANCES.get(provenance, DEFAULT_PROVENANCE), span)


def _imposition(span: SourceSpan, groups: _Groups) -> Optional[Imposition]:
    name, imposer, imposee, kind, text, _ = groups
    if not KEYWORDS.isdisjoint((name, imposer, imposee)):
        return None
    return Imposition(name, imposer, imposee, IMPOSITION_KINDS.get(kind, DEFAULT_IMPOSITION_KIND),
                      string_value(text), span)


def _assessment(span: SourceSpan, groups: _Groups) -> Optional[Assessment]:
    name, assessor, target, verdict, note, _ = groups
    if not KEYWORDS.isdisjoint((name, assessor, target)):
        return None
    return Assessment(name, assessor, target, VERDICTS[verdict],
                      None if note is None else string_value(note), UNNUMBERED, span)


# Each form's template lists its tokens, with optional clauses written as
# `(?: ... )?`. `_compile` puts between two tokens the gap the token parser
# allows there: blanks, or inside braces and brackets also comments and
# newlines. Every word ends where the lexer ends it, and a statement ends
# at a newline, a comment or the end of the text. A NAME takes any word:
# the builder returns None, a miss, when a name is a keyword, because a
# keyword lookahead in every name slot would cost half again the compile
# time. The table is keyed by the first two letters of each declaration
# keyword.
_FORMS: Dict[str, Tuple[re.Pattern[str], Callable[[SourceSpan, _Groups], Optional[Item]]]] = {
    template[:2]: (_compile(template), build) for template, build in (
        ("agent NAME (?: kind = AGENT_KIND )?", _agent),
        ("superagent NAME { NAMES }", _superagent),
        ("promise NAME from NAME to NAMES (?: scope [ (?: NAMES )? ] )?"
         " (?: provenance = PROVENANCE )? { POLARITY NAME (?: STRING )?"
         " (?: behalf NAME )? (?: affects [ NAMES ] )? (?: condition STRING )? }", _promise),
        ("imposition NAME from NAME to NAME (?: kind = IMPOSITION_KIND )? { STRING }",
         _imposition),
        ("assessment NAME by NAME on NAME verdict = VERDICT (?: note STRING )?", _assessment),
    )
}


def match_declarations(text: str, items: List[Item]) -> Tuple[int, int, int]:
    """Append the records of the declarations the patterns match, from the
    top of the text; return where the first declaration they miss starts,
    or the end of the text, as `tokenize` takes it: offset, line, line start."""
    pos = _SOFT_GAP_RE.match(text).end()
    line, counted = 1, 0
    while (form := _FORMS.get(text[pos:pos + 2])) is not None:
        pattern, build = form
        found = pattern.match(text, pos)
        if found is None:
            break
        line += text.count("\n", counted, pos)
        counted = pos
        span = SourceSpan(pos, found.start(pattern.groups), line,
                          pos - text.rfind("\n", 0, pos))
        item = build(span, found.groups())
        if item is None:
            break
        items.append(item)
        pos = found.end()
    return pos, line + text.count("\n", counted, pos), text.rfind("\n", 0, pos) + 1
