"""Declaration patterns: `parse` reads whole declarations with them first.

Each template of the grammar table (`parser.FORMS`) compiles to one
pattern, built from the lexer's rules for blanks, comments, words and
string literals; a slot's label is skipped. Each NAME, NAMES, STRING and
choice slot is a group, so a match's groups, less the end marker, are the
slot values the form's builder takes, as the token parser gives them. A
pattern and its builder accept exactly what the token parser accepts
without a diagnostic, and make the same record with the same span. At the
first declaration they miss, `parse` hands the rest of the text to the
token parser, which owns every diagnostic. The patterns compile when this
module is first imported, which `parse` does only for a text of at least
`PATTERN_MIN_CHARS` characters. On a clean document the matching loop
builds only the records: a span per declaration, with `tuple.__new__`, and
what the builders make, which read repeated name lists from `parse`'s table.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Tuple

from .lexer import BLANKS, COMMENT, KEYWORDS, STRING_LITERAL, WORD
from .model import SourceSpan
from .parser import CHOICES, FORMS, Item, _new

if TYPE_CHECKING:
    from .parser import Builder, _Names

# a word ends before any character that WORD's tail class could take
_WORD_END = "(?!%s)" % WORD[WORD.index("]") + 1:-1]
_NAME = WORD + _WORD_END
_SOFT_GAP = r"[ \t\r\n]*(?:%s[ \t\r\n]*)*" % COMMENT
_SOFT_GAP_RE = re.compile(_SOFT_GAP)


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


# `_compile` puts between two tokens the gap the token parser allows there:
# blanks, or inside braces and brackets also comments and newlines. Every
# word ends where the lexer ends it, and a statement ends at a newline, a
# comment or the end of the text. A NAME takes any word: the builder
# returns None, a miss, when a name is a keyword, because a keyword
# lookahead in every name slot would cost half again the compile time. The
# table is keyed by the first two letters of each declaration keyword.
_FORMS: Dict[str, Tuple[re.Pattern[str], Builder]] = {
    keyword[:2]: (_compile(template), build) for keyword, (template, build) in FORMS.items()
}


def match_declarations(text: str, items: List[Item], names: _Names) -> Tuple[int, int, int]:
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
        span = _new(SourceSpan, (pos, found.start(pattern.groups), line,
                                 pos - text.rfind("\n", 0, pos)))
        item = build(span, found.groups()[:-1], names)
        if item is None:
            break
        items.append(item)
        pos = found.end()
    return pos, line + text.count("\n", counted, pos), text.rfind("\n", 0, pos) + 1
