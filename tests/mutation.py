"""Mutated documents for differential tests. This module does not import
pytest, so scripts can use it too (`scripts/floor_check.py`)."""

from promisegraph.lexer import IDENTIFIER, KEYWORDS, tokenize

from reference_parser import _ITEM_PARSERS

INSERTIONS = [["{", "}", "[", "]"], [",", "="], ["\n"], sorted(KEYWORDS),
              ['"text"', '""']]


def mutate(rng, source):
    """One to four consecutive declarations of `source`, with 1-3 insertions
    or deleted token runs, each at a token boundary."""
    lines = source.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines)
              if line.split(" ", 1)[0] in _ITEM_PARSERS] + [len(lines)]
    first = rng.randrange(len(starts) - 1)
    last = min(len(starts) - 1, first + rng.randint(1, 4))
    text = "".join(lines[starts[first]:starts[last]])
    for _ in range(rng.randint(1, 3)):
        starts = [token.start for token in tokenize(text)]
        if rng.random() < 0.25:
            i = rng.randrange(len(starts))
            j = min(len(starts) - 1, i + rng.randint(1, 4))
            text = text[:starts[i]] + text[starts[j]:]
        else:
            at = rng.choice(starts)
            text = text[:at] + " %s " % rng.choice(rng.choice(INSERTIONS)) + text[at:]
    return text


def swap_names(rng, source):
    """The whole of `source`, with 1-3 identifier tokens each replaced by
    another identifier of the same document, so that most declarations
    stay whole and some documents still load."""
    found = [token for token in tokenize(source) if token.kind is IDENTIFIER]
    words = sorted({token.text for token in found})
    chosen = rng.sample(found, rng.randint(1, 3))
    for token in sorted(chosen, key=lambda token: token.start, reverse=True):
        other = rng.choice([word for word in words if word != token.text])
        source = source[:token.start] + other + source[token.end:]
    return source
