"""A fixed pure-Python task that measures how fast the machine runs now.

On a shared host the same interpreter loop can run up to twice as slow
for stretches of a second to half a minute, on each vCPU by itself, so a
wall time alone says as much about the neighbours as about the program.
The harness times this task next to every CLI invocation, on the same
CPU; dividing the invocation's time by the task's time cancels most of
the machine's swings, and multiplying by the task's nominal time puts the
result back in seconds. On a 2-vCPU VM this cut the spread (IQR/median)
of ten runs' medians from 0.14-0.35 to 0.03-0.12.

The task does what promisegraph's hot loops do: a per-character scan of
text into tokens, dictionaries keyed by strings, small objects, a sort
and a pairwise pass within buckets. It never changes, so it gives every
commit the same yardstick.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

# the task's median time on the host the bounds were set on: an x86-64
# 2-vCPU VM running CPython 3.11
NOMINAL_S = 0.026
REPEATS = 5  # runs of the task in one timing; its median is the timing


def _text() -> str:
    """About 55 KB of words and punctuation from a fixed generator."""
    state = 12345
    syllables = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "ze", "qu", "é")
    parts = []
    for _ in range(10000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        word = "".join(syllables[(state >> shift) % len(syllables)]
                       for shift in range(3, 3 + 4 * (1 + state % 3), 4))
        parts.append(word)
        parts.append((" ", " ", ", ", ". ", "\n", " (", ") ")[state % 7])
    return "".join(parts)


TEXT = _text()


class _Token:
    __slots__ = ("word", "index", "bucket")

    def __init__(self, word: str, index: int) -> None:
        self.word = word
        self.index = index
        self.bucket = len(word) * 7 + ord(word[0]) % 5


def task() -> int:
    """One run of the task; returns a checksum so nothing is optimised away."""
    tokens: List[_Token] = []
    current: List[str] = []
    for ch in TEXT:
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append(_Token("".join(current), len(tokens)))
            current = []
    counts: dict = {}
    buckets: dict = {}
    for token in tokens:
        counts[token.word] = counts.get(token.word, 0) + 1
        buckets.setdefault(token.bucket, []).append(token)
    tokens.sort(key=lambda t: (t.word, t.index))
    total = len(counts)
    for members in buckets.values():
        head = members[:24]
        for i, a in enumerate(head):
            for b in head[i + 1:]:
                if a.word < b.word:
                    total += 1
    return total


def timing() -> float:
    """The median wall time of REPEATS runs of the task, in seconds. The
    collector is off meanwhile, so the caller's heap does not count."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            task()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)
