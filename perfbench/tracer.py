"""Spans recorded from outside the program, around calls into its modules.

`Tracer.instrument` swaps chosen module attributes for wrappers that record
one span per call (name, start, end, parent) and puts the originals back on
exit. A function is wrapped in the namespace its callers look it up in:
`parse` finds `tokenize` in `promisegraph.parser`, `lower` finds `validate`
in `promisegraph.lower`, and `analyze_all` finds its rules in
`promisegraph.analysis`. Spans stay in memory until `dump` writes them once.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "children")

    def __init__(self, id: int, name: str, parent: Optional[int]):
        self.id = id
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.children = 0.0  # time covered by direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """`counters` maps a span name to a function of the call's result; the
    latest count per name is kept in `counts`, the result itself is not."""

    def __init__(self, counters: Optional[Dict[str, Callable[[Any], int]]] = None) -> None:
        self.spans: List[Span] = []
        self.counters = counters or {}
        self.counts: Dict[str, int] = {}
        self._open: List[Span] = []

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if self._open:
            self._open[-1].children += span.duration

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._begin(name)
        try:
            yield span
        finally:
            self._finish(span)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if name in self.counters:
                self.counts[name] = self.counters[name](result)
            return result
        return traced

    @contextmanager
    def instrument(self, targets: Sequence[Tuple[ModuleType, str, str]]) -> Iterator[None]:
        """Trace `module.attribute` as span `name` for each target."""
        saved = [(module, attribute, getattr(module, attribute))
                 for module, attribute, _ in targets]
        try:
            for (module, attribute, original), (_, _, name) in zip(saved, targets):
                setattr(module, attribute, self.wrap(name, original))
            yield
        finally:
            for module, attribute, original in saved:
                setattr(module, attribute, original)

    def durations(self, name: str, self_time: bool = False) -> List[float]:
        return [s.self_time if self_time else s.duration
                for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        rows = [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
