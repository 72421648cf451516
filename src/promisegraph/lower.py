"""Lowers a parsed Document to a resolved, validated PromiseGraph.

The parser has already built each declaration's model record. This pass
puts the records into the graph's sections in declaration order, numbers
the assessments, and leaves every reference, duplicate-id, cycle,
self-reference and ordinal check to `validate`. Names may be declared in
any order (forward references are fine). It checks itself only for a
second agent or superagent of one name, and for a name declared as both,
so that the later declaration is reported at its own span and left out of
the graph (`validate` would report a clash at the superagent). All errors
are reported together, ordered by position.
"""

from __future__ import annotations

from typing import Dict, List

from .model import (
    Agent,
    Assessment,
    ErrorCode,
    Imposition,
    Promise,
    PromiseGraph,
    SourceSpan,
    StructuralError,
    Superagent,
    validate,
)
from .parser import Document, parse


class LowerFailure(Exception):
    """Raised when a document cannot be lowered to a well-formed graph."""

    def __init__(self, errors: List[StructuralError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


def lower(doc: Document) -> PromiseGraph:
    errors: List[StructuralError] = []

    def err(code: ErrorCode, message: str, span: SourceSpan) -> None:
        errors.append(StructuralError(code, message, span))

    agents: Dict[str, Agent] = {}
    superagents: Dict[str, Superagent] = {}
    promises: List[Promise] = []
    impositions: List[Imposition] = []
    assessments: List[Assessment] = []

    # the model keys agents and superagents by name: the first declaration wins
    for item in doc.items:
        if isinstance(item, Promise):
            promises.append(item)
        elif isinstance(item, Agent):
            if item.id in agents:
                err(ErrorCode.DUPLICATE_ID, "duplicate agent %r" % item.id, item.span)
            elif item.id in superagents:
                err(ErrorCode.NAMESPACE_CLASH,
                    "%r is already declared as a superagent" % item.id, item.span)
            else:
                agents[item.id] = item
        elif isinstance(item, Superagent):
            if item.id in superagents:
                err(ErrorCode.DUPLICATE_ID, "duplicate superagent %r" % item.id, item.span)
            elif item.id in agents:
                err(ErrorCode.NAMESPACE_CLASH,
                    "%r is already declared as an agent" % item.id, item.span)
            else:
                superagents[item.id] = item
        elif isinstance(item, Imposition):
            impositions.append(item)
        else:
            assessments.append(item._replace(ordinal=len(assessments)))

    graph = PromiseGraph(agents, superagents, tuple(promises), tuple(impositions),
                         tuple(assessments))
    errors = validate(graph) + errors
    if errors:
        errors.sort(key=lambda e: e.span.start)
        raise LowerFailure(errors)
    return graph


def load(text: str) -> PromiseGraph:
    """Parse and lower a document in one step."""
    return lower(parse(text))
