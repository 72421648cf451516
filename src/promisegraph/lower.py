"""Lowers a parsed Document to a resolved, validated PromiseGraph.

Names may be declared in any order (forward references are fine). The
pass builds the graph in declaration order and leaves every reference,
duplicate-id, cycle and ordinal check to `validate`. It checks itself only
what the model cannot hold: a second agent or superagent of one name, a
name declared as both, self-behalf and self-imposition. All errors are
reported together, ordered by position.
"""

from __future__ import annotations

from typing import Dict, List

from . import parser as ast
from .model import (
    Agent,
    AgentKind,
    Assessment,
    Body,
    ErrorCode,
    Imposition,
    ImpositionKind,
    Polarity,
    Promise,
    PromiseGraph,
    Provenance,
    SourceSpan,
    StructuralError,
    Superagent,
    Verdict,
    validate,
)


class LowerFailure(Exception):
    """Raised when a document cannot be lowered to a well-formed graph."""

    def __init__(self, errors: List[StructuralError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


def lower(doc: ast.Document) -> PromiseGraph:
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
        if isinstance(item, ast.AgentDecl):
            if item.name in agents:
                err(ErrorCode.DUPLICATE_ID, "duplicate agent %r" % item.name, item.span)
            elif item.name in superagents:
                err(ErrorCode.NAMESPACE_CLASH,
                    "%r is already declared as a superagent" % item.name, item.span)
            else:
                kind = AgentKind(item.kind) if item.kind is not None else AgentKind.SYSTEM
                agents[item.name] = Agent(item.name, kind, item.span)
        elif isinstance(item, ast.SuperagentDecl):
            if item.name in superagents:
                err(ErrorCode.DUPLICATE_ID, "duplicate superagent %r" % item.name, item.span)
            elif item.name in agents:
                err(ErrorCode.NAMESPACE_CLASH,
                    "%r is already declared as an agent" % item.name, item.span)
            else:
                superagents[item.name] = Superagent(item.name, frozenset(item.members),
                                                    item.span)
        elif isinstance(item, ast.PromiseDecl):
            behalf = item.body.behalf
            if behalf == item.promiser:
                # kept in the graph without the redundant behalf, so that its
                # id, its promiser and the assessments of it are still checked
                err(ErrorCode.INVALID_DECLARATION,
                    "promise %r is made on behalf of its own promiser" % item.name, item.span)
                behalf = None
            body = Body(
                polarity=Polarity(item.body.polarity),
                topic=item.body.topic,
                text=item.body.text or "",
                behalf_of=behalf,
                affects=frozenset(item.body.affects),
                condition=item.body.condition,
            )
            promises.append(Promise(
                id=item.name,
                promiser=item.promiser,
                promisees=frozenset(item.promisees),
                body=body,
                scope=frozenset(item.scope or ()),
                provenance=Provenance(item.provenance) if item.provenance else Provenance.EXPLICIT,
                span=item.span,
            ))
        elif isinstance(item, ast.ImpositionDecl):
            if item.imposer == item.imposee:
                err(ErrorCode.INVALID_DECLARATION,
                    "imposition %r imposes on its own imposer" % item.name, item.span)
                continue
            impositions.append(Imposition(
                id=item.name,
                imposer=item.imposer,
                imposee=item.imposee,
                kind=ImpositionKind(item.kind) if item.kind else ImpositionKind.REQUIREMENT,
                text=item.text,
                span=item.span,
            ))
        elif isinstance(item, ast.AssessmentDecl):
            assessments.append(Assessment(
                id=item.name,
                assessor=item.assessor,
                target=item.target,
                verdict=Verdict(item.verdict),
                note=item.note,
                ordinal=len(assessments),
                span=item.span,
            ))
        else:
            raise TypeError("unknown AST item %r" % (item,))

    graph = PromiseGraph(
        agents=agents,
        superagents=superagents,
        promises=tuple(promises),
        impositions=tuple(impositions),
        assessments=tuple(assessments),
    )
    errors = validate(graph) + errors
    if errors:
        errors.sort(key=lambda e: e.span.start)
        raise LowerFailure(errors)
    return graph


def load(text: str) -> PromiseGraph:
    """Parse and lower a document in one step."""
    return lower(ast.parse(text))
