"""Resolved domain types for promise graphs plus structural validation.

Everything in here is immutable. A PromiseGraph is built once (by the DSL
lowering pass, by the JSON loader, or directly in tests) and every analysis
is a pure function over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

IDENTIFIER_RE = r"[A-Za-z][A-Za-z0-9_-]*"


class AgentKind(Enum):
    HUMAN = "human"
    ORGANIZATION = "organization"
    SOFTWARE = "software"
    HARDWARE = "hardware"
    SYSTEM = "system"
    STANDARD = "standard"


class Polarity(Enum):
    OFFER = "offer"
    ACCEPT = "accept"

    @property
    def sign(self) -> str:
        # offer renders as "+", accept as a true minus sign
        return "+" if self is Polarity.OFFER else "−"


class Provenance(Enum):
    EXPLICIT = "explicit"
    INFERRED = "inferred"
    IMPUTED = "imputed"


class ImpositionKind(Enum):
    REQUIREMENT = "requirement"
    THREAT = "threat"


class Verdict(Enum):
    KEPT = "kept"
    NOT_KEPT = "not-kept"
    INDETERMINATE = "indeterminate"


class ErrorCode(Enum):
    UNRESOLVED_REFERENCE = "unresolved-reference"
    DUPLICATE_ID = "duplicate-id"
    CYCLIC_SUPERAGENT = "cyclic-superagent"
    NAMESPACE_CLASH = "namespace-clash"
    INVALID_DECLARATION = "invalid-declaration"


@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte range plus the 1-based line/column of its start."""

    byte_start: int
    byte_end: int
    line: int
    column: int

    def __post_init__(self) -> None:
        if self.byte_start > self.byte_end:
            raise ValueError("span start beyond end")
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")


ZERO_SPAN = SourceSpan(0, 0, 1, 1)


@dataclass(frozen=True)
class Agent:
    id: str
    kind: AgentKind = AgentKind.SYSTEM
    span: SourceSpan = ZERO_SPAN


@dataclass(frozen=True)
class Superagent:
    id: str
    members: FrozenSet[str]
    span: SourceSpan = ZERO_SPAN

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("superagent %r has no members" % self.id)


@dataclass(frozen=True)
class Body:
    polarity: Polarity
    topic: str
    text: str = ""
    behalf_of: Optional[str] = None
    affects: FrozenSet[str] = frozenset()
    condition: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("body topic must be non-empty")


@dataclass(frozen=True)
class Promise:
    id: str
    promiser: str
    promisees: FrozenSet[str]
    body: Body
    scope: FrozenSet[str] = frozenset()
    provenance: Provenance = Provenance.EXPLICIT
    span: SourceSpan = ZERO_SPAN

    def __post_init__(self) -> None:
        if not self.promisees:
            raise ValueError("promise %r has no promisees" % self.id)
        if self.body.behalf_of == self.promiser:
            # behalf of oneself is redundant, promises are rejected before
            # reaching the resolved model
            raise ValueError("promise %r made on behalf of its own promiser" % self.id)


@dataclass(frozen=True)
class Imposition:
    id: str
    imposer: str
    imposee: str
    kind: ImpositionKind = ImpositionKind.REQUIREMENT
    text: str = ""
    span: SourceSpan = ZERO_SPAN

    def __post_init__(self) -> None:
        if self.imposer == self.imposee:
            raise ValueError("imposition %r imposes on its own imposer" % self.id)


@dataclass(frozen=True)
class Assessment:
    id: str
    assessor: str
    target: str
    verdict: Verdict
    note: Optional[str] = None
    ordinal: int = 0
    span: SourceSpan = ZERO_SPAN


@dataclass(frozen=True)
class StructuralError:
    code: ErrorCode
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return "%s:%s: %s: %s" % (self.span.line, self.span.column, self.code.value, self.message)


@dataclass(frozen=True)
class PromiseGraph:
    agents: Dict[str, Agent] = field(default_factory=dict)
    superagents: Dict[str, Superagent] = field(default_factory=dict)
    promises: Tuple[Promise, ...] = ()
    impositions: Tuple[Imposition, ...] = ()
    assessments: Tuple[Assessment, ...] = ()

    def promise_by_id(self, promise_id: str) -> Promise:
        for promise in self.promises:
            if promise.id == promise_id:
                return promise
        raise KeyError("unknown promise id %r" % promise_id)

    def has_actor(self, name: str) -> bool:
        return name in self.agents or name in self.superagents


def new_graph() -> PromiseGraph:
    """Return an empty promise graph."""
    return PromiseGraph()


def expand_members(graph: PromiseGraph, names: Set[str]) -> Set[str]:
    """Downward closure: named superagents stay in the set and contribute
    their member agents transitively. Membership of an agent in some
    superagent never adds that superagent (no upward widening)."""
    seen: Set[str] = set()
    stack = list(names)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        superagent = graph.superagents.get(name)
        if superagent is not None:
            stack.extend(superagent.members)
    return seen


def _privy(graph: PromiseGraph, promise: Promise) -> Set[str]:
    """The actors privy to a promise: promiser, promisees and scope, with
    superagents expanded downward to their member agents."""
    return expand_members(graph, {promise.promiser, *promise.promisees, *promise.scope})


def visible_to(graph: PromiseGraph, promise_id: str) -> FrozenSet[str]:
    """The actors privy to the promise with this id (see `_privy`); raises
    KeyError for an unknown id."""
    return frozenset(_privy(graph, graph.promise_by_id(promise_id)))


def _superagent_cycles(graph: PromiseGraph) -> List[str]:
    """Superagent ids that sit on a membership cycle, in declaration order.
    Depth-first over members in sorted order, with an explicit stack."""
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done
    cyclic: Set[str] = set()

    for root in graph.superagents:
        if root in state:
            continue
        state[root] = 0
        stack = [(root, iter(sorted(graph.superagents[root].members)))]
        while stack:
            name, members = stack[-1]
            for member in members:
                if member not in graph.superagents or state.get(member) == 1:
                    continue
                if member in state:  # visiting: the trail from it closes a cycle
                    trail = [entry for entry, _ in stack]
                    cyclic.update(trail[trail.index(member):])
                    continue
                state[member] = 0
                stack.append((member, iter(sorted(graph.superagents[member].members))))
                break
            else:
                stack.pop()
                state[name] = 1
    return [name for name in graph.superagents if name in cyclic]


def validate(graph: PromiseGraph) -> List[StructuralError]:
    """Check every graph invariant; returns errors in declaration order,
    empty list iff the graph is well-formed."""
    errors: List[StructuralError] = []

    def unresolved(name: str, context: str, span: SourceSpan) -> None:
        errors.append(StructuralError(
            ErrorCode.UNRESOLVED_REFERENCE,
            "%s refers to undeclared agent %r" % (context, name),
            span,
        ))

    for name in graph.agents:
        if name in graph.superagents:
            errors.append(StructuralError(
                ErrorCode.NAMESPACE_CLASH,
                "%r is declared both as an agent and as a superagent" % name,
                graph.superagents[name].span,
            ))

    for superagent in graph.superagents.values():
        for member in sorted(superagent.members):
            if not graph.has_actor(member):
                unresolved(member, "superagent %r member" % superagent.id, superagent.span)

    for name in _superagent_cycles(graph):
        errors.append(StructuralError(
            ErrorCode.CYCLIC_SUPERAGENT,
            "superagent %r is a member of itself through its membership chain" % name,
            graph.superagents[name].span,
        ))

    seen_promise_ids: Set[str] = set()
    for promise in graph.promises:
        if promise.id in seen_promise_ids:
            errors.append(StructuralError(
                ErrorCode.DUPLICATE_ID,
                "duplicate promise id %r" % promise.id,
                promise.span,
            ))
        seen_promise_ids.add(promise.id)
        context = "promise %r" % promise.id
        for name in [promise.promiser, *sorted(promise.promisees), *sorted(promise.scope),
                     *sorted(promise.body.affects)]:
            if not graph.has_actor(name):
                unresolved(name, context, promise.span)
        if promise.body.behalf_of is not None and not graph.has_actor(promise.body.behalf_of):
            unresolved(promise.body.behalf_of, context, promise.span)

    seen_imposition_ids: Set[str] = set()
    for imposition in graph.impositions:
        if imposition.id in seen_imposition_ids:
            errors.append(StructuralError(
                ErrorCode.DUPLICATE_ID,
                "duplicate imposition id %r" % imposition.id,
                imposition.span,
            ))
        seen_imposition_ids.add(imposition.id)
        for name in (imposition.imposer, imposition.imposee):
            if not graph.has_actor(name):
                unresolved(name, "imposition %r" % imposition.id, imposition.span)

    seen_assessment_ids: Set[str] = set()
    last_ordinal = -1
    for assessment in graph.assessments:
        if assessment.ordinal <= last_ordinal:
            errors.append(StructuralError(
                ErrorCode.INVALID_DECLARATION,
                "assessment %r ordinal %d does not increase" % (assessment.id, assessment.ordinal),
                assessment.span,
            ))
        last_ordinal = assessment.ordinal
        if assessment.id in seen_assessment_ids:
            errors.append(StructuralError(
                ErrorCode.DUPLICATE_ID,
                "duplicate assessment id %r" % assessment.id,
                assessment.span,
            ))
        seen_assessment_ids.add(assessment.id)
        if not graph.has_actor(assessment.assessor):
            unresolved(assessment.assessor, "assessment %r" % assessment.id, assessment.span)
        if assessment.target not in seen_promise_ids:
            errors.append(StructuralError(
                ErrorCode.UNRESOLVED_REFERENCE,
                "assessment %r targets unknown promise %r" % (assessment.id, assessment.target),
                assessment.span,
            ))

    return errors
