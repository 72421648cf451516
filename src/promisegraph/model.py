"""Resolved domain types for promise graphs plus structural validation.

Everything in here is immutable. A PromiseGraph is built once (by the DSL
lowering pass, by the JSON loader, or directly in tests) and every analysis
is a pure function over it.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Set, Tuple, Union


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


class SourceSpan(NamedTuple):
    """Half-open range `text[start:end]` of code-point offsets into the
    decoded source text, plus the 1-based line/column (in code points) of
    its start. `validate` rejects a span that breaks either rule."""

    start: int
    end: int
    line: int
    column: int


ZERO_SPAN = SourceSpan(0, 0, 1, 1)


class Agent(NamedTuple):
    id: str
    kind: AgentKind = AgentKind.SYSTEM
    span: SourceSpan = ZERO_SPAN


class Superagent(NamedTuple):
    id: str
    members: FrozenSet[str]  # non-empty in a valid graph
    span: SourceSpan = ZERO_SPAN


class Body(NamedTuple):
    polarity: Polarity
    topic: str  # non-empty in a valid graph
    text: str = ""
    behalf_of: Optional[str] = None
    affects: FrozenSet[str] = frozenset()
    condition: Optional[str] = None


class Promise(NamedTuple):
    id: str
    promiser: str
    promisees: FrozenSet[str]  # non-empty in a valid graph
    body: Body
    scope: FrozenSet[str] = frozenset()
    provenance: Provenance = Provenance.EXPLICIT
    span: SourceSpan = ZERO_SPAN


class Imposition(NamedTuple):
    id: str
    imposer: str
    imposee: str
    kind: ImpositionKind = ImpositionKind.REQUIREMENT
    text: str = ""
    span: SourceSpan = ZERO_SPAN


class Assessment(NamedTuple):
    id: str
    assessor: str
    target: str
    verdict: Verdict
    note: Optional[str] = None
    ordinal: int = 0
    span: SourceSpan = ZERO_SPAN


Locator = Tuple[Union[str, int], ...]


class StructuralError(NamedTuple):
    """One broken invariant. `locator` names the offending value by its
    `to_json` keys, e.g. ("promises", 3, "scope", 0), with indices into
    set-valued fields counted in sorted order; it is empty for whole-graph
    errors such as membership cycles."""

    code: ErrorCode
    message: str
    span: SourceSpan
    locator: Locator = ()

    def __str__(self) -> str:
        return "%s:%s: %s: %s" % (self.span.line, self.span.column, self.code.value, self.message)


class _GraphFields(NamedTuple):
    agents: Mapping[str, Agent]
    superagents: Mapping[str, Superagent]
    promises: Tuple[Promise, ...] = ()
    impositions: Tuple[Imposition, ...] = ()
    assessments: Tuple[Assessment, ...] = ()


class PromiseGraph(_GraphFields):
    """Unlike its `NamedTuple` base it has a `__dict__`, for the promise
    index; `_replace` builds a new graph, with no index yet."""

    def __new__(cls, agents: Optional[Mapping[str, Agent]] = None,
                superagents: Optional[Mapping[str, Superagent]] = None, *rest, **named):
        # an omitted section gets an empty dict of its own, which copies and pickles
        return super().__new__(cls, {} if agents is None else agents,
                               {} if superagents is None else superagents, *rest, **named)

    @cached_property
    def _promise_index(self) -> Dict[str, Promise]:
        """Id -> promise, built on first lookup; the first of duplicate ids wins."""
        index: Dict[str, Promise] = {}
        for promise in self.promises:
            index.setdefault(promise.id, promise)
        return index

    def promise_by_id(self, promise_id: str) -> Promise:
        promise = self._promise_index.get(promise_id)
        if promise is None:
            raise KeyError("unknown promise id %r" % promise_id)
        return promise

    def has_actor(self, name: str) -> bool:
        return name in self.agents or name in self.superagents


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


def visible_to(graph: PromiseGraph, promise_id: str) -> FrozenSet[str]:
    """The actors privy to the promise with this id: promiser, promisees and
    scope, with superagents expanded downward to their member agents; raises
    KeyError for an unknown id."""
    promise = graph.promise_by_id(promise_id)
    return frozenset(expand_members(graph, {promise.promiser, *promise.promisees,
                                            *promise.scope}))


class _Watchers(dict):
    """name -> that name plus every superagent that lists it, transitively,
    each walked up once on first lookup through one member -> superagents
    index. `visible_to`'s rule, read upward: a name is privy to a promise iff
    its watchers meet the promiser, the promisees or the scope."""

    def __init__(self, graph: PromiseGraph) -> None:
        super().__init__()
        self.parents: Dict[str, List[str]] = {}
        for name, superagent in graph.superagents.items():
            for member in superagent.members:
                self.parents.setdefault(member, []).append(name)

    def __missing__(self, name: str) -> Set[str]:
        self[name] = seen = {name}
        stack = [name]
        while stack:
            for parent in self.parents.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    def privy(self, name: str, promise: Promise) -> bool:
        seen = self[name]
        return (promise.promiser in seen or not seen.isdisjoint(promise.promisees)
                or not seen.isdisjoint(promise.scope))


def _superagent_cycles(graph: PromiseGraph) -> List[str]:
    """Superagent ids that sit on a membership cycle, in declaration order:
    those whose strongly connected component has more than one member, and
    those that list themselves. Tarjan's algorithm with an explicit stack:
    a name's index is its position on `trail` (Tarjan's stack) until its
    component closes, and then one above every position."""
    superagents = graph.superagents
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    trail: List[str] = []
    stack: list = []  # the depth-first path: (name, its members not yet seen)
    cyclic: Set[str] = set()

    def visit(name: str) -> None:
        index[name] = low[name] = len(trail)
        trail.append(name)
        stack.append((name, iter(superagents[name].members)))

    for root in superagents:
        if root not in index:
            visit(root)
        while stack:
            name, members = stack[-1]
            for member in members:
                if member not in superagents:
                    continue
                if member not in index:
                    visit(member)
                    break
                low[name] = min(low[name], index[member])
            else:
                stack.pop()
                if stack:
                    low[stack[-1][0]] = min(low[stack[-1][0]], low[name])
                if low[name] == index[name]:
                    component = trail[index[name]:]
                    del trail[index[name]:]
                    if len(component) > 1 or name in superagents[name].members:
                        cyclic.update(component)
                    index.update(dict.fromkeys(component, len(superagents)))
    return [name for name in superagents if name in cyclic]


def validate(graph: PromiseGraph) -> List[StructuralError]:
    """Check every graph invariant: spans from offset 0, in order and
    1-based, non-empty members, promisees and topics, references, unique
    promise, imposition and assessment ids, acyclic superagents, disjoint
    agent and superagent names, no promise on behalf of its own promiser,
    no imposition on its own imposer, increasing assessment ordinals.
    Returns errors in declaration order, each with its locator; empty iff
    the graph is well-formed."""
    errors: List[StructuralError] = []
    actors = graph.agents.keys() | graph.superagents.keys()

    def error(code: ErrorCode, message: str, span: SourceSpan, locator: Locator) -> None:
        errors.append(StructuralError(code, message, span, locator))

    def invalid(message: str, span: SourceSpan, locator: Locator) -> None:
        error(ErrorCode.INVALID_DECLARATION, message, span, locator)

    def check_span(context: str, span: SourceSpan, locator: Locator) -> None:
        start, end, line, column = span
        if start < 0:
            invalid("%s span starts before offset 0" % context, span, locator + ("span",))
        elif start > end:
            invalid("%s span starts beyond its end" % context, span, locator + ("span",))
        elif line < 1 or column < 1:
            invalid("%s span has a line or column below 1" % context, span, locator + ("span",))

    def check_actor(name: str, context: str, span: SourceSpan, locator: Locator) -> None:
        if name not in actors:
            error(ErrorCode.UNRESOLVED_REFERENCE,
                  "%s refers to undeclared agent %r" % (context, name), span, locator)

    def check_actors(names: FrozenSet[str], context: str, span: SourceSpan,
                     locator: Locator) -> None:
        if names <= actors:
            return
        for j, name in enumerate(sorted(names)):
            check_actor(name, context, span, locator + (j,))

    def check_unique(seen: Set[str], kind: str, entity_id: str, span: SourceSpan,
                     locator: Locator) -> None:
        if entity_id in seen:
            error(ErrorCode.DUPLICATE_ID, "duplicate %s id %r" % (kind, entity_id),
                  span, locator + ("id",))
        seen.add(entity_id)

    for i, agent in enumerate(graph.agents.values()):
        check_span("agent %r" % agent.id, agent.span, ("agents", i))

    for i, superagent in enumerate(graph.superagents.values()):
        context, span, at = "superagent %r" % superagent.id, superagent.span, ("superagents", i)
        check_span(context, span, at)
        if not superagent.members:
            invalid("%s has no members" % context, span, at + ("members",))
        if superagent.id in graph.agents:
            error(ErrorCode.NAMESPACE_CLASH,
                  "%r is declared both as an agent and as a superagent" % superagent.id,
                  span, at + ("id",))
        check_actors(superagent.members, context + " member", span, at + ("members",))

    for name in _superagent_cycles(graph):
        error(ErrorCode.CYCLIC_SUPERAGENT,
              "superagent %r is a member of itself through its membership chain" % name,
              graph.superagents[name].span, ())

    seen_promise_ids: Set[str] = set()
    for i, promise in enumerate(graph.promises):
        promise_id, promiser, promisees, body, scope, _, span = promise
        context, at = "promise %r" % promise_id, ("promises", i)
        check_span(context, span, at)
        if not promisees:
            invalid("%s has no promisees" % context, span, at + ("to",))
        if not body.topic:
            invalid("%s has an empty topic" % context, span, at + ("body", "topic"))
        check_unique(seen_promise_ids, "promise", promise_id, span, at)
        check_actor(promiser, context, span, at + ("from",))
        check_actors(promisees, context, span, at + ("to",))
        check_actors(scope, context, span, at + ("scope",))
        check_actors(body.affects, context, span, at + ("body", "affects"))
        behalf = body.behalf_of
        if behalf == promiser:
            invalid("%s is made on behalf of its own promiser" % context,
                    span, at + ("body", "behalf"))
        elif behalf is not None:
            check_actor(behalf, context, span, at + ("body", "behalf"))

    seen_imposition_ids: Set[str] = set()
    for i, imposition in enumerate(graph.impositions):
        context, span, at = "imposition %r" % imposition.id, imposition.span, ("impositions", i)
        check_span(context, span, at)
        check_unique(seen_imposition_ids, "imposition", imposition.id, span, at)
        check_actor(imposition.imposer, context, span, at + ("from",))
        if imposition.imposee == imposition.imposer:
            invalid("%s imposes on its own imposer" % context, span, at + ("to",))
        else:
            check_actor(imposition.imposee, context, span, at + ("to",))

    seen_assessment_ids: Set[str] = set()
    last_ordinal = -1
    for i, assessment in enumerate(graph.assessments):
        context, span, at = "assessment %r" % assessment.id, assessment.span, ("assessments", i)
        check_span(context, span, at)
        if assessment.ordinal <= last_ordinal:
            invalid("%s ordinal %d does not increase" % (context, assessment.ordinal),
                    span, at + ("ordinal",))
        last_ordinal = assessment.ordinal
        check_unique(seen_assessment_ids, "assessment", assessment.id, span, at)
        check_actor(assessment.assessor, context, span, at + ("by",))
        if assessment.target not in seen_promise_ids:
            error(ErrorCode.UNRESOLVED_REFERENCE,
                  "%s targets unknown promise %r" % (context, assessment.target),
                  span, at + ("on",))

    return errors
