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


# module names: a name lookup is several times cheaper than `Polarity.OFFER`
OFFER, ACCEPT = Polarity


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
    """Unlike its `NamedTuple` base it has a `__dict__`, for its indexes,
    each derived from `promises` or `superagents` alone; `_replace` builds a
    new graph, with no index yet."""

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

    @cached_property
    def _agent_topic_index(self) -> Dict[Tuple[str, str], Tuple[List[Promise], List[Promise]]]:
        """(agent, topic) -> (offers made to the agent, acceptances the agent
        makes), each in declaration order; superagents count as themselves."""
        index: Dict[Tuple[str, str], Tuple[List[Promise], List[Promise]]] = {}
        for promise in self.promises:
            body = promise.body
            if body.polarity is OFFER:
                agents, side = promise.promisees, 0
            else:
                agents, side = (promise.promiser,), 1
            for agent in agents:
                row = index.get((agent, body.topic))
                if row is None:
                    row = index[agent, body.topic] = ([], [])
                row[side].append(promise)
        return index

    @cached_property
    def _memberships(self) -> Dict[str, List[str]]:
        """Member -> the superagents that list it, in declaration order."""
        index: Dict[str, List[str]] = {}
        for name, superagent in self.superagents.items():
            for member in superagent.members:
                index.setdefault(member, []).append(name)
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


def watchers(graph: PromiseGraph, name: str) -> Set[str]:
    """Upward closure, the mirror of `expand_members`: the name plus every
    superagent that lists it, transitively, in a fresh set; nothing is kept."""
    memberships = graph._memberships
    seen, stack = {name}, [name]
    while stack:
        for parent in memberships.get(stack.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def privy(seen: Set[str], promise: Promise) -> bool:
    """`visible_to`'s rule, read upward: a name is privy to a promise iff its
    watchers `seen` include the promiser, a promisee or a scope name."""
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
    """Check every graph invariant: agents and superagents filed under
    their ids, spans from offset 0, in order and 1-based, non-empty
    members, promisees and topics, references, unique promise, imposition
    and assessment ids, acyclic superagents, disjoint agent and superagent
    names, no promise on behalf of its own promiser, no imposition on its
    own imposer, increasing assessment ordinals.
    Returns errors in declaration order, each with its locator; empty iff
    the graph is well-formed. Only a failing check formats anything."""
    errors: List[StructuralError] = []
    actors = graph.agents.keys() | graph.superagents.keys()

    def error(code: ErrorCode, message: str, span: SourceSpan, locator: Locator) -> None:
        errors.append(StructuralError(code, message, span, locator))

    def invalid(message: str, span: SourceSpan, locator: Locator) -> None:
        error(ErrorCode.INVALID_DECLARATION, message, span, locator)

    def check_span(span: SourceSpan, section: str, i: int, entity_id: str) -> None:
        start, end, line, column = span
        fault = ("starts before offset 0" if start < 0 else "starts beyond its end" if start > end
                 else "has a line or column below 1" if line < 1 or column < 1 else None)
        if fault:
            invalid("%s %r span %s" % (section[:-1], entity_id, fault), span, (section, i, "span"))

    def undeclared(context: str, name: str, span: SourceSpan, locator: Locator) -> None:
        error(ErrorCode.UNRESOLVED_REFERENCE,
              "%s refers to undeclared agent %r" % (context, name), span, locator)

    def unresolved(context: str, names: FrozenSet[str], span: SourceSpan,
                   locator: Locator) -> None:
        for j, name in enumerate(sorted(names)):
            if name not in actors:
                undeclared(context, name, span, locator + (j,))

    def duplicate(span: SourceSpan, section: str, i: int, entity_id: str) -> None:
        error(ErrorCode.DUPLICATE_ID, "duplicate %s id %r" % (section[:-1], entity_id), span,
              (section, i, "id"))

    def check_entry(section: str, i: int, name: str, entity_id: str, span: SourceSpan) -> None:
        """An agent's or superagent's span, and the name it is filed under."""
        check_span(span, section, i, entity_id)
        if entity_id != name:
            invalid("%s %r is filed under the name %r" % (section[:-1], entity_id, name), span,
                    (section, i, "id"))

    for i, (name, (agent_id, _, span)) in enumerate(graph.agents.items()):
        check_entry("agents", i, name, agent_id, span)

    for i, (name, (superagent_id, members, span)) in enumerate(graph.superagents.items()):
        check_entry("superagents", i, name, superagent_id, span)
        if not members:
            invalid("superagent %r has no members" % superagent_id, span,
                    ("superagents", i, "members"))
        if superagent_id in graph.agents:
            error(ErrorCode.NAMESPACE_CLASH,
                  "%r is declared both as an agent and as a superagent" % superagent_id,
                  span, ("superagents", i, "id"))
        if not members <= actors:
            unresolved("superagent %r member" % superagent_id, members, span,
                       ("superagents", i, "members"))

    for name in _superagent_cycles(graph):
        error(ErrorCode.CYCLIC_SUPERAGENT,
              "superagent %r is a member of itself through its membership chain" % name,
              graph.superagents[name].span, ())

    # each id's first index: a later entity with the id is a duplicate
    seen_promise_ids: Dict[str, int] = {}
    for i, (promise_id, promiser, promisees, body, scope, _, span) in enumerate(graph.promises):
        check_span(span, "promises", i, promise_id)
        if not promisees:
            invalid("promise %r has no promisees" % promise_id, span, ("promises", i, "to"))
        if not body.topic:
            invalid("promise %r has an empty topic" % promise_id, span,
                    ("promises", i, "body", "topic"))
        if seen_promise_ids.setdefault(promise_id, i) != i:
            duplicate(span, "promises", i, promise_id)
        if promiser not in actors:
            undeclared("promise %r" % promise_id, promiser, span, ("promises", i, "from"))
        if not promisees <= actors:
            unresolved("promise %r" % promise_id, promisees, span, ("promises", i, "to"))
        if not scope <= actors:
            unresolved("promise %r" % promise_id, scope, span, ("promises", i, "scope"))
        if not body.affects <= actors:
            unresolved("promise %r" % promise_id, body.affects, span,
                       ("promises", i, "body", "affects"))
        behalf = body.behalf_of
        if behalf is None:
            continue
        if behalf == promiser:
            invalid("promise %r is made on behalf of its own promiser" % promise_id, span,
                    ("promises", i, "body", "behalf"))
        elif behalf not in actors:
            undeclared("promise %r" % promise_id, behalf, span, ("promises", i, "body", "behalf"))

    seen_imposition_ids: Dict[str, int] = {}
    for i, (imposition_id, imposer, imposee, _, _, span) in enumerate(graph.impositions):
        check_span(span, "impositions", i, imposition_id)
        if seen_imposition_ids.setdefault(imposition_id, i) != i:
            duplicate(span, "impositions", i, imposition_id)
        if imposer not in actors:
            undeclared("imposition %r" % imposition_id, imposer, span, ("impositions", i, "from"))
        if imposee == imposer:
            invalid("imposition %r imposes on its own imposer" % imposition_id, span,
                    ("impositions", i, "to"))
        elif imposee not in actors:
            undeclared("imposition %r" % imposition_id, imposee, span, ("impositions", i, "to"))

    seen_assessment_ids: Dict[str, int] = {}
    last_ordinal = -1
    for i, (assessment_id, assessor, target, _, _, ordinal, span) in enumerate(
            graph.assessments):
        check_span(span, "assessments", i, assessment_id)
        if ordinal <= last_ordinal:
            invalid("assessment %r ordinal %d does not increase" % (assessment_id, ordinal),
                    span, ("assessments", i, "ordinal"))
        last_ordinal = ordinal
        if seen_assessment_ids.setdefault(assessment_id, i) != i:
            duplicate(span, "assessments", i, assessment_id)
        if assessor not in actors:
            undeclared("assessment %r" % assessment_id, assessor, span, ("assessments", i, "by"))
        if target not in seen_promise_ids:
            error(ErrorCode.UNRESOLVED_REFERENCE, "assessment %r targets unknown promise %r"
                  % (assessment_id, target), span, ("assessments", i, "on"))

    return errors
