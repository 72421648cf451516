"""The structural validator as it was before each check became one test
with a failure-only branch, kept as the test reference for `validate`,
and a seeded generator of broken graphs to compare the two on. This module
does not import pytest, so scripts can use it too
(`scripts/floor_check.py`)."""

import random
from typing import FrozenSet, List, Set

from promisegraph.export import JsonError, from_json, to_json
from promisegraph.model import (
    Agent,
    Assessment,
    Body,
    ErrorCode,
    Imposition,
    Locator,
    Polarity,
    Promise,
    PromiseGraph,
    SourceSpan,
    StructuralError,
    Superagent,
    Verdict,
    _superagent_cycles,
)


def reference_validate(graph: PromiseGraph) -> List[StructuralError]:
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


# Names a broken graph draws from: declared agents, superagents (one of
# them also an agent's name), and names nobody declares.
AGENTS = ["A", "B", "C"]
SUPERAGENTS = ["G", "H", "A"]
UNDECLARED = ["X", "Y"]
# Spans that break each of `validate`'s span rules, and sound ones.
BAD_SPANS = [SourceSpan(-1, 4, 1, 1), SourceSpan(5, 4, 1, 1), SourceSpan(0, 4, 0, 1),
             SourceSpan(0, 4, 1, 0), SourceSpan(-3, -5, 0, 0)]


def broken_graph(rng: random.Random) -> PromiseGraph:
    """A small graph in which every invariant `validate` checks breaks now
    and then: bad spans, empty members, promisees and topics, dangling
    names in every field that holds one, duplicate ids, an agent's name on
    a superagent, membership cycles, self-behalf, self-imposition and
    ordinals that do not increase. How often each breaks is drawn per
    graph, so some graphs break once and some break on every entity,
    several times over."""
    rate = rng.choice([0.03, 0.1, 0.3])
    offset = 0

    def broken() -> bool:
        return rng.random() < rate

    def span() -> SourceSpan:
        nonlocal offset
        if broken():
            return rng.choice(BAD_SPANS)
        offset += 10
        return SourceSpan(offset, offset + 5, offset // 10, 1)

    def name(declared: List[str]) -> str:
        return rng.choice(UNDECLARED if broken() or not declared else declared)

    def names(declared: List[str], least: int = 1) -> FrozenSet[str]:
        return frozenset(name(declared) for _ in range(rng.randint(0 if broken() else least, 3)))

    agents = {n: Agent(n, span=span()) for n in rng.sample(AGENTS, rng.randint(1, 3))}
    # broken, a superagent takes an agent's name, or lists itself or a later one
    groups = rng.sample(SUPERAGENTS if broken() else SUPERAGENTS[:2], rng.randint(0, 2))
    superagents = {}
    for k, group in enumerate(groups):
        listed = list(agents) + groups[:len(groups) if broken() else k]
        superagents[group] = Superagent(group, names(listed), span())
    actors = list(agents) + groups
    promises = []
    for i in range(rng.randint(0, 6)):
        promiser = name(actors)
        behalf = rng.choice([promiser, name(actors)]) if broken() else None
        body = Body(rng.choice(list(Polarity)), "" if broken() else "t", behalf_of=behalf,
                    affects=names(actors, 0) if rng.random() < 0.4 else frozenset())
        promises.append(Promise("p%d" % (rng.randint(0, i) if broken() else i), promiser,
                                names(actors), body,
                                names(actors, 0) if rng.random() < 0.4 else frozenset(),
                                span=span()))
    impositions = []
    for i in range(rng.randint(0, 3)):
        imposer = name(actors)
        imposee = imposer if broken() else name(actors)
        impositions.append(Imposition("i%d" % (rng.randint(0, i) if broken() else i), imposer,
                                      imposee, span=span()))
    assessments = []
    ordinal = -1
    for i in range(rng.randint(0, 4)):
        ordinal += rng.choice([0, -1]) if broken() else 1
        target = "q" if broken() or not promises else rng.choice(promises).id
        assessments.append(Assessment("a%d" % (rng.randint(0, i) if broken() else i),
                                      name(list(agents)), target, rng.choice(list(Verdict)),
                                      ordinal=ordinal, span=span()))
    return PromiseGraph(agents, superagents, tuple(promises), tuple(impositions),
                        tuple(assessments))


def error_kind(error: StructuralError) -> str:
    """What broke, without the names and indices: the code, the field
    path of the locator and, for a span, the rule."""
    fields = ".".join(key for key in error.locator if isinstance(key, str))
    rule = error.message.partition(" span ")[2] if fields.endswith("span") else ""
    return " ".join(filter(None, (error.code.value, fields, rule)))


def json_outcome(graph):
    """`from_json` of the graph's JSON: the graph, or the error's path and reason."""
    try:
        return from_json(to_json(graph))
    except JsonError as exc:
        return exc.path, exc.reason


def reference_json_outcome(graph):
    """What `from_json` gave with the reference: the first error at its locator's path."""
    errors = reference_validate(graph)
    if not errors:
        return graph
    first = errors[0]
    path = "".join("[%d]" % key if isinstance(key, int) else "." + key for key in first.locator)
    return path.lstrip(".") or "$", first.message
