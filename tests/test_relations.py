"""Metamorphic relations: properties that hold on any graph or document,
so they need no reference implementation.

- Span slices: each declaration's `text[span.start:span.end]`, parsed
  alone, gives the same record, span aside, and the span's line and
  column are those of its start offset. Both parse paths are covered: a
  text of at least `PATTERN_MIN_CHARS` characters goes through the
  declaration patterns, the slices and the smaller texts through the token
  parser.
- Disjoint union: with H a copy of G whose names and ids all carry a
  prefix, `analyze_all` of G and H together equals the union of the two
  reports, whether H's records follow G's or are interleaved with them.
- Renaming: a prefix keeps the sort order of names, so it maps bindings,
  findings, the census and the trust table through exactly.
- Monotone edits. Adding a declared name to a promise's scope can only
  drop that promise's scope-hiding findings. Appending an assessment moves
  only its own trust entry, by one step of the fold. Adding an agent that
  nothing mentions changes no analysis, and `to_json` only under `agents`.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOPICS, load_gen, make_random_graph
from promisegraph import corpus
from promisegraph.analysis import (SCOPE_HIDING, Binding, TrustParams, analyze_all, sort_findings,
                                   trust)
from promisegraph.export import to_json
from promisegraph.lower import load
from promisegraph.model import Agent, AgentKind, Assessment, PromiseGraph, Verdict, validate
from promisegraph.parser import PATTERN_MIN_CHARS, parse

PREFIX = "h-"
# each prefix gives other string hashes, so code that leaks a set's
# iteration order into a result fails under one of them
PREFIXES = (PREFIX, "q.", "zz_")


def assert_span_slices(text):
    items = parse(text).items
    assert items
    for item in items:
        start, end, line, column = item.span
        assert line == text.count("\n", 0, start) + 1, item
        assert column == start - text.rfind("\n", 0, start), item
        alone = parse(text[start:end]).items
        assert len(alone) == 1, item
        assert alone[0]._replace(span=item.span) == item


def test_span_slices_on_the_corpus():
    assert_span_slices(corpus.load_builtin())


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["sparse", "dense"]), st.integers(0, 2**32), st.integers(20, 60))
def test_span_slices_on_small_benchmark_documents(workload, seed, n):
    assert_span_slices(load_gen().GENERATORS[workload](seed, n).text)


def test_span_slices_on_a_document_the_declaration_patterns_read():
    text = load_gen().sparse(7, 300).text
    assert len(text) >= PATTERN_MIN_CHARS
    assert_span_slices(text)


def names_and_ids(graph):
    return {*graph.agents, *graph.superagents, *(p.id for p in graph.promises),
            *(i.id for i in graph.impositions), *(a.id for a in graph.assessments)}


def renamed(graph, prefix):
    """`graph` with every name and id, and every reference to one, given
    `prefix`; topics, texts, enums and spans stay."""
    def names(listed):
        return frozenset(prefix + name for name in listed)

    def promise(p):
        behalf = p.body.behalf_of
        body = p.body._replace(behalf_of=None if behalf is None else prefix + behalf,
                               affects=names(p.body.affects))
        return p._replace(id=prefix + p.id, promiser=prefix + p.promiser,
                          promisees=names(p.promisees), scope=names(p.scope), body=body)

    return PromiseGraph(
        {prefix + name: a._replace(id=prefix + name) for name, a in graph.agents.items()},
        {prefix + name: s._replace(id=prefix + name, members=names(s.members))
         for name, s in graph.superagents.items()},
        tuple(map(promise, graph.promises)),
        tuple(i._replace(id=prefix + i.id, imposer=prefix + i.imposer,
                         imposee=prefix + i.imposee) for i in graph.impositions),
        tuple(a._replace(id=prefix + a.id, assessor=prefix + a.assessor,
                         target=prefix + a.target) for a in graph.assessments),
    )


def merged(rng, first, second):
    """`first` and `second` in one tuple, each in its own order; `rng`
    interleaves them, None puts `second` after `first`."""
    if rng is None:
        return first + second
    sides = [0] * len(first) + [1] * len(second)
    rng.shuffle(sides)
    parts = (iter(first), iter(second))
    return tuple(next(parts[side]) for side in sides)


def disjoint_union(g, h, rng=None):
    """G and H in one graph, the assessments renumbered in merged order."""
    assessments = merged(rng, g.assessments, h.assessments)
    return PromiseGraph(
        {**g.agents, **h.agents},
        {**g.superagents, **h.superagents},
        merged(rng, g.promises, h.promises),
        merged(rng, g.impositions, h.impositions),
        tuple(a._replace(ordinal=i) for i, a in enumerate(assessments)),
    )


def assert_union_of_the_parts(graph, rng=None):
    h = renamed(graph, PREFIX)
    assert not names_and_ids(graph) & names_and_ids(h)
    union = disjoint_union(graph, h, rng)
    whole, parts = analyze_all(union), [analyze_all(graph), analyze_all(h)]
    position = {promise.id: i for i, promise in enumerate(union.promises)}
    assert whole.bindings == tuple(sorted(parts[0].bindings + parts[1].bindings,
                                          key=lambda binding: position[binding.offer]))
    assert whole.findings == sort_findings(parts[0].findings + parts[1].findings)
    assert list(whole.census.items()) == sorted({**parts[0].census, **parts[1].census}.items())
    assert whole.trust == (parts[0].trust.initial,
                           {**parts[0].trust.entries, **parts[1].trust.entries})


def assert_renaming_maps_through(graph, prefix):
    names = names_and_ids(graph)
    topics = {promise.body.topic for promise in graph.promises}
    assert not names & topics  # a finding's subjects mix names and topics
    before, after = analyze_all(graph), analyze_all(renamed(graph, prefix))

    def rename(subject):
        return prefix + subject if subject in names else subject

    assert after.bindings == tuple(Binding(prefix + offer, prefix + accept, topic)
                                   for offer, accept, topic in before.bindings)
    assert [(f.rule, f.severity, f.subjects, f.span) for f in after.findings] == [
        (f.rule, f.severity, tuple(map(rename, f.subjects)), f.span) for f in before.findings]
    assert list(after.census.items()) == [((prefix + agent, topic), counts)
                                          for (agent, topic), counts in before.census.items()]
    assert after.trust.entries == {(prefix + assessor, prefix + subject): value
                                   for (assessor, subject), value
                                   in before.trust.entries.items()}


def test_disjoint_union_and_renaming_on_the_corpus():
    graph = load(corpus.load_builtin())
    assert_union_of_the_parts(graph)
    assert_union_of_the_parts(graph, random.Random(7))
    for prefix in PREFIXES:
        assert_renaming_maps_through(graph, prefix)


# Seeds, not hypothesis-drawn randoms, which start from near-empty graphs.
# Fewer topics make more promises meet on one, and more sources per consumer.
SEEDS = st.integers(0, 2**32)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(1, 3))
def test_disjoint_union_on_random_graphs(seed, topics):
    rng = random.Random(seed)
    graph = make_random_graph(rng, max_promises=16, topics=TOPICS[:topics])
    assert_union_of_the_parts(graph)
    assert_union_of_the_parts(graph, rng)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(1, 3))
def test_renaming_on_random_graphs(seed, topics):
    graph = make_random_graph(random.Random(seed), max_promises=16, topics=TOPICS[:topics])
    for prefix in PREFIXES:
        assert_renaming_maps_through(graph, prefix)


def assert_scope_growth_only_drops_scope_hiding(graph, index, rng):
    """The name added is a declared one; half the time one the promise affects."""
    promises = list(graph.promises)
    promise = promises[index]
    affected = sorted(promise.body.affects)
    name = rng.choice(affected if affected and rng.random() < 0.5
                      else sorted({*graph.agents, *graph.superagents}))
    promises[index] = promise._replace(scope=promise.scope | {name})
    edited = graph._replace(promises=tuple(promises))
    assert not validate(edited)
    before, after = analyze_all(graph), analyze_all(edited)
    assert after._replace(findings=()) == before._replace(findings=())

    def split(findings):
        hiding = {f for f in findings if f.rule is SCOPE_HIDING}
        return [f for f in findings if f not in hiding], hiding

    (kept, hidden), (kept_after, hidden_after) = split(before.findings), split(after.findings)
    assert kept_after == kept
    assert hidden_after <= hidden
    assert all(f.subjects[0] == promise.id for f in hidden - hidden_after)


def assert_an_appended_assessment_moves_only_its_trust_entry(graph, rng):
    """The new assessment has the next ordinal, a declared assessor and an
    existing target; half the time another assessment's pair."""
    if graph.assessments and rng.random() < 0.5:
        pair = rng.choice(graph.assessments)
        assessor, target = pair.assessor, pair.target
    else:
        assessor = rng.choice(sorted({*graph.agents, *graph.superagents}))
        target = rng.choice(graph.promises).id
    ordinal = max((a.ordinal for a in graph.assessments), default=-1) + 1
    # "a-new" sorts before "a0": only the ordinals order the fold
    new = Assessment("a-new", assessor, target, rng.choice(list(Verdict)), None, ordinal)
    assert new.id not in {a.id for a in graph.assessments}
    edited = graph._replace(assessments=graph.assessments + (new,))
    assert not validate(edited)
    before, after = analyze_all(graph), analyze_all(edited)
    assert after._replace(trust=None) == before._replace(trust=None)
    key = (assessor, graph.promise_by_id(target).promiser)
    alone = graph._replace(assessments=(new,))
    step = trust(alone, TrustParams(initial=before.trust.get(*key))).entries[key]
    assert after.trust == (before.trust.initial, {**before.trust.entries, key: step})


def assert_an_unmentioned_agent_changes_only_the_agent_list(graph, rng):
    name = "zz-unmentioned"
    assert name not in names_and_ids(graph)
    agents = list(graph.agents.items())
    agents.insert(rng.randint(0, len(agents)), (name, Agent(name, rng.choice(list(AgentKind)))))
    edited = graph._replace(agents=dict(agents))
    assert not validate(edited)
    assert analyze_all(edited) == analyze_all(graph)
    before, after = json.loads(to_json(graph)), json.loads(to_json(edited))
    assert [agent for agent in after.pop("agents") if agent["id"] != name] == before.pop("agents")
    assert after == before


def test_monotone_edits_on_the_corpus():
    graph = load(corpus.load_builtin())
    rng = random.Random(7)
    for index in range(len(graph.promises)):
        assert_scope_growth_only_drops_scope_hiding(graph, index, rng)
    for _ in range(20):
        assert_an_appended_assessment_moves_only_its_trust_entry(graph, rng)
    assert_an_unmentioned_agent_changes_only_the_agent_list(graph, rng)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.integers(1, 3))
def test_monotone_edits_on_random_graphs(seed, topics):
    rng = random.Random(seed)
    graph = make_random_graph(rng, max_promises=16, topics=TOPICS[:topics])
    if graph.promises:
        assert_scope_growth_only_drops_scope_hiding(graph, rng.randrange(len(graph.promises)), rng)
        assert_an_appended_assessment_moves_only_its_trust_entry(graph, rng)
    assert_an_unmentioned_agent_changes_only_the_agent_list(graph, rng)
