"""`polarity_census` and `single_source` as they were when each walked every
promise and keyed the (agent, topic) pairs itself, kept as the test
reference for the two rules that now read the graph's one (agent, topic)
index, and a seeded generator of graphs whose (agent, topic) keys collide
to compare them on. This module does not import pytest, so scripts can use
it too (`scripts/floor_check.py`)."""

import random
from typing import Dict, List, Set, Tuple

from promisegraph.analysis import OFFER, SINGLE_SOURCE_ACCEPTANCE, VIOLATION, Finding
from promisegraph.model import Agent, Body, Polarity, Promise, PromiseGraph, SourceSpan


def reference_polarity_census(graph: PromiseGraph) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Per (agent, topic): offers directed at the agent vs acceptances the
    agent makes. Counts use declared ids, superagents count as themselves."""
    counts: Dict[Tuple[str, str], List[int]] = {}

    def slot(agent: str, topic: str) -> List[int]:
        return counts.setdefault((agent, topic), [0, 0])

    for promise in graph.promises:
        body = promise.body
        if body.polarity is OFFER:
            for promisee in promise.promisees:
                slot(promisee, body.topic)[0] += 1
        else:
            slot(promise.promiser, body.topic)[1] += 1
    return {key: (pair[0], pair[1]) for key, pair in sorted(counts.items())}


def reference_single_source(graph: PromiseGraph, quorum: int = 2) -> List[Finding]:
    """Flag consumers that accept a topic from fewer distinct sources than
    the quorum demands, despite more sources offering it. A consumer is an
    agent with at least one acceptance of the topic."""
    if quorum < 1:
        raise ValueError("quorum must be >= 1")
    offerers: Dict[Tuple[str, str], Set[str]] = {}
    accepted: Dict[Tuple[str, str], Set[str]] = {}
    first_accept: Dict[Tuple[str, str], Promise] = {}

    for promise in graph.promises:
        body = promise.body
        if body.polarity is OFFER:
            for promisee in promise.promisees:
                offerers.setdefault((promisee, body.topic), set()).add(promise.promiser)
        else:
            key = (promise.promiser, body.topic)
            accepted.setdefault(key, set()).update(promise.promisees)
            first_accept.setdefault(key, promise)

    findings: List[Finding] = []
    for key in sorted(accepted):
        consumer, topic = key
        sources = offerers.get(key, set())
        taken = accepted[key]
        if len(sources) < 2:
            continue
        if len(taken) >= min(quorum, len(sources)):
            continue
        ignored = sorted(sources - taken)
        findings.append(Finding(
            SINGLE_SOURCE_ACCEPTANCE, VIOLATION,
            (consumer, topic, *ignored),
            "%s accepts topic %r from %d source(s) while %d agents offer it "
            "(quorum %d); ignored: %s"
            % (consumer, topic, len(taken), len(sources), quorum, ", ".join(ignored)),
            first_accept[key].span,
        ))
    return findings


def colliding_graph(rng: random.Random) -> PromiseGraph:
    """Up to 12 promises among two to four agents on two topics, so that
    consumers often hear a topic from several sources."""
    names = ["A", "B", "C", "D"][:rng.randint(2, 4)]
    promises = tuple(
        Promise("p%d" % i, rng.choice(names), frozenset(rng.sample(names, rng.randint(1, 2))),
                Body(rng.choice(list(Polarity)), rng.choice("st")), span=SourceSpan(i, i, 1, i + 1))
        for i in range(rng.randint(0, 12)))
    return PromiseGraph({name: Agent(name) for name in names}, {}, promises)
