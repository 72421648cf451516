"""`polarity_census` and `single_source`, which read the graph's one
(agent, topic) index, against the two walks they replaced
(`reference_analysis`): equal censuses and equal findings, in equal order,
at every quorum from 1 to 4."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOPICS, load_gen, make_random_graph
from promisegraph import corpus
from promisegraph.analysis import polarity_census, single_source
from promisegraph.lower import load
from promisegraph.model import Polarity
from reference_analysis import reference_polarity_census, reference_single_source

QUORUMS = st.integers(1, 4)


def assert_matches_the_reference(graph, quorum):
    assert list(polarity_census(graph).items()) == list(reference_polarity_census(graph).items())
    assert single_source(graph, quorum) == reference_single_source(graph, quorum)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), QUORUMS, st.integers(1, 3), st.integers(1, 3))
def test_the_rules_match_the_reference_on_colliding_random_graphs(rng, quorum, agents, topics):
    graph = make_random_graph(rng, max_promises=16, max_agents=agents, topics=TOPICS[:topics])
    assert_matches_the_reference(graph, quorum)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["sparse", "dense"]), st.integers(0, 2**32), st.integers(20, 240),
       QUORUMS)
def test_the_rules_match_the_reference_on_small_benchmark_documents(workload, seed, n, quorum):
    graph = load(load_gen().GENERATORS[workload](seed, n).text)
    assert_matches_the_reference(graph, quorum)


@pytest.mark.parametrize("quorum", [1, 2, 3, 4])
def test_the_rules_match_the_reference_on_the_corpus(quorum):
    assert_matches_the_reference(load(corpus.load_builtin()), quorum)


def test_the_random_graphs_reach_every_single_source_branch():
    """Keys collide in graphs like the property's: consumers with fewer than
    two sources, with enough of them accepted, and with too few."""
    branches = Counter()
    for seed in range(300):
        graph = make_random_graph(random.Random(seed), max_promises=16, max_agents=2,
                                  topics=TOPICS[:1])
        flagged = {finding.subjects[:2] for finding in reference_single_source(graph, 2)}
        for (consumer, topic), (_, accepts) in reference_polarity_census(graph).items():
            if not accepts:
                continue
            sources = {p.promiser for p in graph.promises if p.body.polarity is Polarity.OFFER
                       and p.body.topic == topic and consumer in p.promisees}
            branches["fired" if (consumer, topic) in flagged
                     else "met" if len(sources) > 1 else "lone"] += 1
        assert_matches_the_reference(graph, 2)
    assert len(branches) == 3 and min(branches.values()) >= 20, branches
