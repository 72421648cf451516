"""`validate` against the validator it replaced (`reference_validate`), on
broken graphs: equal errors, in equal order, with equal locators, and so
equal `from_json` error paths."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_graph
from promisegraph.model import validate
from reference_validate import (broken_graph, error_kind, json_outcome, reference_json_outcome,
                                reference_validate)

# every error `validate` reports, by code, field path and span rule
KINDS = {
    "cyclic-superagent",
    "namespace-clash superagents.id",
    "invalid-declaration superagents.members",
    "invalid-declaration promises.to",
    "invalid-declaration promises.body.topic",
    "invalid-declaration promises.body.behalf",
    "invalid-declaration impositions.to",
    "invalid-declaration assessments.ordinal",
    "duplicate-id promises.id",
    "duplicate-id impositions.id",
    "duplicate-id assessments.id",
    "unresolved-reference superagents.members",
    "unresolved-reference promises.from",
    "unresolved-reference promises.to",
    "unresolved-reference promises.scope",
    "unresolved-reference promises.body.affects",
    "unresolved-reference promises.body.behalf",
    "unresolved-reference impositions.from",
    "unresolved-reference impositions.to",
    "unresolved-reference assessments.by",
    "unresolved-reference assessments.on",
} | {"invalid-declaration %s.span %s" % (section, rule)
     for section in ("agents", "superagents", "promises", "impositions", "assessments")
     for rule in ("starts before offset 0", "starts beyond its end",
                  "has a line or column below 1")}


def test_validate_matches_the_reference_on_seeded_broken_graphs():
    kinds, first_kinds, shapes = Counter(), Counter(), Counter()
    for seed in range(3000):
        graph = broken_graph(random.Random(seed))
        expected = reference_validate(graph)
        assert validate(graph) == expected, seed
        assert json_outcome(graph) == reference_json_outcome(graph), seed
        kinds.update(map(error_kind, expected))
        first_kinds.update(map(error_kind, expected[:1]))
        per_entity = Counter(error.locator[:2] for error in expected if error.locator)
        shapes["clean" if not expected else "one" if len(expected) == 1 else "several"] += 1
        shapes["several on one entity"] += any(count > 1 for count in per_entity.values())
    assert set(kinds) == set(first_kinds) == KINDS, set(kinds) ^ KINDS
    assert min(shapes.values()) >= 50, shapes


def test_validate_matches_the_reference_on_valid_graphs():
    for seed in range(200):
        graph = make_random_graph(random.Random(seed), max_promises=12)
        assert validate(graph) == reference_validate(graph) == []


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_validate_matches_the_reference_on_generated_broken_graphs(rng):
    graph = broken_graph(rng)
    assert validate(graph) == reference_validate(graph)
    assert json_outcome(graph) == reference_json_outcome(graph)
