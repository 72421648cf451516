"""Graph invariants: expansion, visibility, structural validation, and copies."""

import copy
import pickle

import pytest

from promisegraph import corpus
from promisegraph.lower import load
from promisegraph.model import (
    Agent,
    AgentKind,
    Assessment,
    Body,
    ErrorCode,
    Imposition,
    Polarity,
    Promise,
    PromiseGraph,
    SourceSpan,
    Superagent,
    Verdict,
    expand_members,
    validate,
    visible_to,
)


def graph_of(**kwargs):
    base = dict(agents={}, superagents={}, promises=(), impositions=(),
                assessments=())
    base.update(kwargs)
    return PromiseGraph(**base)


def agents(*names):
    return {name: Agent(name) for name in names}


def declaration_errors(graph):
    return [(e.code, e.locator, e.message) for e in validate(graph)]


def test_source_span_rejects_inverted_ranges():
    # built without complaint; `validate` rejects the span of any declaration
    inverted, line_zero = SourceSpan(10, 5, 1, 1), SourceSpan(0, 0, 0, 1)
    g = graph_of(agents={"A": Agent("A", span=inverted), "B": Agent("B", span=line_zero)})
    assert declaration_errors(g) == [
        (ErrorCode.INVALID_DECLARATION, ("agents", 0, "span"),
         "agent 'A' span starts beyond its end"),
        (ErrorCode.INVALID_DECLARATION, ("agents", 1, "span"),
         "agent 'B' span has a line or column below 1"),
    ]
    body = Body(Polarity.OFFER, "t")
    g = graph_of(
        agents=agents("A", "B"),
        superagents={"G": Superagent("G", frozenset({"A"}), SourceSpan(0, 0, 1, 0))},
        promises=(Promise("p", "A", frozenset({"B"}), body, span=inverted),),
        impositions=(Imposition("i", "A", "B", span=inverted),),
        assessments=(Assessment("a", "A", "p", Verdict.KEPT, span=line_zero),),
    )
    assert declaration_errors(g) == [
        (ErrorCode.INVALID_DECLARATION, ("superagents", 0, "span"),
         "superagent 'G' span has a line or column below 1"),
        (ErrorCode.INVALID_DECLARATION, ("promises", 0, "span"),
         "promise 'p' span starts beyond its end"),
        (ErrorCode.INVALID_DECLARATION, ("impositions", 0, "span"),
         "imposition 'i' span starts beyond its end"),
        (ErrorCode.INVALID_DECLARATION, ("assessments", 0, "span"),
         "assessment 'a' span has a line or column below 1"),
    ]


def test_superagent_members_must_be_non_empty():
    g = graph_of(superagents={"G": Superagent("G", frozenset())})
    assert declaration_errors(g) == [
        (ErrorCode.INVALID_DECLARATION, ("superagents", 0, "members"),
         "superagent 'G' has no members"),
    ]


def test_an_agent_filed_under_a_name_other_than_its_id_is_invalid():
    # the repro: references resolve against the keys, but to_json writes the
    # id, so from_json would reject the graph's own output
    g = graph_of(agents={"X": Agent("Y"), "B": Agent("B")},
                 promises=(Promise("p", "X", frozenset({"B"}), Body(Polarity.OFFER, "t")),))
    assert declaration_errors(g) == [
        (ErrorCode.INVALID_DECLARATION, ("agents", 0, "id"),
         "agent 'Y' is filed under the name 'X'"),
    ]


def test_a_superagent_filed_under_a_name_other_than_its_id_is_invalid():
    g = graph_of(agents=agents("A", "B"),
                 superagents={"G": Superagent("G", frozenset({"A"})),
                              "S": Superagent("T", frozenset({"B"}))},
                 promises=(Promise("p", "A", frozenset({"S"}), Body(Polarity.OFFER, "t")),))
    assert declaration_errors(g) == [
        (ErrorCode.INVALID_DECLARATION, ("superagents", 1, "id"),
         "superagent 'T' is filed under the name 'S'"),
    ]


def test_promise_rejects_self_behalf():
    # the promise is built, and `validate` reports it in place of the
    # reference check of its behalf
    body = Body(Polarity.OFFER, "t", behalf_of="Ghost")
    g = graph_of(agents=agents("B"),
                 promises=(Promise("p", "Ghost", frozenset({"B"}), body),))
    assert [(e.code, e.locator, e.message) for e in validate(g)] == [
        (ErrorCode.UNRESOLVED_REFERENCE, ("promises", 0, "from"),
         "promise 'p' refers to undeclared agent 'Ghost'"),
        (ErrorCode.INVALID_DECLARATION, ("promises", 0, "body", "behalf"),
         "promise 'p' is made on behalf of its own promiser"),
    ]


def test_promise_requires_promisees():
    g = graph_of(agents=agents("A"),
                 promises=(Promise("p", "A", frozenset(), Body(Polarity.OFFER, "t")),))
    assert declaration_errors(g) == [
        (ErrorCode.INVALID_DECLARATION, ("promises", 0, "to"), "promise 'p' has no promisees"),
    ]


def test_promise_requires_a_topic():
    g = graph_of(agents=agents("A", "B"),
                 promises=(Promise("p", "A", frozenset({"B"}), Body(Polarity.OFFER, "")),))
    assert declaration_errors(g) == [
        (ErrorCode.INVALID_DECLARATION, ("promises", 0, "body", "topic"),
         "promise 'p' has an empty topic"),
    ]


def test_imposition_rejects_self_imposition():
    # reported by `validate` in place of the reference check of the imposee
    g = graph_of(impositions=(Imposition("i", "Ghost", "Ghost"),))
    assert [(e.code, e.locator, e.message) for e in validate(g)] == [
        (ErrorCode.UNRESOLVED_REFERENCE, ("impositions", 0, "from"),
         "imposition 'i' refers to undeclared agent 'Ghost'"),
        (ErrorCode.INVALID_DECLARATION, ("impositions", 0, "to"),
         "imposition 'i' imposes on its own imposer"),
    ]


def test_expand_members_flattens_nested_superagents():
    g = graph_of(
        agents=agents("A", "B", "C"),
        superagents={
            "Inner": Superagent("Inner", frozenset({"A", "B"})),
            "Outer": Superagent("Outer", frozenset({"Inner", "C"})),
        },
    )
    assert expand_members(g, {"Outer"}) == {"Outer", "Inner", "A", "B", "C"}
    # plain agents expand to themselves
    assert expand_members(g, {"A"}) == {"A"}


def test_expansion_is_downward_only():
    # membership of A in a group must not make the group visible through A
    g = graph_of(
        agents=agents("A", "B"),
        superagents={"G": Superagent("G", frozenset({"A"}))},
    )
    assert expand_members(g, {"A"}) == {"A"}
    assert "G" not in expand_members(g, {"A", "B"})


def test_visible_to_promiser_promisees_and_scope():
    g = graph_of(
        agents=agents("A", "B", "C", "D"),
        promises=(
            Promise("p", "A", frozenset({"B"}),
                    Body(Polarity.OFFER, "t"), scope=frozenset({"C"})),
        ),
    )
    assert visible_to(g, "p") == frozenset({"A", "B", "C"})


def test_visible_to_expands_superagents_in_endpoints():
    g = graph_of(
        agents=agents("A", "B", "C"),
        superagents={"G": Superagent("G", frozenset({"B", "C"}))},
        promises=(
            Promise("p", "A", frozenset({"G"}), Body(Polarity.OFFER, "t")),
        ),
    )
    # the named superagent stays in the visible set alongside its members
    assert visible_to(g, "p") == frozenset({"A", "G", "B", "C"})


def test_promise_by_id_returns_the_first_of_duplicate_ids():
    first = Promise("p", "A", frozenset({"A"}), Body(Polarity.OFFER, "t"))
    second = Promise("p", "A", frozenset({"A"}), Body(Polarity.ACCEPT, "t"))
    g = graph_of(agents=agents("A"), promises=(first, second))
    assert g.promise_by_id("p") is first
    with pytest.raises(KeyError, match="unknown promise id 'q'"):
        g.promise_by_id("q")
    assert g == graph_of(agents=agents("A"), promises=(first, second))


def test_visible_to_unknown_promise_raises():
    with pytest.raises(KeyError):
        visible_to(PromiseGraph(), "ghost")


def test_validate_accepts_the_empty_graph():
    assert validate(PromiseGraph()) == []


def hand_built_graph():
    body = Body(Polarity.OFFER, "t", affects=frozenset({"B"}))
    promise = Promise("p", "A", frozenset({"G"}), body, span=SourceSpan(0, 5, 1, 1))
    graph = PromiseGraph(agents=agents("A", "B"),
                         superagents={"G": Superagent("G", frozenset({"B"}))},
                         promises=(promise,))
    graph.promise_by_id("p")  # the cached indexes are copied too
    assert graph._agent_topic_index == {("G", "t"): ([promise], [])}
    return graph


@pytest.mark.parametrize("make", [PromiseGraph, hand_built_graph,
                                  lambda: load(corpus.load_builtin())],
                         ids=["default", "hand-built", "corpus"])
def test_graphs_pickle_and_deepcopy(make):
    graph = make()
    for twin in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert type(twin) is PromiseGraph
        assert twin == graph
        assert [twin.promise_by_id(p.id) for p in twin.promises] == list(graph.promises)
        assert twin._agent_topic_index == graph._agent_topic_index


def test_replace_builds_a_graph_without_the_indexes():
    graph = hand_built_graph()
    assert {"_promise_index", "_agent_topic_index"} <= vars(graph).keys()
    twin = graph._replace(promises=())
    assert type(twin) is PromiseGraph and vars(twin) == {}
    assert twin._agent_topic_index == {}
    with pytest.raises(KeyError):
        twin.promise_by_id("p")


def test_default_graphs_share_no_mapping():
    first, second = PromiseGraph(), PromiseGraph(promises=())
    assert first.agents == second.agents == {}
    assert first.agents is not second.agents
    assert first.superagents is not second.superagents


def test_validate_unresolved_references():
    g = graph_of(
        agents=agents("A"),
        promises=(
            Promise("p", "A", frozenset({"Ghost"}), Body(Polarity.OFFER, "t")),
        ),
    )
    errors = validate(g)
    assert [e.code for e in errors] == [ErrorCode.UNRESOLVED_REFERENCE]
    assert "Ghost" in errors[0].message


def test_validate_namespace_clash():
    g = graph_of(
        agents=agents("X", "A"),
        superagents={"X": Superagent("X", frozenset({"A"}))},
    )
    assert ErrorCode.NAMESPACE_CLASH in {e.code for e in validate(g)}


def test_validate_cyclic_superagents():
    g = graph_of(
        superagents={
            "A": Superagent("A", frozenset({"B"})),
            "B": Superagent("B", frozenset({"A"})),
        },
    )
    codes = {e.code for e in validate(g)}
    assert ErrorCode.CYCLIC_SUPERAGENT in codes


def test_validate_duplicate_promise_ids():
    p = Promise("p", "A", frozenset({"A"}), Body(Polarity.OFFER, "t"))
    g = graph_of(agents=agents("A"), promises=(p, p))
    assert ErrorCode.DUPLICATE_ID in {e.code for e in validate(g)}


def test_validate_assessment_references():
    g = graph_of(
        agents=agents("A"),
        assessments=(Assessment("a", "A", "nope", Verdict.KEPT),),
    )
    assert [e.code for e in validate(g)] == [ErrorCode.UNRESOLVED_REFERENCE]


def test_validate_assessment_ordinals_strictly_increase():
    p = Promise("p", "A", frozenset({"A"}), Body(Polarity.OFFER, "t"))
    g = graph_of(
        agents=agents("A"),
        promises=(p,),
        assessments=(
            Assessment("a1", "A", "p", Verdict.KEPT, ordinal=1),
            Assessment("a2", "A", "p", Verdict.KEPT, ordinal=1),
        ),
    )
    assert ErrorCode.INVALID_DECLARATION in {e.code for e in validate(g)}


def test_scope_references_are_checked():
    g = graph_of(
        agents=agents("A", "B"),
        promises=(
            Promise("p", "A", frozenset({"B"}), Body(Polarity.OFFER, "t"),
                    scope=frozenset({"Nobody"})),
        ),
    )
    assert [e.code for e in validate(g)] == [ErrorCode.UNRESOLVED_REFERENCE]


def test_affects_references_are_checked():
    g = graph_of(
        agents=agents("A", "B"),
        promises=(
            Promise("p", "A", frozenset({"B"}),
                    Body(Polarity.OFFER, "t", affects=frozenset({"Nobody"}))),
        ),
    )
    assert [e.code for e in validate(g)] == [ErrorCode.UNRESOLVED_REFERENCE]
