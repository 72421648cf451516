"""Serialization: canonical JSON, schema errors, DOT text, viewpoints,
and report rendering."""

import json
import random

import pytest

from promisegraph.export import (
    JsonError,
    ReportFormat,
    from_json,
    render_report,
    to_dot,
    to_json,
    viewpoint,
)
from promisegraph.analysis import analyze_all
from promisegraph.lower import load
from promisegraph.model import new_graph, visible_to

from conftest import make_random_graph

EMPTY_JSON = (b'{"agents":[],"assessments":[],"impositions":[],'
              b'"promises":[],"superagents":[]}\n')


def test_empty_graph_serializes_to_fixed_bytes():
    assert to_json(new_graph()) == EMPTY_JSON


def test_json_is_canonical_form():
    blob = to_json(load("agent A\n"))
    assert blob.endswith(b"\n")
    decoded = json.loads(blob)
    assert list(decoded) == sorted(decoded)
    assert b": " not in blob and b", " not in blob


def test_round_trip_preserves_everything():
    source = (
        "agent A kind=human\n"
        "agent B kind=software\n"
        "superagent G { A, B }\n"
        "promise p from A to B, G scope [A] provenance=inferred {\n"
        '    offer t "words" affects [B] condition "when"\n'
        "}\n"
        'imposition i from A to B kind=threat { "or else" }\n'
        "assessment v by A on p verdict=not-kept note \"seen\"\n"
    )
    graph = load(source)
    again = from_json(to_json(graph))
    assert again == graph
    assert to_json(again) == to_json(graph)


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_on_random_graphs(seed):
    graph = make_random_graph(random.Random(seed + 7000), max_promises=10)
    assert from_json(to_json(graph)) == graph


def test_json_output_is_deterministic():
    graph = make_random_graph(random.Random(99), max_promises=10)
    assert to_json(graph) == to_json(graph)
    assert to_dot(graph) == to_dot(graph)


def error_path(blob):
    with pytest.raises(JsonError) as exc:
        from_json(blob)
    return exc.value.path


def test_malformed_json_reports_root():
    assert error_path(b"{ not json") == "$"


def test_non_object_root():
    assert error_path(b"[]\n") == "$"


def test_missing_top_level_key():
    blob = json.dumps({"agents": [], "superagents": [], "impositions": [],
                       "assessments": []})
    assert error_path(blob) == "$.promises"


def test_wrong_type_for_agents():
    blob = json.dumps({"agents": {}, "superagents": [], "promises": [],
                       "impositions": [], "assessments": []})
    assert error_path(blob) == "$.agents"


def minimal_doc(**extra):
    doc = {"agents": [], "superagents": [], "promises": [],
           "impositions": [], "assessments": []}
    doc.update(extra)
    return doc


def agent_obj(name, kind="system"):
    return {"id": name, "kind": kind,
            "span": {"start": 0, "end": 0, "line": 1, "col": 1}}


def test_bad_enum_value_names_the_field():
    blob = json.dumps(minimal_doc(agents=[agent_obj("A", kind="martian")]))
    assert error_path(blob) == "$.agents[0].kind"


def test_unexpected_key_is_rejected():
    agent = agent_obj("A")
    agent["color"] = "red"
    blob = json.dumps(minimal_doc(agents=[agent]))
    assert error_path(blob) == "$.agents[0].color"


def test_duplicate_agent_id_is_rejected():
    blob = json.dumps(minimal_doc(agents=[agent_obj("A"), agent_obj("A")]))
    assert error_path(blob) == "$.agents[1].id"


def test_boolean_is_not_an_integer():
    agent = agent_obj("A")
    agent["span"]["start"] = True
    blob = json.dumps(minimal_doc(agents=[agent]))
    assert error_path(blob) == "$.agents[0].span.start"


def promise_obj(pid, promiser, promisees, scope=(), behalf=None):
    return {
        "id": pid, "from": promiser, "to": list(promisees),
        "scope": list(scope), "provenance": "explicit",
        "body": {"polarity": "offer", "topic": "t", "text": "",
                 "behalf": behalf, "affects": [], "condition": None},
        "span": {"start": 0, "end": 0, "line": 1, "col": 1},
    }


def test_dangling_reference_uses_bare_paths():
    blob = json.dumps(minimal_doc(
        agents=[agent_obj("A")],
        promises=[promise_obj("p", "A", ["A"], scope=["Ghost"])],
    ))
    assert error_path(blob) == "promises[0].scope[0]"


def test_dangling_assessment_target():
    blob = json.dumps(minimal_doc(
        agents=[agent_obj("A")],
        assessments=[{"id": "v", "by": "A", "on": "nope", "verdict": "kept",
                      "note": None, "ordinal": 0,
                      "span": {"start": 0, "end": 0, "line": 1, "col": 1}}],
    ))
    assert error_path(blob) == "assessments[0].on"


REFERENCE_SOURCE = (
    "agent A\n"
    "agent B\n"
    "superagent G { A }\n"
    "promise p from A to B scope [A] { offer t behalf B affects [A] }\n"
    'imposition i from A to B { "x" }\n'
    "assessment v by A on p verdict=kept\n"
)


@pytest.mark.parametrize("keys, path", [
    (("superagents", 0, "members", 0), "superagents[0].members[0]"),
    (("promises", 0, "from"), "promises[0].from"),
    (("promises", 0, "to", 0), "promises[0].to[0]"),
    (("promises", 0, "scope", 0), "promises[0].scope[0]"),
    (("promises", 0, "body", "affects", 0), "promises[0].body.affects[0]"),
    (("promises", 0, "body", "behalf"), "promises[0].body.behalf"),
    (("impositions", 0, "from"), "impositions[0].from"),
    (("impositions", 0, "to"), "impositions[0].to"),
    (("assessments", 0, "by"), "assessments[0].by"),
    (("assessments", 0, "on"), "assessments[0].on"),
])
def test_each_dangling_reference_field_has_a_bare_path(keys, path):
    doc = json.loads(to_json(load(REFERENCE_SOURCE)))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "Ghost"
    assert error_path(json.dumps(doc)) == path


def test_set_valued_indices_count_in_sorted_order():
    span = {"start": 0, "end": 0, "line": 1, "col": 1}
    blob = json.dumps(minimal_doc(
        agents=[agent_obj("Z")],
        superagents=[{"id": "G", "members": ["Z", "Ghost"], "span": span}],
    ))
    assert error_path(blob) == "superagents[0].members[0]"


@pytest.mark.parametrize("section, path", [
    ("promises", "promises[1].id"),
    ("impositions", "impositions[1].id"),
    ("assessments", "assessments[1].id"),
])
def test_duplicate_ids_name_the_second_id(section, path):
    doc = json.loads(to_json(load(REFERENCE_SOURCE)))
    second = dict(doc[section][0])
    if section == "assessments":
        second["ordinal"] = 1
    doc[section].append(second)
    assert error_path(json.dumps(doc)) == path


def test_non_increasing_ordinal_names_the_field():
    doc = json.loads(to_json(load(REFERENCE_SOURCE)))
    doc["assessments"].append(dict(doc["assessments"][0], id="w"))
    assert error_path(json.dumps(doc)) == "assessments[1].ordinal"


def test_agent_superagent_clash_names_the_superagent_id():
    doc = json.loads(to_json(load(REFERENCE_SOURCE)))
    doc["agents"].append(agent_obj("G"))
    assert error_path(json.dumps(doc)) == "superagents[0].id"


def test_structural_leftovers_surface_at_root():
    span = {"start": 0, "end": 0, "line": 1, "col": 1}
    blob = json.dumps(minimal_doc(superagents=[
        {"id": "A", "members": ["B"], "span": span},
        {"id": "B", "members": ["A"], "span": span},
    ]))
    assert error_path(blob) == "$"


def test_viewpoint_soundness_and_completeness():
    for seed in range(30):
        graph = make_random_graph(random.Random(seed + 300), max_promises=10)
        for observer in list(graph.agents) + list(graph.superagents):
            seen = viewpoint(graph, observer).graph
            kept = {p.id for p in seen.promises}
            for promise in graph.promises:
                visible = observer in visible_to(graph, promise.id)
                assert (promise.id in kept) == visible


def test_viewpoint_is_idempotent_on_random_graphs():
    for seed in range(30):
        graph = make_random_graph(random.Random(seed + 600), max_promises=10)
        for observer in list(graph.agents) + list(graph.superagents):
            once = viewpoint(graph, observer).graph
            twice = viewpoint(once, observer).graph
            assert once == twice


def test_viewpoint_hides_out_of_scope_promises():
    graph = load(
        "agent A\nagent B\nagent C\n"
        "promise secret from A to B scope [] { offer t }\n"
        "promise open from A to B scope [C] { offer t }\n"
    )
    c_view = viewpoint(graph, "C").graph
    assert [p.id for p in c_view.promises] == ["open"]
    b_view = viewpoint(graph, "B").graph
    assert [p.id for p in b_view.promises] == ["secret", "open"]


def test_viewpoint_keeps_the_observer_and_referenced_actors():
    graph = load(
        "agent A\nagent B\nagent Loner\n"
        "promise p from A to B { offer t }\n"
    )
    view = viewpoint(graph, "Loner").graph
    assert list(view.agents) == ["Loner"]
    assert view.promises == ()


def test_viewpoint_filters_impositions_to_parties():
    graph = load(
        "agent A\nagent B\nagent C\n"
        'imposition i from A to B { "demand" }\n'
    )
    assert viewpoint(graph, "C").graph.impositions == ()
    assert len(viewpoint(graph, "A").graph.impositions) == 1


def test_viewpoint_unknown_observer_raises():
    with pytest.raises(KeyError):
        viewpoint(load("agent A\n"), "Nobody")


def test_dot_empty_graph():
    assert to_dot(new_graph()) == "digraph promises {}\n"


def test_dot_shapes_edges_and_signs():
    graph = load(
        "agent H kind=human\n"
        "agent S kind=software\n"
        "promise give from H to S provenance=inferred { offer data }\n"
        "promise take from S to H { accept data }\n"
    )
    dot = to_dot(graph)
    assert '"H" [shape=ellipse];' in dot
    assert '"S" [shape=box3d];' in dot
    assert '"H" -> "S" [label="+data", style=dashed];' in dot
    assert '"S" -> "H" [label="−data"];' in dot


def test_dot_clusters_superagents_with_anchor():
    graph = load(
        "agent A\nagent B\n"
        "superagent G { A, B }\n"
    )
    dot = to_dot(graph)
    assert 'subgraph "cluster_G" {' in dot
    assert '"G" [shape=doubleoctagon];' in dot
    assert dot.count('"A" [') == 1  # each agent rendered once


def test_dot_cluster_membership_is_first_declared_wins():
    graph = load(
        "agent A\n"
        "superagent G1 { A }\n"
        "superagent G2 { A }\n"
    )
    dot = to_dot(graph)
    g1_block = dot.split('subgraph "cluster_G1"')[1].split("}")[0]
    g2_block = dot.split('subgraph "cluster_G2"')[1].split("}")[0]
    assert '"A" [' in g1_block
    assert '"A" [' not in g2_block


def test_dot_without_clustering_flattens():
    graph = load("agent A\nsuperagent G { A }\n")
    dot = to_dot(graph, cluster_superagents=False)
    assert "subgraph" not in dot
    assert '"G" [shape=doubleoctagon];' in dot


def test_dot_label_mode_id():
    graph = load(
        "agent A\nagent B\n"
        "promise p from A to B { offer t }\n"
    )
    assert '[label="+p"]' in to_dot(graph, label="id")
    with pytest.raises(ValueError):
        to_dot(graph, label="color")


def test_empty_report_renders_exactly():
    report = analyze_all(new_graph())
    assert render_report(report) == "0 findings\n"


def test_text_report_sections(aoa_toy_source):
    report = analyze_all(load(aoa_toy_source))
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0] == "2 findings"
    assert any(line.startswith("violation single-source-acceptance") for line in lines)
    assert "1 bindings" in lines
    assert "census" in lines
    assert "  Consumer/telemetry: offers_in=2 accepts_out=1" in lines
    assert "trust" not in lines  # no assessments in the toy


def test_text_report_color_wraps_severity(aoa_toy_source):
    report = analyze_all(load(aoa_toy_source))
    colored = render_report(report, color=True)
    assert "\x1b[31mviolation\x1b[0m" in colored
    assert "\x1b[33mwarning\x1b[0m" in colored


def test_json_report_shape(aoa_toy_source):
    report = analyze_all(load(aoa_toy_source))
    decoded = json.loads(render_report(report, ReportFormat.JSON))
    assert sorted(decoded) == ["bindings", "census", "findings", "trust"]
    assert decoded["bindings"] == [
        {"offer": "left-feed", "accept": "single-tap", "topic": "telemetry"},
    ]
    assert decoded["census"][0] == {
        "agent": "Consumer", "topic": "telemetry",
        "offers_in": 2, "accepts_out": 1,
    }


def test_report_rendering_is_deterministic():
    graph = make_random_graph(random.Random(31337), max_promises=12)
    report = analyze_all(graph)
    assert render_report(report) == render_report(report)
    assert (render_report(report, ReportFormat.JSON)
            == render_report(report, ReportFormat.JSON))
