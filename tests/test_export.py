"""Serialization: canonical JSON, schema errors, DOT text, viewpoints,
and report rendering."""

import gc
import json
import random
import re
from collections import Counter
from typing import Dict, List, Optional, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promisegraph import corpus, export
from promisegraph.export import (
    _KIND_SHAPES,
    JsonError,
    _quote,
    ReportFormat,
    from_json,
    render_report,
    render_trust,
    to_dot,
    to_json,
    viewpoint,
)
from promisegraph.analysis import (
    AnalysisReport,
    Binding,
    Finding,
    FindingRule,
    Severity,
    TrustTable,
    analyze_all,
)
from promisegraph.lower import load
from promisegraph.model import (
    Agent,
    AgentKind,
    Assessment,
    Body,
    Imposition,
    ImpositionKind,
    Polarity,
    Promise,
    PromiseGraph,
    Provenance,
    SourceSpan,
    Superagent,
    Verdict,
    validate,
    visible_to,
)

from conftest import load_gen, make_random_graph

EMPTY_JSON = (b'{"agents":[],"assessments":[],"impositions":[],'
              b'"promises":[],"superagents":[]}\n')


def test_empty_graph_serializes_to_fixed_bytes():
    assert to_json(PromiseGraph()) == EMPTY_JSON


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


def test_round_trip_keeps_every_field_in_its_place():
    """Within each record, spans included, no two string, integer or name-list
    fields hold the same value, so `_GRAPH` reading two same-typed keys into
    each other's fields cannot go unseen."""
    graph = PromiseGraph(
        agents={
            "Ana": Agent("Ana", AgentKind.HUMAN, SourceSpan(3, 17, 5, 9)),
            "Ben": Agent("Ben", AgentKind.SOFTWARE, SourceSpan(20, 31, 6, 2)),
            "Dee": Agent("Dee", AgentKind.HARDWARE, SourceSpan(40, 58, 8, 4)),
        },
        superagents={"Crew": Superagent("Crew", frozenset({"Ana", "Ben"}),
                                        SourceSpan(60, 77, 10, 3))},
        promises=(Promise("p-feed", "Ana", frozenset({"Ben"}),
                          Body(Polarity.ACCEPT, "fuel", "words", "Crew", frozenset({"Dee"}),
                               "if asked"),
                          frozenset({"Crew", "Dee"}), Provenance.INFERRED,
                          SourceSpan(80, 99, 12, 7)),),
        impositions=(Imposition("i-push", "Ben", "Dee", ImpositionKind.THREAT, "or else",
                                SourceSpan(101, 118, 14, 6)),),
        assessments=(Assessment("a-seen", "Dee", "p-feed", Verdict.NOT_KEPT, "late", 4,
                                SourceSpan(120, 135, 16, 11)),),
    )
    records = [*graph.agents.values(), *graph.superagents.values(), *graph.promises,
               graph.promises[0].body, *graph.impositions, *graph.assessments]
    for record in records + [record.span for record in records if hasattr(record, "span")]:
        values = [v for v in record if isinstance(v, (str, int, frozenset))]
        assert len(set(values)) == len(values), record
    assert not validate(graph)
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


def rejection_doc(change):
    doc = json.loads(to_json(load(REFERENCE_SOURCE)))
    change(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("blob, path, reason", [
    (rejection_doc(lambda d: d["superagents"][0].update(members=[])),
     "superagents[0].members", "superagent 'G' has no members"),
    (rejection_doc(lambda d: d["promises"][0].update(to=[])),
     "promises[0].to", "promise 'p' has no promisees"),
    (rejection_doc(lambda d: d["agents"][0]["span"].update(start=9, end=8)),
     "agents[0].span", "agent 'A' span starts beyond its end"),
    (rejection_doc(lambda d: d["agents"][0]["span"].update(start=-5, end=-1)),
     "agents[0].span", "agent 'A' span starts before offset 0"),
    (rejection_doc(lambda d: d["promises"][0]["body"].update(topic="")),
     "promises[0].body.topic", "promise 'p' has an empty topic"),
    (rejection_doc(lambda d: d["promises"][0]["body"].update(behalf="A")),
     "promises[0].body.behalf", "promise 'p' is made on behalf of its own promiser"),
    (rejection_doc(lambda d: d["impositions"][0].update(to="A")),
     "impositions[0].to", "imposition 'i' imposes on its own imposer"),
    (rejection_doc(lambda d: d["superagents"].append(dict(d["superagents"][0]))),
     "$.superagents[1].id", "duplicate superagent id 'G'"),
    (rejection_doc(lambda d: d["promises"][0]["body"].update(text=None)),
     "$.promises[0].body.text", "expected a string"),
    (rejection_doc(lambda d: d["promises"][0].update(scope=[1], provenance="x",
                                                      body=dict(d["promises"][0]["body"],
                                                                text=None))),
     "$.promises[0].body.text", "expected a string"),
    (rejection_doc(lambda d: d.update(impositions={"i": []})),
     "$.impositions", "expected an array"),
    (b"\xff" + EMPTY_JSON, "$",
     "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
], ids=["empty-members", "empty-to", "span-start-beyond-end", "span-start-negative",
        "empty-topic", "self-behalf", "self-imposition", "duplicate-superagent", "null-text",
        "body-before-scope-and-provenance", "non-array-section", "non-utf8"])
def test_rejection_path_and_reason(blob, path, reason):
    with pytest.raises(JsonError) as exc:
        from_json(blob)
    assert (exc.value.path, exc.value.reason) == (path, reason)


@pytest.mark.parametrize("blob", [
    b"[" * 100000,
    # CPython 3.13 parses nesting 5,000 deep; 100,000 is too deep for 3.10 to 3.13
    EMPTY_JSON.replace(b'"agents":[]', b'"agents":' + b"[" * 100000 + b"]" * 100000),
], ids=["root", "under-agents"])
def test_deeply_nested_json_is_a_json_error(blob):
    with pytest.raises(JsonError) as exc:
        from_json(blob)
    assert exc.value.path == "$"
    assert exc.value.reason.startswith("malformed JSON: ")


class _ReferenceJsonReader:
    """Schema-checked walk over decoded JSON with path-tracked errors."""

    @staticmethod
    def fail(path: str, message: str) -> None:
        raise JsonError(path, message)

    @classmethod
    def obj(cls, value: object, path: str, keys: Tuple[str, ...]) -> dict:
        if not isinstance(value, dict):
            cls.fail(path, "expected an object")
        extra = set(value) - set(keys)
        if extra:
            cls.fail("%s.%s" % (path, sorted(extra)[0]), "unexpected key")
        for key in keys:
            if key not in value:
                cls.fail("%s.%s" % (path, key), "missing key")
        return value

    @classmethod
    def string(cls, value: object, path: str) -> str:
        if not isinstance(value, str):
            cls.fail(path, "expected a string")
        return value

    @classmethod
    def opt_string(cls, value: object, path: str) -> Optional[str]:
        if value is None:
            return None
        return cls.string(value, path)

    @classmethod
    def integer(cls, value: object, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            cls.fail(path, "expected an integer")
        return value

    @classmethod
    def array(cls, value: object, path: str) -> list:
        if not isinstance(value, list):
            cls.fail(path, "expected an array")
        return value

    @classmethod
    def string_array(cls, value: object, path: str) -> List[str]:
        return [cls.string(v, "%s[%d]" % (path, i))
                for i, v in enumerate(cls.array(value, path))]

    @classmethod
    def enum(cls, value: object, path: str, enum_type):
        text = cls.string(value, path)
        try:
            return enum_type(text)
        except ValueError:
            cls.fail(path, "expected one of %s"
                     % ", ".join(e.value for e in enum_type))

    @classmethod
    def span(cls, value: object, path: str) -> SourceSpan:
        obj = cls.obj(value, path, ("start", "end", "line", "col"))
        return SourceSpan(
            cls.integer(obj["start"], path + ".start"),
            cls.integer(obj["end"], path + ".end"),
            cls.integer(obj["line"], path + ".line"),
            cls.integer(obj["col"], path + ".col"),
        )


def reference_from_json(data: Union[bytes, str]) -> PromiseGraph:
    """The JSON reader of the earlier design: one hand-written loop per
    section over `_ReferenceJsonReader`, kept as the differential reference.
    Like from_json, it leaves empty `members`, `to` and `topic` and bad
    spans to `validate`."""
    reader = _ReferenceJsonReader
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonError("$", "not valid UTF-8: %s" % exc)
    try:
        decoded = json.loads(data)
    except ValueError as exc:
        raise JsonError("$", "malformed JSON: %s" % exc)

    top = reader.obj(decoded, "$",
                     ("agents", "superagents", "promises", "impositions", "assessments"))

    agents: Dict[str, Agent] = {}
    for i, item in enumerate(reader.array(top["agents"], "$.agents")):
        path = "$.agents[%d]" % i
        obj = reader.obj(item, path, ("id", "kind", "span"))
        agent = Agent(
            reader.string(obj["id"], path + ".id"),
            reader.enum(obj["kind"], path + ".kind", AgentKind),
            reader.span(obj["span"], path + ".span"),
        )
        if agent.id in agents:
            reader.fail(path + ".id", "duplicate agent id %r" % agent.id)
        agents[agent.id] = agent

    superagents: Dict[str, Superagent] = {}
    for i, item in enumerate(reader.array(top["superagents"], "$.superagents")):
        path = "$.superagents[%d]" % i
        obj = reader.obj(item, path, ("id", "members", "span"))
        members = reader.string_array(obj["members"], path + ".members")
        superagent = Superagent(
            reader.string(obj["id"], path + ".id"),
            frozenset(members),
            reader.span(obj["span"], path + ".span"),
        )
        if superagent.id in superagents:
            reader.fail(path + ".id", "duplicate superagent id %r" % superagent.id)
        superagents[superagent.id] = superagent

    promises: List[Promise] = []
    for i, item in enumerate(reader.array(top["promises"], "$.promises")):
        path = "$.promises[%d]" % i
        obj = reader.obj(item, path, ("id", "from", "to", "scope", "provenance",
                                      "body", "span"))
        body_obj = reader.obj(obj["body"], path + ".body",
                              ("polarity", "topic", "text", "behalf", "affects",
                               "condition"))
        promisees = reader.string_array(obj["to"], path + ".to")
        body = Body(
            polarity=reader.enum(body_obj["polarity"], path + ".body.polarity", Polarity),
            topic=reader.string(body_obj["topic"], path + ".body.topic"),
            text=reader.string(body_obj["text"], path + ".body.text"),
            behalf_of=reader.opt_string(body_obj["behalf"], path + ".body.behalf"),
            affects=frozenset(reader.string_array(body_obj["affects"], path + ".body.affects")),
            condition=reader.opt_string(body_obj["condition"], path + ".body.condition"),
        )
        promises.append(Promise(
            id=reader.string(obj["id"], path + ".id"),
            promiser=reader.string(obj["from"], path + ".from"),
            promisees=frozenset(promisees),
            body=body,
            scope=frozenset(reader.string_array(obj["scope"], path + ".scope")),
            provenance=reader.enum(obj["provenance"], path + ".provenance", Provenance),
            span=reader.span(obj["span"], path + ".span"),
        ))

    impositions: List[Imposition] = []
    for i, item in enumerate(reader.array(top["impositions"], "$.impositions")):
        path = "$.impositions[%d]" % i
        obj = reader.obj(item, path, ("id", "from", "to", "kind", "text", "span"))
        impositions.append(Imposition(
            id=reader.string(obj["id"], path + ".id"),
            imposer=reader.string(obj["from"], path + ".from"),
            imposee=reader.string(obj["to"], path + ".to"),
            kind=reader.enum(obj["kind"], path + ".kind", ImpositionKind),
            text=reader.string(obj["text"], path + ".text"),
            span=reader.span(obj["span"], path + ".span"),
        ))

    assessments: List[Assessment] = []
    for i, item in enumerate(reader.array(top["assessments"], "$.assessments")):
        path = "$.assessments[%d]" % i
        obj = reader.obj(item, path, ("id", "by", "on", "verdict", "note", "ordinal",
                                      "span"))
        assessments.append(Assessment(
            id=reader.string(obj["id"], path + ".id"),
            assessor=reader.string(obj["by"], path + ".by"),
            target=reader.string(obj["on"], path + ".on"),
            verdict=reader.enum(obj["verdict"], path + ".verdict", Verdict),
            note=reader.opt_string(obj["note"], path + ".note"),
            ordinal=reader.integer(obj["ordinal"], path + ".ordinal"),
            span=reader.span(obj["span"], path + ".span"),
        ))

    graph = PromiseGraph(
        agents=agents,
        superagents=superagents,
        promises=tuple(promises),
        impositions=tuple(impositions),
        assessments=tuple(assessments),
    )

    errors = validate(graph)
    if errors:
        first = errors[0]
        path = "".join("[%d]" % key if isinstance(key, int) else "." + key
                       for key in first.locator)
        raise JsonError(path.lstrip(".") or "$", first.message)
    return graph


# Values a mutation may put in place of another: every JSON type, empty
# and non-empty, and names that exist in generated graphs.
MUTANT_VALUES = [None, True, False, 0, -1, 7, 1.5, "", "x", "Alpha", "Group1", "p0",
                 "offer", "kept", "human", "explicit", "threat", [], ["Alpha"], [1],
                 {}, {"x": 1}, {"start": 0, "end": 0, "line": 1, "col": 1}]
MUTANT_KEYS = ["aa", "zz", "id", "from", "to", "body", "span", "members", "topic", "start"]


def mutate(doc, rng):
    """One random edit in place: delete, add or retype a key of some object,
    empty an array, duplicate an array item, or copy in a string that
    occurs elsewhere in the document."""
    objects, arrays, slots, strings = [], [], [], []
    stack = [doc]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        (objects if isinstance(node, dict) else arrays).append(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
            elif isinstance(value, str):
                strings.append(value)
    op = rng.choice(["delete", "add", "retype", "retype", "empty", "duplicate", "copy"])
    if op == "delete":
        target = rng.choice(objects)
        if target:
            del target[rng.choice(sorted(target))]
    elif op == "add":
        target = rng.choice(objects)
        target[rng.choice(MUTANT_KEYS)] = json.loads(json.dumps(rng.choice(MUTANT_VALUES)))
    elif op == "retype":
        node, key = rng.choice(slots)
        node[key] = json.loads(json.dumps(rng.choice(MUTANT_VALUES)))
    elif op == "empty":
        rng.choice(arrays).clear()
    elif op == "duplicate":
        target = rng.choice(arrays)
        if target:
            target.insert(rng.randint(0, len(target)),
                          json.loads(json.dumps(rng.choice(target))))
    elif strings:
        node, key = rng.choice(slots)
        node[key] = rng.choice(strings)


# The one diagnostic difference from the reference, on rejected input: an
# object with several schema errors reports the first in `_GRAPH`'s order
# (the reference checked `body`'s keys and `to` first in a promise, and
# `members` first in a superagent). Both leave the declaration checks
# (empty `members`, `to` and topic, bad spans) to `validate`, and report
# them at their locator paths.
FIELD_ORDER = {
    "agents": ["id", "kind", "span"],
    "superagents": ["id", "members", "span"],
    "promises": ["id", "from", "to", "body", "scope", "provenance", "span"],
    "impositions": ["id", "from", "to", "kind", "text", "span"],
    "assessments": ["id", "by", "on", "verdict", "note", "ordinal", "span"],
}
ENTITY_PATH = re.compile(r"(\$\.(\w+)\[\d+\])(?:\.(\w+))?")
DECLARATION_PATH = re.compile(r"\w+\[\d+\]\.(members|to|body\.topic|span)$")
DECLARATION_REASON = re.compile(
    r"(has no members|has no promisees|has an empty topic"
    r"|span starts beyond its end|span has a line or column below 1)$")


def difference_class(expected, actual):
    """'a' when the two (path, reason) pairs differ only as described
    above, else None."""
    old, new = ENTITY_PATH.match(expected[0]), ENTITY_PATH.match(actual[0])
    if not old or not new or old.group(1) != new.group(1):
        return None
    order = FIELD_ORDER[new.group(2)]
    if new.group(3) in order and old.group(3) in order \
            and order.index(new.group(3)) < order.index(old.group(3)):
        return "a"
    return None


def outcome(read, blob):
    try:
        return read(blob)
    except JsonError as exc:
        return (exc.path, exc.reason)


def from_json_differential(documents, seed):
    """Compare from_json with the reference on `documents` mutated
    canonical documents; returns the tally of verdicts and differences."""
    rng = random.Random(seed)
    tally = Counter()
    while tally["documents"] < documents:
        canonical = to_json(make_random_graph(rng, max_promises=6))
        for _ in range(10):
            doc = json.loads(canonical)
            for _ in range(rng.randint(1, 3)):
                mutate(doc, rng)
            blob = json.dumps(doc)
            expected, actual = outcome(reference_from_json, blob), outcome(from_json, blob)
            tally["documents"] += 1
            if isinstance(expected, PromiseGraph):
                assert actual == expected, blob
                tally["accepted"] += 1
                continue
            assert isinstance(actual, tuple), (blob, expected)
            tally["rejected"] += 1
            if DECLARATION_PATH.match(actual[0]) and DECLARATION_REASON.search(actual[1]):
                tally["declaration"] += 1
            if actual != expected:
                kind = difference_class(expected, actual)
                assert kind, (blob, expected, actual)
                tally[kind] += 1
    return tally


def test_from_json_matches_the_reference_on_mutated_documents():
    tally = from_json_differential(5000, seed=20261018)
    assert tally["accepted"] > 0 and tally["rejected"] > 0, tally
    assert tally["a"] > 0 and tally["declaration"] > 0, tally


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
    assert to_dot(PromiseGraph()) == "digraph promises {}\n"


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


def reference_dot_nodes(graph):
    """The node lines of the earlier `to_dot`, which rescanned every agent
    and superagent for each cluster."""
    owner = {}
    for superagent in graph.superagents.values():
        for member in sorted(superagent.members):
            owner.setdefault(member, superagent.id)
    lines = []

    def node_line(agent, indent):
        return "%s%s [shape=%s];" % (indent, _quote(agent.id), _KIND_SHAPES[agent.kind])

    stack = [
        (superagent, "  ") for name, superagent in reversed(graph.superagents.items())
        if owner.get(name) is None
    ]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        superagent, indent = item
        lines.append("%ssubgraph %s {" % (indent, _quote("cluster_" + superagent.id)))
        inner = indent + "  "
        lines.append("%slabel=%s;" % (inner, _quote(superagent.id)))
        lines.append("%s%s [shape=doubleoctagon];" % (inner, _quote(superagent.id)))
        for name in graph.agents:
            if owner.get(name) == superagent.id:
                lines.append(node_line(graph.agents[name], inner))
        stack.append("%s}" % indent)
        stack.extend(reversed([(graph.superagents[name], inner)
                               for name in graph.superagents
                               if owner.get(name) == superagent.id]))
    for name, agent in graph.agents.items():
        if owner.get(name) is None:
            lines.append(node_line(agent, "  "))
    return lines


def random_superagent_graph(rng):
    """Agents and superagents only; members are drawn from every declared
    name and one undeclared one, so cycles and self-membership occur."""
    agents = {"A%d" % i: Agent("A%d" % i, rng.choice(list(AgentKind)))
              for i in range(rng.randint(0, 6))}
    names = ["G%d" % i for i in range(rng.randint(1, 8))]
    rng.shuffle(names)
    pool = list(agents) + names + ["Ghost"]
    superagents = {name: Superagent(name, frozenset(rng.sample(pool, rng.randint(1, 2))))
                   for name in names}
    return PromiseGraph(agents=agents, superagents=superagents)


def test_dot_nodes_match_the_reference():
    rng = random.Random(20261018)
    for _ in range(3000):
        graph = random_superagent_graph(rng)
        expected = reference_dot_nodes(graph)
        dot = to_dot(graph)
        assert dot == "\n".join(["digraph promises {", *expected, "}"]) + "\n", graph


def test_empty_report_renders_exactly():
    report = analyze_all(PromiseGraph())
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


# -- the JSON writers against json.dumps ----------------------------------------
# The dict builders that `to_json`, `render_report` and `render_trust` used
# before they wrote each record straight from a template, kept unchanged as
# the reference. Each writer must give, byte for byte, the reference object
# through `json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"`.

def _span_obj(span: SourceSpan) -> Dict[str, int]:
    return {"start": span.start, "end": span.end,
            "line": span.line, "col": span.column}


def _graph_obj(graph: PromiseGraph) -> Dict[str, list]:
    return {
        "agents": [
            {"id": a.id, "kind": a.kind.value, "span": _span_obj(a.span)}
            for a in graph.agents.values()
        ],
        "superagents": [
            {"id": s.id, "members": sorted(s.members), "span": _span_obj(s.span)}
            for s in graph.superagents.values()
        ],
        "promises": [
            {
                "id": p.id,
                "from": p.promiser,
                "to": sorted(p.promisees),
                "scope": sorted(p.scope),
                "provenance": p.provenance.value,
                "body": {
                    "polarity": p.body.polarity.value,
                    "topic": p.body.topic,
                    "text": p.body.text,
                    "behalf": p.body.behalf_of,
                    "affects": sorted(p.body.affects),
                    "condition": p.body.condition,
                },
                "span": _span_obj(p.span),
            }
            for p in graph.promises
        ],
        "impositions": [
            {"id": i.id, "from": i.imposer, "to": i.imposee, "kind": i.kind.value,
             "text": i.text, "span": _span_obj(i.span)}
            for i in graph.impositions
        ],
        "assessments": [
            {"id": a.id, "by": a.assessor, "on": a.target, "verdict": a.verdict.value,
             "note": a.note, "ordinal": a.ordinal, "span": _span_obj(a.span)}
            for a in graph.assessments
        ],
    }


def _report_obj(report: AnalysisReport) -> dict:
    return {
        "bindings": [
            {"offer": b.offer, "accept": b.accept, "topic": b.topic}
            for b in report.bindings
        ],
        "findings": [
            {
                "rule": f.rule.value,
                "severity": f.severity.value,
                "subjects": list(f.subjects),
                "message": f.message,
                "span": _span_obj(f.span),
            }
            for f in report.findings
        ],
        "census": [
            {"agent": agent, "topic": topic, "offers_in": offers_in,
             "accepts_out": accepts_out}
            for (agent, topic), (offers_in, accepts_out) in sorted(report.census.items())
        ],
        "trust": _trust_rows(report.trust),
    }


def _trust_rows(table: TrustTable) -> List[dict]:
    return [
        {"assessor": assessor, "subject": subject, "value": value}
        for (assessor, subject), value in sorted(table.entries.items())
    ]


def canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def assert_graph_written_as_reference(graph):
    assert to_json(graph) == canonical(_graph_obj(graph)).encode("utf-8")


def assert_report_written_as_reference(report):
    assert render_report(report, ReportFormat.JSON) == canonical(_report_obj(report))
    assert render_trust(report.trust, ReportFormat.JSON) == canonical(
        {"initial": report.trust.initial, "trust": _trust_rows(report.trust)})


# Strings that json.dumps escapes in every way it can: quotes, backslashes,
# control characters, the line and paragraph separators, DEL, non-ASCII,
# astral characters and a lone surrogate (from_json reads `"\udc80"`).
awkward_strings = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\u2028\u2029é€\ufeff\U0001f600\U0010ffff\udc80'),
    st.characters()), max_size=6)
optional_strings = st.one_of(st.none(), st.just(""), awkward_strings)
name_sets = st.frozensets(awkward_strings, max_size=3)
spans = st.builds(SourceSpan, *[st.integers(-2 ** 70, 2 ** 70)] * 4)
bodies = st.builds(Body, st.sampled_from(Polarity), awkward_strings, awkward_strings,
                   optional_strings, name_sets, optional_strings)
awkward_graphs = st.builds(
    PromiseGraph,
    agents=st.lists(st.builds(Agent, awkward_strings, st.sampled_from(AgentKind), spans),
                    max_size=4).map(lambda agents: {a.id: a for a in agents}),
    superagents=st.lists(st.builds(Superagent, awkward_strings, name_sets, spans),
                         max_size=3).map(lambda groups: {s.id: s for s in groups}),
    promises=st.lists(st.builds(Promise, awkward_strings, awkward_strings, name_sets, bodies,
                                name_sets, st.sampled_from(Provenance), spans),
                      max_size=4).map(tuple),
    impositions=st.lists(st.builds(Imposition, awkward_strings, awkward_strings,
                                   awkward_strings, st.sampled_from(ImpositionKind),
                                   awkward_strings, spans), max_size=3).map(tuple),
    assessments=st.lists(st.builds(Assessment, awkward_strings, awkward_strings,
                                   awkward_strings, st.sampled_from(Verdict), optional_strings,
                                   st.integers(-2 ** 70, 2 ** 70), spans),
                         max_size=3).map(tuple),
)
trust_values = st.floats(allow_nan=True, allow_infinity=True)
awkward_reports = st.builds(
    AnalysisReport,
    bindings=st.lists(st.builds(Binding, awkward_strings, awkward_strings, awkward_strings),
                      max_size=3).map(tuple),
    findings=st.lists(st.builds(Finding, st.sampled_from(FindingRule), st.sampled_from(Severity),
                                st.lists(awkward_strings, min_size=1, max_size=3).map(tuple),
                                awkward_strings, spans), max_size=3).map(tuple),
    census=st.dictionaries(st.tuples(awkward_strings, awkward_strings),
                           st.tuples(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40)),
                           max_size=3),
    trust=st.builds(TrustTable, trust_values,
                    st.dictionaries(st.tuples(awkward_strings, awkward_strings), trust_values,
                                    max_size=3)),
)


@settings(max_examples=150, deadline=None)
@given(awkward_graphs)
def test_to_json_matches_the_reference_on_awkward_graphs(graph):
    assert_graph_written_as_reference(graph)


@settings(max_examples=200, deadline=None)
@given(awkward_reports)
def test_report_and_trust_json_match_the_reference_on_awkward_reports(report):
    assert_report_written_as_reference(report)


@st.composite
def analyzable_graphs(draw):
    """A graph whose references resolve, so that it can be analyzed, with
    awkward names throughout."""
    names = draw(st.lists(awkward_strings, min_size=2, max_size=6, unique=True))
    split = draw(st.integers(1, len(names)))
    agents = {name: Agent(name, draw(st.sampled_from(AgentKind))) for name in names[:split]}
    superagents = {}
    for i in range(split, len(names)):  # members declared earlier: no cycles
        members = draw(st.frozensets(st.sampled_from(names[:i]), min_size=1, max_size=3))
        superagents[names[i]] = Superagent(names[i], members)
    actors = st.sampled_from(names)
    actor_sets = st.frozensets(actors, max_size=2)
    ids = draw(st.lists(awkward_strings, max_size=8, unique=True))
    promises = tuple(
        Promise(pid, draw(actors), draw(st.frozensets(actors, min_size=1, max_size=2)),
                Body(draw(st.sampled_from(Polarity)), draw(st.sampled_from(["t", "é\u2028"])),
                     draw(awkward_strings), draw(st.none() | actors), draw(actor_sets),
                     draw(optional_strings)),
                draw(actor_sets), draw(st.sampled_from(Provenance)))
        for pid in ids)
    assessments = tuple(
        Assessment("v%d" % i, draw(actors), draw(st.sampled_from(ids)),
                   draw(st.sampled_from(Verdict)), draw(optional_strings), i)
        for i in range(draw(st.integers(0, 4) if ids else st.just(0))))
    return PromiseGraph(agents=agents, superagents=superagents, promises=promises,
                        assessments=assessments)


@settings(max_examples=100, deadline=None)
@given(analyzable_graphs())
def test_writers_match_the_reference_on_analyzed_awkward_graphs(graph):
    assert_graph_written_as_reference(graph)
    assert_report_written_as_reference(analyze_all(graph))


def name_lists(graph: PromiseGraph) -> List[frozenset]:
    """Every set-valued slot of a graph."""
    slots = [s.members for s in graph.superagents.values()]
    for promise in graph.promises:
        slots += (promise.promisees, promise.scope, promise.body.affects)
    return slots


def test_writers_match_the_reference_on_the_corpus_and_benchmark_documents():
    gen = load_gen()
    texts = [corpus.load_builtin()]
    texts += [make(seed).text for make in (gen.sparse, gen.dense) for seed in (1, 5, 9)]
    for text in texts:
        graph = load(text)
        assert_graph_written_as_reference(graph)
        assert_report_written_as_reference(analyze_all(graph))
        # the parser makes one object of a repeated list; from_json makes a
        # new object per slot, so there equal lists are distinct objects
        read = from_json(to_json(graph))
        slots, read_slots = name_lists(graph), name_lists(read)
        assert len(set(map(id, slots))) < len(slots)
        assert len(set(map(id, read_slots))) > len(set(read_slots))
        assert_graph_written_as_reference(read)


def test_one_name_list_object_in_every_slot_and_empty_lists_are_written_as_the_reference():
    names = frozenset({"B", "A", 'q"', "\u00e9"})
    empty, other_empty = frozenset(), frozenset([""]) - {""}
    graph = PromiseGraph(
        agents={name: Agent(name) for name in sorted(names)},
        superagents={"G": Superagent("G", names), "H": Superagent("H", names)},
        promises=(Promise("p", "A", names, Body(Polarity.OFFER, "t", affects=names), names),
                  Promise("q", "B", names, Body(Polarity.ACCEPT, "t", affects=empty),
                          other_empty),
                  Promise("r", "B", names, Body(Polarity.ACCEPT, "t", affects=names), empty)))
    assert validate(graph) == [] and other_empty is not empty
    out = to_json(graph)
    assert out.count(b'["A","B","q\\"","\\u00e9"]') == 8
    assert out.count(b'"affects":[]') == 1 and out.count(b'"scope":[]') == 2
    assert_graph_written_as_reference(graph)
    assert from_json(out) == graph


def test_to_json_makes_one_name_list_table_per_call_and_drops_it(monkeypatch):
    """As `parse` does with its name lists: nothing outlives the call."""
    def tables():
        return [o for o in gc.get_objects() if type(o) is export._NameLists]

    live = []
    quoted = export._quoted

    def spy(text):
        if not live:
            live.append(len(tables()))
        return quoted(text)

    monkeypatch.setattr(export, "_quoted", spy)
    graph = load(corpus.load_builtin())
    for _ in range(2):
        assert to_json(graph) == canonical(_graph_obj(graph)).encode("ascii")
        assert live == [1] and tables() == []
        live.clear()


def test_non_finite_and_negative_zero_trust_values_are_written_as_json_dumps_does():
    table = TrustTable(float("nan"), {("A", "B"): float("inf"), ("A", "C"): -0.0,
                                      ("B", "A"): float("-inf"), ("C", "A"): float("nan")})
    expected = ('{"initial":NaN,"trust":[{"assessor":"A","subject":"B","value":Infinity},'
                '{"assessor":"A","subject":"C","value":-0.0},'
                '{"assessor":"B","subject":"A","value":-Infinity},'
                '{"assessor":"C","subject":"A","value":NaN}]}\n')
    assert render_trust(table, ReportFormat.JSON) == expected
    report = AnalysisReport((), (), {}, table)
    assert render_report(report, ReportFormat.JSON) == (
        '{"bindings":[],"census":[],"findings":[],"trust":' + expected[expected.index("["):])
    assert_report_written_as_reference(report)
