"""Serialization and rendering: canonical JSON round-trip, viewpoint
filtering, Graphviz DOT output, and report rendering.

Canonical form everywhere: object keys sorted, entity lists in declaration
order, set-valued fields sorted, output newline-terminated. Equal graphs
produce byte-identical output regardless of process or hash seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple, Union

from .analysis import AnalysisReport, Severity, TrustTable
from .model import (
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
    expand_members,
    _privy,
    validate,
)

_KIND_SHAPES = {
    AgentKind.HUMAN: "ellipse",
    AgentKind.ORGANIZATION: "box",
    AgentKind.SOFTWARE: "box3d",
    AgentKind.HARDWARE: "component",
    AgentKind.SYSTEM: "hexagon",
    AgentKind.STANDARD: "note",
}


class ReportFormat(Enum):
    TEXT = "text"
    JSON = "json"


class JsonError(Exception):
    """A malformed document, schema breach, or dangling reference; `path`
    locates the offending value."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path
        self.reason = message


@dataclass(frozen=True)
class ViewpointGraph:
    observer: str
    graph: PromiseGraph


def _span_obj(span: SourceSpan) -> Dict[str, int]:
    return {"start": span.byte_start, "end": span.byte_end,
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


def _canonical(obj: object) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def to_json(graph: PromiseGraph) -> bytes:
    """Canonical JSON bytes for a graph; stable across runs."""
    return _canonical(_graph_obj(graph))


class _JsonReader:
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
        try:
            return SourceSpan(
                cls.integer(obj["start"], path + ".start"),
                cls.integer(obj["end"], path + ".end"),
                cls.integer(obj["line"], path + ".line"),
                cls.integer(obj["col"], path + ".col"),
            )
        except ValueError as exc:
            cls.fail(path, str(exc))


def from_json(data: Union[bytes, str]) -> PromiseGraph:
    """Parse canonical (or hand-written) graph JSON; inverse of to_json.

    Raises JsonError. Malformed JSON, schema breaches and duplicate agent or
    superagent ids get `$`-rooted paths such as `$.agents[1].id`. The first
    error `validate` finds gets a bare path built from its locator, such as
    `promises[3].scope[0]` or `assessments[1].ordinal`, or `$` when it names
    no single value (a membership cycle). Indices into set-valued fields
    (`members`, `to`, `scope`, `affects`) count in sorted order, as to_json
    writes them, not in the order of the input."""
    reader = _JsonReader
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
        if not members:
            reader.fail(path + ".members", "superagent needs at least one member")
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
        if not promisees:
            reader.fail(path + ".to", "promise needs at least one promisee")
        try:
            body = Body(
                polarity=reader.enum(body_obj["polarity"], path + ".body.polarity",
                                     Polarity),
                topic=reader.string(body_obj["topic"], path + ".body.topic"),
                text=reader.string(body_obj["text"], path + ".body.text"),
                behalf_of=reader.opt_string(body_obj["behalf"], path + ".body.behalf"),
                affects=frozenset(reader.string_array(body_obj["affects"],
                                                      path + ".body.affects")),
                condition=reader.opt_string(body_obj["condition"],
                                            path + ".body.condition"),
            )
            promises.append(Promise(
                id=reader.string(obj["id"], path + ".id"),
                promiser=reader.string(obj["from"], path + ".from"),
                promisees=frozenset(promisees),
                body=body,
                scope=frozenset(reader.string_array(obj["scope"], path + ".scope")),
                provenance=reader.enum(obj["provenance"], path + ".provenance",
                                       Provenance),
                span=reader.span(obj["span"], path + ".span"),
            ))
        except ValueError as exc:
            reader.fail(path, str(exc))

    impositions: List[Imposition] = []
    for i, item in enumerate(reader.array(top["impositions"], "$.impositions")):
        path = "$.impositions[%d]" % i
        obj = reader.obj(item, path, ("id", "from", "to", "kind", "text", "span"))
        try:
            impositions.append(Imposition(
                id=reader.string(obj["id"], path + ".id"),
                imposer=reader.string(obj["from"], path + ".from"),
                imposee=reader.string(obj["to"], path + ".to"),
                kind=reader.enum(obj["kind"], path + ".kind", ImpositionKind),
                text=reader.string(obj["text"], path + ".text"),
                span=reader.span(obj["span"], path + ".span"),
            ))
        except ValueError as exc:
            reader.fail(path, str(exc))

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


def viewpoint(graph: PromiseGraph, observer: str) -> ViewpointGraph:
    """Restrict the graph to what one observer can see: promises the
    observer is privy to, impositions it is party to, assessments whose
    target survives, and the actors those entities mention."""
    if not graph.has_actor(observer):
        raise KeyError("unknown observer %r" % observer)

    kept_promises = tuple(
        p for p in graph.promises if observer in _privy(graph, p)
    )
    kept_impositions = tuple(
        i for i in graph.impositions if observer in (i.imposer, i.imposee)
    )
    kept_ids = {p.id for p in kept_promises}
    kept_assessments = tuple(
        a for a in graph.assessments if a.target in kept_ids
    )

    referenced: Set[str] = {observer}
    for promise in kept_promises:
        referenced.add(promise.promiser)
        referenced.update(promise.promisees)
        referenced.update(promise.scope)
        referenced.update(promise.body.affects)
        if promise.body.behalf_of is not None:
            referenced.add(promise.body.behalf_of)
    for imposition in kept_impositions:
        referenced.add(imposition.imposer)
        referenced.add(imposition.imposee)
    for assessment in kept_assessments:
        referenced.add(assessment.assessor)
    # keep superagent members resolvable
    referenced = expand_members(graph, referenced)

    filtered = PromiseGraph(
        agents={n: a for n, a in graph.agents.items() if n in referenced},
        superagents={n: s for n, s in graph.superagents.items() if n in referenced},
        promises=kept_promises,
        impositions=kept_impositions,
        assessments=kept_assessments,
    )
    return ViewpointGraph(observer, filtered)


def _quote(name: str) -> str:
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: PromiseGraph, cluster_superagents: bool = True,
           label: str = "topic") -> str:
    """Graphviz text for a graph: agents as shaped nodes, superagents as
    clusters (with an anchor node so edges to them render), one signed edge
    per promiser/promisee pair, dashed when the promise is not explicit."""
    if label not in ("id", "topic"):
        raise ValueError("label must be 'id' or 'topic'")
    if not graph.agents and not graph.superagents and not graph.promises:
        return "digraph promises {}\n"

    owner: Dict[str, str] = {}
    if cluster_superagents:
        for superagent in graph.superagents.values():
            for member in sorted(superagent.members):
                owner.setdefault(member, superagent.id)

    lines: List[str] = ["digraph promises {"]

    def node_line(agent: Agent, indent: str) -> str:
        return "%s%s [shape=%s];" % (indent, _quote(agent.id),
                                     _KIND_SHAPES[agent.kind])

    # superagents depth-first with an explicit stack; a str item is a closing line
    stack: List[object] = [
        (superagent, "  ") for name, superagent in reversed(graph.superagents.items())
        if owner.get(name) is None or not cluster_superagents
    ]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        superagent, indent = item
        if cluster_superagents:
            lines.append("%ssubgraph %s {" % (indent, _quote("cluster_" + superagent.id)))
            inner = indent + "  "
            lines.append("%slabel=%s;" % (inner, _quote(superagent.id)))
        else:
            inner = indent
        lines.append("%s%s [shape=doubleoctagon];" % (inner, _quote(superagent.id)))
        if cluster_superagents:
            for name in graph.agents:
                if owner.get(name) == superagent.id:
                    lines.append(node_line(graph.agents[name], inner))
            stack.append("%s}" % indent)
            stack.extend(reversed([(graph.superagents[name], inner)
                                   for name in graph.superagents
                                   if owner.get(name) == superagent.id]))
    for name, agent in graph.agents.items():
        if owner.get(name) is None or not cluster_superagents:
            lines.append(node_line(agent, "  "))

    for promise in graph.promises:
        tag = promise.id if label == "id" else promise.body.topic
        edge_label = promise.body.polarity.sign + tag
        style = "" if promise.provenance is Provenance.EXPLICIT else ", style=dashed"
        for promisee in sorted(promise.promisees):
            lines.append("  %s -> %s [label=%s%s];" % (
                _quote(promise.promiser), _quote(promisee),
                _quote(edge_label), style))

    lines.append("}")
    return "\n".join(lines) + "\n"


def render_report(report: AnalysisReport, format: ReportFormat = ReportFormat.TEXT,
                  color: bool = False) -> str:
    """Render an analysis report; byte-identical for equal reports."""
    if format is ReportFormat.JSON:
        return _canonical(_report_obj(report)).decode("utf-8")

    styles = {
        Severity.VIOLATION: "\x1b[31m%s\x1b[0m",
        Severity.WARNING: "\x1b[33m%s\x1b[0m",
        Severity.INFO: "\x1b[36m%s\x1b[0m",
    }
    lines = ["%d findings" % len(report.findings)]
    for finding in report.findings:
        severity = finding.severity.value
        if color:
            severity = styles[finding.severity] % severity
        lines.append("%s %s %s @%d:%d %s" % (
            severity, finding.rule.value, " ".join(finding.subjects),
            finding.span.line, finding.span.column, finding.message))
    if report.bindings:
        lines.append("%d bindings" % len(report.bindings))
        for binding in report.bindings:
            lines.append("  %s <-> %s (%s)" % (binding.offer, binding.accept,
                                               binding.topic))
    if report.census:
        lines.append("census")
        for (agent, topic), (offers_in, accepts_out) in sorted(report.census.items()):
            lines.append("  %s/%s: offers_in=%d accepts_out=%d"
                         % (agent, topic, offers_in, accepts_out))
    if report.trust.entries:
        lines.append("trust")
        for (assessor, subject), value in sorted(report.trust.entries.items()):
            lines.append("  %s -> %s: %r" % (assessor, subject, value))
    return "\n".join(lines) + "\n"


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
