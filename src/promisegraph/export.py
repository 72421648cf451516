"""Serialization and rendering: canonical JSON round-trip, viewpoint
filtering, Graphviz DOT output, and report and trust-table rendering.

Canonical form everywhere: object keys sorted, no whitespace, strings with
the ASCII escapes of `json.dumps`, entity lists in declaration order,
set-valued fields sorted, output newline-terminated. Equal graphs produce
byte-identical output regardless of process or hash seed. The JSON writers
format each record straight into its output from one template per record
kind, so they build no dict tree and sort no keys.
"""

from __future__ import annotations

import json
from enum import Enum
from json.encoder import encode_basestring_ascii as _quoted  # the escaper json.dumps uses
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set,
                    Tuple, Type, Union)

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
    privy,
    validate,
    watchers,
)

if TYPE_CHECKING:  # `export --format dot|json` never loads the analysis
    from .analysis import AnalysisReport, TrustTable

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


class ViewpointGraph(NamedTuple):
    observer: str
    graph: PromiseGraph


# One template per record kind, its keys in the order `json.dumps` sorts
# them into. The keys are spelled again in the reader table `_GRAPH` on
# purpose: a writer driven by that table was slower. The round-trip tests
# hold the two to each other.
_SPAN_JSON = '"span":{"col":%d,"end":%d,"line":%d,"start":%d}'
_AGENT_JSON = '{"id":%s,"kind":"%s",' + _SPAN_JSON + '}'
_SUPERAGENT_JSON = '{"id":%s,"members":%s,' + _SPAN_JSON + '}'
_PROMISE_JSON = ('{"body":{"affects":%s,"behalf":%s,"condition":%s,"polarity":"%s","text":%s,'
                 '"topic":%s},"from":%s,"id":%s,"provenance":"%s","scope":%s,'
                 + _SPAN_JSON + ',"to":%s}')
_IMPOSITION_JSON = '{"from":%s,"id":%s,"kind":"%s",' + _SPAN_JSON + ',"text":%s,"to":%s}'
_ASSESSMENT_JSON = ('{"by":%s,"id":%s,"note":%s,"on":%s,"ordinal":%d,' + _SPAN_JSON
                    + ',"verdict":"%s"}')
_GRAPH_JSON = ('{"agents":[%s],"assessments":[%s],"impositions":[%s],"promises":[%s],'
               '"superagents":[%s]}\n')
_BINDING_JSON = '{"accept":%s,"offer":%s,"topic":%s}'
_FINDING_JSON = '{"message":%s,"rule":"%s","severity":"%s",' + _SPAN_JSON + ',"subjects":[%s]}'
_CENSUS_ROW_JSON = '{"accepts_out":%d,"agent":%s,"offers_in":%d,"topic":%s}'
_TRUST_ROW_JSON = '{"assessor":%s,"subject":%s,"value":%s}'
_REPORT_JSON = '{"bindings":[%s],"census":[%s],"findings":[%s],"trust":[%s]}\n'
_TRUST_JSON = '{"initial":%s,"trust":[%s]}\n'
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _NameLists(dict):
    """One `to_json` call's set-valued fields: each name set, written once,
    maps to its members sorted and quoted. A parsed graph's lists repeat."""

    def __missing__(self, names: FrozenSet[str]) -> str:
        self[names] = text = "[%s]" % ",".join(map(_quoted, sorted(names)))
        return text


def _number(value: float) -> str:
    """A float as json.dumps writes it, `NaN` and `Infinity` included."""
    text = repr(value)
    return _NON_FINITE.get(text, text)


def to_json(graph: PromiseGraph) -> bytes:
    """Canonical JSON bytes for a graph; stable across runs."""
    quoted, names = _quoted, _NameLists()
    return (_GRAPH_JSON % (
        ",".join([_AGENT_JSON % (quoted(id), kind._value_, column, end, line, start)
                  for id, kind, (start, end, line, column) in graph.agents.values()]),
        ",".join([_ASSESSMENT_JSON % (quoted(assessor), quoted(id),
                                      "null" if note is None else quoted(note), quoted(target),
                                      ordinal, column, end, line, start, verdict._value_)
                  for id, assessor, target, verdict, note, ordinal, (start, end, line, column)
                  in graph.assessments]),
        ",".join([_IMPOSITION_JSON % (quoted(imposer), quoted(id), kind._value_,
                                      column, end, line, start, quoted(text), quoted(imposee))
                  for id, imposer, imposee, kind, text, (start, end, line, column)
                  in graph.impositions]),
        ",".join([_PROMISE_JSON % (names[affects], "null" if behalf is None else quoted(behalf),
                                   "null" if condition is None else quoted(condition),
                                   polarity._value_, quoted(text), quoted(topic), quoted(promiser),
                                   quoted(id), provenance._value_, names[scope],
                                   column, end, line, start, names[promisees])
                  for (id, promiser, promisees, (polarity, topic, text, behalf, affects,
                                                 condition),
                       scope, provenance, (start, end, line, column)) in graph.promises]),
        ",".join([_SUPERAGENT_JSON % (quoted(id), names[members], column, end, line, start)
                  for id, members, (start, end, line, column) in graph.superagents.values()]),
    )).encode("ascii")


_Reader = Callable[[object, str], object]
_new = tuple.__new__  # a record from its field values, with no argument dict


def _typed(kind: type, name: str) -> _Reader:
    """Reads one JSON type; json.loads builds exact types, so `true` is no integer."""
    def read(value: object, path: str) -> object:
        if type(value) is not kind:
            raise JsonError(path, "expected " + name)
        return value
    return read


_string = _typed(str, "a string")
_integer = _typed(int, "an integer")
_array = _typed(list, "an array")


def _opt_string(value: object, path: str) -> Optional[str]:
    return None if value is None else _string(value, path)


def _enum(enum_type: Type[Enum]) -> _Reader:
    members = {member.value: member for member in enum_type}

    def read(value: object, path: str) -> Enum:
        if _string(value, path) not in members:
            raise JsonError(path, "expected one of %s" % ", ".join(members))
        return members[value]
    return read


class _Object:
    """Reads a JSON object into the record `model`: `fields` are (JSON key,
    value reader) pairs in the record's field order, read in that order."""

    def __init__(self, model: type, *fields: Tuple[str, _Reader]):
        self.model = model
        self.fields = [(key, read, "." + key) for key, read in fields]
        self.keys = frozenset(key for key, _ in fields)

    def __call__(self, value: object, path: str) -> object:
        if not isinstance(value, dict):
            raise JsonError(path, "expected an object")
        if value.keys() != self.keys:
            extra = value.keys() - self.keys
            if extra:
                raise JsonError("%s.%s" % (path, min(extra)), "unexpected key")
            missing = next(key for key, _, _ in self.fields if key not in value)
            raise JsonError("%s.%s" % (path, missing), "missing key")
        return _new(self.model, [read(value[key], path + suffix)
                                 for key, read, suffix in self.fields])


def _array_of(read: _Reader, into: Callable[..., object] = tuple) -> _Reader:
    """Reads an array into a tuple, or `into`, reading item i at path `[i]`."""
    def read_array(value: object, path: str) -> object:
        items = []  # a loop: on a short name list a comprehension's frame costs a third more
        for i, item in enumerate(_array(value, path)):
            items.append(read(item, "%s[%d]" % (path, i)))
        return into(items)
    return read_array


_names = _array_of(_string, frozenset)


def _by_id(kind: str, read: _Reader) -> _Reader:
    """An id -> entity dict; a repeated id is rejected as soon as it is read."""
    def read_by_id(value: object, path: str) -> dict:
        entities: dict = {}
        for i, item in enumerate(_array(value, path)):
            entity = read(item, "%s[%d]" % (path, i))
            if entity.id in entities:
                raise JsonError("%s[%d].id" % (path, i), "duplicate %s id %r" % (kind, entity.id))
            entities[entity.id] = entity
        return entities
    return read_by_id


_SPAN = _Object(SourceSpan, ("start", _integer), ("end", _integer), ("line", _integer),
                ("col", _integer))
_BODY = _Object(Body, ("polarity", _enum(Polarity)), ("topic", _string), ("text", _string),
                ("behalf", _opt_string), ("affects", _names), ("condition", _opt_string))

# The graph JSON schema: sections and keys in field order, read in that order.
_GRAPH = _Object(
    PromiseGraph,
    ("agents", _by_id("agent", _Object(
        Agent, ("id", _string), ("kind", _enum(AgentKind)), ("span", _SPAN)))),
    ("superagents", _by_id("superagent", _Object(
        Superagent, ("id", _string), ("members", _names), ("span", _SPAN)))),
    ("promises", _array_of(_Object(
        Promise, ("id", _string), ("from", _string), ("to", _names), ("body", _BODY),
        ("scope", _names), ("provenance", _enum(Provenance)), ("span", _SPAN)))),
    ("impositions", _array_of(_Object(
        Imposition, ("id", _string), ("from", _string), ("to", _string),
        ("kind", _enum(ImpositionKind)), ("text", _string), ("span", _SPAN)))),
    ("assessments", _array_of(_Object(
        Assessment, ("id", _string), ("by", _string), ("on", _string),
        ("verdict", _enum(Verdict)), ("note", _opt_string), ("ordinal", _integer),
        ("span", _SPAN)))),
)


def from_json(data: Union[bytes, str]) -> PromiseGraph:
    """Parse canonical (or hand-written) graph JSON; inverse of to_json.

    Raises only JsonError. The schema is the `_GRAPH` table above. Bad
    UTF-8, malformed or too deeply nested JSON, schema breaches and
    repeated agent or superagent ids get `$`-rooted paths such as
    `$.agents[1].id`: the first section wins, then the first key in field
    order. A document that passes reaches `validate`, whose first error
    gets a bare path from its locator, such as `promises[3].scope[0]`,
    `superagents[0].members` for a superagent without members,
    `agents[2].span` for a span that starts beyond its end,
    `promises[0].body.behalf` for a promise on behalf of its own promiser,
    or `$` for a membership cycle. Indices into set-valued fields
    (`members`, `to`, `scope`, `affects`) count in sorted order, as to_json
    writes them."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise JsonError("$", "not valid UTF-8: %s" % exc)
    try:
        decoded = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise JsonError("$", "malformed JSON: %s" % exc)

    graph = _GRAPH(decoded, "$")
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

    seen = watchers(graph, observer)
    kept_promises = tuple(p for p in graph.promises if privy(seen, p))
    kept_impositions = tuple(i for i in graph.impositions if observer in (i.imposer, i.imposee))
    kept_ids = {p.id for p in kept_promises}
    kept_assessments = tuple(a for a in graph.assessments if a.target in kept_ids)

    referenced: Set[str] = {observer}
    for promise in kept_promises:
        referenced.add(promise.promiser)
        referenced.update(promise.promisees, promise.scope, promise.body.affects)
        if promise.body.behalf_of is not None:
            referenced.add(promise.body.behalf_of)
    for imposition in kept_impositions:
        referenced.update((imposition.imposer, imposition.imposee))
    referenced.update(assessment.assessor for assessment in kept_assessments)
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


def to_dot(graph: PromiseGraph) -> str:
    """Graphviz text for a graph: agents as shaped nodes, superagents as
    clusters (with an anchor node so edges to them render), one signed edge
    per promiser/promisee pair, labelled with its topic and dashed when the
    promise is not explicit."""
    if not graph.agents and not graph.superagents and not graph.promises:
        return "digraph promises {}\n"

    # cluster contents in declaration order; a name's cluster is the first
    # superagent that lists it (None: top level)
    owner = {member: listed[0] for member, listed in graph._memberships.items()}
    agents_of: Dict[Optional[str], List[Agent]] = {}
    for name, agent in graph.agents.items():
        agents_of.setdefault(owner.get(name), []).append(agent)
    superagents_of: Dict[Optional[str], List[Superagent]] = {}
    for name, superagent in graph.superagents.items():
        superagents_of.setdefault(owner.get(name), []).append(superagent)

    lines: List[str] = ["digraph promises {"]

    def node_line(agent: Agent, indent: str) -> str:
        return "%s%s [shape=%s];" % (indent, _quote(agent.id),
                                     _KIND_SHAPES[agent.kind])

    # superagents depth-first with an explicit stack; a str item is a closing line
    stack: List[object] = [(superagent, "  ")
                           for superagent in reversed(superagents_of.get(None, []))]
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
        for agent in agents_of.get(superagent.id, []):
            lines.append(node_line(agent, inner))
        stack.append("%s}" % indent)
        stack.extend((child, inner)
                     for child in reversed(superagents_of.get(superagent.id, [])))
    for agent in agents_of.get(None, []):
        lines.append(node_line(agent, "  "))

    for promise in graph.promises:
        edge_label = promise.body.polarity.sign + promise.body.topic
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
        quoted = _quoted
        return _REPORT_JSON % (
            ",".join([_BINDING_JSON % (quoted(accept), quoted(offer), quoted(topic))
                      for offer, accept, topic in report.bindings]),
            ",".join([_CENSUS_ROW_JSON % (accepts_out, quoted(agent), offers_in, quoted(topic))
                      for (agent, topic), (offers_in, accepts_out)
                      in sorted(report.census.items())]),
            ",".join([_FINDING_JSON % (quoted(message), rule._value_, severity._value_,
                                       column, end, line, start, ",".join(map(quoted, subjects)))
                      for rule, severity, subjects, message, (start, end, line, column)
                      in report.findings]),
            _trust_rows(report.trust))

    styles = {
        "violation": "\x1b[31m%s\x1b[0m",
        "warning": "\x1b[33m%s\x1b[0m",
        "info": "\x1b[36m%s\x1b[0m",
    }
    lines = ["%d findings" % len(report.findings)]
    for finding in report.findings:
        severity = finding.severity._value_
        if color:
            severity = styles[severity] % severity
        lines.append("%s %s %s @%d:%d %s" % (
            severity, finding.rule._value_, " ".join(finding.subjects),
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
        lines.extend("  " + line for line in _trust_lines(report.trust))
    return "\n".join(lines) + "\n"


def render_trust(table: TrustTable, format: ReportFormat = ReportFormat.TEXT) -> str:
    """Render a trust table: one `assessor -> subject: value` line per pair,
    sorted, or JSON `{"initial", "trust"}` with the report's trust rows."""
    if format is ReportFormat.JSON:
        return _TRUST_JSON % (_number(table.initial), _trust_rows(table))
    return "".join(line + "\n" for line in _trust_lines(table))


def _trust_lines(table: TrustTable) -> List[str]:
    return ["%s -> %s: %r" % (assessor, subject, value)
            for (assessor, subject), value in sorted(table.entries.items())]


def _trust_rows(table: TrustTable) -> str:
    quoted = _quoted
    return ",".join([_TRUST_ROW_JSON % (quoted(assessor), quoted(subject), _number(value))
                     for (assessor, subject), value in sorted(table.entries.items())])
