"""Promise-graph analyses: offer/accept binding, structural findings,
polarity census, and the observer-relative trust engine.

Every function is pure over an immutable graph; analyze_all aggregates them
into one deterministic report.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .model import (
    ACCEPT,
    OFFER,
    Imposition,
    ImpositionKind,
    Promise,
    PromiseGraph,
    SourceSpan,
    Verdict,
    privy,
    watchers,
)


class FindingRule(Enum):
    UNBOUND_OFFER = "unbound-offer"
    UNBOUND_ACCEPT = "unbound-accept"
    SINGLE_SOURCE_ACCEPTANCE = "single-source-acceptance"
    SCOPE_HIDING = "scope-hiding"
    BEHALF_OF_VIOLATION = "behalf-of-violation"
    IMPOSITION_PRESSURE = "imposition-pressure"


class Severity(Enum):
    INFO = "info"
    WARNING = "warning"
    VIOLATION = "violation"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANKS[self._value_]


# keyed by value: an enum member's hash, like its `value`, runs in Python
_SEVERITY_RANKS = {"info": 1, "warning": 2, "violation": 3}

# module names for the members the rules put on each finding, as for model.OFFER
(UNBOUND_OFFER, UNBOUND_ACCEPT, SINGLE_SOURCE_ACCEPTANCE, SCOPE_HIDING, BEHALF_OF_VIOLATION,
 IMPOSITION_PRESSURE) = FindingRule
INFO, WARNING, VIOLATION = Severity

# One row per rule function, in analyze_all's order: the severity of each rule it finds,
# and a call that looks the function up by module name, where perfbench's tracer wraps it
RULES = (
    ({UNBOUND_OFFER: WARNING, UNBOUND_ACCEPT: WARNING},
     lambda graph, bindings, config: unbound(graph, bindings)),
    ({SINGLE_SOURCE_ACCEPTANCE: VIOLATION},
     lambda graph, bindings, config: single_source(graph, config.quorum)),
    ({SCOPE_HIDING: WARNING}, lambda graph, bindings, config: scope_audit(graph)),
    ({BEHALF_OF_VIOLATION: VIOLATION}, lambda graph, bindings, config: behalf_violations(graph)),
    ({IMPOSITION_PRESSURE: INFO}, lambda graph, bindings, config: imposition_pressure(graph)),
)
SEVERITY = {rule: severity for severities, _ in RULES for rule, severity in severities.items()}


class Binding(NamedTuple):
    offer: str
    accept: str
    topic: str


class _Checked:
    """Makes a checking `NamedTuple`'s `_make`, and so `_replace`, check too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> tuple:
        return cls(*iterable)


class Finding(_Checked, NamedTuple("Finding", [("rule", FindingRule), ("severity", Severity),
                                               ("subjects", Tuple[str, ...]), ("message", str),
                                               ("span", SourceSpan)])):
    """Construction raises ValueError for a finding without subjects."""

    __slots__ = ()

    def __new__(cls, rule: FindingRule, severity: Severity, subjects: Tuple[str, ...],
                message: str, span: SourceSpan) -> "Finding":
        if not subjects:
            raise ValueError("finding without subjects")
        return tuple.__new__(cls, (rule, severity, subjects, message, span))  # one frame


class TrustParams(_Checked, NamedTuple("TrustParams", [("initial", float), ("alpha", float),
                                                       ("beta", float)])):
    """Construction raises ValueError for a value outside [0, 1], NaN included."""

    __slots__ = ()

    def __new__(cls, initial: float = 0.5, alpha: float = 0.2, beta: float = 0.6) -> "TrustParams":
        self = super().__new__(cls, initial, alpha, beta)
        for name, value in zip(self._fields, self):
            if not 0.0 <= value <= 1.0:
                raise ValueError("trust parameter %s=%r outside [0,1]" % (name, value))
        return self


class TrustTable(NamedTuple):
    initial: float
    entries: Dict[Tuple[str, str], float]

    def get(self, assessor: str, subject: str) -> float:
        return self.entries.get((assessor, subject), self.initial)


class AnalysisConfig(_Checked, NamedTuple("AnalysisConfig", [("quorum", int),
                                                              ("trust", TrustParams)])):
    """Construction raises ValueError for a quorum below 1."""

    __slots__ = ()

    def __new__(cls, quorum: int = 2, trust: TrustParams = TrustParams()) -> "AnalysisConfig":
        if quorum < 1:
            raise ValueError("quorum must be >= 1")
        return super().__new__(cls, quorum, trust)


class AnalysisReport(NamedTuple):
    bindings: Tuple[Binding, ...]
    findings: Tuple[Finding, ...]
    census: Dict[Tuple[str, str], Tuple[int, int]]
    trust: TrustTable


def candidate_pairs(graph: PromiseGraph) -> List[Tuple[int, int]]:
    """All compatible (offer index, accept index) pairs, ordered
    lexicographically by declaration index: same topic, the accept's
    promiser among the offer's promisees and vice versa, by declared ids."""
    accepts_by_key: Dict[Tuple[str, str, str], List[int]] = {}
    offers = []
    for index, promise in enumerate(graph.promises):
        body = promise.body
        if body.polarity is ACCEPT:
            for promisee in promise.promisees:
                key = (body.topic, promise.promiser, promisee)
                accepts_by_key.setdefault(key, []).append(index)
        else:
            offers.append((index, body.topic, promise.promiser, promise.promisees))
    pairs: List[Tuple[int, int]] = []
    for oi, topic, promiser, promisees in offers:
        found: List[int] = []
        for promisee in promisees:
            found += accepts_by_key.get((topic, promisee, promiser), ())
        if found:
            found.sort()
            pairs += [(oi, ai) for ai in found]
    return pairs


def _augment(start: int, adjacency: Dict[int, List[Tuple[int, int]]], free: List[int],
             units: List[int]) -> bool:
    """Search from class `start`, which has a free unit, for a path to a class
    of the other side with a free unit, and move one unit along it when one
    exists, so the matching grows by one. The path leaves a class on start's
    side by any edge, and a class on the other side by an edge that holds a
    loose unit (matched, not fixed). Offer and accept classes share one
    index space and `adjacency` lists (neighbour, edge) both ways, so one
    walk serves both directions."""
    visited = {start}
    stack = [iter(adjacency[start])]  # one per class on the path
    via: List[int] = []  # the path's edges
    while stack:
        outward = len(stack) % 2  # the path's last class is on start's side
        for there, edge in stack[-1]:
            if there in visited or not (outward or units[edge]):
                continue
            visited.add(there)
            via.append(edge)
            if outward and free[there]:
                free[start] -= 1
                free[there] -= 1
                for k, edge in enumerate(via):
                    units[edge] += -1 if k % 2 else 1
                return True
            stack.append(iter(adjacency[there]))
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


def bind(graph: PromiseGraph) -> List[Binding]:
    """The maximum offer/accept matching, choosing the lexicographically
    earliest pairs (by declaration order) among equally large matchings.

    Promises with one (polarity, topic, promiser, promisees) signature are
    twins, with the same candidate partners, so the matching is solved on
    the quotient graph: one vertex per twin class, its size its capacity.
    First a maximum b-matching, a flow of units on class edges: each edge
    takes what both its ends have free, then each offer class augments.
    Then the offers are walked in declaration order. An accept class's
    unfixed members are interchangeable, so each keeps a pointer to its
    first one, and an offer takes the first class, in pointer order, whose
    unit can be fixed while the flow stays maximum. An offer that fails
    every class fails for each later twin too, so its class is dead.
    Nothing recurses.
    """
    promises = graph.promises
    classes: Dict[tuple, List[int]] = {}  # signature -> members, in declaration order
    representatives: List[Promise] = []
    for index, promise in enumerate(promises):
        body = promise.body
        signature = (body.polarity is OFFER, body.topic, promise.promiser, promise.promisees)
        twins = classes.get(signature)
        if twins is None:
            classes[signature] = [index]
            representatives.append(promise)
        else:
            twins.append(index)
    members = list(classes.values())
    edges = candidate_pairs(graph._replace(promises=tuple(representatives)))
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    free = list(map(len, members))
    units: List[int] = []  # loose units per edge
    for edge, (x, y) in enumerate(edges):
        adjacency.setdefault(x, []).append((y, edge))
        adjacency.setdefault(y, []).append((x, edge))
        take = min(free[x], free[y])
        free[x] -= take
        free[y] -= take
        units.append(take)
    offer_classes = list(dict.fromkeys(x for x, _ in edges))
    for x in offer_classes:
        while free[x] and _augment(x, adjacency, free, units):
            pass

    end = len(promises)  # the pointer of an accept class whose members are all fixed
    queues = {y: iter(members[y]) for _, y in edges}
    head = {y: next(queue) for y, queue in queues.items()}
    dead: Set[int] = set()
    bindings: List[Binding] = []
    for oi, x in sorted((oi, x) for x in offer_classes for oi in members[x]):
        if x in dead:
            continue
        candidates = adjacency[x]
        if len(candidates) > 1:
            candidates = sorted(candidates, key=lambda link: head[link[0]])
        for y, edge in candidates:
            ai = head[y]
            if ai == end:
                continue
            if units[edge]:  # the pair already holds a loose unit
                units[edge] -= 1
            else:  # each end gives up a spare unit, or else a loose one
                moved = []
                for side in (x, y):
                    if free[side]:
                        free[side] -= 1
                        continue
                    partner, freed = next(link for link in adjacency[side] if units[link[1]])
                    units[freed] -= 1
                    free[partner] += 1
                    moved.append((partner, freed))
                # two loose units lost: a path from a freed class must win one back
                if len(moved) == 2 and not any(_augment(partner, adjacency, free, units)
                                               for partner, _ in moved):
                    for partner, freed in moved:
                        free[partner] -= 1
                        units[freed] += 1
                    continue
            offer = promises[oi]
            bindings.append(Binding(offer.id, promises[ai].id, offer.body.topic))
            head[y] = next(queues[y], end)
            break
        else:
            dead.add(x)
    return bindings


def unbound(graph: PromiseGraph, bindings: Sequence[Binding]) -> List[Finding]:
    """A finding for every promise that found no complementary partner."""
    offers = (UNBOUND_OFFER, SEVERITY[UNBOUND_OFFER], {b.offer for b in bindings},
              "offer %r of topic %r by %s is not accepted by any promisee")
    accepts = (UNBOUND_ACCEPT, SEVERITY[UNBOUND_ACCEPT], {b.accept for b in bindings},
               "acceptance %r of topic %r by %s matches no declared offer")
    findings: List[Finding] = []
    for promise in graph.promises:
        body = promise.body
        rule, severity, bound, message = offers if body.polarity is OFFER else accepts
        if promise.id not in bound:
            findings.append(Finding(
                rule, severity, (promise.id, promise.promiser),
                message % (promise.id, body.topic, promise.promiser), promise.span))
    return findings


def polarity_census(graph: PromiseGraph) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Per (agent, topic): offers directed at the agent vs acceptances the
    agent makes. Counts use declared ids, superagents count as themselves."""
    index = graph._agent_topic_index
    return {key: (len(index[key][0]), len(index[key][1])) for key in sorted(index)}


def single_source(graph: PromiseGraph, quorum: int = 2) -> List[Finding]:
    """Flag consumers that accept a topic from fewer distinct sources than
    the quorum demands, despite more sources offering it. A consumer is an
    agent with at least one acceptance of the topic."""
    if quorum < 1:
        raise ValueError("quorum must be >= 1")
    index = graph._agent_topic_index
    severity = SEVERITY[SINGLE_SOURCE_ACCEPTANCE]
    findings: List[Finding] = []
    # a consumer offered the topic by one promise has at most one source
    for key in sorted(key for key, (offers, accepts) in index.items()
                      if accepts and len(offers) > 1):
        offers, accepts = index[key]
        sources = {offer.promiser for offer in offers}
        if len(sources) < 2:
            continue
        taken = set().union(*[accept.promisees for accept in accepts])
        if len(taken) >= min(quorum, len(sources)):
            continue
        consumer, topic = key
        ignored = sorted(sources - taken)
        findings.append(Finding(
            SINGLE_SOURCE_ACCEPTANCE, severity,
            (consumer, topic, *ignored),
            "%s accepts topic %r from %d source(s) while %d agents offer it "
            "(quorum %d); ignored: %s"
            % (consumer, topic, len(taken), len(sources), quorum, ", ".join(ignored)),
            accepts[0].span,
        ))
    return findings


def scope_audit(graph: PromiseGraph) -> List[Finding]:
    """Flag promises whose declared impact set includes agents that cannot
    see the promise."""
    severity = SEVERITY[SCOPE_HIDING]
    findings: List[Finding] = []
    for promise in graph.promises:
        if not promise.body.affects:
            continue
        for agent in sorted(promise.body.affects):
            if not privy(watchers(graph, agent), promise):
                findings.append(Finding(
                    SCOPE_HIDING, severity,
                    (promise.id, agent),
                    "promise %r affects %s, who is not privy to it"
                    % (promise.id, agent),
                    promise.span,
                ))
    return findings


def behalf_violations(graph: PromiseGraph) -> List[Finding]:
    """Flag promises made in another agent's name."""
    severity = SEVERITY[BEHALF_OF_VIOLATION]
    findings: List[Finding] = []
    for promise in graph.promises:
        behalf = promise.body.behalf_of
        if behalf is None:
            continue
        findings.append(Finding(
            BEHALF_OF_VIOLATION, severity,
            (promise.id, promise.promiser, behalf),
            "%s promises %r on behalf of %s, but only %s can promise its own behaviour"
            % (promise.promiser, promise.id, behalf, behalf),
            promise.span,
        ))
    return findings


def imposition_pressure(graph: PromiseGraph) -> List[Finding]:
    """Report agents under several impositions, and every threat."""
    inbound: Dict[str, List[Imposition]] = {}
    for imposition in graph.impositions:
        inbound.setdefault(imposition.imposee, []).append(imposition)

    severity = SEVERITY[IMPOSITION_PRESSURE]
    findings: List[Finding] = []
    for imposee, impositions in inbound.items():
        if len(impositions) < 2:
            continue
        findings.append(Finding(
            IMPOSITION_PRESSURE, severity,
            (imposee, *[imp.id for imp in impositions]),
            "%s is subject to %d impositions: %s"
            % (imposee, len(impositions), ", ".join(imp.id for imp in impositions)),
            impositions[0].span,
        ))
    for imposition in graph.impositions:
        if imposition.kind is ImpositionKind.THREAT:
            findings.append(Finding(
                IMPOSITION_PRESSURE, severity,
                (imposition.id, imposition.imposer, imposition.imposee),
                "imposition %r is a threat by %s against %s"
                % (imposition.id, imposition.imposer, imposition.imposee),
                imposition.span,
            ))
    return findings


def trust(graph: PromiseGraph, params: Optional[TrustParams] = None) -> TrustTable:
    """Fold every assessment, in ordinal order, into per-(assessor, promiser)
    trust scores: kept gains a fraction alpha of the remaining headroom,
    not-kept loses a fraction beta, indeterminate records the pair unchanged."""
    params = params or TrustParams()
    entries: Dict[Tuple[str, str], float] = {}
    for assessment in sorted(graph.assessments, key=lambda a: a.ordinal):
        subject = graph.promise_by_id(assessment.target).promiser
        key = (assessment.assessor, subject)
        value = entries.get(key, params.initial)
        if assessment.verdict is Verdict.KEPT:
            value = value + params.alpha * (1.0 - value)
        elif assessment.verdict is Verdict.NOT_KEPT:
            value = value * (1.0 - params.beta)
        entries[key] = value
    return TrustTable(params.initial, entries)


def sort_findings(findings: Sequence[Finding]) -> Tuple[Finding, ...]:
    """Severity first (violations on top), then document position."""
    return tuple(sorted(
        findings,
        key=lambda f: (-_SEVERITY_RANKS[f.severity._value_], f.span.start, f.rule._value_,
                       f.subjects),
    ))


def analyze_all(graph: PromiseGraph, config: Optional[AnalysisConfig] = None) -> AnalysisReport:
    """Bind, then run the RULES rows in order, the census and trust: one deterministic report."""
    config = config or AnalysisConfig()
    bindings = bind(graph)
    findings = [finding for _, run in RULES for finding in run(graph, bindings, config)]
    return AnalysisReport(
        bindings=tuple(bindings),
        findings=sort_findings(findings),
        census=polarity_census(graph),
        trust=trust(graph, config.trust),
    )
