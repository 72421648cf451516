"""Promise-graph analyses: offer/accept binding, structural findings,
polarity census, and the observer-relative trust engine.

Every function is pure over an immutable graph; analyze_all aggregates them
into one deterministic report.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .model import (
    Imposition,
    ImpositionKind,
    Polarity,
    Promise,
    PromiseGraph,
    SourceSpan,
    Verdict,
    _Watchers,
)

# module names: a name lookup is several times cheaper than `Polarity.OFFER`
OFFER, ACCEPT = Polarity


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
        return _SEVERITY_RANKS[self]


_SEVERITY_RANKS = {Severity.INFO: 1, Severity.WARNING: 2, Severity.VIOLATION: 3}


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
    for ai, accept in enumerate(graph.promises):
        body = accept.body
        if body.polarity is ACCEPT:
            for promisee in accept.promisees:
                key = (body.topic, accept.promiser, promisee)
                accepts_by_key.setdefault(key, []).append(ai)
    pairs: List[Tuple[int, int]] = []
    for oi, offer in enumerate(graph.promises):
        body = offer.body
        if body.polarity is OFFER:
            found: List[int] = []
            for promisee in offer.promisees:
                found.extend(accepts_by_key.get((body.topic, promisee, offer.promiser), ()))
            pairs.extend((oi, ai) for ai in sorted(found))
    return pairs


def _augment(start: int, adjacency: Dict[int, List[int]], mate: Dict[int, int],
             frozen: Set[int]) -> bool:
    """Search for an alternating path from the unmatched vertex `start` to
    another unmatched vertex, never entering a frozen one, and flip the
    path's edges into `mate` when one exists. Offers and accepts share the
    declaration-index space, so one walk serves both directions."""
    visited: Set[int] = set()
    path = [start]  # the vertices on start's side of the bipartition
    via: List[int] = []  # via[i] joins path[i] to path[i + 1]
    stack = [iter(adjacency[start])]
    while stack:
        for vertex in stack[-1]:
            if vertex in visited or vertex in frozen:
                continue
            visited.add(vertex)
            via.append(vertex)
            partner = mate.get(vertex)
            if partner is None:
                for left, right in zip(path, via):
                    mate[left] = right
                    mate[right] = left
                return True
            path.append(partner)
            stack.append(iter(adjacency[partner]))
            break
        else:
            stack.pop()
            path.pop()
            if via:
                via.pop()
    return False


def bind(graph: PromiseGraph) -> List[Binding]:
    """The maximum offer/accept matching, choosing the lexicographically
    earliest pairs (by declaration order) among equally large matchings.

    One maximum matching is solved up front, by one augmenting search per
    offer in declaration order (Kuhn's algorithm). The pairs are then walked in
    order while that matching stays maximum and holds every chosen pair; a
    pair is chosen when the matching can be repaired to contain it without
    shrinking, by one alternating path through the vertices not yet fixed.
    """
    pairs = candidate_pairs(graph)
    adjacency: Dict[int, List[int]] = {}
    for oi, ai in pairs:
        adjacency.setdefault(oi, []).append(ai)
        adjacency.setdefault(ai, []).append(oi)
    mate: Dict[int, int] = {}
    fixed: Set[int] = set()
    for oi in dict.fromkeys(oi for oi, _ in pairs):
        # take the first free accept; search for a path only when none is
        # free, so twin offers do not search through each other's accepts
        for ai in adjacency[oi]:
            if ai not in mate:
                mate[oi], mate[ai] = ai, oi
                break
        else:
            _augment(oi, adjacency, mate, fixed)

    chosen: List[Tuple[int, int]] = []
    for oi, ai in pairs:
        if oi in fixed or ai in fixed:
            continue
        old_accept, old_offer = mate.get(oi), mate.get(ai)
        if old_accept is None or old_offer is None:
            # one endpoint is unmatched: swapping the edge in keeps the size
            mate.pop(old_accept, None)
            mate.pop(old_offer, None)
            mate[oi], mate[ai] = ai, oi
        elif old_accept != ai:
            # trade two matched edges for (oi, ai); the matching stays
            # maximum only if a path from a freed vertex augments it
            del mate[old_accept], mate[old_offer]
            mate[oi], mate[ai] = ai, oi
            fixed.update((oi, ai))
            if not (_augment(old_offer, adjacency, mate, fixed)
                    or _augment(old_accept, adjacency, mate, fixed)):
                fixed.difference_update((oi, ai))
                mate[oi], mate[old_accept] = old_accept, oi
                mate[ai], mate[old_offer] = old_offer, ai
                continue
        chosen.append((oi, ai))
        fixed.update((oi, ai))
    return [
        Binding(graph.promises[oi].id, graph.promises[ai].id, graph.promises[oi].body.topic)
        for oi, ai in chosen
    ]


def unbound(graph: PromiseGraph, bindings: Sequence[Binding]) -> List[Finding]:
    """A warning for every promise that found no complementary partner."""
    by_polarity = {
        OFFER: (FindingRule.UNBOUND_OFFER, {b.offer for b in bindings},
                "offer %r of topic %r by %s is not accepted by any promisee"),
        ACCEPT: (FindingRule.UNBOUND_ACCEPT, {b.accept for b in bindings},
                 "acceptance %r of topic %r by %s matches no declared offer"),
    }
    findings: List[Finding] = []
    for promise in graph.promises:
        body = promise.body
        rule, bound, message = by_polarity[body.polarity]
        if promise.id not in bound:
            findings.append(Finding(
                rule, Severity.WARNING, (promise.id, promise.promiser),
                message % (promise.id, body.topic, promise.promiser), promise.span))
    return findings


def polarity_census(graph: PromiseGraph) -> Dict[Tuple[str, str], Tuple[int, int]]:
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


def single_source(graph: PromiseGraph, quorum: int = 2) -> List[Finding]:
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
            FindingRule.SINGLE_SOURCE_ACCEPTANCE, Severity.VIOLATION,
            (consumer, topic, *ignored),
            "%s accepts topic %r from %d source(s) while %d agents offer it "
            "(quorum %d); ignored: %s"
            % (consumer, topic, len(taken), len(sources), quorum, ", ".join(ignored)),
            first_accept[key].span,
        ))
    return findings


def scope_audit(graph: PromiseGraph) -> List[Finding]:
    """Flag promises whose declared impact set includes agents that cannot
    see the promise."""
    watchers = _Watchers(graph)
    findings: List[Finding] = []
    for promise in graph.promises:
        if not promise.body.affects:
            continue
        for agent in sorted(promise.body.affects):
            if not watchers.privy(agent, promise):
                findings.append(Finding(
                    FindingRule.SCOPE_HIDING, Severity.WARNING,
                    (promise.id, agent),
                    "promise %r affects %s, who is not privy to it"
                    % (promise.id, agent),
                    promise.span,
                ))
    return findings


def behalf_violations(graph: PromiseGraph) -> List[Finding]:
    """Flag promises made in another agent's name."""
    findings: List[Finding] = []
    for promise in graph.promises:
        behalf = promise.body.behalf_of
        if behalf is None:
            continue
        findings.append(Finding(
            FindingRule.BEHALF_OF_VIOLATION, Severity.VIOLATION,
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

    findings: List[Finding] = []
    for imposee, impositions in inbound.items():
        if len(impositions) < 2:
            continue
        findings.append(Finding(
            FindingRule.IMPOSITION_PRESSURE, Severity.INFO,
            (imposee, *[imp.id for imp in impositions]),
            "%s is subject to %d impositions: %s"
            % (imposee, len(impositions), ", ".join(imp.id for imp in impositions)),
            impositions[0].span,
        ))
    for imposition in graph.impositions:
        if imposition.kind is ImpositionKind.THREAT:
            findings.append(Finding(
                FindingRule.IMPOSITION_PRESSURE, Severity.INFO,
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
        key=lambda f: (-_SEVERITY_RANKS[f.severity], f.span.start, f.rule.value, f.subjects),
    ))


def analyze_all(graph: PromiseGraph, config: Optional[AnalysisConfig] = None) -> AnalysisReport:
    """Run every analysis and aggregate deterministically."""
    config = config or AnalysisConfig()
    bindings = bind(graph)
    findings: List[Finding] = []
    findings.extend(unbound(graph, bindings))
    findings.extend(single_source(graph, config.quorum))
    findings.extend(scope_audit(graph))
    findings.extend(behalf_violations(graph))
    findings.extend(imposition_pressure(graph))
    return AnalysisReport(
        bindings=tuple(bindings),
        findings=sort_findings(findings),
        census=polarity_census(graph),
        trust=trust(graph, config.trust),
    )
