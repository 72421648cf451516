"""Seeded text-level generators for the benchmark's synthetic workloads.

Each generator writes promise-language source text from a seed and records,
next to the text, what it knows from its own construction: input sizes, the
declared promises (so the oracle can rebuild the candidate offer/accept
pairs without asking promisegraph), and the finding counts and exit code the
document must produce. The same seed always gives the same bytes.

The shapes are fixed by the workload; the seed only picks names, words,
declaration order and which promises carry the optional clauses, so the
amount of work per document varies little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

AGENT_KINDS = ("human", "organization", "software", "hardware", "system", "standard")
ROLES = ("Pilot", "Vendor", "Airline", "Sensor", "Auditor", "Insurer", "Trainer",
         "Analyst", "Operator", "Supplier", "Reporter", "Engineer")
TOPICS = ("aoa-reading", "flight-data", "trim-control", "type-rating", "maintenance",
          "certification", "training-plan", "sensor-health", "software-patch",
          "risk-analysis", "crew-briefing", "fleet-status", "incident-report",
          "design-review", "audit-trail", "spare-parts", "weather-feed",
          "route-planning", "fuel-budget", "safety-case", "test-results",
          "noise-levels", "cabin-pressure", "autopilot-mode")
WORDS = ("the", "aircraft", "handles", "like", "its", "predecessor", "and", "no",
         "retraining", "is", "needed", "for", "crews", "who", "fly", "both",
         "variants", "sensor", "data", "feeds", "every", "flight", "computer",
         "during", "manual", "regimes", "trim", "wheel", "stabilizer", "nose-down",
         "command", "regulator", "certifies", "design", "under", "schedule",
         "pressure", "airline", "management", "pilots", "were", "never", "told",
         "café", "naïve", "Überprüfung", "façade", "—", "résumé", "São", "Zürich",
         "coöperation", "déjà-vu", "±2°", "≥", "α-vane", "“quoted”", "‘soft’")
VERDICTS = ("kept", "not-kept", "indeterminate")
PROVENANCES = ("explicit", "inferred", "imputed")


@dataclass(frozen=True)
class PromiseRecord:
    id: str
    promiser: str
    promisees: Tuple[str, ...]
    polarity: str
    topic: str
    scope: Tuple[str, ...] = ()


@dataclass
class Document:
    """A generated document and everything its generator knows about it."""

    workload: str
    seed: int
    text: str
    viewpoint: str
    promises: List[PromiseRecord]
    threat_ids: List[str]
    sizes: Dict[str, int] = field(default_factory=dict)
    expect: Dict[str, int] = field(default_factory=dict)


def _sentence(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def _sample_others(rng: random.Random, pool: List[str], exclude: str, k: int) -> List[str]:
    picked: List[str] = []
    while len(picked) < k:
        name = rng.choice(pool)
        if name != exclude and name not in picked:
            picked.append(name)
    return picked


class _Writer:
    """Accumulates declarations and the records the oracle needs."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.promises: List[PromiseRecord] = []
        self.threat_ids: List[str] = []
        self.behalf = 0
        self.imposed: Dict[str, int] = {}

    def promise(self, record: PromiseRecord, *, text: Optional[str] = None,
                explicit_scope: bool = False, provenance: Optional[str] = None,
                behalf: Optional[str] = None, affects: Tuple[str, ...] = (),
                condition: Optional[str] = None) -> None:
        self.promises.append(record)
        head = "promise %s from %s to %s" % (record.id, record.promiser,
                                            ", ".join(record.promisees))
        if record.scope or explicit_scope:
            head += " scope [%s]" % ", ".join(record.scope)
        if provenance is not None:
            head += " provenance=%s" % provenance
        body = "  %s %s" % (record.polarity, record.topic)
        if text is not None:
            body += '\n    "%s"' % text
        if behalf is not None:
            body += "\n    behalf %s" % behalf
            self.behalf += 1
        if affects:
            body += "\n    affects [%s]" % ", ".join(affects)
        if condition is not None:
            body += '\n    condition "%s"' % condition
        if text is None and behalf is None and not affects and condition is None:
            self.lines.append("%s { %s }" % (head, body.strip()))
        else:
            self.lines.append("%s {\n%s\n}" % (head, body))

    def imposition(self, ident: str, imposer: str, imposee: str, threat: bool,
                   text: str) -> None:
        kind = "threat" if threat else "requirement"
        self.lines.append('imposition %s from %s to %s kind=%s { "%s" }'
                          % (ident, imposer, imposee, kind, text))
        if threat:
            self.threat_ids.append(ident)
        self.imposed[imposee] = self.imposed.get(imposee, 0) + 1

    def document(self, workload: str, seed: int, agents: int, viewpoint: str,
                 watchers: Tuple[str, ...], **expect: int) -> Document:
        """`watchers` are the viewpoint and every superagent that contains
        it: a promise is in the viewpoint's export iff its promiser,
        promisees or scope name one of them (expansion only goes down)."""
        text = "\n".join(self.lines) + "\n"
        expect.update(
            promises=len(self.promises),
            view_edges=sum(len(p.promisees) for p in self.promises
                           if {p.promiser, *p.promisees, *p.scope} & set(watchers)),
            behalf_violations=self.behalf,
            threats=len(self.threat_ids),
            pressured_agents=sum(1 for n in self.imposed.values() if n >= 2),
        )
        sizes = {"bytes": len(text.encode("utf-8")), "promises": len(self.promises),
                 "agents": agents}
        return Document(workload, seed, text, viewpoint, self.promises, self.threat_ids,
                        sizes, expect)


def sparse(seed: int, n: int = 4000) -> Document:
    """Prose-heavy and shaped like the corpus: n promises, n/20 agents in
    groups of ten under one shared superagent, and 20 topics. Offers are
    answered conversation-style: every offer gets a reply from its first
    promisee, on the offered topic 30% of the time, so about 30% of
    promises bind, in tiny components. A few promises are made on another
    agent's behalf, so the document always has violations and `analyze`
    exits 1."""
    rng = random.Random(seed)
    w = _Writer()
    n_agents = max(20, n // 20)
    agents = ["%s-%03d" % (rng.choice(ROLES), i) for i in range(n_agents)]
    topics = rng.sample(TOPICS, 20)
    order = agents[:]
    rng.shuffle(order)
    groups = {"Group-%02d" % (g + 1): order[g * 10:(g + 1) * 10]
              for g in range(n_agents // 10)}

    w.lines.append("# Synthetic promise network, seed %d: %s" % (seed, _sentence(rng, 8, 14)))
    for name in agents:
        w.lines.append("agent %s kind=%s" % (name, rng.choice(AGENT_KINDS)))
    for name, members in groups.items():
        w.lines.append("superagent %s { %s }" % (name, ", ".join(members)))
    w.lines.append("superagent Commons { %s }" % ", ".join(groups))

    def optional_clauses() -> dict:
        clauses: dict = {"text": _sentence(rng, 8, 24)}
        if rng.random() < 0.3:
            clauses["affects"] = tuple(_sample_others(rng, agents, "", rng.randint(1, 2)))
        if rng.random() < 0.15:
            clauses["condition"] = _sentence(rng, 4, 10)
        if rng.random() < 0.3:
            clauses["provenance"] = rng.choice(PROVENANCES)
        return clauses

    def scope_for(promiser: str) -> Tuple[Tuple[str, ...], bool]:
        roll = rng.random()
        if roll < 0.015:
            return (), True
        if roll < 0.12:
            return (rng.choice(list(groups)),), False
        if roll < 0.18:
            return ("Commons",), False
        if roll < 0.30:
            return tuple(_sample_others(rng, agents, promiser, rng.randint(1, 2))), False
        return (), False

    for count in range(n // 2):
        if rng.random() < 0.3:
            w.lines.append("")
            w.lines.append("# %s" % _sentence(rng, 6, 14))
        promiser = rng.choice(agents)
        topic = rng.choice(topics)
        if rng.random() < 0.1:
            promisees = (rng.choice(list(groups)),)
        else:
            promisees = tuple(_sample_others(rng, agents, promiser, rng.choice((1, 1, 1, 2))))
        scope, explicit = scope_for(promiser)
        clauses = optional_clauses()
        if count == 0 or rng.random() < 0.01:
            clauses["behalf"] = _sample_others(rng, agents, promiser, 1)[0]
        w.promise(PromiseRecord("offer-%d" % count, promiser, promisees, "offer",
                                topic, scope), explicit_scope=explicit, **clauses)
        # the reply accepts the offered topic 30% of the time, else another one
        if rng.random() >= 0.3:
            topic = _sample_others(rng, topics, topic, 1)[0]
        answerer = promisees[0]
        scope, explicit = scope_for(answerer)
        w.promise(PromiseRecord("reply-%d" % count, answerer, (promiser,), "accept",
                                topic, scope), explicit_scope=explicit,
                  **optional_clauses())

    w.lines.append("")
    for i in range(max(4, n // 50)):
        imposer, imposee = rng.sample(agents, 2)
        w.imposition("imp-%d" % i, imposer, imposee, rng.random() < 0.25,
                     _sentence(rng, 6, 14))
    for i in range(max(4, n // 40)):
        w.lines.append('assessment rev-%d by %s on %s verdict=%s note "%s"'
                       % (i, rng.choice(agents), rng.choice(w.promises).id,
                          rng.choice(VERDICTS), _sentence(rng, 6, 16)))
    return w.document("sparse", seed, len(agents), "Group-01", ("Group-01", "Commons"),
                      exit_code=1)


def dense(seed: int, n: int = 1200) -> Document:
    """Token-dense binding: n text-free promises over four agents and two
    topics. Every (promiser, promisee, topic) class holds n/48 offers and as
    many mirrored accepts, so candidate pairs grow as n**2/96 in 24 large
    components and every promise binds. No rule reaches `violation`, so
    `analyze` exits 0."""
    rng = random.Random(seed)
    w = _Writer()
    agents = ["%s-%d" % (role, i) for i, role in enumerate(rng.sample(ROLES, 4))]
    topics = rng.sample(TOPICS, 2)
    per_class = max(1, n // 48)
    w.lines.append("# Synthetic binding workload, seed %d" % seed)
    for name in agents:
        w.lines.append("agent %s kind=%s" % (name, rng.choice(AGENT_KINDS)))
    w.lines.append("superagent Crew { %s }" % ", ".join(agents))

    specs: List[Tuple[str, str, str, str]] = []
    for offerer in agents:
        for receiver in agents:
            if offerer == receiver:
                continue
            for topic in topics:
                specs += [("offer", offerer, receiver, topic)] * per_class
                specs += [("accept", receiver, offerer, topic)] * per_class
    rng.shuffle(specs)
    scoped = set(rng.sample(range(len(specs)), len(specs) // 2))
    for i, (polarity, promiser, promisee, topic) in enumerate(specs):
        scope = ("Crew",) if i in scoped else ()
        w.promise(PromiseRecord("p%d" % i, promiser, (promisee,), polarity, topic, scope))

    pressured = agents[1]
    w.imposition("deadline", agents[0], pressured, False, "ship by Q3")
    w.imposition("penalty", agents[2], pressured, True, "or pay")
    for i in range(4):
        w.lines.append("assessment check-%d by %s on p%d verdict=%s"
                       % (i, rng.choice(agents), rng.randrange(len(specs)),
                          rng.choice(VERDICTS)))
    return w.document("dense", seed, len(agents), "Crew", ("Crew",), exit_code=0)


GENERATORS = {"sparse": sparse, "dense": dense}
