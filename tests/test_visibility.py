"""Who sees which promise, and which superagents sit on a membership cycle.

`viewpoint` walks up from its observer once, and `scope_audit` once per
(promise, affected agent) pair, keeping nothing (`model.watchers`); both
test `model.privy`. `_superagent_cycles` is Tarjan's strongly connected
components. The earlier code is kept here verbatim as the reference: it
rebuilt each promise's downward member closure to test one name, and it
found cycles by copying the depth-first trail at each back edge. Both are
compared with the new code on random, cyclic, deep, wide and
diamond-shaped graphs.
"""

import random
from typing import List, Set

import pytest

from promisegraph.analysis import Finding, FindingRule, Severity, scope_audit
from promisegraph.export import ViewpointGraph, viewpoint
from promisegraph.lower import LowerFailure, load
from promisegraph.model import (
    Agent,
    Body,
    ErrorCode,
    Imposition,
    Polarity,
    Promise,
    PromiseGraph,
    SourceSpan,
    Superagent,
    expand_members,
    validate,
    _superagent_cycles,
)

from conftest import make_random_graph
from test_export import random_superagent_graph


def reference_privy(graph: PromiseGraph, promise: Promise) -> Set[str]:
    return expand_members(graph, {promise.promiser, *promise.promisees, *promise.scope})


def reference_viewpoint(graph: PromiseGraph, observer: str) -> ViewpointGraph:
    if not graph.has_actor(observer):
        raise KeyError("unknown observer %r" % observer)

    kept_promises = tuple(p for p in graph.promises if observer in reference_privy(graph, p))
    kept_impositions = tuple(i for i in graph.impositions if observer in (i.imposer, i.imposee))
    kept_ids = {p.id for p in kept_promises}
    kept_assessments = tuple(a for a in graph.assessments if a.target in kept_ids)

    referenced: Set[str] = {observer}
    for promise in kept_promises:
        referenced.add(promise.promiser)
        referenced.update(promise.promisees)
        referenced.update(promise.scope)
        referenced.update(promise.body.affects)
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


def reference_scope_audit(graph: PromiseGraph) -> List[Finding]:
    findings: List[Finding] = []
    for promise in graph.promises:
        if not promise.body.affects:
            continue
        visible = reference_privy(graph, promise)
        for agent in sorted(promise.body.affects):
            if agent not in visible:
                findings.append(Finding(
                    FindingRule.SCOPE_HIDING, Severity.WARNING,
                    (promise.id, agent),
                    "promise %r affects %s, who is not privy to it"
                    % (promise.id, agent),
                    promise.span,
                ))
    return findings


def reference_cycles(graph: PromiseGraph) -> List[str]:
    """The earlier `_superagent_cycles`; it misses a superagent that reaches
    a cycle only through a member whose search has already finished."""
    state = {}  # 0 = visiting, 1 = done
    cyclic = set()

    for root in graph.superagents:
        if root in state:
            continue
        state[root] = 0
        stack = [(root, iter(sorted(graph.superagents[root].members)))]
        while stack:
            name, members = stack[-1]
            for member in members:
                if member not in graph.superagents or state.get(member) == 1:
                    continue
                if member in state:  # visiting: the trail from it closes a cycle
                    trail = [entry for entry, _ in stack]
                    cyclic.update(trail[trail.index(member):])
                    continue
                state[member] = 0
                stack.append((member, iter(sorted(graph.superagents[member].members))))
                break
            else:
                stack.pop()
                state[name] = 1
    return [name for name in graph.superagents if name in cyclic]


def cycle_oracle(graph: PromiseGraph) -> List[str]:
    """Brute force: a superagent is cyclic iff it can reach itself by one or
    more membership edges."""
    cyclic = []
    for name, superagent in graph.superagents.items():
        seen: Set[str] = set()
        stack = [m for m in superagent.members if m in graph.superagents]
        while stack:
            member = stack.pop()
            if member not in seen:
                seen.add(member)
                stack.extend(m for m in graph.superagents[member].members
                             if m in graph.superagents)
        if name in seen:
            cyclic.append(name)
    return cyclic


def with_promises(rng: random.Random, graph: PromiseGraph, count: int) -> PromiseGraph:
    """`graph` plus `count` promises and a few impositions over its declared
    names and one undeclared one, with scopes and impact sets."""
    pool = sorted(graph.agents) + sorted(graph.superagents) + ["Ghost"]

    def some(lo: int, hi: int) -> frozenset:
        return frozenset(rng.sample(pool, rng.randint(lo, min(hi, len(pool)))))

    promises = tuple(
        Promise("p%d" % i, rng.choice(pool), some(1, 2),
                Body(rng.choice(list(Polarity)), "t", affects=some(0, 3)),
                scope=some(0, 2) if rng.random() < 0.5 else frozenset(),
                span=SourceSpan(i, i + 1, 1, i + 1))
        for i in range(count))
    impositions = tuple(Imposition("i%d" % i, *rng.sample(pool, 2)) for i in range(2))
    return graph._replace(promises=promises, impositions=impositions)


def declare(agents, superagents) -> PromiseGraph:
    """Agents by name, superagents as name -> member names."""
    return PromiseGraph(agents={n: Agent(n) for n in agents},
                        superagents={n: Superagent(n, frozenset(m))
                                     for n, m in superagents.items()})


def deep(n: int) -> PromiseGraph:
    """S0 < S1 < ... < S(n-1), each also holding one agent."""
    return declare(["A%d" % i for i in range(n)],
                   {"S%d" % i: ["A%d" % i] + (["S%d" % (i - 1)] if i else [])
                    for i in range(n)})


def deep_cycle(n: int) -> PromiseGraph:
    """`deep`, with every superagent also holding the last one."""
    return declare(["A%d" % i for i in range(n)],
                   {"S%d" % i: ["A%d" % i, "S%d" % (n - 1)] + (["S%d" % (i - 1)] if i else [])
                    for i in range(n)})


def wide(n: int) -> PromiseGraph:
    return declare(["A%d" % i for i in range(n)], {"All": ["A%d" % i for i in range(n)]})


def diamond(n: int) -> PromiseGraph:
    """Top over Left and Right, which share Bottom and its agents."""
    agents = ["A%d" % i for i in range(n)]
    return declare(agents, {"Top": ["Left", "Right"], "Left": ["Bottom", agents[0]],
                            "Right": ["Bottom"], "Bottom": agents[1:]})


def shaped_graphs():
    rng = random.Random(20261020)
    for seed in range(60):
        yield make_random_graph(random.Random(seed + 900), max_promises=12)
    for _ in range(300):
        yield with_promises(rng, random_superagent_graph(rng), rng.randint(0, 12))
    for shape in (deep, deep_cycle, wide, diamond):
        for n in (1, 2, 5, 12):
            yield with_promises(rng, shape(n), 4 * n)


def test_viewpoint_matches_the_closure_reference():
    views = 0
    for graph in shaped_graphs():
        for observer in [*graph.agents, *graph.superagents]:
            assert viewpoint(graph, observer) == reference_viewpoint(graph, observer)
            views += 1
    assert views > 2000


def test_scope_audit_matches_the_closure_reference():
    hidden = 0
    for graph in shaped_graphs():
        findings = scope_audit(graph)
        assert findings == reference_scope_audit(graph)
        hidden += len(findings)
    assert hidden > 500


def random_cyclic_graph(rng: random.Random) -> PromiseGraph:
    """Up to 30 superagents, each over one to four names drawn from every
    superagent (itself included), a few agents and an undeclared name."""
    names = ["G%d" % i for i in range(rng.randint(1, 30))]
    rng.shuffle(names)
    pool = names + ["A0", "A1", "Ghost"]
    return declare(["A0", "A1"], {n: rng.sample(pool, rng.randint(1, 4)) for n in names})


def test_cycles_match_the_brute_force_oracle():
    rng = random.Random(20261021)
    graphs = [random_superagent_graph(rng) for _ in range(2000)]
    graphs += [random_cyclic_graph(rng) for _ in range(2000)]
    graphs += [shape(n) for shape in (deep, deep_cycle, wide, diamond) for n in (1, 2, 5, 40)]
    missed = 0
    for graph in graphs:
        expected = cycle_oracle(graph)
        assert _superagent_cycles(graph) == expected, graph
        missed += reference_cycles(graph) != expected
    # the earlier search misses some of these; each miss is a superagent left out
    assert missed > 0


D_CASE = ("superagent A { B, D }\n"
          "superagent B { C }\n"
          "superagent C { A }\n"
          "superagent D { B }\n")


def test_a_superagent_that_reaches_a_finished_cycle_is_reported():
    # D -> B -> C -> A -> D is a cycle, but the search from A finishes B
    # before it reaches D by A's second member
    with pytest.raises(LowerFailure) as failure:
        load(D_CASE)
    assert [(e.code, e.message, e.span.line) for e in failure.value.errors] == [
        (ErrorCode.CYCLIC_SUPERAGENT,
         "superagent %r is a member of itself through its membership chain" % name, line)
        for line, name in enumerate("ABCD", start=1)
    ]


def test_self_membership_and_long_chains():
    graph = declare([], {"Solo": ["Solo"], "Up": ["Solo"]})
    assert [e.message for e in validate(graph)] == [
        "superagent 'Solo' is a member of itself through its membership chain"]
    # no recursion: a chain far deeper than the recursion limit
    assert _superagent_cycles(deep(5000)) == []
    assert _superagent_cycles(deep_cycle(5000)) == ["S%d" % i for i in range(5000)]
