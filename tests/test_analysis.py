"""Binding, findings rules, census, and the trust engine.

bind() is checked against a brute-force matcher: enumerate every matching
over the pairs of an all-pairs compatibility filter, keep the largest,
break ties by the earliest declaration indices. The production code must
agree exactly. On graphs too large for brute force, bind() and
candidate_pairs() are checked against independent references: the
quadratic greedy that re-solves the matching for every pair, and the same
all-pairs filter.
"""

import pathlib
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promisegraph.analysis import (
    AnalysisConfig,
    Binding,
    Finding,
    FindingRule,
    Severity,
    TrustParams,
    analyze_all,
    behalf_violations,
    bind,
    candidate_pairs,
    imposition_pressure,
    polarity_census,
    scope_audit,
    single_source,
    sort_findings,
    trust,
    unbound,
)
from promisegraph import analysis, corpus
from promisegraph.lower import load
from promisegraph.model import ZERO_SPAN, Agent, Body, Polarity, Promise, PromiseGraph

from conftest import AGENT_NAMES, AOA_TOY, CLEAN_TOY, TOPICS, load_gen, make_random_graph


def naive_candidate_pairs(graph):
    """Every (offer, accept) index pair tested against every other."""
    return [
        (oi, ai)
        for oi, offer in enumerate(graph.promises)
        for ai, accept in enumerate(graph.promises)
        if offer.body.polarity is Polarity.OFFER
        and accept.body.polarity is Polarity.ACCEPT
        and offer.body.topic == accept.body.topic
        and accept.promiser in offer.promisees
        and offer.promiser in accept.promisees
    ]


def brute_force_bind(graph):
    """Exhaustive maximum matching with the earliest-first tie rule, over
    the all-pairs filter's pairs, so it shares no code with bind()."""
    pairs = naive_candidate_pairs(graph)
    n = len(pairs)
    best = {"key": None, "taken": ()}

    def search(i, used_offers, used_accepts, taken):
        if len(taken) + (n - i) < len(best["taken"]):
            return  # cannot reach the best size any more
        if i == n:
            key = (-len(taken), tuple(taken))
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["taken"] = tuple(taken)
            return
        oi, ai = pairs[i]
        if oi not in used_offers and ai not in used_accepts:
            taken.append(i)
            search(i + 1, used_offers | {oi}, used_accepts | {ai}, taken)
            taken.pop()
        search(i + 1, used_offers, used_accepts, taken)

    search(0, frozenset(), frozenset(), [])
    return [
        Binding(graph.promises[pairs[k][0]].id,
                graph.promises[pairs[k][1]].id,
                graph.promises[pairs[k][0]].body.topic)
        for k in best["taken"]
    ]


@pytest.mark.parametrize("seed", range(80))
def test_bind_matches_brute_force(seed):
    rng = random.Random(seed)
    graph = make_random_graph(rng, max_promises=8)
    assert bind(graph) == brute_force_bind(graph)


def max_matching_size(pairs):
    """Maximum matching size over (offer, accept) pairs, by Kuhn's
    augmenting paths (recursive; fine at test sizes)."""
    adjacency = {}
    for oi, ai in pairs:
        adjacency.setdefault(oi, []).append(ai)
    match_of_accept = {}

    def augment(oi, visited):
        for ai in adjacency[oi]:
            if ai not in visited:
                visited.add(ai)
                if ai not in match_of_accept or augment(match_of_accept[ai], visited):
                    match_of_accept[ai] = oi
                    return True
        return False

    return sum(augment(oi, set()) for oi in adjacency)


def reference_bind(graph):
    """The earliest maximum matching by the quadratic greedy: keep a pair
    iff the pairs that remain free can still complete a maximum matching."""
    pairs = naive_candidate_pairs(graph)
    target = max_matching_size(pairs)
    chosen = []
    used_offers, used_accepts = set(), set()
    for oi, ai in pairs:
        if oi in used_offers or ai in used_accepts:
            continue
        rest = [(o, a) for o, a in pairs
                if o != oi and a != ai and o not in used_offers and a not in used_accepts]
        if len(chosen) + 1 + max_matching_size(rest) == target:
            chosen.append((oi, ai))
            used_offers.add(oi)
            used_accepts.add(ai)
    return [
        Binding(graph.promises[oi].id, graph.promises[ai].id,
                graph.promises[oi].body.topic)
        for oi, ai in chosen
    ]


def make_binding_graph(rng, max_promises=60):
    """Few agents and topics, so candidate pairs are dense and their
    components large: shapes where repairs and failed searches abound."""
    agents = {name: Agent(name) for name in AGENT_NAMES[:rng.randint(2, 4)]}
    topics = TOPICS[:rng.randint(1, 2)]
    promises = []
    for i in range(rng.randint(0, max_promises)):
        promiser = rng.choice(list(agents))
        promisees = frozenset(rng.sample(list(agents), rng.randint(1, 2)))
        body = Body(rng.choice(list(Polarity)), rng.choice(topics))
        promises.append(Promise("p%d" % i, promiser, promisees, body))
    return PromiseGraph(agents=agents, promises=tuple(promises))


@pytest.mark.parametrize("seed", range(200))
def test_bind_matches_reference_on_dense_graphs(seed):
    graph = make_binding_graph(random.Random(seed + 7000))
    assert candidate_pairs(graph) == naive_candidate_pairs(graph)
    assert bind(graph) == reference_bind(graph)


def make_twin_graph(rng, max_promises=48):
    """Dense at small n: a few complementary offer and accept signatures
    (polarity, topic, promiser, promisees), each declared by many twin
    promises, plus one-off promises, all in shuffled declaration order."""
    names = AGENT_NAMES[:4]
    agents = {name: Agent(name) for name in names}
    signatures = []
    for _ in range(rng.randint(1, 4)):
        offerer, acceptor = rng.sample(names, 2)
        topic = rng.choice(TOPICS[:2])
        signatures.append((Polarity.OFFER, topic, offerer, {acceptor}))
        signatures.append((Polarity.ACCEPT, topic, acceptor, {offerer}))
    for signature in signatures:  # a second promisee widens some classes
        if rng.random() < 0.3:
            signature[3].add(rng.choice(names))
    bodies, size = [], rng.randint(max_promises // 3, max_promises)
    while len(bodies) < size:
        if rng.random() < 0.8:
            polarity, topic, promiser, promisees = rng.choice(signatures)
            bodies.extend([(polarity, topic, promiser, frozenset(promisees))]
                          * rng.randint(1, 8))
        else:
            promiser = rng.choice(names)
            bodies.append((rng.choice(list(Polarity)), rng.choice(TOPICS[:2]), promiser,
                           frozenset(rng.sample(names, rng.randint(1, 2)))))
    rng.shuffle(bodies)
    promises = tuple(Promise("p%d" % i, promiser, promisees, Body(polarity, topic))
                     for i, (polarity, topic, promiser, promisees) in enumerate(bodies))
    return PromiseGraph(agents=agents, promises=promises)


@pytest.mark.parametrize("seed", range(200))
def test_bind_matches_reference_on_twin_heavy_graphs(seed):
    graph = make_twin_graph(random.Random(seed + 9000))
    signatures = Counter((p.body.polarity, p.body.topic, p.promiser, p.promisees)
                         for p in graph.promises)
    assert max(signatures.values()) >= 2
    assert bind(graph) == reference_bind(graph)


def make_large_twin_graph(rng):
    """One to four complementary signature pairs on one topic, whose offer
    and accept classes are drawn apart, from 1 to 30 twins each, so one side
    of a class edge outnumbers the other; widened promisees join classes to
    more edges. Plus a few one-off promises, all shuffled."""
    names = AGENT_NAMES[:3]
    agents = {name: Agent(name) for name in names}
    topic = TOPICS[0]
    bodies = []
    for _ in range(rng.randint(1, 4)):
        offerer, acceptor = rng.sample(names, 2)
        offer_to, accept_from = {acceptor}, {offerer}
        for widened in (offer_to, accept_from):
            if rng.random() < 0.6:
                widened.add(rng.choice(names))
        bodies += [(Polarity.OFFER, topic, offerer, frozenset(offer_to))] * rng.randint(1, 30)
        bodies += [(Polarity.ACCEPT, topic, acceptor, frozenset(accept_from))] * rng.randint(1, 30)
    for _ in range(rng.randint(0, 6)):
        bodies.append((rng.choice(list(Polarity)), topic, rng.choice(names),
                       frozenset(rng.sample(names, rng.randint(1, 2)))))
    rng.shuffle(bodies)
    promises = tuple(Promise("p%d" % i, promiser, promisees, Body(polarity, topic))
                     for i, (polarity, topic, promiser, promisees) in enumerate(bodies))
    return PromiseGraph(agents=agents, promises=promises)


@pytest.mark.parametrize("seed", range(150))
def test_bind_matches_reference_on_large_twin_classes(seed):
    graph = make_large_twin_graph(random.Random(seed + 11000))
    assert bind(graph) == reference_bind(graph)


def signature(promise):
    return (promise.body.polarity, promise.body.topic, promise.promiser, promise.promisees)


def test_bind_solves_on_the_quotient(monkeypatch):
    """bind asks for candidate pairs once, on a graph with one promise per
    twin signature: 48 on the dense workload, 14 for the corpus's 23."""
    seen = []

    def spy(graph):
        seen.append(graph)
        return candidate_pairs(graph)

    monkeypatch.setattr(analysis, "candidate_pairs", spy)
    dense = load(load_gen().dense(5).text)
    case = load(corpus.load_builtin())
    for graph, classes in ((dense, 48), (case, 14)):
        seen.clear()
        bind(graph)
        assert len(seen) == 1
        signatures = [signature(promise) for promise in seen[0].promises]
        assert len(signatures) == len(set(signatures)) == classes
        assert set(signatures) == {signature(promise) for promise in graph.promises}


@pytest.mark.parametrize("seed", range(80))
def test_offer_count_identity(seed):
    rng = random.Random(seed + 5000)
    graph = make_random_graph(rng, max_promises=8)
    bindings = bind(graph)
    findings = unbound(graph, bindings)
    offers = [p for p in graph.promises if p.body.polarity is Polarity.OFFER]
    unbound_offers = [f for f in findings if f.rule is FindingRule.UNBOUND_OFFER]
    assert len(offers) == len(bindings) + len(unbound_offers)


def test_bind_simple_pair(clean_toy_source):
    graph = load(clean_toy_source)
    assert bind(graph) == [Binding("hello", "hello-back", "greeting")]
    assert unbound(graph, bind(graph)) == []


def test_bind_prefers_earliest_declared(aoa_toy_source):
    # both sensor offers could bind the single acceptance; the earlier
    # declaration wins
    graph = load(aoa_toy_source)
    assert bind(graph) == [Binding("left-feed", "single-tap", "telemetry")]


def test_bind_requires_mutual_endpoints():
    graph = load(
        "agent A\nagent B\nagent C\n"
        "promise give from A to B { offer t }\n"
        "promise take from B to C { accept t }\n"  # accepts from C, not A
    )
    assert bind(graph) == []


def test_bind_requires_same_topic():
    graph = load(
        "agent A\nagent B\n"
        "promise give from A to B { offer apples }\n"
        "promise take from B to A { accept oranges }\n"
    )
    assert bind(graph) == []


def test_unbound_accept_is_reported(aoa_toy_source):
    graph = load(
        "agent A\nagent B\n"
        "promise take from B to A { accept t }\n"
    )
    findings = unbound(graph, bind(graph))
    assert [f.rule for f in findings] == [FindingRule.UNBOUND_ACCEPT]
    assert findings[0].subjects == ("take", "B")
    assert findings[0].severity is Severity.WARNING


def test_census_counts_directed_offers_and_acceptances(aoa_toy_source):
    graph = load(aoa_toy_source)
    census = polarity_census(graph)
    assert census[("Consumer", "telemetry")] == (2, 1)
    assert ("Left-Sensor", "telemetry") not in census


def test_census_recount_oracle():
    for seed in range(40):
        graph = make_random_graph(random.Random(seed + 900), max_promises=10)
        expected = {}
        for p in graph.promises:
            key_topic = p.body.topic
            if p.body.polarity is Polarity.OFFER:
                for promisee in p.promisees:
                    entry = expected.setdefault((promisee, key_topic), [0, 0])
                    entry[0] += 1
            else:
                entry = expected.setdefault((p.promiser, key_topic), [0, 0])
                entry[1] += 1
        assert polarity_census(graph) == {
            k: tuple(v) for k, v in expected.items()
        }


def test_census_keys_are_sorted():
    graph = make_random_graph(random.Random(17), max_promises=10)
    keys = list(polarity_census(graph))
    assert keys == sorted(keys)


SINGLE_SOURCE_TOY = (
    "agent S1\nagent S2\nagent S3\nagent C\n"
    "promise o1 from S1 to C { offer t }\n"
    "promise o2 from S2 to C { offer t }\n"
    "promise o3 from S3 to C { offer t }\n"
    "promise a1 from C to S1 { accept t }\n"
    "promise a2 from C to S2 { accept t }\n"
)


def test_single_source_quorum_one_emits_nothing(aoa_toy_source):
    assert single_source(load(aoa_toy_source), quorum=1) == []


def test_single_source_flags_the_lone_tap(aoa_toy_source):
    findings = single_source(load(aoa_toy_source), quorum=2)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule is FindingRule.SINGLE_SOURCE_ACCEPTANCE
    assert finding.severity is Severity.VIOLATION
    assert finding.subjects == ("Consumer", "telemetry", "Right-Sensor")


def test_single_source_satisfied_by_meeting_quorum():
    assert single_source(load(SINGLE_SOURCE_TOY), quorum=2) == []


def test_single_source_higher_quorum_bites():
    findings = single_source(load(SINGLE_SOURCE_TOY), quorum=3)
    assert len(findings) == 1
    assert findings[0].subjects == ("C", "t", "S3")


def test_single_source_needs_at_least_two_offerers():
    graph = load(
        "agent S1\nagent C\n"
        "promise o1 from S1 to C { offer t }\n"
        "promise a1 from C to S1 { accept t }\n"
    )
    assert single_source(graph, quorum=2) == []


def test_single_source_quorum_is_capped_by_supply():
    # every available source is already taken; a huge quorum cannot complain
    graph = load(
        "agent S1\nagent S2\nagent C\n"
        "promise o1 from S1 to C { offer t }\n"
        "promise o2 from S2 to C { offer t }\n"
        "promise a1 from C to S1 { accept t }\n"
        "promise a2 from C to S2 { accept t }\n"
    )
    assert single_source(graph, quorum=99) == []


def test_single_source_rejects_bad_quorum():
    with pytest.raises(ValueError):
        single_source(load("agent A\n"), quorum=0)


def test_scope_audit_flags_hidden_affected_agent():
    graph = load(
        "agent A\nagent B\nagent C\n"
        "promise p from A to B { offer t affects [C] }\n"
    )
    findings = scope_audit(graph)
    assert len(findings) == 1
    assert findings[0].rule is FindingRule.SCOPE_HIDING
    assert findings[0].subjects == ("p", "C")


def test_scope_audit_clears_when_scope_names_the_agent():
    graph = load(
        "agent A\nagent B\nagent C\n"
        "promise p from A to B scope [C] { offer t affects [C] }\n"
    )
    assert scope_audit(graph) == []


def test_scope_audit_sees_through_superagents():
    # C can see the promise because it is a member of the promisee group
    graph = load(
        "agent A\nagent B\nagent C\n"
        "superagent G { B, C }\n"
        "promise p from A to G { offer t affects [C] }\n"
    )
    assert scope_audit(graph) == []


def test_scope_audit_ignores_promises_without_affects():
    graph = load(
        "agent A\nagent B\n"
        "promise p from A to B scope [] { offer t }\n"
    )
    assert scope_audit(graph) == []


def test_behalf_violation_reported():
    graph = load(
        "agent A\nagent B\nagent D\n"
        "promise p from A to B { offer t behalf D }\n"
    )
    findings = behalf_violations(graph)
    assert len(findings) == 1
    assert findings[0].rule is FindingRule.BEHALF_OF_VIOLATION
    assert findings[0].severity is Severity.VIOLATION
    assert findings[0].subjects == ("p", "A", "D")


def test_no_behalf_no_violation(clean_toy_source):
    assert behalf_violations(load(clean_toy_source)) == []


def test_imposition_pressure_needs_two_inbound():
    graph = load(
        "agent A\nagent B\n"
        'imposition i1 from A to B { "one demand" }\n'
    )
    assert imposition_pressure(graph) == []


def test_imposition_pressure_aggregates_per_imposee():
    graph = load(
        "agent A\nagent B\nagent C\n"
        'imposition i1 from A to C { "first" }\n'
        'imposition i2 from B to C { "second" }\n'
    )
    findings = imposition_pressure(graph)
    assert len(findings) == 1
    assert findings[0].severity is Severity.INFO
    assert findings[0].subjects == ("C", "i1", "i2")


def test_every_threat_is_reported():
    graph = load(
        "agent A\nagent B\n"
        'imposition i1 from A to B kind=threat { "or else" }\n'
    )
    findings = imposition_pressure(graph)
    assert len(findings) == 1
    assert findings[0].subjects == ("i1", "A", "B")


TRUST_TOY = (
    "agent Rater\nagent Maker\nagent Other\n"
    "promise p1 from Maker to Other { offer t }\n"
    "promise p2 from Maker to Other { offer t }\n"
)


def trust_after(*verdicts):
    lines = [TRUST_TOY]
    for i, verdict in enumerate(verdicts):
        lines.append("assessment a%d by Rater on p%d verdict=%s\n"
                     % (i, (i % 2) + 1, verdict))
    table = trust(load("".join(lines)))
    return table.get("Rater", "Maker")


def test_trust_single_not_kept_is_exactly_point_two():
    assert trust_after("not-kept") == 0.2


def test_trust_single_kept_is_exactly_point_six():
    assert trust_after("kept") == 0.6


def test_trust_is_order_sensitive():
    assert trust_after("kept", "not-kept") == pytest.approx(0.24, abs=1e-15)
    assert trust_after("not-kept", "kept") == pytest.approx(0.36, abs=1e-15)


def test_trust_indeterminate_records_pair_unchanged():
    assert trust_after("indeterminate") == 0.5
    table = trust(load(TRUST_TOY + "assessment a by Rater on p1 verdict=indeterminate\n"))
    assert ("Rater", "Maker") in table.entries


def test_trust_unassessed_pairs_report_the_initial():
    table = trust(load(TRUST_TOY))
    assert table.entries == {}
    assert table.get("Rater", "Maker") == 0.5


def test_trust_custom_params():
    table = trust(
        load(TRUST_TOY + "assessment a by Rater on p1 verdict=kept\n"),
        TrustParams(initial=0.0, alpha=1.0, beta=1.0),
    )
    assert table.get("Rater", "Maker") == 1.0


def test_trust_params_are_range_checked():
    with pytest.raises(ValueError):
        TrustParams(initial=1.5)
    with pytest.raises(ValueError):
        TrustParams(alpha=-0.1)
    with pytest.raises(ValueError):
        TrustParams(beta=2.0)


def test_analysis_config_rejects_bad_quorum():
    with pytest.raises(ValueError):
        AnalysisConfig(quorum=0)


FINDING = Finding(FindingRule.UNBOUND_OFFER, Severity.WARNING, ("p",), "m", ZERO_SPAN)


@pytest.mark.parametrize("record, changes", [
    (TrustParams(), {"alpha": -1}),
    (TrustParams(), {"initial": float("nan")}),
    (AnalysisConfig(), {"quorum": 0}),
    (FINDING, {"subjects": ()}),
], ids=["alpha", "initial", "quorum", "subjects"])
def test_replace_and_make_run_the_constructor_checks(record, changes):
    with pytest.raises(ValueError):
        record._replace(**changes)
    with pytest.raises(ValueError):
        type(record)._make(changes.get(f, v) for f, v in zip(record._fields, record))


def test_valid_replace_and_make_still_work():
    params = TrustParams()._replace(alpha=0.3)
    assert params == TrustParams(0.5, 0.3, 0.6) and type(params) is TrustParams
    config = AnalysisConfig()._replace(quorum=3, trust=params)
    assert config == AnalysisConfig(3, params) and type(config) is AnalysisConfig
    finding = FINDING._replace(subjects=("p", "A"))
    assert finding.subjects == ("p", "A") and type(finding) is Finding
    assert Finding._make(FINDING) == FINDING
    # namedtuple's own check: a ValueError before CPython 3.13, a TypeError from it
    with pytest.raises(ValueError if sys.version_info < (3, 13) else TypeError,
                       match="unexpected field"):
        TrustParams()._replace(gamma=0.1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["kept", "not-kept", "indeterminate"]),
                max_size=12))
def test_trust_bounds_and_step_direction(verdicts):
    value = 0.5
    params = TrustParams()
    for verdict in verdicts:
        before = value
        if verdict == "kept":
            value = value + params.alpha * (1.0 - value)
            assert value >= before
        elif verdict == "not-kept":
            value = value * (1.0 - params.beta)
            assert value <= before
        else:
            assert value == before
        assert 0.0 <= value <= 1.0
    # the engine agrees with the fold
    assert trust_after(*verdicts) == pytest.approx(value, abs=1e-15)


def test_sort_findings_severity_then_position():
    graph = load(
        "agent A\nagent B\nagent C\nagent D\n"
        "promise early from A to B { offer t affects [C] }\n"
        "promise late from A to B { offer u behalf D }\n"
    )
    report = analyze_all(graph)
    severities = [f.severity.rank for f in report.findings]
    assert severities == sorted(severities, reverse=True)
    # same severity: document position decides
    warnings = [f for f in report.findings if f.severity is Severity.WARNING]
    positions = [f.span.start for f in warnings]
    assert positions == sorted(positions)


def test_sort_is_deterministic_across_runs():
    graph = make_random_graph(random.Random(4242), max_promises=12)
    first = analyze_all(graph)
    second = analyze_all(graph)
    assert first.findings == second.findings
    assert first.bindings == second.bindings


def test_analyze_all_wires_quorum_through():
    graph = load(SINGLE_SOURCE_TOY)
    default = analyze_all(graph)
    assert not [f for f in default.findings
                if f.rule is FindingRule.SINGLE_SOURCE_ACCEPTANCE]
    strict = analyze_all(graph, AnalysisConfig(quorum=3))
    assert [f for f in strict.findings
            if f.rule is FindingRule.SINGLE_SOURCE_ACCEPTANCE]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_rule_table_names_the_severity_each_rule_gets():
    """Every finding rule sits in one row of `RULES`, and README's "What the
    analyzer checks" table gives each the severity its row does."""
    table = README.read_text(encoding="utf-8").split("## What the analyzer checks")[1]
    rows = re.findall(r"^\| `([a-z-]+)` \| ([a-z]+) \|", table.split("\n\n")[1], re.M)
    listed = [rule for severities, _ in analysis.RULES for rule in severities]
    assert Counter(listed) == Counter(FindingRule)
    assert dict(rows) == {rule.value: severity.value
                          for rule, severity in analysis.SEVERITY.items()}
    assert len(rows) == len(FindingRule)


def assert_every_finding_carries_its_rules_severity(graph):
    bindings = bind(graph)
    reported = [analyze_all(graph, AnalysisConfig(quorum)).findings for quorum in (1, 2, 3)]
    reported += [unbound(graph, bindings), scope_audit(graph), behalf_violations(graph),
                 imposition_pressure(graph)]
    reported += [single_source(graph, quorum) for quorum in (1, 2, 3)]
    for finding in (finding for findings in reported for finding in findings):
        assert finding.severity is analysis.SEVERITY[finding.rule], finding


@pytest.mark.parametrize("source", [corpus.load_builtin(), CLEAN_TOY, AOA_TOY, SINGLE_SOURCE_TOY,
                                    TRUST_TOY],
                         ids=["corpus", "clean-toy", "aoa-toy", "single-source-toy", "trust-toy"])
def test_every_finding_carries_its_rules_severity(source):
    assert_every_finding_carries_its_rules_severity(load(source))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_every_finding_on_a_random_graph_carries_its_rules_severity(rng):
    assert_every_finding_carries_its_rules_severity(make_random_graph(rng, max_promises=12))


RULE_FUNCTIONS = ["unbound", "single_source", "scope_audit", "behalf_violations",
                  "imposition_pressure"]


def test_analyze_all_calls_each_function_once_through_the_module(monkeypatch):
    """perfbench's tracer wraps these module attributes: a row that held its
    own reference to a rule would go untraced."""
    graph = load(corpus.load_builtin())
    bindings, expected = bind(graph), analyze_all(graph)
    calls = []

    def recording(name, function):
        def record(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return record

    recorded = ["bind", *RULE_FUNCTIONS, "polarity_census", "trust"]
    for name in recorded:
        monkeypatch.setattr(analysis, name, recording(name, getattr(analysis, name)))
    for (_, run), name in zip(analysis.RULES, RULE_FUNCTIONS, strict=True):
        calls.clear()
        run(graph, bindings, AnalysisConfig())
        assert calls == [name]  # single_source runs before the census reads its index
    calls.clear()
    assert analyze_all(graph) == expected
    assert calls == recorded
