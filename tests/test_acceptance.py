"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each criterion is a single test so the -v listing reads as a checklist.
Random-input criteria use fixed seeds; the counts (500 graphs, 200 graphs,
1000 sequences) are part of the contract, not tuning knobs.
"""

import io
import json
import random
import time

from promisegraph.analysis import (
    FindingRule,
    TrustParams,
    analyze_all,
    bind,
    polarity_census,
    scope_audit,
    trust,
    unbound,
)
from promisegraph.cli import run
from promisegraph.export import from_json, to_dot, to_json, viewpoint
from promisegraph.lower import load
from promisegraph.model import Assessment, Polarity, Verdict
from promisegraph import corpus

from conftest import AOA_TOY, BROKEN_TOY, CLEAN_TOY, make_random_graph
from test_analysis import brute_force_bind

_MODULE_START = time.perf_counter()

CASE_NAMES = [
    "Boeing", "Airline-Management", "Pilots", "FAA", "Authors", "Public",
    "Ralph-Nader", "W-Bradley-Wendel", "Peter-Ladkin", "Benno-Baksteen",
    "DO178c",
]


def test_criterion_1_corpus_fidelity():
    started = time.perf_counter()
    graph = load(corpus.load_builtin())
    elapsed = time.perf_counter() - started

    assert len(graph.promises) == 23
    named = set(graph.agents) | set(graph.superagents)
    for name in CASE_NAMES:
        assert name in named, name
    assert len(graph.impositions) >= 2
    threats = [i for i in graph.impositions if i.kind.value == "threat"]
    assert any(i.imposer == "Southwest-Airlines" for i in threats)
    assert len(graph.assessments) >= 3
    assert elapsed < 1.0, "corpus parse took %.3fs" % elapsed


def test_criterion_2_flaw_reproduction():
    graph = corpus.load_graph()
    report = analyze_all(graph)

    single = [f for f in report.findings
              if f.rule is FindingRule.SINGLE_SOURCE_ACCEPTANCE]
    assert len(single) == 1
    assert set(single[0].subjects) == {"MCAS", "aoa-reading", "AOA-2"}

    aoa2_unbound = [f for f in report.findings
                    if f.rule is FindingRule.UNBOUND_OFFER
                    and "AOA-2" in f.subjects]
    assert len(aoa2_unbound) == 1

    assert report.census[("MCAS", "aoa-reading")] == (2, 1)


def test_criterion_3_hiding_reproduction():
    source = corpus.load_builtin()
    findings = {f.subjects for f in scope_audit(load(source))}
    assert ("mcas-hidden-existence", "Pilots") in findings

    marker = "scope [Boeing-Engineers, FAA-Specialists]"
    assert source.count(marker) == 1
    widened = source.replace(marker, marker[:-1] + ", Pilots]")
    after = {f.subjects for f in scope_audit(load(widened))}
    assert ("mcas-hidden-existence", "Pilots") not in after


def test_criterion_4_viewpoint_boundary():
    corpus_text = corpus.load_builtin()

    def export_dot(observer):
        stdout = io.StringIO()
        code = run(["export", "-", "--format", "dot", "--viewpoint", observer],
                   stdin=io.StringIO(corpus_text), stdout=stdout,
                   stderr=io.StringIO())
        assert code == 0
        return stdout.getvalue()

    graph = corpus.load_graph()
    non_antistall = graph.promise_by_id("non-antistall")
    label = '"%s"' % ("+" + non_antistall.body.topic)
    assert label not in export_dot("Public")
    assert label in export_dot("FAA")

    for seed in range(200):
        rng = random.Random(seed + 100000)
        g = make_random_graph(rng, max_promises=20)
        observers = list(g.agents) + list(g.superagents)
        observer = rng.choice(observers)
        once = viewpoint(g, observer).graph
        twice = viewpoint(once, observer).graph
        assert once == twice, (seed, observer)


def test_criterion_5_trust_engine():
    table = trust(corpus.load_graph())
    assert abs(table.get("Authors", "Benno-Baksteen") - 0.20) < 1e-12

    base = load(
        "agent Rater\nagent Maker\n"
        "promise p from Maker to Rater { offer t }\n"
    )
    params = TrustParams()
    verdicts = list(Verdict)
    rng = random.Random(424242)
    for _ in range(1000):
        length = rng.randint(0, 50)
        sequence = [rng.choice(verdicts) for _ in range(length)]
        previous = params.initial
        for k in range(1, length + 1):
            assessments = tuple(
                Assessment("a%d" % j, "Rater", "p", sequence[j], ordinal=j)
                for j in range(k)
            )
            graph = base._replace(assessments=assessments)
            value = trust(graph, params).get("Rater", "Maker")
            assert 0.0 <= value <= 1.0
            step = sequence[k - 1]
            if step is Verdict.KEPT:
                assert value >= previous
            elif step is Verdict.NOT_KEPT:
                assert value <= previous
            else:
                assert value == previous
            previous = value


def test_criterion_6_binding_oracle():
    for seed in range(500):
        graph = make_random_graph(random.Random(seed + 200000), max_promises=8)
        bindings = bind(graph)
        assert bindings == brute_force_bind(graph), seed
        offers = [p for p in graph.promises
                  if p.body.polarity is Polarity.OFFER]
        unbound_offers = [f for f in unbound(graph, bindings)
                          if f.rule is FindingRule.UNBOUND_OFFER]
        assert len(offers) == len(bindings) + len(unbound_offers), seed


def test_criterion_7_round_trips():
    graph = corpus.load_graph()
    assert from_json(to_json(graph)) == graph
    for seed in range(500):
        g = make_random_graph(random.Random(seed + 300000), max_promises=12)
        assert from_json(to_json(g)) == g, seed

    again = corpus.load_graph()
    assert to_json(again) == to_json(graph)
    assert to_dot(again) == to_dot(graph)
    sample = make_random_graph(random.Random(777), max_promises=12)
    assert to_json(sample) == to_json(sample)
    assert to_dot(sample) == to_dot(sample)


def test_criterion_8_cli_contract(tmp_path):
    clean = tmp_path / "clean.pml"
    clean.write_text(CLEAN_TOY, encoding="utf-8")
    corpus_file = tmp_path / "corpus.pml"
    corpus_file.write_text(corpus.load_builtin(), encoding="utf-8")
    broken = tmp_path / "broken.pml"
    broken.write_text(BROKEN_TOY, encoding="utf-8")

    def invoke(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = run(argv, stdin=io.StringIO(), stdout=stdout, stderr=stderr)
        return code, stdout.getvalue(), stderr.getvalue()

    code, _, _ = invoke(["analyze", str(clean)])
    assert code == 0
    code, _, _ = invoke(["analyze", str(corpus_file)])
    assert code == 1
    code, out, err = invoke(["analyze", str(broken)])
    assert code == 2
    assert out == "" and err != ""

    # machine formats keep stdout parseable even when findings fail the run
    code, out, err = invoke(["analyze", str(corpus_file), "--format", "json"])
    assert code == 1 and err == ""
    json.loads(out)
    code, out, err = invoke(["export", str(corpus_file), "--format", "dot"])
    assert code == 0 and err == ""
    assert out.startswith("digraph promises {")

    elapsed = time.perf_counter() - _MODULE_START
    assert elapsed < 30.0, "acceptance module took %.1fs" % elapsed
