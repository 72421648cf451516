"""The bundled case study: structure, pinned outputs, and the documented
flaws it must reproduce."""

import json
import pathlib
import subprocess
import sys

from promisegraph import (
    FindingRule,
    ReportFormat,
    analyze_all,
    render_report,
    to_dot,
    to_json,
    from_json,
    viewpoint,
)
from promisegraph import corpus
from promisegraph.analysis import scope_audit
from promisegraph.lower import load

CASE_AGENTS = [
    "Boeing", "Airline-Management", "Pilots", "FAA", "Authors",
    "Ralph-Nader", "W-Bradley-Wendel", "Peter-Ladkin", "Benno-Baksteen",
    "DO178c",
]
MODELING_AGENTS = [
    "AOA-1", "AOA-2", "MCAS", "Southwest-Airlines",
    "Boeing-Engineers", "FAA-Specialists",
]


def test_corpus_parses_and_validates():
    graph = corpus.load_graph()
    summary = corpus.golden_findings()
    assert len(graph.agents) == summary.agent_count
    assert len(graph.promises) == summary.promise_count
    assert len(graph.impositions) == summary.imposition_count
    assert len(graph.assessments) == summary.assessment_count


def test_corpus_declares_the_case_roster():
    graph = corpus.load_graph()
    named = set(graph.agents) | set(graph.superagents)
    for name in CASE_AGENTS + MODELING_AGENTS + ["Public"]:
        assert name in named, name


def test_public_superagent_contains_the_case_agents():
    graph = corpus.load_graph()
    assert graph.superagents["Public"].members == frozenset(CASE_AGENTS)


def test_corpus_has_a_threat_imposition():
    graph = corpus.load_graph()
    kinds = {i.id: i.kind.value for i in graph.impositions}
    assert kinds["southwest-training-penalty"] == "threat"


def test_findings_match_the_pinned_summary():
    graph = corpus.load_graph()
    report = analyze_all(graph)
    summary = corpus.golden_findings()
    actual = tuple((f.rule.value, f.subjects) for f in report.findings)
    assert actual == summary.findings


def test_trust_matches_the_pinned_summary():
    report = analyze_all(corpus.load_graph())
    summary = corpus.golden_findings()
    actual = tuple(
        (assessor, subject, value)
        for (assessor, subject), value in sorted(report.trust.entries.items())
    )
    assert actual == summary.trust_entries


def test_golden_report_bytes_are_reproduced():
    report = analyze_all(corpus.load_graph())
    rendered = render_report(report, ReportFormat.JSON).encode("utf-8")
    assert rendered == corpus.golden_report_bytes()


def test_golden_public_dot_is_reproduced():
    graph = corpus.load_graph()
    rendered = to_dot(viewpoint(graph, "Public").graph).encode("utf-8")
    assert rendered == corpus.golden_public_dot()


def test_golden_report_is_wellformed_json():
    decoded = json.loads(corpus.golden_report_bytes())
    assert len(decoded["findings"]) == 27
    assert len(decoded["bindings"]) == 1
    assert len(decoded["census"]) == 8
    assert len(decoded["trust"]) == 2


def test_corpus_round_trips_through_json():
    graph = corpus.load_graph()
    assert from_json(to_json(graph)) == graph


def test_the_single_source_flaw_is_the_sensor_dependency():
    report = analyze_all(corpus.load_graph())
    flaws = [f for f in report.findings
             if f.rule is FindingRule.SINGLE_SOURCE_ACCEPTANCE]
    assert len(flaws) == 1
    assert flaws[0].subjects == ("MCAS", "aoa-reading", "AOA-2")


def test_the_hidden_system_is_flagged_for_pilots():
    report = analyze_all(corpus.load_graph())
    hidden = [f for f in report.findings if f.rule is FindingRule.SCOPE_HIDING]
    assert ("mcas-hidden-existence", "Pilots") in [f.subjects for f in hidden]


def test_widening_the_scope_clears_the_hiding_finding():
    source = corpus.load_builtin()
    marker = "scope [Boeing-Engineers, FAA-Specialists]"
    assert source.count(marker) == 1
    widened = source.replace(marker, marker[:-1] + ", Pilots]")
    before = {f.subjects for f in scope_audit(load(source))}
    after = {f.subjects for f in scope_audit(load(widened))}
    assert ("mcas-hidden-existence", "Pilots") in before
    assert ("mcas-hidden-existence", "Pilots") not in after


def test_public_cannot_see_the_narrow_disclosures():
    graph = corpus.load_graph()
    public = viewpoint(graph, "Public").graph
    ids = {p.id for p in public.promises}
    assert "non-antistall" not in ids
    assert "mcas-hidden-existence" not in ids
    assert "pegasus-lineage-questions" in ids


def test_faa_sees_what_it_was_told():
    graph = corpus.load_graph()
    faa = viewpoint(graph, "FAA").graph
    ids = {p.id for p in faa.promises}
    assert "non-antistall" in ids
    assert "mcas-hidden-existence" in ids


def test_case_walkthrough_script_runs():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "case_walkthrough.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    violations = result.stdout.split("violations:\n")[1].split("\n\n")[0]
    assert "behalf-of-violation" in violations
    assert "'b737-maturity-metapromise' on behalf of Boeing" in violations
    assert "single-source-acceptance" in violations
    assert "MCAS accepts topic 'aoa-reading'" in violations
