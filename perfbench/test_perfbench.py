"""Tests of the benchmark itself: generator, oracles, tracer and reporting.

Run with `python -m pytest perfbench`. They use small documents, so the
whole module takes seconds; timings are never asserted.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import re
import sys

import pytest

import gen
import oracle
import reference
import run
from tracer import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))

# Every metric the benchmark's definition names. `fail_ratio` is reported as
# its complement `ok_ratio`, because a metric that reads 0 has no spread.
DEFINED_E2E = ["setup_s", "check_s", "analyze_s", "export_view_s", "export_json_s",
               "peak_rss_mb", "ok_ratio"]
DEFINED_LAYERS = [
    "lexer.tokenize_s", "lexer.tokens", "parser.parse_s", "parser.self_s", "parser.items",
    "lower.lower_s", "lower.self_s", "model.validate_s", "model.visible_to_s",
    "analysis.candidate_pairs_s", "analysis.candidate_pairs", "analysis.bind_s",
    "analysis.bind_self_s", "analysis.bindings", "analysis.scope_audit_s",
    "analysis.single_source_s", "analysis.unbound_s", "analysis.behalf_violations_s",
    "analysis.imposition_pressure_s", "analysis.polarity_census_s", "analysis.trust_s",
    "analysis.analyze_all_s", "analysis.findings", "export.render_json_s",
    "export.report_bytes", "export.viewpoint_s", "export.to_dot_s", "export.to_json_s",
    "export.from_json_s", "cli.import_s", "cli.run_analyze_s", "trace.overhead_ratio",
]
SMALL = {"sparse": 240, "dense": 96}


def cli_output(argv):
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from promisegraph.cli import run as cli_run
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli_run(argv, stdin=io.StringIO(), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    make = gen.GENERATORS[name]
    first, again, other = make(7, SMALL[name]), make(7, SMALL[name]), make(8, SMALL[name])
    assert first.text == again.text
    assert first.expect == again.expect and first.sizes == again.sizes
    assert first.text != other.text
    assert first.sizes["bytes"] == len(first.text.encode("utf-8"))
    assert first.sizes["promises"] == len(first.promises) == SMALL[name]


def test_full_size_documents_keep_their_shape():
    """The shape promised for each workload, at full size."""
    sparse = gen.sparse(1)
    assert sparse.sizes["promises"] == 4000 and sparse.sizes["agents"] == 200
    assert 0.8e6 < sparse.sizes["bytes"] < 1.2e6
    assert any(ord(ch) > 127 for ch in sparse.text)
    bound = 2 * oracle.max_matching_size(oracle.mirrored_pairs(sparse))
    assert 0.25 < bound / 4000 < 0.35
    dense = gen.dense(1)
    assert dense.sizes["promises"] == 1200 and dense.sizes["agents"] == 4
    assert len(oracle.mirrored_pairs(dense)) == 15000


def test_max_matching_agrees_with_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        offers = ["o%d" % i for i in range(rng.randint(0, 5))]
        accepts = ["a%d" % i for i in range(rng.randint(0, 5))]
        pairs = [(o, a) for o in offers for a in accepts if rng.random() < 0.4]
        best = 0
        for k in range(len(pairs), 0, -1):
            if any(len({o for o, _ in c}) == k == len({a for _, a in c})
                   for c in itertools.combinations(pairs, k)):
                best = k
                break
        assert oracle.max_matching_size(pairs) == best


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_oracle_accepts_real_outputs_and_flags_corrupted_ones(name, tmp_path):
    workload = run.make_workload(name, 5, tmp_path, SMALL[name])
    check = workload.oracle
    outputs = {}
    for kind in ("check", "analyze", "export_view", "export_json"):
        code, out, err = cli_output(workload.argv(kind, tmp_path / "empty.pml"))
        assert (code, err) == (check.exit_code(kind), "")
        assert check.check(kind, out) is None, kind
        outputs[kind] = out

    report = json.loads(outputs["analyze"])
    dropped = dict(report, bindings=report["bindings"][1:])
    extra = dict(report, findings=report["findings"] + [
        {"rule": "behalf-of-violation", "severity": "violation", "subjects": ["x"],
         "message": "", "span": {}}])
    corrupted = {
        "analyze": [json.dumps(dropped), json.dumps(extra), outputs["analyze"][:-9]],
        "export_view": [outputs["export_view"].replace(" -> ", " - ", 1), ""],
        "export_json": [outputs["export_json"].replace('"promises":[{', '"promises":[{}, {', 1)],
        "check": ["unexpected\n"],
    }
    for kind, bad_outputs in corrupted.items():
        for bad in bad_outputs:
            assert check.check(kind, bad) is not None, (kind, bad[:80])


def test_golden_oracle_flags_a_changed_report(tmp_path):
    workload = run.corpus_workload()
    code, out, err = cli_output(workload.argv("analyze", tmp_path / "empty.pml"))
    assert code == workload.oracle.exit_code("analyze") == 1
    assert workload.oracle.check("analyze", out) is None
    assert workload.oracle.check("analyze", out.replace("violation", "warning", 1)) is not None


def test_tracer_self_time_subtracts_direct_children_and_restores_targets():
    import types
    module = types.SimpleNamespace()
    module.inner = lambda: [1, 2, 3]
    module.outer = lambda: module.inner() + module.inner()
    original = module.inner
    tracer = Tracer({"inner": len})
    with tracer.instrument([(module, "inner", "inner"), (module, "outer", "outer")]):
        module.outer()
    assert module.inner is original
    outer, = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert [s.parent for s in inners] == [outer.id, outer.id]
    assert outer.self_time == pytest.approx(outer.duration - sum(s.duration for s in inners))
    assert tracer.counts == {"inner": 3}


def test_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
    for name in list(run.E2E_UNITS) + list(run.LAYER_UNITS):
        assert NAME.fullmatch(name), name


def test_definition_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    assert set(DEFINED_E2E) == set(run.E2E_UNITS)
    assert set(DEFINED_LAYERS) <= set(run.LAYER_UNITS)
    table = [m for layer in LAYERS["layers"] for m in layer["metrics"]]
    assert set(table) <= set(run.LAYER_UNITS)
    assert set(DEFINED_LAYERS) <= set(table)
    for layer in LAYERS["layers"]:
        assert set(layer["moves"]) <= set(run.E2E_UNITS)
        assert set(layer["on"]) <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_reported_for_every_workload(name, tmp_path):
    workload = run.make_workload(name, 2, tmp_path, SMALL[name])
    tally = run.run_e2e(workload, 0.0, tmp_path)
    assert tally.failed == 0, tally.reasons
    values = run.e2e_metrics(tally)
    assert all(values[m] for m in run.E2E_UNITS), values

    tally, tracer, counts = run.run_traced(workload, 0.0, tmp_path)
    assert tally.failed == 0, tally.reasons
    values = run.layer_metrics(tally, tracer, counts)
    missing = [m for m in run.LAYER_UNITS if values.get(m) is None]
    assert not missing
    spans = tmp_path / "spans.json"
    tracer.dump(spans)
    rows = json.loads(spans.read_text())
    assert {r["name"] for r in rows} >= set(run.SPANS)


def test_bare_directory_without_sources_fails_without_result(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(BENCHMARK["command"] + ["--workload", "sparse", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_reference_task_is_fixed_and_leaves_the_collector_as_it_was():
    import gc
    assert reference.task() == reference.task()
    assert gc.isenabled()
    assert reference.timing() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.timing()
        assert not gc.isenabled()
    finally:
        gc.enable()
