#!/usr/bin/env python3
"""promisegraph benchmark: CLI time-to-verdict, and per-layer timings.

    python3 perfbench/run.py --workload {sparse,dense} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported and run from
the checkout's `src/`, nothing is installed. The document is generated
before any timing starts. Every run first checks, untimed, that the CLI
reproduces the bundled corpus's pinned goldens byte for byte; those
invocations also write the bytecode caches, so no timed call compiles.

--trace 0 runs the real CLI as a child process, one invocation at a time,
in rounds of: `check` on an empty document (set-up cost, several times),
`check`, `analyze --format json`, `export --format dot --viewpoint`, and
`export --format json` (see ROUNDS). Between every two calls it times a fixed
pure-Python task (reference.py), and each call's wall time is divided by
the mean of the task's timings on either side of it and multiplied by the
task's nominal time, so a shared host's swings in speed cancel out. It
reports the median of these times per command, in seconds at the
reference speed (the raw wall-time medians are in the detail line), the
median peak RSS of the `analyze` children, and the share of invocations
that were right. A wrong exit code, any stderr output, or stdout that fails
the oracle counts as a failure and its time is dropped.

--trace 1 calls the library in-process with the public functions of each
module wrapped in spans (see tracer.py), and reports per-layer medians,
self times, counts, and shares; `cli.run` of `analyze` is timed untraced
alongside, and the ratio of the two is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The line before it holds the run's context (git sha, Python,
nproc, seed, sizes) and each timing's sample count and tail percentile;
the same goes to .perfbench_work/results/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "promisegraph" / "corpus"
WORK = ROOT / ".perfbench_work"

# one round of timed CLI calls per workload. Set-up, and on dense the calls
# well under a second, run more than once a round, so that their medians rest
# on more samples than the few the multi-second calls allow
ROUNDS = {
    "sparse": ("setup",) * 3 + ("check", "analyze", "export_view", "export_json"),
    "dense": ("setup",) * 2 + ("check",) * 2 + ("analyze",) + ("export_view",) * 2
    + ("export_json",) * 2,
}
IMPORT_REPEATS = 3  # fresh-interpreter imports per traced iteration

WORKLOADS = tuple(ROUNDS)
E2E_UNITS = {"setup_s": "s", "check_s": "s", "analyze_s": "s", "export_view_s": "s",
             "export_json_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
SPANS = ("lexer.tokenize", "parser.parse", "lower.lower", "model.validate",
         "model.visible_to", "analysis.candidate_pairs", "analysis.bind",
         "analysis.scope_audit", "analysis.single_source", "analysis.unbound",
         "analysis.behalf_violations", "analysis.imposition_pressure",
         "analysis.polarity_census", "analysis.trust", "analysis.analyze_all",
         "export.render_json", "export.viewpoint", "export.to_dot", "export.to_json",
         "export.from_json")
SELF_TIMES = {"parser.self_s": "parser.parse", "lower.self_s": "lower.lower",
              "analysis.bind_self_s": "analysis.bind"}
COUNTS = ("lexer.tokens", "parser.items", "analysis.candidate_pairs", "analysis.bindings",
          "analysis.findings", "export.report_bytes")
# shares of the traced analyze path (parse + lower + analyze_all + render_json)
SHARES = {"share.lexer": "lexer.tokenize_s",
          "share.candidate_pairs": "analysis.candidate_pairs_s",
          "share.scope_audit": "analysis.scope_audit_s",
          "share.bind_self": "analysis.bind_self_s"}
LAYER_UNITS = {**{stem + "_s": "s" for stem in SPANS}, **{name: "s" for name in SELF_TIMES},
               **{name: "bytes" if name.endswith("_bytes") else "count" for name in COUNTS},
               "cli.import_s": "s", "cli.run_analyze_s": "s", "trace.analyze_path_s": "s",
               "trace.overhead_ratio": "ratio", **{name: "ratio" for name in SHARES},
               "share.startup": "ratio"}


class Workload:
    """A document on disk plus the oracle that knows its right outputs."""

    def __init__(self, name: str, path: Path, text: str, sizes: Dict[str, int],
                 viewpoint: str, check):
        self.name = name
        self.path = path
        self.text = text
        self.sizes = sizes
        self.viewpoint = viewpoint
        self.oracle = check

    def argv(self, kind: str, empty: Path) -> List[str]:
        doc = str(self.path)
        return {
            "setup": ["check", str(empty)],
            "check": ["check", doc],
            "analyze": ["analyze", doc, "--format", "json"],
            "export_view": ["export", doc, "--format", "dot", "--viewpoint", self.viewpoint],
            "export_json": ["export", doc, "--format", "json"],
        }[kind]


def corpus_workload() -> Workload:
    """The bundled 737 Max document, checked against its pinned goldens."""
    path = CORPUS / "boeing-737max.pml"
    text = path.read_text(encoding="utf-8")
    check = oracle.GoldenOracle(text, (CORPUS / "golden" / "report.json").read_bytes(),
                                (CORPUS / "golden" / "public-view.dot").read_bytes())
    sizes = {"bytes": len(text.encode("utf-8")), "promises": check.promises}
    return Workload("corpus", path, text, sizes, "Public", check)


def make_workload(name: str, seed: int, workdir: Path, size: Optional[int] = None) -> Workload:
    """Generate the named workload's document into `workdir`; `size`
    overrides the promise count (the benchmark's own tests use small ones)."""
    generate = gen.GENERATORS[name]
    doc = generate(seed) if size is None else generate(seed, size)
    path = workdir / ("%s-%d.pml" % (name, seed))
    path.write_text(doc.text, encoding="utf-8")
    return Workload(name, path, doc.text, doc.sizes, doc.viewpoint,
                    oracle.GeneratedOracle(doc))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: List[str], workdir: Path, env: Dict[str, str]) -> Tuple[float, int, float, str, str]:
    """Run the CLI once; returns wall seconds, exit code, peak RSS in MB,
    stdout and stderr. Output goes to files so the child never blocks on a
    pipe, and os.wait4 gives this child's own rusage."""
    out, err = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    command = [sys.executable, "-m", "promisegraph"] + argv
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, command, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0,
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"))


class Tally:
    """Attempts, failures with their first reasons, and timing samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.samples: Dict[str, List[float]] = {}

    def verdict(self, what: str, problem: Optional[str]) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append("%s: %s" % (what, problem))
        return False

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


def invoke(workload: Workload, kind: str, tally: Tally, workdir: Path,
           env: Dict[str, str]) -> Optional[Tuple[float, float]]:
    """Run one CLI command and check it; (wall seconds, peak RSS in MB) when
    the exit code, stderr and stdout are all right, else None."""
    wall, code, rss, out, err = spawn(workload.argv(kind, workdir / "empty.pml"), workdir, env)
    check = workload.oracle
    if code != check.exit_code(kind):
        problem = "exit %d, expected %d" % (code, check.exit_code(kind))
    elif err:
        problem = "stderr: %s" % err.strip().splitlines()[-1][:200]
    else:
        problem = check.check(kind, out)
    return (wall, rss) if tally.verdict("%s on %s" % (kind, workload.path.name), problem) else None


def check_corpus(tally: Tally, workdir: Path, env: Dict[str, str]) -> None:
    """Untimed: the corpus must reproduce its goldens byte for byte."""
    (workdir / "empty.pml").write_text("", encoding="utf-8")
    corpus = corpus_workload()
    for kind in ("setup", "check", "analyze", "export_view", "export_json"):
        invoke(corpus, kind, tally, workdir, env)


def run_e2e(workload: Workload, seconds: float, workdir: Path) -> Tally:
    """Rounds of CLI calls, each between two timings of the reference task.
    A call's metric is its wall time over the mean of those two timings,
    times the task's nominal time: seconds at the reference speed. The raw
    wall times go to the detail line as `raw.<metric>`."""
    tally = Tally()
    env = child_env()
    check_corpus(tally, workdir, env)
    calls: List[Tuple[str, Optional[Tuple[float, float]]]] = []
    yardstick = [reference.timing()]
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for kind in ROUNDS[workload.name]:
            calls.append((kind, invoke(workload, kind, tally, workdir, env)))
            yardstick.append(reference.timing())
        # stop before a round that would end past the measuring window
        if time.perf_counter() - begin + (time.perf_counter() - start) > seconds:
            break
    for (kind, measured), before, after in zip(calls, yardstick, yardstick[1:]):
        if measured is None:
            continue
        wall, rss = measured
        tally.add(kind + "_s", wall * reference.NOMINAL_S / ((before + after) / 2))
        tally.add("raw.%s_s" % kind, wall)
        if kind == "analyze":
            tally.add("peak_rss_mb", rss)
    for value in yardstick:
        tally.add("raw.reference_s", value)
    return tally


def run_traced(workload: Workload, seconds: float,
               workdir: Path) -> Tuple[Tally, Tracer, Dict[str, int]]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # the package re-exports functions named like its modules (`lower`),
    # so the modules are taken by their full names
    promisegraph = importlib.import_module("promisegraph")
    analysis, cli, export, lower, model, parser = (
        importlib.import_module("promisegraph." + name)
        for name in ("analysis", "cli", "export", "lower", "model", "parser"))

    tally = Tally()
    tracer = Tracer({"lexer.tokenize": len, "parser.parse": lambda doc: len(doc.items),
                     "analysis.candidate_pairs": len})
    check = workload.oracle
    text = workload.text
    targets = [(parser, "tokenize", "lexer.tokenize"),
               (parser, "parse", "parser.parse"),
               (lower, "lower", "lower.lower"),
               (lower, "validate", "model.validate")]
    targets += [(analysis, fn, "analysis." + fn) for fn in (
        "candidate_pairs", "bind", "unbound", "single_source", "scope_audit",
        "behalf_violations", "imposition_pressure", "polarity_census", "trust",
        "analyze_all")]
    targets += [(export, "render_report", "export.render_json")]
    targets += [(export, fn, "export." + fn) for fn in (
        "viewpoint", "to_dot", "to_json", "from_json")]
    import_code = ("import time; t = time.perf_counter(); import promisegraph.cli; "
                   "print(time.perf_counter() - t)")
    env = child_env()
    check_corpus(tally, workdir, env)
    if not Path(promisegraph.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("imported promisegraph from %s, not %s"
                           % (promisegraph.__file__, SRC))

    def traced_pass() -> Dict[str, int]:
        """One traced pass over every layer; verifies what it produced and
        returns the counts, so nothing it built outlives it."""
        with tracer.instrument(targets):
            graph = lower.lower(parser.parse(text))
            report = analysis.analyze_all(graph)
            rendered = export.render_report(report, export.ReportFormat.JSON)
            with tracer.span("model.visible_to"):
                for promise in graph.promises:
                    model.visible_to(graph, promise.id)
            dot = export.to_dot(export.viewpoint(graph, workload.viewpoint).graph)
            data = export.to_json(graph)
            back = export.from_json(data)
        tally.verdict("render_report", check.check("analyze", rendered))
        tally.verdict("to_dot(viewpoint)", check.check("export_view", dot))
        tally.verdict("to_json", check.check("export_json", data.decode("utf-8")))
        tally.verdict("from_json", None if back == graph else "round trip changed the graph")
        return {
            "lexer.tokens": tracer.counts["lexer.tokenize"],
            "parser.items": tracer.counts["parser.parse"],
            "analysis.candidate_pairs": tracer.counts["analysis.candidate_pairs"],
            "analysis.bindings": len(report.bindings),
            "analysis.findings": len(report.findings),
            "export.report_bytes": len(rendered.encode("utf-8")),
        }

    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        # both the traced pass and cli.run start from a collected heap
        gc.collect()
        counts = traced_pass()

        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        code = cli.run(workload.argv("analyze", workdir / "empty.pml"), stdin=io.StringIO(),
                       stdout=stdout, stderr=stderr)
        t1 = time.perf_counter()
        problem = (check.check("analyze", stdout.getvalue())
                   if code == check.exit_code("analyze") and not stderr.getvalue()
                   else "cli.run exit %d, stderr %r" % (code, stderr.getvalue()[:200]))
        if tally.verdict("cli.run analyze", problem):
            tally.add("cli.run_analyze_s", t1 - t0)

        for _ in range(IMPORT_REPEATS):
            done = subprocess.run([sys.executable, "-c", import_code], env=env,
                                  capture_output=True, text=True, timeout=60)
            if tally.verdict("import promisegraph.cli",
                             None if done.returncode == 0 else done.stderr[-200:]):
                tally.add("cli.import_s", float(done.stdout))
        if time.perf_counter() - begin + (time.perf_counter() - start) > seconds:
            break

    return tally, tracer, counts


def median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def tail(values: List[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": round(100.0 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def e2e_metrics(tally: Tally) -> Dict[str, Optional[float]]:
    values = {name: median(tally.samples.get(name, [])) for name in E2E_UNITS}
    values["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    return values


def layer_metrics(tally: Tally, tracer: Tracer,
                  counts: Dict[str, int]) -> Dict[str, Optional[float]]:
    values: Dict[str, Optional[float]] = dict(counts)
    for stem in SPANS:
        values[stem + "_s"] = median(tracer.durations(stem))
    for name, stem in SELF_TIMES.items():
        values[name] = median(tracer.durations(stem, self_time=True))
    values["cli.import_s"] = median(tally.samples.get("cli.import_s", []))
    values["cli.run_analyze_s"] = median(tally.samples.get("cli.run_analyze_s", []))

    path = median([sum(parts) for parts in zip(*(tracer.durations(stem) for stem in (
        "parser.parse", "lower.lower", "analysis.analyze_all", "export.render_json")))])
    values["trace.analyze_path_s"] = path
    run_analyze = values["cli.run_analyze_s"]
    values["trace.overhead_ratio"] = path / run_analyze if path and run_analyze else None
    for share, stem in SHARES.items():
        values[share] = values[stem] / path if path else None
    startup = values["cli.import_s"]
    values["share.startup"] = (startup / (startup + run_analyze)
                               if startup and run_analyze else None)
    return values


def git_sha() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--workload", required=True, choices=WORKLOADS)
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--seconds", type=float, required=True)
    args.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = args.parse_args(argv)

    if not (SRC / "promisegraph" / "cli.py").is_file() or not CORPUS.is_dir():
        print("error: no promisegraph sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2

    # a shared host's speed differs between its vCPUs from moment to moment,
    # so this process, its reference timings and every child share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = WORK / ("run-%s-%d-%d" % (opts.workload, opts.seed, os.getpid()))
    results = WORK / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        workload = make_workload(opts.workload, opts.seed, workdir)
        if opts.trace:
            tally, tracer, counts = run_traced(workload, opts.seconds, workdir)
            values = layer_metrics(tally, tracer, counts)
        else:
            tally, tracer = run_e2e(workload, opts.seconds, workdir), None
            values = e2e_metrics(tally)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = "%s-seed%d-trace%d" % (opts.workload, opts.seed, opts.trace)
    if tracer is not None:
        tracer.dump(results / ("spans-%s.json" % stem))
    metric_units = LAYER_UNITS if opts.trace else E2E_UNITS
    detail = {
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "elapsed_s": round(elapsed, 3), "sizes": workload.sizes,
        "failures": tally.reasons,
        "samples": {name: {"n": len(v), "median": median(v), "tail": tail(v)}
                    for name, v in sorted(tally.samples.items())},
    }
    result = {
        "correct": tally.failed == 0 and all(values[m] is not None for m in metric_units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
    (results / ("result-%s.json" % stem)).write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
