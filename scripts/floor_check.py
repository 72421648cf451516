#!/usr/bin/env python3
"""Check an interpreter that has neither pytest nor hypothesis, such as the
CPython 3.10 floor that `requires-python` names.

It runs seven checks with the interpreter that runs it:
- CI's golden steps: `analyze` of the corpus must exit 1 and print
  `golden/report.json` byte for byte, and `export --viewpoint Public
  --format dot` must print `golden/public-view.dot`;
- a seeded differential on mutated corpus declarations
  (`tests/mutation.py`): `parse` on the token path alone, and `parse` with
  the declaration patterns taking texts of any length, each against the
  hand-written token parser that the grammar table replaced
  (`tests/reference_parser.py`). All three must return an equal
  `Document`, or equal `(message, span)` errors;
- the CLI's exit-code contract on the same mutated documents: every
  subcommand, run through `cli.run` on the document as its stdin, exits
  0, 1 or 2, never 3 (an internal error), and on exit 2 it prints nothing
  to stdout and only lines that start with `error: ` to stderr; and, as
  CI's step on output streams that fail, through the CLI: `analyze` into
  /dev/full (where there is one) exits 2, `check` of a missing file with
  stderr closed exits 2 and prints nothing, and `check` of the corpus with
  stdout closed exits 0;
- a seeded differential on as many broken graphs as documents
  (`tests/reference_validate.py`): `validate` against the validator it
  replaced must give equal errors, in equal order, with equal locators,
  and `from_json` must report the same first error at the same path;
- a seeded differential on the corpus and as many graphs again, whose
  (agent, topic) keys collide (`tests/reference_analysis.py`):
  `polarity_census` and `single_source`, at a quorum from 1 to 4, against
  the two walks they replaced must give equal censuses and equal findings,
  in equal order, and every finding of `analyze_all` on those graphs, at
  that quorum, must carry the severity `analysis.RULES` gives its rule
  (`analysis.SEVERITY`);
- the JSON round trip on the same corpus and graphs: `to_json` must write
  the canonical form, `json.dumps(json.loads(out), sort_keys=True,
  separators=(",", ":")) + "\n"`, and `from_json` must read back an equal
  graph. In the parsed corpus equal name lists are one object, and in the
  colliding graphs they are distinct objects, so `to_json`'s per-call
  table of written lists meets both kinds;
- output under every hash seed: `analyze` as text and as JSON, `report`,
  and `export` as JSON, as DOT and as DOT with `--viewpoint`, each run
  through the CLI on the corpus and on a small sparse and a small dense
  document from `perfbench/gen.py`, must print the same stdout and stderr
  and exit with the same code under `PYTHONHASHSEED` 0, 1, 2, 12345 and
  `random`.

Usage: python3.10 scripts/floor_check.py [--documents N] [--seed S]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import platform
import random
import subprocess
import sys
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]
sys.path.append(str(ROOT / "perfbench"))

import gen  # noqa: E402
from mutation import mutate  # noqa: E402
from reference_parser import hand_parse  # noqa: E402
from reference_analysis import (colliding_graph, reference_polarity_census,  # noqa: E402
                                reference_single_source)
from reference_validate import (broken_graph, json_outcome, reference_json_outcome,  # noqa: E402
                                reference_validate)
from promisegraph import corpus, parser  # noqa: E402
from promisegraph.analysis import (SEVERITY, AnalysisConfig, analyze_all,  # noqa: E402
                                   polarity_census, single_source)
from promisegraph.cli import run  # noqa: E402
from promisegraph.export import JsonError, from_json, to_json  # noqa: E402
from promisegraph.lexer import ParseFailure  # noqa: E402
from promisegraph.lower import load  # noqa: E402
from promisegraph.model import validate  # noqa: E402

CORPUS = pathlib.Path(corpus.__file__).with_name(corpus.CORPUS_FILENAME)
GOLDEN = CORPUS.with_name("golden")
COMMANDS = (["check"], ["analyze", "--format", "json"], ["report"], ["trust"],
            ["export", "--format", "dot"])
HASH_SEEDS = ("0", "1", "2", "12345", "random")


def golden_steps() -> list:
    """The failures of CI's golden `cmp` steps, run through the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    steps = [(["analyze", str(CORPUS), "--format", "json"], 1, "report.json"),
             (["export", str(CORPUS), "--viewpoint", "Public", "--format", "dot"], 0,
              "public-view.dot")]
    failures = []
    for argv, code, golden in steps:
        done = subprocess.run([sys.executable, "-m", "promisegraph", *argv], env=env,
                              capture_output=True)
        if done.returncode != code:
            failures.append("%s exited %d, not %d" % (argv[0], done.returncode, code))
        elif done.stdout != (GOLDEN / golden).read_bytes():
            failures.append("%s differs from golden/%s" % (argv[0], golden))
    return failures


def outcome(text: str, parse=parser.parse):
    try:
        return parse(text)
    except ParseFailure as failure:
        return [(error.message, error.span) for error in failure.errors]


def token_path(text: str):
    """`parse` with no declaration patterns: the token parser reads it all."""
    with mock.patch.object(parser, "PATTERN_MIN_CHARS", len(text) + 1):
        return outcome(text)


def exit_code_breaches(text: str) -> list:
    """The subcommands that break the CLI's exit-code contract on `text`."""
    breaches = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        code = run([argv[0], "-", *argv[1:]], stdin=io.StringIO(text), stdout=out, stderr=err)
        lines = err.getvalue().splitlines()
        reported = bool(lines) and all(line.startswith("error: ") for line in lines)
        if code not in (0, 1, 2) or code == 2 and (out.getvalue() or not reported):
            breaches.append("%s exited %d: %r" % (argv[0], code, err.getvalue()))
    return breaches


def stream_breaches() -> list:
    """The cases of CI's step on output streams that fail, where the CLI
    breaks its exit-code contract."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cli(argv, closed=None, **streams):
        close = None if closed is None else lambda: os.close(closed)
        return subprocess.run([sys.executable, "-m", "promisegraph", *argv], env=env,
                              preexec_fn=close, **streams)

    breaches = []
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            done = cli(["analyze", str(CORPUS), "--format", "json"], stdout=full,
                       stderr=subprocess.DEVNULL)
        if done.returncode != 2:
            breaches.append("analyze into /dev/full exited %d, not 2" % done.returncode)
    done = cli(["check", "/nonexistent"], closed=2, stdout=subprocess.PIPE)
    if done.returncode != 2 or done.stdout:
        breaches.append("check of a missing file with stderr closed exited %d, printed %r"
                        % (done.returncode, done.stdout))
    done = cli(["check", str(CORPUS)], closed=1, stderr=subprocess.PIPE)
    if done.returncode != 0:
        breaches.append("check with stdout closed exited %d: %r"
                        % (done.returncode, done.stderr))
    return breaches


def hash_seed_breaches(seed: int) -> list:
    """The commands whose stdout, stderr or exit code differ between hash
    seeds, on the corpus and on small generated documents."""
    documents = [("the corpus", corpus.load_builtin(), "Public")]
    for workload, n in (("sparse", 40), ("dense", 40)):
        document = gen.GENERATORS[workload](seed, n)
        documents.append(("%s %d" % (workload, seed), document.text, document.viewpoint))
    breaches = []
    for name, text, observer in documents:
        for argv in (["analyze"], ["analyze", "--format", "json"], ["report"],
                     ["export", "--format", "json"], ["export", "--format", "dot"],
                     ["export", "--format", "dot", "--viewpoint", observer]):
            outcomes = set()
            for hash_seed in HASH_SEEDS:
                done = subprocess.run(
                    [sys.executable, "-m", "promisegraph", argv[0], "-", *argv[1:]],
                    input=text.encode("utf-8"), capture_output=True,
                    env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed))
                outcomes.add((done.returncode, done.stdout, done.stderr))
            if len(outcomes) > 1:
                breaches.append("%s on %s" % (" ".join(argv), name))
    return breaches


def round_trip_fault(graph) -> str:
    """Why `to_json` of `graph` is not canonical or does not read back equal;
    empty if it is and it does."""
    out = to_json(graph)
    text = out.decode("ascii")
    if text != json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n":
        return "to_json is not canonical"
    try:
        read = from_json(out)
    except JsonError as error:
        return "from_json rejects to_json: %s" % error
    return "" if read == graph else "from_json(to_json(graph)) differs"


def main() -> int:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--documents", type=int, default=5000)
    args.add_argument("--seed", type=int, default=20261018)
    options = args.parse_args()
    print("CPython %s" % platform.python_version())
    failures = golden_steps()
    print("golden steps: %s" % ("; ".join(failures) or "ok"))

    parser.PATTERN_MIN_CHARS = 1  # the patterns take texts of any length
    rng = random.Random(options.seed)
    source = corpus.load_builtin()
    rejected = differing = breached = 0
    for _ in range(options.documents):
        text = mutate(rng, source)
        expected = outcome(text, hand_parse)
        rejected += isinstance(expected, list)
        for path, parse in (("token path", token_path), ("patterns", outcome)):
            if parse(text) != expected:
                differing += 1
                print("%s differs: %r" % (path, text))
        for breach in exit_code_breaches(text):
            breached += 1
            print("CLI contract: %s on %r" % (breach, text))
    print("differential: %d documents, %d rejected, %d differences"
          % (options.documents, rejected, differing))
    for breach in stream_breaches():
        breached += 1
        print("CLI contract: %s" % breach)
    print("CLI exit codes: %d documents, %d subcommands each, output streams that fail,"
          " %d breaches" % (options.documents, len(COMMANDS), breached))

    rng = random.Random(options.seed)
    broken = wrong = 0
    for _ in range(options.documents):
        graph = broken_graph(rng)
        expected = reference_validate(graph)
        broken += bool(expected)
        if validate(graph) != expected or json_outcome(graph) != reference_json_outcome(graph):
            wrong += 1
            print("validate differs: %r" % (graph,))
    print("validate differential: %d graphs, %d broken, %d differences"
          % (options.documents, broken, wrong))

    rng = random.Random(options.seed)
    graphs = [load(source)] + [colliding_graph(rng) for _ in range(options.documents)]
    flagged = unequal = findings = miscast = unwritten = 0
    for graph in graphs:
        fault = round_trip_fault(graph)
        if fault:
            unwritten += 1
            print("%s: %r" % (fault, graph))
        quorum = rng.randint(1, 4)
        expected = reference_single_source(graph, quorum)
        flagged += bool(expected)
        if (list(polarity_census(graph).items()) != list(reference_polarity_census(graph).items())
                or single_source(graph, quorum) != expected):
            unequal += 1
            print("census or single_source differs at quorum %d: %r" % (quorum, graph))
        for finding in analyze_all(graph, AnalysisConfig(quorum)).findings:
            findings += 1
            if finding.severity is not SEVERITY[finding.rule]:
                miscast += 1
                print("severity of %r is not the table's" % (finding,))
    print("analysis differential: %d graphs, %d with single-source findings, %d differences"
          % (len(graphs), flagged, unequal))
    print("rule severities: %d findings, %d with a severity other than the table's"
          % (findings, miscast))
    print("JSON round trip: %d graphs, %d not canonical or not read back equal"
          % (len(graphs), unwritten))

    unstable = hash_seed_breaches(options.seed)
    for breach in unstable:
        print("hash seeds: %s differs" % breach)
    print("hash seeds: 3 documents, 6 commands, %d seeds each, %d differing"
          % (len(HASH_SEEDS), len(unstable)))
    return 1 if (failures or differing or breached or wrong or unequal or miscast or unwritten
                 or unstable) else 0


if __name__ == "__main__":
    sys.exit(main())
