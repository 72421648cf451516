#!/usr/bin/env python3
"""Check an interpreter that has neither pytest nor hypothesis, such as the
CPython 3.10 floor that `requires-python` names.

It runs five checks with the interpreter that runs it:
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
  to stdout and only lines that start with `error: ` to stderr;
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
  (`analysis.SEVERITY`).

Usage: python3.10 scripts/floor_check.py [--documents N] [--seed S]
"""

from __future__ import annotations

import argparse
import io
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
from promisegraph.lexer import ParseFailure  # noqa: E402
from promisegraph.lower import load  # noqa: E402
from promisegraph.model import validate  # noqa: E402

CORPUS = pathlib.Path(corpus.__file__).with_name(corpus.CORPUS_FILENAME)
GOLDEN = CORPUS.with_name("golden")
COMMANDS = (["check"], ["analyze", "--format", "json"], ["report"], ["trust"],
            ["export", "--format", "dot"])


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
    print("CLI exit codes: %d documents, %d subcommands each, %d breaches"
          % (options.documents, len(COMMANDS), breached))

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
    flagged = unequal = findings = miscast = 0
    for graph in graphs:
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
    return 1 if failures or differing or breached or wrong or unequal or miscast else 0


if __name__ == "__main__":
    sys.exit(main())
