"""Command-line front end: parse, validate, analyze, and export promise
documents with CI-friendly exit codes.

Exit code 0: success (and, for analyze/report, no finding at or above the
--fail-on threshold). 1: findings at or above the threshold. 2: unusable
input (parse, validation, IO, or flag errors), or an output that cannot be
written, reported as `error: cannot write output: <reason>`. 3: an internal
error, a bug in promisegraph; it is reported as one `error: internal:
<Type>: <message>` line, never as a traceback. Diagnostics go to stderr,
artifacts to stdout, so json/dot output can be piped safely; a diagnostic
that stderr cannot take is dropped, and the exit code stays as it was. `run`
writes only to the streams it is given, argparse's messages included, and
reads a file's text untranslated, as it reads stdin; `main` gives it stdin
as strict UTF-8, as a file is read, and stdout as UTF-8, whatever the
host's locale. Apart from `report`'s summary line, stdout gets only what an
`export` renderer returns.

Analysis and export are imported only by the commands that run them, so
`check` never loads them, and `main` runs with the cyclic garbage collector
off: the process is one-shot and builds no reference cycles that grow with
its input. Once stdout is flushed, `main` freezes the heap (`gc.freeze`),
because the interpreter still runs full collections at exit, collector off
or not, and they skip frozen objects.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import sys
from typing import IO, List, Optional, Tuple

from .lexer import ParseFailure
from .lower import LowerFailure, load
from .model import PromiseGraph


def _build_arg_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="promisegraph",
        description="Static analyzer for promise-declaration documents.",
    )
    commands = root.add_subparsers(dest="command", required=True)

    def add_input(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("input", help="document path, or - for stdin")

    def add_trust_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--trust-initial", type=float, default=0.5,
                            help="starting trust for unassessed pairs")
        parser.add_argument("--trust-alpha", type=float, default=0.2,
                            help="gain applied on a kept assessment")
        parser.add_argument("--trust-beta", type=float, default=0.6,
                            help="loss applied on a not-kept assessment")

    def add_analysis_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--quorum", type=int, default=2,
                            help="distinct sources a consumer should accept")
        parser.add_argument("--fail-on", choices=["info", "warning", "violation"],
                            default="violation",
                            help="lowest severity that fails the run")
        add_trust_flags(parser)

    check = commands.add_parser("check", help="parse and validate only")
    add_input(check)

    analyze = commands.add_parser("analyze", help="full analysis report")
    add_input(analyze)
    analyze.add_argument("--format", choices=["text", "json"], default="text")
    add_analysis_flags(analyze)

    trust_cmd = commands.add_parser("trust", help="trust table only")
    add_input(trust_cmd)
    trust_cmd.add_argument("--format", choices=["text", "json"], default="text")
    add_trust_flags(trust_cmd)

    export = commands.add_parser("export", help="serialize the graph")
    add_input(export)
    export.add_argument("--format", choices=["json", "dot"], default="json")
    export.add_argument("--viewpoint", metavar="AGENT",
                        help="restrict to what one agent can see")

    report = commands.add_parser("report", help="human-readable summary")
    add_input(report)
    report.set_defaults(format="text")
    add_analysis_flags(report)

    return root


def _read_input(path: str, stdin: Optional[IO[str]]) -> str:
    if path == "-":
        if stdin is None:  # the process started with no stdin
            raise OSError("stdin is closed")
        return stdin.read()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def _load_graph(path: str, stdin: IO[str], stderr: IO[str]) -> Optional[PromiseGraph]:
    """Parse and lower, reporting diagnostics; None means exit 2."""
    try:
        text = _read_input(path, stdin)
    except OSError as exc:
        _report(stderr, "error: cannot read %s: %s\n" % (path, exc))
        return None
    except UnicodeDecodeError as exc:
        _report(stderr, "error: %s is not valid UTF-8: %s\n" % (path, exc))
        return None
    try:
        return load(text)
    except (ParseFailure, LowerFailure) as failure:
        for error in failure.errors:
            _report(stderr, "error: %s:%s\n" % (path, error))
        return None


def _report(stderr: IO[str], text: str) -> None:
    """Write diagnostics; what cannot be written is dropped, not sent to stdout."""
    if stderr is not None:
        with contextlib.suppress(OSError):
            stderr.write(text)


def _emit(code: int, output: str, stdout: IO[str], stderr: IO[str]) -> int:
    """Write and flush `output`; return `code`, or 2 if it cannot be written."""
    if output:
        try:
            if stdout is None:  # the process started with no stdout
                raise OSError("stdout is closed")
            stdout.write(output)
            stdout.flush()
        except OSError as exc:
            _report(stderr, "error: cannot write output: %s\n" % exc)
            return 2
    return code


def _want_color(stdout: IO[str]) -> bool:
    if os.environ.get("PROMISEGRAPH_NO_COLOR"):
        return False
    return hasattr(stdout, "isatty") and stdout.isatty()


def run(argv: List[str], stdin: IO[str] = None, stdout: IO[str] = None,
        stderr: IO[str] = None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    arg_parser = _build_arg_parser()
    help_, usage = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(help_), contextlib.redirect_stderr(usage):
            args = arg_parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        _report(stderr, usage.getvalue())
        return _emit(int(exc.code or 0), help_.getvalue(), stdout, stderr)
    try:
        code, output = _dispatch(args, stdin, stdout, stderr)
        return _emit(code, output, stdout, stderr)
    except Exception as exc:
        # a crash must not pass for a finding (1) or for bad input (2)
        message = " ".join(str(exc).splitlines())
        _report(stderr, "error: internal: %s: %s\n" % (type(exc).__name__, message))
        return 3


def _dispatch(args: argparse.Namespace, stdin: IO[str], stdout: IO[str],
              stderr: IO[str]) -> Tuple[int, str]:
    """The exit code and what to write to stdout."""
    if args.command in ("analyze", "report", "trust"):
        # flags first: a bad one exits 2 before the input is read
        from .analysis import AnalysisConfig, TrustParams
        try:
            params = TrustParams(args.trust_initial, args.trust_alpha, args.trust_beta)
            if args.command != "trust":
                config = AnalysisConfig(quorum=args.quorum, trust=params)
        except ValueError as exc:
            _report(stderr, "error: %s\n" % exc)
            return 2, ""

    graph = _load_graph(args.input, stdin, stderr)
    if graph is None:
        return 2, ""

    if args.command == "check":
        return 0, ""

    if args.command == "export":
        from .export import to_dot, to_json, viewpoint
        target = graph
        if args.viewpoint is not None:
            try:
                target = viewpoint(graph, args.viewpoint).graph
            except KeyError:
                _report(stderr, "error: unknown viewpoint agent %r\n" % args.viewpoint)
                return 2, ""
        if args.format == "dot":
            return 0, to_dot(target)
        return 0, to_json(target).decode("utf-8")

    # analyze, report and trust
    from .analysis import Severity, analyze_all, trust
    from .export import ReportFormat, render_report, render_trust
    format_ = ReportFormat(args.format)
    if args.command == "trust":
        return 0, render_trust(trust(graph, params), format_)
    report = analyze_all(graph, config)
    color = format_ is ReportFormat.TEXT and _want_color(stdout)
    output = render_report(report, format_, color=color)
    if args.command == "report":
        output = ("%d agents, %d promises, %d impositions, %d assessments\n"
                  % (len(graph.agents), len(graph.promises),
                     len(graph.impositions), len(graph.assessments))) + output
    threshold = Severity(args.fail_on).rank
    return 1 if any(f.severity.rank >= threshold for f in report.findings) else 0, output


def main() -> None:
    gc.disable()
    # sys.stdin is None in a process started without one
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(encoding="utf-8", errors="strict", newline="")
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    code = run(sys.argv[1:])
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # reported or dropped by run; do not fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    gc.freeze()  # the collections the interpreter runs at exit skip a frozen heap
    sys.exit(code)
