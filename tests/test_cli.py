"""CLI exit codes, stream discipline, and flag plumbing."""

import argparse
import contextlib
import errno
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import promisegraph
from promisegraph.analysis import AnalysisConfig, Severity, TrustParams
from promisegraph.cli import _build_arg_parser, run
from promisegraph.export import ReportFormat
from promisegraph.lexer import IDENTIFIER, KEYWORD, ParseFailure, tokenize
from promisegraph import corpus

from conftest import AOA_TOY, BROKEN_TOY, CLEAN_TOY
from mutation import mutate, swap_names

SRC = str(pathlib.Path(promisegraph.__file__).resolve().parents[1])
CORPUS = pathlib.Path(corpus.__file__).with_name(corpus.CORPUS_FILENAME)


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.pml"
    path.write_text(corpus.load_builtin(), encoding="utf-8")
    return str(path)


@pytest.fixture
def toy_path(tmp_path, clean_toy_source):
    path = tmp_path / "clean.pml"
    path.write_text(clean_toy_source, encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_path(tmp_path, broken_toy_source):
    path = tmp_path / "broken.pml"
    path.write_text(broken_toy_source, encoding="utf-8")
    return str(path)


def invoke(argv, stdin_text=""):
    stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = run(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def test_check_clean_toy_exits_zero(toy_path):
    code, out, err = invoke(["check", toy_path])
    assert (code, err) == (0, "")


def test_check_corpus_exits_zero(corpus_path):
    code, out, err = invoke(["check", corpus_path])
    assert (code, err) == (0, "")


def test_analyze_clean_toy_exits_zero(toy_path):
    code, out, err = invoke(["analyze", toy_path])
    assert code == 0
    assert out.startswith("0 findings")


def test_analyze_corpus_exits_one(corpus_path):
    code, out, err = invoke(["analyze", corpus_path])
    assert code == 1
    assert err == ""
    assert out.startswith("27 findings")


def test_analyze_json_stdout_is_pure(corpus_path):
    code, out, err = invoke(["analyze", corpus_path, "--format", "json"])
    assert code == 1
    assert err == ""
    decoded = json.loads(out)  # would fail on any stray diagnostic
    assert len(decoded["findings"]) == 27


def test_broken_file_exits_two(broken_path):
    code, out, err = invoke(["check", broken_path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_missing_file_exits_two():
    code, out, err = invoke(["check", "/no/such/file.pml"])
    assert code == 2
    assert "error:" in err


def test_bad_flag_exits_two(toy_path, capsys):
    code, out, err = invoke(["analyze", toy_path, "--format", "pdf"])
    assert (code, out) == (2, "")
    assert "usage:" in err
    assert capsys.readouterr() == ("", "")


def test_unknown_command_exits_two(capsys):
    code, out, err = invoke(["frobnicate", "x.pml"])
    assert (code, out) == (2, "")
    assert "usage:" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = invoke(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: promisegraph")
    assert capsys.readouterr() == ("", "")


# a CRLF file and a file whose lines end in a lone CR
@pytest.mark.parametrize("text", ["agent A\r\nagent B\r\n", "agent A\ragent B\n"],
                         ids=["crlf", "cr"])
@pytest.mark.parametrize("argv", [["check"], ["export", "--format", "json"]],
                         ids=["check", "export"])
def test_a_file_reads_as_its_text_does_on_stdin(tmp_path, text, argv):
    path = tmp_path / "doc.pml"
    path.write_bytes(text.encode("utf-8"))
    by_path = invoke([argv[0], str(path), *argv[1:]])
    by_stdin = invoke([argv[0], "-", *argv[1:]], stdin_text=text)
    stderr = by_stdin[2].replace("error: -:", "error: %s:" % path)
    assert by_path == (by_stdin[0], by_stdin[1], stderr)
    code, out, _ = by_path
    assert code == (0 if "\r\n" in text else 2)  # a lone \r is a blank, not a line end
    if argv[0] == "export" and code == 0:
        for agent in json.loads(out)["agents"]:
            span = agent["span"]
            assert text[span["start"]:span["end"]] == "agent " + agent["id"]
            assert text[:span["start"]].count("\n") + 1 == span["line"]


def test_stdin_dash(clean_toy_source):
    code, out, err = invoke(["analyze", "-"], stdin_text=clean_toy_source)
    assert code == 0
    assert out.startswith("0 findings")


def test_fail_on_threshold(corpus_path):
    # corpus has violations, so the default threshold fails it; a toy with
    # only warnings passes at the default but fails at --fail-on warning
    code, _, _ = invoke(["analyze", corpus_path, "--fail-on", "violation"])
    assert code == 1


def test_fail_on_warning_catches_warning_only_graphs(tmp_path):
    path = tmp_path / "warn.pml"
    path.write_text(
        "agent A\nagent B\n"
        "promise lonely from A to B { offer t }\n",
        encoding="utf-8",
    )
    relaxed, _, _ = invoke(["analyze", str(path)])
    assert relaxed == 0
    strict, _, _ = invoke(["analyze", str(path), "--fail-on", "warning"])
    assert strict == 1


def test_quorum_flag_reaches_the_rule(tmp_path):
    path = tmp_path / "sources.pml"
    path.write_text(
        "agent S1\nagent S2\nagent S3\nagent C\n"
        "promise o1 from S1 to C { offer t }\n"
        "promise o2 from S2 to C { offer t }\n"
        "promise o3 from S3 to C { offer t }\n"
        "promise a1 from C to S1 { accept t }\n"
        "promise a2 from C to S2 { accept t }\n",
        encoding="utf-8",
    )
    default, out, _ = invoke(["analyze", str(path)])
    assert "single-source-acceptance" not in out
    strict, out, _ = invoke(["analyze", str(path), "--quorum", "3"])
    assert strict == 1
    assert "single-source-acceptance" in out


def test_invalid_quorum_exits_two(toy_path):
    code, out, err = invoke(["analyze", toy_path, "--quorum", "0"])
    assert code == 2
    assert "error:" in err


def test_trust_command(corpus_path):
    code, out, err = invoke(["trust", corpus_path])
    assert code == 0
    assert "Authors -> Benno-Baksteen: 0.2" in out
    assert "Authors -> Boeing: 0.2" in out


def test_trust_json(corpus_path):
    code, out, err = invoke(["trust", corpus_path, "--format", "json"])
    assert code == 0
    decoded = json.loads(out)
    assert decoded["initial"] == 0.5
    assert {e["subject"] for e in decoded["trust"]} == {"Benno-Baksteen", "Boeing"}


def test_trust_json_rows_match_the_analyze_report(corpus_path, toy_path):
    # the toy has no assessments, so its trust table is empty
    for path, assessed in [(corpus_path, True), (toy_path, False)]:
        code, out, err = invoke(["trust", path, "--format", "json"])
        assert (code, err) == (0, "")
        _, report, _ = invoke(["analyze", path, "--format", "json"])
        assert json.loads(out)["trust"] == json.loads(report)["trust"]
        assert bool(json.loads(out)["trust"]) is assessed

        # text: the report's trust section, the last one, without its indent
        code, out, err = invoke(["trust", path])
        assert (code, err) == (0, "")
        _, report, _ = invoke(["analyze", path])
        lines = report.splitlines()
        section = lines[lines.index("trust") + 1:] if assessed else []
        assert all(line.startswith("  ") for line in section)
        assert out == "".join(line[2:] + "\n" for line in section)
        assert bool(out) is assessed


def test_trust_flags_change_the_arithmetic(corpus_path):
    code, out, err = invoke([
        "trust", corpus_path, "--trust-beta", "1.0", "--format", "json",
    ])
    assert code == 0
    decoded = json.loads(out)
    values = {e["subject"]: e["value"] for e in decoded["trust"]}
    assert values["Benno-Baksteen"] == 0.0


def test_invalid_trust_param_exits_two(corpus_path):
    code, out, err = invoke(["trust", corpus_path, "--trust-alpha", "7"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["trust", "--trust-beta", "-1"], "trust parameter beta=-1.0 outside [0,1]"),
    (["analyze", "--trust-initial", "nan"], "trust parameter initial=nan outside [0,1]"),
    (["report", "--quorum", "0", "--trust-alpha", "7"], "trust parameter alpha=7.0 outside [0,1]"),
    (["analyze", "--quorum", "0", "--format", "json"], "quorum must be >= 1"),
])
def test_a_bad_flag_is_reported_before_the_input_is_read(argv, message, broken_path,
                                                        tmp_path, monkeypatch):
    # a broken or missing document does not hide the flag error
    for path in [broken_path, str(tmp_path / "missing.pml")]:
        assert invoke(argv[:1] + [path] + argv[1:]) == (2, "", "error: %s\n" % message)

    def unread(path, stdin):
        raise AssertionError("input read")

    monkeypatch.setattr("promisegraph.cli._read_input", unread)
    assert invoke(argv[:1] + ["-"] + argv[1:]) == (2, "", "error: %s\n" % message)


def test_export_json_round_trips(corpus_path):
    code, out, err = invoke(["export", corpus_path])
    assert (code, err) == (0, "")
    decoded = json.loads(out)
    assert len(decoded["promises"]) == 23


def test_export_dot(corpus_path):
    code, out, err = invoke(["export", corpus_path, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph promises {")


def test_export_viewpoint_filters(corpus_path):
    code, full, _ = invoke(["export", corpus_path, "--format", "dot"])
    assert "mcas-existence" in full
    code, public, _ = invoke([
        "export", corpus_path, "--format", "dot", "--viewpoint", "Public",
    ])
    assert code == 0
    assert "mcas-existence" not in public
    code, faa, _ = invoke([
        "export", corpus_path, "--format", "dot", "--viewpoint", "FAA",
    ])
    assert code == 0
    assert "mcas-existence" in faa


def test_export_unknown_viewpoint_exits_two(corpus_path):
    code, out, err = invoke([
        "export", corpus_path, "--viewpoint", "Martians",
    ])
    assert code == 2
    assert "Martians" in err


def test_report_command(corpus_path, toy_path):
    code, out, err = invoke(["report", corpus_path])
    assert code == 1  # violations present
    assert out.startswith("16 agents, 23 promises, 2 impositions, 3 assessments")
    assert "27 findings" in out

    # the summary line, then exactly what `analyze` prints
    for path, summary in [(corpus_path, "16 agents, 23 promises, 2 impositions, 3 assessments"),
                          (toy_path, "2 agents, 2 promises, 0 impositions, 0 assessments")]:
        code, out, err = invoke(["report", path])
        analyzed = invoke(["analyze", path])
        assert (code, err) == (analyzed[0], analyzed[2]) == (analyzed[0], "")
        assert out == summary + "\n" + analyzed[1]


def test_no_color_env_disables_ansi(corpus_path, monkeypatch):
    # StringIO is not a tty, so color is already off; the env var must keep
    # it off even when the stream claims to be one
    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setenv("PROMISEGRAPH_NO_COLOR", "1")
    stdout = FakeTty()
    code = run(["analyze", corpus_path], stdin=io.StringIO(),
               stdout=stdout, stderr=io.StringIO())
    assert code == 1
    assert "\x1b[" not in stdout.getvalue()


def test_tty_gets_color(corpus_path, monkeypatch):
    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("PROMISEGRAPH_NO_COLOR", raising=False)
    stdout = FakeTty()
    code = run(["analyze", corpus_path], stdin=io.StringIO(),
               stdout=stdout, stderr=io.StringIO())
    assert code == 1
    assert "\x1b[31mviolation\x1b[0m" in stdout.getvalue()


def test_machine_formats_never_color(corpus_path, monkeypatch):
    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("PROMISEGRAPH_NO_COLOR", raising=False)
    stdout = FakeTty()
    run(["analyze", corpus_path, "--format", "json"], stdin=io.StringIO(),
        stdout=stdout, stderr=io.StringIO())
    json.loads(stdout.getvalue())


def test_multi_error_documents_report_every_line(tmp_path):
    path = tmp_path / "multi.pml"
    path.write_text(
        "agent A kind=bogus\n"
        "agent B kind=fake\n",
        encoding="utf-8",
    )
    code, out, err = invoke(["check", str(path)])
    assert code == 2
    assert err.count("error:") == 2


def nested_superagents(depth):
    """`depth` superagents, each the only member of the one before it,
    declared outermost first."""
    lines = ["agent A"]
    lines += ["superagent G%d { G%d }" % (i, i + 1) for i in range(depth - 1)]
    lines.append("superagent G%d { A }" % (depth - 1))
    return "\n".join(lines) + "\n"


def augmenting_chain(length):
    """Offers o1..oN and accepts a1..aN pair up along a chain; o0, declared
    last, can only bind a1, so matching it means searching the whole chain."""
    lines = ["agent X%d" % i for i in range(length + 1)]
    lines += ["agent Y%d" % i for i in range(1, length + 2)]
    for i in range(1, length + 1):
        lines.append("promise o%d from X%d to Y%d, Y%d { offer t }" % (i, i, i, i + 1))
        lines.append("promise a%d from Y%d to X%d, X%d { accept t }" % (i, i, i - 1, i))
    lines.append("promise o0 from X0 to Y1 { offer t }")
    return "\n".join(lines) + "\n"


# DOT export stays at depth 1,200: its output grows as depth squared
# (100 MB at 5,000)
@pytest.mark.parametrize("argv, depth", [
    (["check"], 1200), (["export", "--format", "dot"], 1200), (["check"], 10000),
    (["analyze", "--format", "json"], 10000), (["export", "--format", "json"], 10000),
    (["export", "--format", "json", "--viewpoint", "A"], 10000),
], ids=["argv0", "argv1", "check-10000", "analyze-json-10000", "export-json-10000",
        "viewpoint-json-10000"])
def test_deeply_nested_superagents(tmp_path, argv, depth):
    path = tmp_path / "nested.pml"
    path.write_text(nested_superagents(depth), encoding="utf-8")
    code, out, err = invoke([argv[0], str(path), *argv[1:]])
    assert (code, err) == (0, "")
    if argv == ["export", "--format", "dot"]:
        assert out.count("subgraph") == depth
    elif "--viewpoint" in argv:
        # `watchers` walks up through all `depth` superagents; with no promise
        # to see, the view holds A alone
        view = json.loads(out)
        assert [agent["id"] for agent in view["agents"]] == ["A"]
        assert view["superagents"] == []
    elif argv[0] == "export":
        assert len(json.loads(out)["superagents"]) == depth
    elif argv[0] == "analyze":
        assert json.loads(out)["findings"] == []


def test_long_augmenting_chain(tmp_path):
    path = tmp_path / "chain.pml"
    path.write_text(augmenting_chain(1500), encoding="utf-8")
    code, out, err = invoke(["analyze", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    bindings = json.loads(out)["bindings"]
    assert len(bindings) == 1500
    assert bindings[0] == {"offer": "o1", "accept": "a1", "topic": "t"}


def test_internal_error_exits_three_without_traceback(corpus_path, monkeypatch):
    def explode(graph, config=None):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("promisegraph.analysis.analyze_all", explode)
    code, out, err = invoke(["analyze", corpus_path])
    assert code == 3
    assert out == ""
    assert err == "error: internal: RuntimeError: boom second line\n"
    assert "Traceback" not in err


def options(command):
    """dest -> argparse action, for each option of one command."""
    commands = next(action for action in _build_arg_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {action.dest: action for action in commands.choices[command]._actions}


# the CLI spells these out so that `check` need not import analysis or export
@pytest.mark.parametrize("command", ["analyze", "report", "trust"])
def test_flag_defaults_and_choices_match_the_records(command):
    flags = options(command)
    assert TrustParams(flags["trust_initial"].default, flags["trust_alpha"].default,
                       flags["trust_beta"].default) == TrustParams()
    if command != "trust":
        assert flags["quorum"].default == AnalysisConfig().quorum
        assert flags["fail_on"].choices == [severity.value for severity in Severity]
        assert flags["fail_on"].default == Severity.VIOLATION.value
    if command != "report":
        assert flags["format"].choices == [format_.value for format_ in ReportFormat]
        assert flags["format"].default == ReportFormat.TEXT.value


# A path is read as strict UTF-8; stdin must be too, and stdout must take
# any character, whatever encoding the host gives the standard streams.
HOST_ENCODINGS = {"default": {}, "latin-1": {"PYTHONIOENCODING": "latin-1"},
                  "c-locale": {"LC_ALL": "C", "PYTHONUTF8": "0"}}


def run_cli(argv, stdin=b"", env=None, **options):
    """The CLI in a new interpreter: exit code, stdout bytes, stderr text.
    A stream that `options` gives the child instead of a pipe reads empty."""
    environ = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL")}
    environ.update(env or {})
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options}
    done = subprocess.run([sys.executable, "-m", "promisegraph", *argv], input=stdin,
                          env=environ, timeout=60, **streams)
    return (done.returncode, done.stdout or b"",
            (done.stderr or b"").decode("utf-8", "backslashreplace"))


@pytest.mark.parametrize("env", HOST_ENCODINGS.values(), ids=HOST_ENCODINGS.keys())
@pytest.mark.parametrize("source, argv", [
    (b"agent A\n# caf\xe9\n", ["check"]),
    (b'agent A\nagent B\nimposition i from A to B { "caf\xe9" }\n',
     ["export", "--format", "json"]),
    (b'agent A\nagent B\nimposition i from A to B { "caf\xc3\xa9" }\n',
     ["export", "--format", "json"]),
], ids=["latin-1-comment", "latin-1-string", "utf-8-string"])
def test_stdin_is_read_as_a_path_is(tmp_path, env, source, argv):
    path = tmp_path / "doc.pml"
    path.write_bytes(source)
    code, out, err = run_cli([argv[0], "-", *argv[1:]], stdin=source, env=env)
    assert (code, out, err.replace("error: -", "error: %s" % path)) == \
        run_cli([argv[0], str(path), *argv[1:]], env=env)
    if b"\xc3" in source:
        assert code == 0 and b'"text":"caf\\u00e9"' in out
    else:
        assert code == 2 and "is not valid UTF-8" in err


@pytest.mark.parametrize("env", HOST_ENCODINGS.values(), ids=HOST_ENCODINGS.keys())
def test_stdout_takes_any_character_whatever_the_host_encoding(env):
    expected = run_cli(["export", str(CORPUS), "--format", "dot"],
                       env={"PYTHONIOENCODING": "utf-8"})
    assert expected[0] == 0 and "−".encode("utf-8") in expected[1]
    assert run_cli(["export", "-", "--format", "dot"], stdin=CORPUS.read_bytes(),
                   env=env) == expected


def test_closed_stdin_exits_two():
    code, out, err = run_cli(["check", "-"], stdin=None, preexec_fn=lambda: os.close(0))
    assert (code, out, err) == (2, b"", "error: cannot read -: stdin is closed\n")


# An output stream that cannot be written. A failing stdout is an IO error,
# exit 2, reported on stderr; a diagnostic that cannot be written is dropped,
# and the exit code is the one the run decided. Neither may leave the
# interpreter's own complaint at exit, nor a diagnostic on stdout. With
# buffering a short output fails only at the flush; without, at the write.
BUFFERING = {"buffered": {"PYTHONUNBUFFERED": ""}, "unbuffered": {"PYTHONUNBUFFERED": "1"}}
MISSING = "/no/such/file.pml"


@contextlib.contextmanager
def widowed_pipe():
    """The write end of a pipe whose reader has gone."""
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


def closing(fd):
    """A preexec_fn that starts the CLI with `fd` closed."""
    return lambda: os.close(fd)


def assert_no_stray_output(out, err):
    assert b"error:" not in out, out
    assert "Exception ignored" not in err and "Traceback" not in err, err


@pytest.mark.parametrize("env", BUFFERING.values(), ids=BUFFERING.keys())
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_two(env):
    with open("/dev/full", "wb") as full:
        code, out, err = run_cli(["analyze", str(CORPUS), "--format", "json"], env=env,
                                 stdout=full)
    assert code == 2
    assert err.startswith("error: cannot write output: [Errno %d]" % errno.ENOSPC), err
    assert err.count("\n") == 1
    assert_no_stray_output(out, err)


# trust's output fits the stdio buffer and fails at the flush; export's JSON of
# the corpus (12 KB) does not, and fails at the write; --help is argparse's
@pytest.mark.parametrize("env", BUFFERING.values(), ids=BUFFERING.keys())
@pytest.mark.parametrize("argv", [["trust", str(CORPUS)], ["export", str(CORPUS)], ["--help"]],
                         ids=["trust", "export", "help"])
def test_a_stdout_whose_reader_has_gone_exits_two(env, argv):
    with widowed_pipe() as stdout:
        code, out, err = run_cli(argv, env=env, stdout=stdout)
    assert (code, err) == (2, "error: cannot write output: [Errno %d] Broken pipe\n"
                           % errno.EPIPE)
    assert_no_stray_output(out, err)


@pytest.mark.parametrize("env", BUFFERING.values(), ids=BUFFERING.keys())
def test_a_closed_stdout_fails_only_a_command_that_writes(env):
    code, out, err = run_cli(["analyze", str(CORPUS)], env=env, preexec_fn=closing(1))
    assert (code, err) == (2, "error: cannot write output: stdout is closed\n")
    assert_no_stray_output(out, err)
    code, out, err = run_cli(["check", str(CORPUS)], env=env, preexec_fn=closing(1))
    assert (code, out, err) == (0, b"", "")


@pytest.mark.parametrize("env", BUFFERING.values(), ids=BUFFERING.keys())
@pytest.mark.parametrize("argv", [["check", MISSING], ["check", "broken"],
                                  ["analyze", str(CORPUS), "--quorum", "0"],
                                  ["analyze", str(CORPUS), "--format", "pdf"]],
                         ids=["missing", "parse-error", "quorum", "bad-flag"])
@pytest.mark.parametrize("stderr", ["widowed", "closed"])
def test_a_diagnostic_that_cannot_be_written_keeps_the_exit_code(env, argv, stderr,
                                                                  broken_path):
    argv = [broken_path if arg == "broken" else arg for arg in argv]
    if stderr == "closed":
        code, out, err = run_cli(argv, env=env, preexec_fn=closing(2))
    else:
        with widowed_pipe() as pipe:
            code, out, err = run_cli(argv, env=env, stderr=pipe)
    assert (code, out) == (2, b"")
    assert_no_stray_output(out, err)


class Unwritable(io.StringIO):
    """A stream whose every write fails, as a pipe whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_run_reports_an_unwritable_stdout_and_drops_what_stderr_cannot_take(
        corpus_path, monkeypatch):
    err = io.StringIO()
    assert run(["analyze", corpus_path], stdout=Unwritable(), stderr=err) == 2
    assert err.getvalue() == "error: cannot write output: [Errno %d] Broken pipe\n" \
        % errno.EPIPE
    assert run(["analyze", corpus_path], stdout=Unwritable(), stderr=Unwritable()) == 2
    assert run(["check", MISSING], stdout=io.StringIO(), stderr=Unwritable()) == 2

    def explode(graph, config=None):
        raise RuntimeError("boom")

    monkeypatch.setattr("promisegraph.analysis.analyze_all", explode)
    out = io.StringIO()
    assert run(["analyze", corpus_path], stdout=out, stderr=Unwritable()) == 3
    assert out.getvalue() == ""


MUTANT_SOURCES = [corpus.load_builtin(), CLEAN_TOY, AOA_TOY, BROKEN_TOY]
MUTANT_COMMANDS = [["check"], ["analyze", "--format", "json"], ["report"], ["trust"],
                   ["export", "--format", "dot"]]


def first_agent(text):
    """The name of the document's first `agent` declaration, read from its
    tokens, or `Alice` when there is none to read."""
    try:
        tokens = tokenize(text)
    except ParseFailure:
        return "Alice"
    return next((name.text for keyword, name in zip(tokens, tokens[1:])
                 if keyword.kind is KEYWORD and keyword.text == "agent"
                 and name.kind is IDENTIFIER), "Alice")


@pytest.mark.parametrize("seed", range(10))
def test_the_exit_code_contract_holds_on_mutated_documents(seed):
    """Every command exits 0, 1 or 2 on a mutated document, never 3; an exit
    2 writes nothing to stdout and only `error: ` lines to stderr. The
    documents with swapped names are drawn from the sources that load as
    they stand, and at least one in ten of them still loads, so analysis and
    rendering run on near-valid input too. The viewpoint is an agent the
    document declares, so every document that loads is rendered from it."""
    rng = random.Random(seed + 13000)
    mutated = [mutate(rng, rng.choice(MUTANT_SOURCES)) for _ in range(50)]
    swapped = [swap_names(rng, rng.choice(MUTANT_SOURCES[:3])) for _ in range(50)]
    for text in mutated + swapped:
        for argv in MUTANT_COMMANDS + [["export", "--viewpoint", first_agent(text)]]:
            code, out, err = invoke([argv[0], "-", *argv[1:]], text)
            assert code in (0, 1, 2), (argv, text, err)
            if argv == ["check"]:
                loads = code == 0
            elif "--viewpoint" in argv and loads:
                assert code == 0, (argv, text, err)
            if code == 2:
                assert out == "", (argv, text)
                lines = err.splitlines()
                assert lines and all(line.startswith("error: ") for line in lines), \
                    (argv, text, err)
    loaded = sum(invoke(["check", "-"], text)[0] == 0 for text in swapped)
    assert loaded >= len(swapped) // 10, loaded
