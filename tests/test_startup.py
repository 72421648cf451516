"""What a CLI call pays before and after its work: the lazy package surface,
and the cyclic garbage collector that `main` turns off, and whose heap it
freezes before the interpreter exits."""

import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import promisegraph
from promisegraph import corpus
from promisegraph.cli import main, run
from promisegraph.parser import PATTERN_MIN_CHARS

SRC = str(pathlib.Path(promisegraph.__file__).resolve().parents[1])
CORPUS = pathlib.Path(corpus.__file__).with_name(corpus.CORPUS_FILENAME)
GOLDEN = CORPUS.with_name("golden")


def run_fresh(code, *args):
    """Run `code` in a new interpreter that imports this promisegraph. `-S`
    skips `site`, whose `.pth` files may import what the program must not;
    PYTHONPATH still applies."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", textwrap.dedent(code), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_check_loads_neither_analysis_nor_export_and_analyze_still_works():
    report = run_fresh("""
        import io, sys
        from promisegraph.cli import run
        quiet = io.StringIO()
        assert run(["check", sys.argv[1]], stdout=quiet, stderr=quiet) == 0
        assert quiet.getvalue() == ""
        loaded = {"promisegraph.analysis", "promisegraph.export"} & set(sys.modules)
        assert not loaded, loaded
        out = io.StringIO()
        assert run(["analyze", sys.argv[1], "--format", "json"], stdout=out, stderr=quiet) == 1
        sys.stdout.write(out.getvalue())
    """, CORPUS)
    assert report == (GOLDEN / "report.json").read_text(encoding="utf-8")


def test_only_a_long_document_compiles_the_declaration_patterns(tmp_path):
    long = tmp_path / "long.pml"
    lines = ["agent A%d kind=human\n" % i for i in range(PATTERN_MIN_CHARS // 20)]
    long.write_text("".join(lines), encoding="utf-8")
    assert CORPUS.stat().st_size < PATTERN_MIN_CHARS <= long.stat().st_size
    run_fresh("""
        import io, sys
        from promisegraph.cli import run
        from promisegraph.parser import _patterns
        quiet = io.StringIO()
        assert run(["check", sys.argv[1]], stdout=quiet, stderr=quiet) == 0
        assert _patterns.cache_info().currsize == 0
        for _ in range(2):
            assert run(["check", sys.argv[2]], stdout=quiet, stderr=quiet) == 0
            compiled = _patterns.cache_info()
            assert (compiled.misses, compiled.currsize) == (1, 1)
    """, CORPUS, long)


@pytest.mark.parametrize("argv", [["--format", "dot", "--viewpoint", "Public"],
                                  ["--format", "json"]], ids=["dot-viewpoint", "json"])
def test_export_does_not_load_the_analysis(argv):
    out = run_fresh("""
        import io, sys
        from promisegraph.cli import run
        out, err = io.StringIO(), io.StringIO()
        assert run(["export", *sys.argv[1:]], stdout=out, stderr=err) == 0, err.getvalue()
        assert "promisegraph.analysis" not in sys.modules
        sys.stdout.write(out.getvalue())
    """, CORPUS, *argv)
    if "dot" in argv:
        assert out == (GOLDEN / "public-view.dot").read_text(encoding="utf-8")
    else:
        assert out.startswith('{"agents":[')


def test_no_command_loads_dataclasses_or_inspect():
    # the records are tuples: building them needs neither module, nor does
    # anything else the commands import. What the interpreter loaded before
    # promisegraph is not theirs; `-S` keeps `site`'s .pth files from loading
    # either module first, where the child could no longer see an import.
    run_fresh("""
        import io, sys
        before = set(sys.modules)
        from promisegraph.cli import run
        for argv in (["check"], ["analyze", "--format", "json"],
                     ["export", "--format", "dot", "--viewpoint", "Public"]):
            out, err = io.StringIO(), io.StringIO()
            code = run(argv[:1] + [sys.argv[1]] + argv[1:], stdout=out, stderr=err)
            assert code in (0, 1) and not err.getvalue(), (argv, code)
            assert bool(out.getvalue()) is (argv[0] != "check"), argv
        loaded = {"dataclasses", "inspect"} & (set(sys.modules) - before)
        assert not loaded, loaded
    """, CORPUS)


# importing a submodule first binds `promisegraph.lower` to the module, unless
# the package has already bound the function of that name over it
@pytest.mark.parametrize("first", ["", "import promisegraph.lower, promisegraph.cli"],
                         ids=["fresh", "after-submodules"])
def test_star_import_binds_each_public_name_to_its_defining_object(first):
    out = run_fresh(first + "\n" + textwrap.dedent("""
        import sys
        from promisegraph import *
        import promisegraph
        star = {name for name in dir() if not name.startswith("_")} - {"promisegraph", "sys"}
        assert sorted(star) == promisegraph.__all__, sorted(star ^ set(promisegraph.__all__))
        for name in promisegraph.__all__:
            value = globals()[name]
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("promisegraph."), (name, home)
            assert getattr(home, name) is value is getattr(promisegraph, name), name
        print(len(promisegraph.__all__))
    """))
    assert int(out) == len(promisegraph.__all__) > 0


def test_dir_lists_public_names_without_loading_them_and_unknown_names_raise():
    run_fresh("""
        import sys
        import promisegraph
        assert set(promisegraph.__all__) <= set(dir(promisegraph))
        assert "promisegraph.analysis" not in sys.modules
        try:
            promisegraph.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("no AttributeError")
    """)


def generated_document(promises=4000):
    """Corpus-shaped text: 40 agents in a `Public` group, offers and accepts
    with scope, affects and prose, about `promises` promises."""
    agents = ["A%d" % i for i in range(40)]
    lines = ["agent %s kind=human" % a for a in agents]
    lines.append("superagent Public { %s }" % ", ".join(agents[:20]))
    for i in range(promises):
        polarity = "offer" if i % 2 == 0 else "accept"
        promiser, promisee = agents[i % 40], agents[(i + 1 + i % 3) % 40]
        lines.append('promise p%d from %s to %s scope [%s] {\n    %s topic%d "claim %d" '
                     'affects [%s]\n}' % (i, promiser, promisee, agents[(i * 7) % 40],
                                          polarity, i % 25, i, agents[(i * 3) % 40]))
    return "\n".join(lines) + "\n"


DOCUMENTS = {
    "empty": "",
    "corpus": CORPUS.read_text(encoding="utf-8"),
    "generated": generated_document(),
    # a parse error on each line, then a lowering error on each line
    "unparsable": "".join("promise q%d from A to { offer }\n" % i for i in range(2000)),
    "unresolved": "".join("promise p%d from A to B%d { offer t }\n" % (i % 9, i)
                          for i in range(4000)),
}
COMMANDS = {
    "check": ["check"],
    "analyze": ["analyze", "--format", "json"],
    "export": ["export", "--format", "dot", "--viewpoint", "Public"],
    "trust": ["trust"],
}


# counts in a child process, where no tracer of this one, such as a
# coverage run's, adds garbage of its own
UNREACHABLE = """
    import gc, io, json, sys
    from promisegraph.cli import run

    def unreachable_after(argv):
        \"\"\"Objects that one `run(argv)` left only reachable through cycles.\"\"\"
        gc.collect()
        gc.disable()
        try:
            run(argv, stdin=io.StringIO(), stdout=io.StringIO(), stderr=io.StringIO())
            return gc.collect()
        finally:
            gc.enable()

    argv, warm, paths = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3:]
    unreachable_after(argv[:1] + [warm] + argv[1:])  # imports, caches
    print(json.dumps([unreachable_after(argv[:1] + [path] + argv[1:]) for path in paths]))
"""


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_run_leaves_no_cyclic_garbage_that_grows_with_the_input(command, tmp_path):
    paths = {}
    for name, text in DOCUMENTS.items():
        paths[name] = tmp_path / (name + ".pml")
        paths[name].write_text(text, encoding="utf-8")
    out = run_fresh(UNREACHABLE, json.dumps(COMMANDS[command]), paths["corpus"],
                    *paths.values())
    counts = dict(zip(paths, json.loads(out)))
    assert len(set(counts.values())) == 1, counts


def test_main_leaves_the_collector_off(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["promisegraph", "check", str(CORPUS)])
    assert gc.isenabled()
    try:
        with pytest.raises(SystemExit) as exited:
            main()
        assert exited.value.code == 0
        assert not gc.isenabled()
        assert gc.get_freeze_count() > 0  # the collections at exit skip the heap
    finally:
        gc.unfreeze()
        gc.enable()
    assert capsys.readouterr() == ("", "")


def test_run_leaves_the_collector_alone():
    assert gc.isenabled()
    run(["check", str(CORPUS)], stdout=io.StringIO(), stderr=io.StringIO())
    assert gc.isenabled()
