"""No module of the package imports, directly or through others, a module
that imports it back. Every import counts: at module level, inside a
function and under `TYPE_CHECKING`."""

import ast
import graphlib
import pathlib

import promisegraph

PACKAGE = pathlib.Path(promisegraph.__file__).parent


def module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported(path, modules):
    """The package's modules that the source at `path` imports."""
    name = module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            source = ".".join(filter(None, [base, node.module]))
            for alias in node.names:  # `from . import lexer` imports a module
                submodule = source + "." + alias.name
                found.add(submodule if submodule in modules else source)
    return found & modules.keys()


def import_graph():
    modules = {module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    return {name: imported(path, modules) for name, path in modules.items()}


def test_the_graph_holds_every_kind_of_import():
    graph = import_graph()
    assert graph["promisegraph.parser"] >= {"promisegraph.lexer", "promisegraph.model"}
    assert "promisegraph.lower" in graph["promisegraph.corpus"]  # `from ..lower`
    assert "promisegraph.analysis" in graph["promisegraph.cli"]  # inside a function
    assert "promisegraph.analysis" in graph["promisegraph.export"]  # under TYPE_CHECKING


def test_the_package_has_no_import_cycle():
    graphlib.TopologicalSorter(import_graph()).prepare()  # CycleError names a cycle
