"""Memory growth of the privy stages: `scope_audit`, `viewpoint` and
`analyze_all` on a membership chain, a wide group and a diamond.

Each stage's `tracemalloc` peak is taken at n and 4n, after a
`gc.collect()` and with the collector off, on a fresh copy of the graph so
that the indexes a stage builds count towards its peak. A stage whose
memory is linear in its input grows about 4x; the bound allows 2.3 per
doubling, over two doublings, because one doubling can read well above 2
on a linear stage. Ratios between sizes do not depend on the host's speed.
"""

import gc
import tracemalloc

import pytest

from promisegraph.analysis import analyze_all, scope_audit
from promisegraph.export import viewpoint
from promisegraph.lower import load

SIZES = (300, 1200)
GROWTH = 2.3 ** 2


def chain(n):
    """S0 { A0 } and S_i { S_(i-1), A_i }; n promises from Top to the
    outermost S_(n-1), the i-th affecting A_i, which sits i levels down."""
    lines = ["agent Top"] + ["agent A%d" % i for i in range(n)]
    lines += ["superagent S%d { %sA%d }" % (i, "S%d, " % (i - 1) if i else "", i)
              for i in range(n)]
    lines += ["promise p%d from Top to S%d { offer t affects [A%d] }" % (i, n - 1, i)
              for i in range(n)]
    return lines


def wide(n):
    """`All` over n agents, and 4n promises scoped [All] between
    neighbours, each affecting a third agent."""
    lines = ["agent A%d" % i for i in range(n)]
    lines.append("superagent All { %s }" % ", ".join("A%d" % i for i in range(n)))
    lines += ["promise p%d from A%d to A%d scope [All] { %s t%d affects [A%d] }"
              % (i, i % n, (i + 1) % n, ("offer", "accept")[i % 2], i % 7, (i + 2) % n)
              for i in range(4 * n)]
    return lines


def diamond(n):
    """T { L, R }, L { B, A0 }, R { B }, and B over the other agents, so
    every walk up from B reaches T by two paths; 2n promises to T."""
    lines = ["agent A%d" % i for i in range(n)]
    lines += ["superagent T { L, R }", "superagent L { B, A0 }", "superagent R { B }",
              "superagent B { %s }" % ", ".join("A%d" % i for i in range(1, n))]
    lines += ["promise p%d from A%d to T { offer t affects [A%d] }"
              % (i, i % n, (i + 1) % n) for i in range(2 * n)]
    return lines


SHAPES = {"chain": chain, "wide": wide, "diamond": diamond}
STAGES = {"scope_audit": scope_audit, "viewpoint": lambda graph: viewpoint(graph, "A0"),
          "analyze_all": analyze_all}


def peak(stage, graph):
    """The stage's `tracemalloc` peak in bytes, on a copy of the graph that
    holds no index yet."""
    graph = graph._replace()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        stage(graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.fixture(scope="module")
def graphs():
    return {(shape, n): load("\n".join(build(n)) + "\n")
            for shape, build in SHAPES.items() for n in SIZES}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("shape", SHAPES)
def test_privy_stage_memory_grows_linearly(graphs, shape, stage):
    small, large = (peak(STAGES[stage], graphs[shape, n]) for n in SIZES)
    assert large <= GROWTH * small, "%s on %s: %d -> %d bytes, %.2fx" % (
        stage, shape, small, large, large / small)
