#!/usr/bin/env python3
"""Time the membership walks and the front end in process, at three sizes.

wide: n agents, one superagent `All` over every agent, and 4n promises,
    each with `All` in its scope and one affected agent (n = 500, 1000, 2000).
deep: a membership chain: agents Top and A0 .. A(n-1), superagent S0
    { A0 } and S_i { S_(i-1), A_i }, and n promises from Top to S(n-1),
    the i-th offering topic t and affecting A_i (n = 1000, 2000, 4000).
sparse: perfbench's sparse workload, `gen.sparse(seed, n)`, about 250
    bytes of text per promise (n = 4000, 8000, 16000); only `load` is
    timed, so the front end's growth shows.
dense: perfbench's dense workload, `gen.dense(seed, n)`: n promises in 48
    twin classes, whose candidate pairs grow as n**2/96 (n = 2400, 4800,
    9600); `bind` is timed alone as well, and `viewpoint` is not timed.

For each size it prints the median wall time, with the cyclic garbage
collector off as in the CLI, of `load` (parse, lower, validate), `bind`,
`analyze_all` and `viewpoint` (observer A0), each on a document the CLI
accepts. A stage that is linear in its input roughly doubles its time per
doubling of n.

Usage: python scripts/scaling_probe.py [--repeats N] [--seed S]
           [--shape {deep,dense,sparse,wide}]
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from promisegraph import analyze_all, bind, load, viewpoint

SIZES = {"wide": (500, 1000, 2000), "deep": (1000, 2000, 4000),
         "sparse": (4000, 8000, 16000), "dense": (2400, 4800, 9600)}
GENERATED = ("sparse", "dense")  # shapes that perfbench's generators write


def promise_lines(count: int, n: int, scope: str) -> list:
    """Offer/accept pairs between neighbouring agents over seven topics,
    each promise affecting a third agent."""
    lines = []
    for i in range(count // 2):
        k, topic = i % n, "t%d" % (i % 7)
        a, b, c = "A%d" % k, "A%d" % ((k + 1) % n), "A%d" % ((k + 2) % n)
        lines.append("promise o%d from %s to %s scope [%s] { offer %s affects [%s] }"
                     % (i, a, b, scope, topic, c))
        lines.append("promise a%d from %s to %s scope [%s] { accept %s affects [%s] }"
                     % (i, b, a, scope, topic, c))
    return lines


def document(shape: str, n: int, seed: int) -> str:
    if shape in GENERATED:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import gen  # perfbench's document generators; only these shapes need them

        return getattr(gen, shape)(seed, n).text
    lines = ["agent A%d" % i for i in range(n)]
    if shape == "wide":
        lines.append("superagent All { %s }" % ", ".join("A%d" % i for i in range(n)))
        lines += promise_lines(4 * n, n, "All")
    else:
        lines.append("agent Top")
        lines += ["superagent S%d { %sA%d }" % (i, "S%d, " % (i - 1) if i else "", i)
                  for i in range(n)]
        lines += ["promise p%d from Top to S%d { offer t affects [A%d] }" % (i, n - 1, i)
                  for i in range(n)]
    return "\n".join(lines) + "\n"


def median_time(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--repeats", type=int, default=5)
    args.add_argument("--seed", type=int, default=5, help="the generated documents' seed")
    args.add_argument("--shape", choices=sorted(SIZES), action="append")
    options = args.parse_args()
    print("CPython %s, median of %d" % (platform.python_version(), options.repeats))
    print("%-6s %6s %9s %9s %9s %14s %12s"
          % ("shape", "n", "promises", "load_s", "bind_s", "analyze_all_s", "viewpoint_s"))
    gc.disable()
    for shape in options.shape or ("wide", "deep", "sparse", "dense"):
        for n in SIZES[shape]:
            text = document(shape, n, options.seed)
            graph = load(text)
            row = ["%9.3f" % median_time(lambda: load(text), options.repeats)]
            if shape == "sparse":
                row += ["%9s" % "-", "%14s" % "-", "%12s" % "-"]
            else:
                row += ["%9.3f" % median_time(lambda: bind(graph), options.repeats),
                        "%14.3f" % median_time(lambda: analyze_all(graph), options.repeats),
                        "%12s" % "-" if shape == "dense" else
                        "%12.3f" % median_time(lambda: viewpoint(graph, "A0"), options.repeats)]
            print("%-6s %6d %9d %s" % (shape, n, len(graph.promises), " ".join(row)))
            del text, graph
            gc.collect()


if __name__ == "__main__":
    main()
