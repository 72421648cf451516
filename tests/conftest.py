"""Shared fixtures: tiny documents and a seeded random graph builder, and a
report hook that keeps a failing hypothesis test readable under `-W error`.

The generator constructs graphs through the model layer directly (not via
source text) so property tests cover shapes the corpus never exercises.
Every generated graph is checked against validate() before use.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import sys
import warnings
from typing import List, Optional, Sequence

import pytest

from promisegraph.model import (
    Agent,
    AgentKind,
    Assessment,
    Body,
    Imposition,
    ImpositionKind,
    Polarity,
    Promise,
    PromiseGraph,
    Provenance,
    SourceSpan,
    Superagent,
    Verdict,
    validate,
)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """On a failing test hypothesis's plugin imports its patch writer, whose
    libcst import warns (DeprecationWarning); `-W error` would turn that into
    an INTERNALERROR that hides the failure. Import it first with that one
    warning ignored. Without libcst there is nothing to import."""
    failed = call.excinfo is not None and not call.excinfo.errisinstance(pytest.skip.Exception)
    if not failed or "hypothesis.extra._patching" in sys.modules:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass


GEN_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def load_gen():
    """perfbench's document generators; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


AGENT_NAMES = ["Alpha", "Bravo", "Carol", "Delta", "Echo", "Foxtrot"]
GROUP_NAMES = ["Group1", "Group2"]
TOPICS = ["telemetry", "greeting", "payment"]


CLEAN_TOY = """\
agent Alice kind=human
agent Bob kind=human

promise hello from Alice to Bob {
    offer greeting "a friendly wave"
}
promise hello-back from Bob to Alice {
    accept greeting
}
"""

AOA_TOY = """\
# Two redundant sensors feed one consumer, which listens to only one.
agent Left-Sensor kind=hardware
agent Right-Sensor kind=hardware
agent Consumer kind=software

promise left-feed from Left-Sensor to Consumer {
    offer telemetry
}
promise right-feed from Right-Sensor to Consumer {
    offer telemetry
}
promise single-tap from Consumer to Left-Sensor {
    accept telemetry
}
"""

BROKEN_TOY = """\
agent Alice kind=human
promise dangling from Alice to {
    offer greeting
"""


def _span(i: int) -> SourceSpan:
    return SourceSpan(i * 100, i * 100 + 50, i + 1, 1)


def make_random_graph(rng: random.Random, max_promises: int = 8,
                      max_agents: int = 5, with_superagents: bool = True,
                      with_impositions: bool = True,
                      with_assessments: bool = True,
                      topics: Sequence[str] = TOPICS) -> PromiseGraph:
    """A structurally valid graph with randomized shape, its promises on
    `topics`."""
    counter = [0]

    def next_span() -> SourceSpan:
        counter[0] += 1
        return _span(counter[0])

    agent_count = rng.randint(1, max_agents)
    agents = {}
    for name in AGENT_NAMES[:agent_count]:
        agents[name] = Agent(name, rng.choice(list(AgentKind)), next_span())

    superagents = {}
    actors: List[str] = list(agents)
    if with_superagents and agent_count >= 2:
        for name in GROUP_NAMES[:rng.randint(0, 2)]:
            # members drawn from already-declared actors keeps it acyclic
            members = frozenset(rng.sample(actors, rng.randint(1, min(3, len(actors)))))
            superagents[name] = Superagent(name, members, next_span())
            actors.append(name)

    def some_actors(lo: int, hi: int) -> frozenset:
        k = rng.randint(lo, min(hi, len(actors)))
        return frozenset(rng.sample(actors, k))

    promises = []
    for i in range(rng.randint(0, max_promises)):
        promiser = rng.choice(actors)
        promisees = some_actors(1, 2)
        behalf: Optional[str] = None
        if rng.random() < 0.15:
            others = [a for a in actors if a != promiser]
            if others:
                behalf = rng.choice(others)
        body = Body(
            polarity=rng.choice([Polarity.OFFER, Polarity.ACCEPT]),
            topic=rng.choice(topics),
            text=rng.choice(["", "free text"]),
            behalf_of=behalf,
            affects=some_actors(0, 2) if rng.random() < 0.4 else frozenset(),
            condition="only sometimes" if rng.random() < 0.2 else None,
        )
        promises.append(Promise(
            id="p%d" % i,
            promiser=promiser,
            promisees=promisees,
            body=body,
            scope=some_actors(0, 2) if rng.random() < 0.4 else frozenset(),
            provenance=rng.choice(list(Provenance)),
            span=next_span(),
        ))

    impositions = []
    if with_impositions and len(actors) >= 2:
        for i in range(rng.randint(0, 3)):
            imposer, imposee = rng.sample(actors, 2)
            impositions.append(Imposition(
                id="i%d" % i,
                imposer=imposer,
                imposee=imposee,
                kind=rng.choice(list(ImpositionKind)),
                text="do the thing",
                span=next_span(),
            ))

    assessments = []
    if with_assessments and promises:
        for i in range(rng.randint(0, 3)):
            assessments.append(Assessment(
                id="a%d" % i,
                assessor=rng.choice(list(agents)),
                target=rng.choice(promises).id,
                verdict=rng.choice(list(Verdict)),
                note="observed" if rng.random() < 0.3 else None,
                ordinal=i,
                span=next_span(),
            ))

    graph = PromiseGraph(
        agents=agents,
        superagents=superagents,
        promises=tuple(promises),
        impositions=tuple(impositions),
        assessments=tuple(assessments),
    )
    problems = validate(graph)
    assert not problems, problems
    return graph


@pytest.fixture
def clean_toy_source() -> str:
    return CLEAN_TOY


@pytest.fixture
def aoa_toy_source() -> str:
    return AOA_TOY


@pytest.fixture
def broken_toy_source() -> str:
    return BROKEN_TOY
