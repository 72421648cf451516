"""The bundled Boeing 737 Max / MCAS case study.

load_builtin() returns the embedded source, load_graph() the graph it
lowers to, and golden_report_bytes() and golden_public_dot() its pinned
outputs.
"""

from __future__ import annotations

from importlib import resources

from ..lower import load
from ..model import PromiseGraph

CORPUS_FILENAME = "boeing-737max.pml"


def _read(name: str) -> bytes:
    return resources.files(__package__).joinpath(name).read_bytes()


def load_builtin() -> str:
    """The embedded corpus source text."""
    return _read(CORPUS_FILENAME).decode("utf-8")


def load_graph() -> PromiseGraph:
    """The corpus, parsed and lowered."""
    return load(load_builtin())


def golden_report_bytes() -> bytes:
    """Pinned canonical JSON of the full corpus analysis."""
    return _read("golden/report.json")


def golden_public_dot() -> bytes:
    """Pinned DOT rendering of the corpus as the Public sees it."""
    return _read("golden/public-view.dot")
