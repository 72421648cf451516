"""The bundled Boeing 737 Max / MCAS case study.

load_builtin() returns the embedded source; golden_findings() the pinned
expected analysis, hardcoded independently of the golden report file so the
two encodings cross-check each other.
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple, Tuple

from ..lower import load
from ..model import PromiseGraph

CORPUS_FILENAME = "boeing-737max.pml"


class GoldenSummary(NamedTuple):
    agent_count: int
    promise_count: int
    imposition_count: int
    assessment_count: int
    findings: Tuple[Tuple[str, Tuple[str, ...]], ...]
    trust_entries: Tuple[Tuple[str, str, float], ...]


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


def golden_findings() -> GoldenSummary:
    """The expected shape of analyze_all over the corpus, pinned by hand."""
    unbound = [
        ("model-continuity", "Boeing"),
        ("mcas-hidden-existence", "Boeing"),
        ("non-antistall", "Boeing"),
        ("pegasus-lineage-questions", "Authors"),
        ("software-problem-reading", "Authors"),
        ("max-minus-thought-experiment", "Authors"),
        ("single-sensor-rationale", "Authors"),
        ("baksteen-false-alarm", "Benno-Baksteen"),
        ("nader-software-patch", "Ralph-Nader"),
        ("nader-fundamental-solution", "Ralph-Nader"),
        ("wendel-rational-alternative", "W-Bradley-Wendel"),
        ("ladkin-no-engineer-blame", "Peter-Ladkin"),
        ("mcas-next-improvements", "Boeing"),
        ("faa-certification-timing", "FAA"),
        ("learning-curve-risks", "Authors"),
        ("b737-maturity-metapromise", "Authors"),
        ("trim-wheel-risk", "Authors"),
        ("mcas-functionality-problem", "Authors"),
        ("aoa2-data-offer", "AOA-2"),
        ("pilot-error-framing", "Boeing"),
        ("no-missed-details-claim", "Boeing"),
    ]

    findings: list = [
        ("behalf-of-violation", ("b737-maturity-metapromise", "Authors", "Boeing")),
        ("single-source-acceptance", ("MCAS", "aoa-reading", "AOA-2")),
    ]
    # warnings interleave by document position: the hiding findings sit at
    # their promises' declarations, between the unbound-offer warnings
    for promise_id, promiser in unbound[:1]:
        findings.append(("unbound-offer", (promise_id, promiser)))
    findings.append(("scope-hiding", ("mcas-hidden-existence", "Pilots")))
    for promise_id, promiser in unbound[1:19]:
        findings.append(("unbound-offer", (promise_id, promiser)))
    findings.append(("scope-hiding", ("mcas-single-sensor-accept", "Pilots")))
    for promise_id, promiser in unbound[19:]:
        findings.append(("unbound-offer", (promise_id, promiser)))
    findings.extend([
        ("imposition-pressure",
         ("Boeing", "southwest-training-penalty", "certification-deadline")),
        ("imposition-pressure",
         ("southwest-training-penalty", "Southwest-Airlines", "Boeing")),
    ])

    return GoldenSummary(
        agent_count=16,
        promise_count=23,
        imposition_count=2,
        assessment_count=3,
        findings=tuple(findings),
        trust_entries=(
            ("Authors", "Benno-Baksteen", 0.2),
            ("Authors", "Boeing", 0.2),
        ),
    )
