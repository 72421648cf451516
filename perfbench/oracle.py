"""Output oracles for every command the benchmark times.

No oracle takes promisegraph's own output as its reference. The corpus is
checked byte for byte against the hand-reviewed goldens; generated documents
are checked against what their generator recorded, and against offer/accept
pairs and a maximum matching that this module computes itself.

`check(kind, out)` returns None when `out` is right for the command `kind`,
else a one-line reason; `exit_code(kind)` is the code the command must
return. Every command must also leave stderr empty.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from gen import Document

Pair = Tuple[str, str]


def mirrored_pairs(doc: Document) -> Set[Pair]:
    """(offer id, accept id) for every offer and accept on the same topic
    whose promiser is among the other's promisees."""
    accepts: Dict[Tuple[str, str, str], List[str]] = defaultdict(list)
    for p in doc.promises:
        if p.polarity == "accept":
            for promisee in p.promisees:
                accepts[(p.topic, p.promiser, promisee)].append(p.id)
    pairs: Set[Pair] = set()
    for p in doc.promises:
        if p.polarity == "offer":
            for promisee in p.promisees:
                for accept in accepts.get((p.topic, promisee, p.promiser), ()):
                    pairs.add((p.id, accept))
    return pairs


def max_matching_size(pairs: Iterable[Pair]) -> int:
    """Size of a maximum bipartite matching (augmenting paths, iterative)."""
    adjacency: Dict[str, List[str]] = defaultdict(list)
    for offer, accept in sorted(pairs):
        adjacency[offer].append(accept)
    owner: Dict[str, str] = {}  # accept -> offer matched to it
    size = 0
    for root in adjacency:
        seen: Set[str] = set()
        stack = [(root, iter(adjacency[root]))]
        via: List[str] = []  # via[i] leads from stack[i] to stack[i + 1]
        while stack:
            offer, candidates = stack[-1]
            for accept in candidates:
                if accept in seen:
                    continue
                seen.add(accept)
                if accept not in owner:
                    owner[accept] = offer
                    for i in range(len(via) - 1, -1, -1):
                        owner[via[i]] = stack[i][0]
                    size += 1
                    stack = []
                    break
                via.append(accept)
                stack.append((owner[accept], iter(adjacency[owner[accept]])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()
    return size


def _json(out: str):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, "output is not JSON: %s" % exc


class GeneratedOracle:
    """Checks outputs for a document made by `gen`."""

    def __init__(self, doc: Document):
        self.doc = doc
        self.by_id = {p.id: p for p in doc.promises}
        self.pairs = mirrored_pairs(doc)
        self.matching = max_matching_size(self.pairs)
        self.offers = sum(1 for p in doc.promises if p.polarity == "offer")
        self.accepts = len(doc.promises) - self.offers

    def exit_code(self, kind: str) -> int:
        return self.doc.expect["exit_code"] if kind == "analyze" else 0

    def check(self, kind: str, out: str) -> Optional[str]:
        return getattr(self, "_" + kind)(out)

    def _setup(self, out: str) -> Optional[str]:
        return None if out == "" else "check printed to stdout"

    _check = _setup

    def _analyze(self, out: str) -> Optional[str]:
        report, error = _json(out)
        if error:
            return error
        if sorted(report) != ["bindings", "census", "findings", "trust"]:
            return "report keys %s" % sorted(report)
        offers: Set[str] = set()
        accepts: Set[str] = set()
        for b in report["bindings"]:
            if (b["offer"], b["accept"]) not in self.pairs:
                return "binding %s <-> %s is not a mirrored pair" % (b["offer"], b["accept"])
            if b["topic"] != self.by_id[b["offer"]].topic:
                return "binding %s has topic %r" % (b["offer"], b["topic"])
            if b["offer"] in offers or b["accept"] in accepts:
                return "bindings reuse %s or %s" % (b["offer"], b["accept"])
            offers.add(b["offer"])
            accepts.add(b["accept"])
        if len(offers) != self.matching:
            return "%d bindings, maximum matching is %d" % (len(offers), self.matching)
        rules = Counter(f["rule"] for f in report["findings"])
        threats = sum(1 for f in report["findings"] if f["rule"] == "imposition-pressure"
                      and f["subjects"][0] in self.doc.threat_ids)
        expect = self.doc.expect
        wanted = {
            "behalf-of-violation": (rules["behalf-of-violation"], expect["behalf_violations"]),
            "threats": (threats, expect["threats"]),
            "imposition-pressure": (rules["imposition-pressure"],
                                    expect["threats"] + expect["pressured_agents"]),
            "unbound-offer": (rules["unbound-offer"], self.offers - self.matching),
            "unbound-accept": (rules["unbound-accept"], self.accepts - self.matching),
        }
        for name, (got, want) in wanted.items():
            if got != want:
                return "%d %s findings, expected %d" % (got, name, want)
        return None

    def _export_json(self, out: str) -> Optional[str]:
        graph, error = _json(out)
        if error:
            return error
        if len(graph["promises"]) != self.doc.expect["promises"]:
            return "%d promises exported, expected %d" % (len(graph["promises"]),
                                                          self.doc.expect["promises"])
        if len(graph["agents"]) != self.doc.sizes["agents"]:
            return "%d agents exported" % len(graph["agents"])
        return None

    def _export_view(self, out: str) -> Optional[str]:
        if not (out.startswith("digraph promises {") and out.endswith("}\n")):
            return "not a DOT digraph"
        edges = sum(1 for line in out.splitlines() if " -> " in line)
        if edges != self.doc.expect["view_edges"]:
            return "%d edges in the %s view, expected %d" % (
                edges, self.doc.viewpoint, self.doc.expect["view_edges"])
        return None


class GoldenOracle:
    """Checks outputs for the bundled corpus against its pinned goldens."""

    def __init__(self, source: str, report: bytes, public_dot: bytes):
        self.report = report.decode("utf-8")
        self.public_dot = public_dot.decode("utf-8")
        self.promises = len(re.findall(r"^promise ", source, re.MULTILINE))
        findings = json.loads(self.report)["findings"]
        self.analyze_code = int(any(f["severity"] == "violation" for f in findings))

    def exit_code(self, kind: str) -> int:
        return self.analyze_code if kind == "analyze" else 0

    def check(self, kind: str, out: str) -> Optional[str]:
        if kind in ("setup", "check"):
            return None if out == "" else "check printed to stdout"
        if kind == "analyze":
            return None if out == self.report else "report differs from golden/report.json"
        if kind == "export_view":
            return None if out == self.public_dot else "view differs from golden/public-view.dot"
        graph, error = _json(out)
        if error:
            return error
        if len(graph["promises"]) != self.promises:
            return "%d promises exported, expected %d" % (len(graph["promises"]),
                                                          self.promises)
        return None
