"""promisegraph: a modeling language and static analyzer for promise networks.

Parse declarations of agents, promises, impositions, and assessments into
a promise graph; detect structural flaws; compute observer-relative trust;
export viewpoint-filtered graphs and reports.

Public names resolve on first use (PEP 562), so the analysis and export
modules load only when one of their names is read.
"""

import importlib

# The first import of the submodule `lower` binds it here under its own name,
# hiding the function of that name from `__getattr__`; bind the function now.
from .lower import lower

__version__ = "0.1.0"

_NAMES = {
    "analysis": "AnalysisConfig AnalysisReport Binding Finding FindingRule Severity "
                "TrustParams TrustTable analyze_all behalf_violations bind "
                "imposition_pressure polarity_census scope_audit single_source trust unbound",
    "export": "JsonError ReportFormat ViewpointGraph from_json render_report render_trust "
              "to_dot to_json viewpoint",
    "lexer": "ParseError ParseFailure Token TokenKind tokenize",
    "lower": "LowerFailure load lower",
    "model": "Agent AgentKind Assessment Body ErrorCode Imposition ImpositionKind "
             "Polarity Promise PromiseGraph Provenance SourceSpan StructuralError "
             "Superagent Verdict expand_members validate visible_to",
    "parser": "Document parse",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()).union(__all__))

