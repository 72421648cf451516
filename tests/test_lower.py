"""Document-to-graph lowering: defaults, reference checks, and error batching."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promisegraph import parser as ast
from promisegraph.export import to_json
from promisegraph.lexer import KEYWORDS, ParseFailure
from promisegraph.lower import LowerFailure, load, lower
from promisegraph.model import (
    Agent,
    AgentKind,
    Assessment,
    ErrorCode,
    Imposition,
    ImpositionKind,
    Polarity,
    Promise,
    PromiseGraph,
    Provenance,
    StructuralError,
    Superagent,
    Verdict,
    _superagent_cycles,
    validate,
)


def codes(source):
    with pytest.raises(LowerFailure) as exc:
        load(source)
    return [e.code for e in exc.value.errors]


def test_counts_and_declaration_order(clean_toy_source):
    g = load(clean_toy_source)
    assert list(g.agents) == ["Alice", "Bob"]
    assert [p.id for p in g.promises] == ["hello", "hello-back"]
    assert not g.superagents and not g.impositions and not g.assessments


def test_defaults_are_applied():
    g = load(
        "agent A\n"
        "agent B\n"
        "promise p from A to B { offer t }\n"
        'imposition i from A to B { "now" }\n'
        "assessment v by A on p verdict=kept\n"
    )
    assert g.agents["A"].kind is AgentKind.SYSTEM
    promise = g.promises[0]
    assert promise.provenance is Provenance.EXPLICIT
    assert promise.scope == frozenset()
    assert promise.body.text == ""
    assert promise.body.polarity is Polarity.OFFER
    assert g.impositions[0].kind is ImpositionKind.REQUIREMENT
    assert g.assessments[0].verdict is Verdict.KEPT
    assert g.assessments[0].note is None


def test_explicit_enums_survive_lowering():
    g = load(
        "agent A kind=human\n"
        "agent B kind=organization\n"
        "promise p from A to B provenance=imputed { accept t }\n"
        'imposition i from A to B kind=threat { "or else" }\n'
    )
    assert g.agents["A"].kind is AgentKind.HUMAN
    assert g.promises[0].provenance is Provenance.IMPUTED
    assert g.promises[0].body.polarity is Polarity.ACCEPT
    assert g.impositions[0].kind is ImpositionKind.THREAT


def test_assessment_ordinals_follow_declaration_order():
    g = load(
        "agent A\n"
        "agent B\n"
        "promise p from A to B { offer t }\n"
        "assessment first by A on p verdict=kept\n"
        "assessment second by A on p verdict=not-kept\n"
        "assessment third by A on p verdict=indeterminate\n"
    )
    assert [a.ordinal for a in g.assessments] == [0, 1, 2]


def test_unresolved_promisee():
    assert codes("agent A\npromise p from A to Ghost { offer t }\n") == [
        ErrorCode.UNRESOLVED_REFERENCE,
    ]


def test_unresolved_scope_and_affects():
    result = codes(
        "agent A\n"
        "agent B\n"
        "promise p from A to B scope [Ghost] { offer t affects [Phantom] }\n"
    )
    assert result == [ErrorCode.UNRESOLVED_REFERENCE] * 2


def test_duplicate_agent_id():
    assert ErrorCode.DUPLICATE_ID in set(codes("agent A\nagent A\n"))


def test_duplicate_promise_id():
    result = codes(
        "agent A\nagent B\n"
        "promise p from A to B { offer t }\n"
        "promise p from B to A { accept t }\n"
    )
    assert ErrorCode.DUPLICATE_ID in set(result)


def test_namespace_clash_between_agent_and_superagent():
    result = codes("agent X\nagent A\nsuperagent X { A }\n")
    assert ErrorCode.NAMESPACE_CLASH in set(result)


def test_cyclic_superagents():
    result = codes(
        "superagent A { B }\n"
        "superagent B { A }\n"
    )
    assert ErrorCode.CYCLIC_SUPERAGENT in set(result)


def test_self_behalf_is_invalid():
    result = codes(
        "agent A\nagent B\n"
        "promise p from A to B { offer t behalf A }\n"
    )
    assert ErrorCode.INVALID_DECLARATION in set(result)


def test_self_imposition_is_invalid():
    result = codes('agent A\nimposition i from A to A { "do it" }\n')
    assert ErrorCode.INVALID_DECLARATION in set(result)


def test_assessment_target_must_be_a_promise():
    result = codes(
        "agent A\n"
        "assessment v by A on missing verdict=kept\n"
    )
    assert result == [ErrorCode.UNRESOLVED_REFERENCE]


def test_errors_are_batched_and_ordered_by_position():
    source = (
        "agent A\n"
        "promise p from A to Ghost1 { offer t }\n"
        "promise q from Ghost2 to A { offer t }\n"
    )
    with pytest.raises(LowerFailure) as exc:
        load(source)
    errors = exc.value.errors
    assert len(errors) == 2
    starts = [e.span.start for e in errors]
    assert starts == sorted(starts)
    assert "Ghost1" in errors[0].message
    assert "Ghost2" in errors[1].message


def test_promisees_may_name_superagents():
    g = load(
        "agent A\nagent B\n"
        "superagent G { B }\n"
        "promise p from A to G { offer t }\n"
    )
    assert g.promises[0].promisees == frozenset({"G"})


def test_self_behalf_promise_is_still_a_valid_assessment_target():
    # the promise stays in the graph that `validate` checks
    with pytest.raises(LowerFailure) as exc:
        load(
            "agent A\nagent B\n"
            "promise p from A to B { offer t behalf A }\n"
            "assessment v by A on p verdict=kept\n"
        )
    assert [(e.code, e.span.line) for e in exc.value.errors] == [
        (ErrorCode.INVALID_DECLARATION, 3),
    ]


def test_self_behalf_promise_id_still_counts_for_duplicates():
    with pytest.raises(LowerFailure) as exc:
        load(
            "agent A\nagent B\n"
            "promise p from A to B { offer t behalf A }\n"
            "promise p from B to A { accept t }\n"
        )
    assert [(e.code, e.span.line) for e in exc.value.errors] == [
        (ErrorCode.INVALID_DECLARATION, 3),
        (ErrorCode.DUPLICATE_ID, 4),
    ]


def test_self_imposition_id_still_counts_for_duplicates():
    with pytest.raises(LowerFailure) as exc:
        load(
            "agent A\nagent B\n"
            'imposition i from A to A { "x" }\n'
            'imposition i from A to B { "y" }\n'
        )
    assert [(e.code, e.span.line) for e in exc.value.errors] == [
        (ErrorCode.INVALID_DECLARATION, 3),
        (ErrorCode.DUPLICATE_ID, 4),
    ]


def reference_lower_errors(doc):
    """The lowering of the earlier design: a pre-pass repeating the
    reference, duplicate, cycle and self-reference checks over the
    declarations, then the graph built only if it found nothing, then
    `validate`. Returns the errors and the graph (None when there are
    errors)."""
    errors = []

    def err(code, message, span):
        errors.append(StructuralError(code, message, span))

    agent_decls, superagent_decls = {}, {}
    promise_decls, imposition_decls, assessment_decls = {}, {}, {}

    for item in doc.items:
        if isinstance(item, Agent):
            if item.id in agent_decls:
                err(ErrorCode.DUPLICATE_ID, "duplicate agent %r" % item.id, item.span)
            elif item.id in superagent_decls:
                err(ErrorCode.NAMESPACE_CLASH,
                    "%r is already declared as a superagent" % item.id, item.span)
            else:
                agent_decls[item.id] = item
        elif isinstance(item, Superagent):
            if item.id in superagent_decls:
                err(ErrorCode.DUPLICATE_ID, "duplicate superagent %r" % item.id, item.span)
            elif item.id in agent_decls:
                err(ErrorCode.NAMESPACE_CLASH,
                    "%r is already declared as an agent" % item.id, item.span)
            else:
                superagent_decls[item.id] = item
        elif isinstance(item, Promise):
            if item.id in promise_decls:
                err(ErrorCode.DUPLICATE_ID, "duplicate promise %r" % item.id, item.span)
            else:
                promise_decls[item.id] = item
        elif isinstance(item, Imposition):
            if item.id in imposition_decls:
                err(ErrorCode.DUPLICATE_ID, "duplicate imposition %r" % item.id, item.span)
            else:
                imposition_decls[item.id] = item
        elif isinstance(item, Assessment):
            if item.id in assessment_decls:
                err(ErrorCode.DUPLICATE_ID, "duplicate assessment %r" % item.id, item.span)
            else:
                assessment_decls[item.id] = item

    def check_actor(name, context, span):
        if name not in agent_decls and name not in superagent_decls:
            err(ErrorCode.UNRESOLVED_REFERENCE,
                "%s refers to undeclared agent %r" % (context, name), span)

    for decl in superagent_decls.values():
        for member in decl.members:
            check_actor(member, "superagent %r member" % decl.id, decl.span)

    for decl in promise_decls.values():
        context = "promise %r" % decl.id
        check_actor(decl.promiser, context, decl.span)
        for name in decl.promisees:
            check_actor(name, context, decl.span)
        for name in decl.scope:
            check_actor(name, context, decl.span)
        for name in decl.body.affects:
            check_actor(name, context, decl.span)
        if decl.body.behalf_of is not None:
            check_actor(decl.body.behalf_of, context, decl.span)
            if decl.body.behalf_of == decl.promiser:
                err(ErrorCode.INVALID_DECLARATION,
                    "%s is made on behalf of its own promiser" % context, decl.span)

    for decl in imposition_decls.values():
        context = "imposition %r" % decl.id
        check_actor(decl.imposer, context, decl.span)
        check_actor(decl.imposee, context, decl.span)
        if decl.imposer == decl.imposee:
            err(ErrorCode.INVALID_DECLARATION,
                "%s imposes on its own imposer" % context, decl.span)

    for decl in assessment_decls.values():
        check_actor(decl.assessor, "assessment %r" % decl.id, decl.span)
        if decl.target not in promise_decls:
            err(ErrorCode.UNRESOLVED_REFERENCE,
                "assessment %r targets unknown promise %r" % (decl.id, decl.target),
                decl.span)

    provisional = PromiseGraph(agents=agent_decls, superagents=superagent_decls)
    for name in _superagent_cycles(provisional):
        err(ErrorCode.CYCLIC_SUPERAGENT,
            "superagent %r is a member of itself through its membership chain" % name,
            superagent_decls[name].span)

    if errors:
        errors.sort(key=lambda e: e.span.start)
        return errors, None

    assessments = [a._replace(ordinal=i) for i, a in enumerate(assessment_decls.values())]
    graph = PromiseGraph(agent_decls, superagent_decls, tuple(promise_decls.values()),
                         tuple(imposition_decls.values()), tuple(assessments))
    leftover = validate(graph)
    return leftover, (None if leftover else graph)


def random_document(rng):
    """One declaration per line, in random order, with each kind of fault
    planted at a per-document rate (none for about a third of documents):
    dangling names, duplicate ids and names, agent/superagent clashes,
    superagent cycles, self-behalf and self-imposition."""
    rate = rng.choice([0.0, 0.1, 0.3])

    def fault():
        return rng.random() < rate

    def actor(exclude=""):
        return "Ghost" if fault() else rng.choice([n for n in "ABCGH" if n != exclude])

    def actors(lo, hi):
        return ", ".join(actor() for _ in range(rng.randint(lo, hi)))

    def new_id(prefix, used):
        used.append(rng.choice(used) if used and fault() else "%s%d" % (prefix, len(used)))
        return used[-1]

    lines = ["agent A", "agent B", "agent C"]
    for name, other in (("G", "H"), ("H", "G")):
        members = rng.sample("ABC", rng.randint(1, 2))
        members += [n for n in (other, name, "Ghost") if fault()]
        lines.append("superagent %s { %s }" % (name, ", ".join(members)))
    if fault():
        lines.append(rng.choice(["agent A", "agent G", "superagent A { B }",
                                 "superagent G { C }"]))
    promise_ids, imposition_ids, assessment_ids = [], [], []
    for _ in range(rng.randint(0, 4)):
        promiser = actor()
        behalf = ""
        if rng.random() < 0.3:
            behalf = " behalf %s" % (promiser if fault() else actor(exclude=promiser))
        scope = " scope [%s]" % actors(0, 2) if rng.random() < 0.3 else ""
        affects = " affects [%s]" % actors(1, 2) if rng.random() < 0.3 else ""
        lines.append("promise %s from %s to %s%s { %s t%s%s }" % (
            new_id("p", promise_ids), promiser, actors(1, 2), scope,
            rng.choice(["offer", "accept"]), behalf, affects))
    for _ in range(rng.randint(0, 2)):
        imposer = actor()
        imposee = imposer if fault() else actor(exclude=imposer)
        lines.append('imposition %s from %s to %s { "x" }'
                     % (new_id("i", imposition_ids), imposer, imposee))
    for _ in range(rng.randint(0, 2)):
        target = "x" if fault() or not promise_ids else rng.choice(promise_ids)
        lines.append("assessment %s by %s on %s verdict=kept"
                     % (new_id("v", assessment_ids), actor(), target))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_lowering_matches_the_reference_pre_pass():
    rng = random.Random(20261018)
    verdicts = {"accepted": 0, "rejected": 0}
    for _ in range(5000):
        source = random_document(rng)
        doc = ast.parse(source)
        expected_errors, expected_graph = reference_lower_errors(doc)
        try:
            graph = lower(doc)
        except LowerFailure as failure:
            assert expected_errors, source
            flagged = {e.span.line for e in failure.errors}
            expected = {e.span.line for e in expected_errors}
            assert flagged == expected, source
            verdicts["rejected"] += 1
        else:
            assert not expected_errors, source
            assert to_json(graph) == to_json(expected_graph)
            verdicts["accepted"] += 1
    assert min(verdicts.values()) > 0, verdicts


# Whole declarations, words and punctuation, so that arbitrary input also
# reaches the parser and the lowering pass, not just the lexer.
SOUP_STATEMENTS = (
    "agent A", "agent B kind=organization", "superagent G { A, B }", "superagent A { G }",
    "promise p from A to B { offer t }", "promise q from B to A, G scope [] { accept t }",
    "promise p from A to A { offer t behalf A }", "imposition i from A to A kind=threat { \"x\" }",
    "assessment v by A on p verdict=kept", "assessment v by G on q verdict=kept",
)
SOUP_PIECES = (*SOUP_STATEMENTS, *sorted(KEYWORDS), "A", "G", "p", "t", "inferred",
               "=", "{", "}", "[", "]", ",", '"x"', "\n")

arbitrary_sources = st.one_of(
    st.text(),
    st.lists(st.sampled_from(SOUP_STATEMENTS), max_size=12).map("\n".join),
    st.lists(st.one_of(st.sampled_from(SOUP_PIECES), st.text(max_size=3)), max_size=40)
    .map(" ".join),
)


@settings(max_examples=300)
@given(arbitrary_sources)
def test_load_raises_only_parse_or_lower_failure(source):
    try:
        load(source)
    except (ParseFailure, LowerFailure) as failure:
        assert failure.errors
