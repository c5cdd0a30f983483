"""Differential validation of the indexed grounder.

The grounder keeps a deliberately naive reference join path
(``Grounder(program, indexing=False)``: first-ready literal order, full
extension and delta scans, no skipped pivots, no fact path).  These
tests ground the same programs through both paths and require
identical ground programs — same Herbrand base, same rule multiset,
same weak constraints — on the paper's listings, the water-tank case
study, the refinement engine's sweep template, and hypothesis-generated
random programs.  Any divergence means the argument indexes, the
skipped pivots, the fact path or the selectivity reordering changed
semantics, not just speed.  One more test pins the indexed path's rule
order across hash seeds.
"""

import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import repro
from repro.asp import parse_program
from repro.asp.grounder import Grounder
from repro.casestudy import (
    build_system_model,
    refined_system_model,
    static_requirements,
)
from repro.epa import EpaEngine
from repro.epa.rules import epa_rule_base
from repro.modeling.to_asp import to_asp_program
from repro.security.data import builtin_catalog
from repro.security.mapping import candidate_mutations, mitigations_for_mutation

LISTING_1 = """
component(engineering_workstation). component(hmi).
fault(infected).
mitigation(infected, user_training).
active_mitigation(hmi, user_training).
potential_fault(C, F) :-
    component(C), fault(F),
    mitigation(F, M),
    not active_mitigation(C, M).
"""

LISTING_2 = """
step(1..3).
active_fault(c, stuck_at_x).
prev_component_state(c, 7).
component_state(C, X) :-
    prev_component_state(C, X),
    active_fault(C, stuck_at_x).
"""

RECURSIVE = """
node(1..5).
edge(X, Y) :- node(X), node(Y), Y = X + 1.
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
{ cut(X) : node(X) } 2.
blocked(X, Y) :- path(X, Y), cut(X), not cut(Y).
:- blocked(1, 5).
#minimize { 1, X : cut(X) }.
"""


def _signature(ground):
    """Order-insensitive fingerprint of a ground program."""
    return (
        sorted(str(atom) for atom in ground.possible_atoms),
        sorted(str(ground)[: len(str(ground))].splitlines()),
        sorted(ground.shows),
    )


def assert_same_grounding(text):
    program = parse_program(text)
    indexed = Grounder(program, indexing=True).ground()
    naive = Grounder(parse_program(text), indexing=False).ground()
    assert _signature(indexed) == _signature(naive)
    return indexed, naive


def test_listing_1_matches_naive():
    indexed, naive = assert_same_grounding(LISTING_1)
    rendered = str(indexed)
    assert "potential_fault(engineering_workstation,infected)" in rendered


def test_listing_2_matches_naive():
    indexed, _ = assert_same_grounding(LISTING_2)
    assert any(
        atom.predicate == "component_state"
        for atom in indexed.possible_atoms
    )


def test_recursive_choice_program_matches_naive():
    assert_same_grounding(RECURSIVE)


def test_water_tank_epa_program_matches_naive():
    """The real workload: case-study model facts + the EPA rule base."""
    program = to_asp_program(build_system_model())
    program.extend(parse_program(epa_rule_base()))
    program.extend(
        parse_program("{ active_fault(C, F) : fault_mode(C, F) }.")
    )
    indexed = Grounder(program, indexing=True).ground()
    naive = Grounder(program, indexing=False).ground()
    assert _signature(indexed) == _signature(naive)
    indexed_grounder = Grounder(program, indexing=True)
    indexed_grounder.ground()
    assert indexed_grounder.statistics["index"]["hits"] > 0
    naive_grounder = Grounder(program, indexing=False)
    naive_grounder.ground()
    assert naive_grounder.statistics["index"]["hits"] == 0


def assessment_engine(refined):
    """The EPA engine of ``repro assess`` on the water tank: phase 4's,
    or with ``refined`` phase 5's on the refined model (both built as
    :class:`repro.core.pipeline.AssessmentPipeline` builds them)."""
    catalog = builtin_catalog()
    model = build_system_model()
    fault_mitigations = {}
    for mutation in candidate_mutations(model, catalog):
        applicable = mitigations_for_mutation(catalog, mutation)
        if applicable:
            fault_mitigations[mutation.fault] = tuple(applicable)
    if refined:
        model = refined_system_model()
    return EpaEngine(
        model,
        static_requirements(),
        fault_mitigations=fault_mitigations,
        extra_mutations=tuple(
            mutation
            for mutation in candidate_mutations(model, catalog)
            if mutation.origin_kind != "fault"
        ),
    )


def test_refined_assessment_template_matches_naive():
    """The sweep template of the refinement engine: deployment
    externals, security-born faults and the refined model's facts."""
    program = assessment_engine(refined=True)._incremental_control()._program
    indexed = Grounder(program, indexing=True).ground()
    naive = Grounder(program, indexing=False).ground()
    assert len(indexed.rules) == 882
    assert _signature(indexed) == _signature(naive)


#: prints the water-tank assessment template's ground rules in order
RENDER_TEMPLATE = """
import sys
sys.path.insert(0, %r)
from test_grounder_differential import assessment_engine
program = assessment_engine(refined=False)._sweep_template().program
print("\\n".join(repr(rule) for rule in program.rules))
"""


def test_template_rule_order_ignores_the_hash_seed():
    """Rule order numbers the SAT variables, so it feeds every pinned
    search counter and the checkpoint digest: no set or dict iteration
    order in the grounder may steer it."""
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    renderings = []
    for seed in ("0", "3"):
        environment = dict(os.environ, PYTHONHASHSEED=seed)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, environment.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", RENDER_TEMPLATE % here],
            env=environment,
            capture_output=True,
            text=True,
            check=True,
        )
        renderings.append(completed.stdout.splitlines())
    assert len(renderings[0]) == 724
    assert renderings[0] == renderings[1]


ATOMS = ["p", "q", "r"]

#: fact arguments: plain values, and the forms the indexed grounder's
#: fact path must leave to the general one (intervals, arithmetic,
#: function terms, which are plain only with plain arguments)
FACT_ARGUMENTS = st.one_of(
    st.integers(min_value=1, max_value=4).map(str),
    st.sampled_from(["a", "f(1)", "f(a)", "1..3", "2+1", "5-3", "f(1+1)", "-1"]),
)

#: body-literal arguments: the rule variables, plus constants so that a
#: pivot is probed through a bound argument from the first lookup on
BODY_ARGUMENTS = st.sampled_from(["X", "Y", "X", "Y", "1", "2", "a", "f(1)"])


@st.composite
def random_rule_programs(draw):
    """Small non-ground programs over binary predicates.

    Facts may be duplicated and may carry intervals, arithmetic and
    function terms; rules may be recursive (the head predicate in the
    body), carry constants in body literals and negation; choice rules
    have conditions.  Every rule binds its head variables through
    ``num/1`` or a leading body literal, so every program is safe.
    """
    lines = ["num(1..%d)." % draw(st.integers(min_value=2, max_value=4))]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        predicate = draw(st.sampled_from(ATOMS))
        a, b = draw(FACT_ARGUMENTS), draw(FACT_ARGUMENTS)
        lines.append("%s(%s, %s)." % (predicate, a, b))
        if draw(st.booleans()):
            lines.append(lines[-1])  # a duplicate fact
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        head = draw(st.sampled_from(ATOMS + ["s"]))
        shape = draw(st.sampled_from(["num", "literal", "recursive", "choice"]))
        if shape == "recursive":
            step = draw(st.sampled_from(ATOMS))
            lines.append("%s(X, Z) :- %s(X, Y), %s(Y, Z)." % (head, head, step))
            continue
        if shape == "choice":
            condition = draw(st.sampled_from(ATOMS))
            argument = draw(st.sampled_from(["Y", "1", "a"]))
            lines.append(
                "{ %s(X, %s) : %s(X, %s) } :- num(X)."
                % (head, argument, condition, argument)
            )
            continue
        if shape == "num":
            body = ["num(X)", "num(Y)"]
        else:
            body = ["%s(X, Y)" % draw(st.sampled_from(ATOMS + [head]))]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            predicate = draw(st.sampled_from(ATOMS + [head]))
            body.append(
                "%s(%s, %s)"
                % (predicate, draw(BODY_ARGUMENTS), draw(BODY_ARGUMENTS))
            )
        if draw(st.booleans()):
            negated = draw(st.sampled_from(ATOMS))
            body.append("not %s(X, Y)" % negated)
        lines.append("%s(X, Y) :- %s." % (head, ", ".join(body)))
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(random_rule_programs())
def test_random_programs_match_naive(text):
    assert_same_grounding(text)
