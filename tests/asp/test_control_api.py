"""Tests for the Control facade and Python-value conversion."""

import pytest

from repro.asp import Control, atom, to_term
from repro.asp.ground import GroundProgram
from repro.asp.naive import is_model, is_stable_model, stable_models
from repro.asp.terms import Function, Number, String, Symbol
from repro.observability import MemoryTraceSink, format_statistics
from repro.observability.metrics import get_registry


class TestToTerm:
    def test_int(self):
        assert to_term(7) == Number(7)

    def test_negative_int(self):
        assert to_term(-2) == Number(-2)

    def test_bool_becomes_symbol(self):
        assert to_term(True) == Symbol("true")
        assert to_term(False) == Symbol("false")

    def test_identifier_string_becomes_symbol(self):
        assert to_term("water_tank") == Symbol("water_tank")

    def test_non_identifier_string_becomes_string(self):
        assert to_term("Water Tank") == String("Water Tank")
        assert to_term("CVE-2023-1") == String("CVE-2023-1")
        assert to_term("") == String("")

    def test_tuple_becomes_tuple_term(self):
        assert to_term((1, "a")) == Function("", (Number(1), Symbol("a")))

    def test_term_passes_through(self):
        term = Symbol("x")
        assert to_term(term) is term

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            to_term(3.14)


class TestAddFacts:
    def test_add_fact_varargs(self):
        control = Control()
        control.add_fact("level", "tank", 3)
        model = control.first_model()
        assert model.contains(atom("level", "tank", 3))

    def test_add_facts_bulk(self):
        control = Control()
        control.add_facts(
            [("edge", (1, 2)), ("edge", (2, 3)), ("node", ("a",))]
        )
        model = control.first_model()
        assert model.contains(atom("edge", 1, 2))
        assert model.contains(atom("node", "a"))

    def test_facts_join_with_rules(self):
        control = Control("reach(X) :- edge(1, X).")
        control.add_fact("edge", 1, 2)
        model = control.first_model()
        assert model.contains(atom("reach", 2))

    def test_add_invalidates_grounding_cache(self):
        control = Control("a.")
        first = control.ground()
        control.add_fact("b")
        second = control.ground()
        assert second is not first
        assert len(second.possible_atoms) == 2


def ground_observations():
    """Observations of ``repro_stage_seconds{stage="ground"}`` so far."""
    return get_registry().histogram("repro_stage_seconds", stage="ground").count


class TestGroundOnce:
    PROGRAM = """
    component(tank). component(valve).
    fault(leak).
    potential_fault(C, F) :- component(C), fault(F).
    """

    def test_second_ground_returns_the_kept_program(self):
        control = Control(self.PROGRAM)
        before = ground_observations()
        first = control.ground()
        assert control.ground() is first
        assert ground_observations() == before + 1

    def test_every_control_grounds_its_own_program(self):
        earlier = Control(self.PROGRAM).ground()
        before = ground_observations()
        sink = MemoryTraceSink()
        untraced = Control(self.PROGRAM).ground()
        traced = Control(self.PROGRAM, trace=sink).ground()
        assert untraced is not earlier
        assert traced is not untraced
        assert ground_observations() == before + 2
        assert any(event.name == "grounder.done" for event in sink.events)

    def test_format_statistics_shows_the_index_line(self):
        control = Control(self.PROGRAM)
        control.solve()
        assert "Index" in format_statistics(control.statistics)


class TestControlQueries:
    def test_is_satisfiable(self):
        assert Control("{ a }.").is_satisfiable()
        assert not Control("a. :- a.").is_satisfiable()

    def test_first_model_none_on_unsat(self):
        assert Control(":- not a.").first_model() is None

    def test_ground_statistics(self):
        stats = Control("p(1..4). q(X) :- p(X).").ground().statistics()
        assert stats == {"rules": 8, "weak_constraints": 0, "atoms": 8}

    def test_ground_program_renders(self):
        text = str(Control("p(1). q :- p(1), not r. :~ q. [1@1]").ground())
        assert "p(1)." in text
        assert "not r" in text or "q :- p(1)." in text
        assert ":~" in text


class TestNaiveCheckerDirect:
    def test_is_model_and_stability_disagree_on_unfounded(self):
        program = Control("a :- b. b :- a.").ground()
        assert is_model(program, set())  # empty is a classical model
        unfounded = {atom("a"), atom("b")}
        assert is_model(program, set(unfounded))
        assert not is_stable_model(program, set(unfounded))

    def test_stable_models_enumeration(self):
        program = Control("{ a }. b :- a.").ground()
        models = stable_models(program)
        as_strings = {frozenset(str(x) for x in m) for m in models}
        assert as_strings == {frozenset(), frozenset({"a", "b"})}

    def test_constraint_rejects_model(self):
        program = Control("{ a }. :- a.").ground()
        assert not is_stable_model(program, {atom("a")})
        assert is_stable_model(program, set())


#: choice program with a derived atom and a constraint
CHOICE = """
{ p(1..6) } 3.
q :- p(1), p(2).
:- p(5), p(6).
"""


class TestFirstModel:
    """``first_model`` stops after one answer set: the witness must be a
    genuine stable model, and the one plain enumeration yields first."""

    def test_witness_is_stable_model(self):
        control = Control(CHOICE)
        model = control.first_model()
        assert model is not None
        assert is_stable_model(control.ground(), set(model.atoms))

    def test_witness_is_first_enumerated_model(self):
        first = Control(CHOICE).first_model()
        enumerated = Control(CHOICE).solve(limit=1)
        assert [first.atoms] == [m.atoms for m in enumerated]

    def test_unsat_verdict(self):
        control = Control(CHOICE + ":- not impossible.\n")
        assert control.first_model() is None
        assert not control.is_satisfiable()
        assert stable_models(control.ground()) == []

    def test_assumptions_respected(self):
        model = Control(CHOICE).first_model(
            assumptions=[(atom("p", 1), True), (atom("p", 2), True)]
        )
        assert model is not None
        assert atom("q") in model.atoms

    def test_assumptions_can_make_it_unsat(self):
        control = Control(CHOICE)
        assert control.is_satisfiable()
        assert not control.is_satisfiable(
            [(atom("p", 5), True), (atom("p", 6), True)]
        )

    def test_stats_record_one_call_and_one_model(self):
        control = Control(CHOICE)
        control.first_model()
        stats = control.statistics
        assert stats.get_path("summary.calls") == 1
        assert stats.get_path("summary.models.enumerated") == 1
