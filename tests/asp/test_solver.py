"""Unit tests for the stable-model solver (via the Control facade)."""

import pytest

from repro.asp import Control, atom
from repro.asp.ground import GroundChoice, GroundProgram, GroundRule
from repro.asp.naive import stable_models
from repro.asp.solver import SolverError, StableModelSolver


def answer_sets(text):
    """All answer sets as a set of frozensets of atom strings."""
    return {
        frozenset(str(a) for a in model.atoms)
        for model in Control(text).solve()
    }


class TestBasicSemantics:
    def test_facts_only(self):
        assert answer_sets("a. b.") == {frozenset({"a", "b"})}

    def test_definite_rules(self):
        assert answer_sets("a. b :- a. c :- b.") == {frozenset({"a", "b", "c"})}

    def test_unsatisfiable_constraint(self):
        assert answer_sets("a. :- a.") == set()

    def test_constraint_prunes_models(self):
        sets = answer_sets("{ a }. :- a.")
        assert sets == {frozenset()}

    def test_negation_as_failure(self):
        assert answer_sets("a :- not b.") == {frozenset({"a"})}

    def test_even_negation_loop_two_models(self):
        assert answer_sets("a :- not b. b :- not a.") == {
            frozenset({"a"}),
            frozenset({"b"}),
        }

    def test_odd_negation_loop_unsat(self):
        assert answer_sets("a :- not a.") == set()

    def test_odd_loop_with_escape(self):
        sets = answer_sets("a :- not a. a :- b. b :- not c. c :- not b.")
        assert sets == {frozenset({"a", "b"})}


class TestFoundedness:
    def test_positive_loop_not_self_supporting(self):
        # supported-but-unfounded model {a, b} must be rejected
        assert answer_sets("a :- b. b :- a.") == {frozenset()}

    def test_positive_loop_with_external_support(self):
        sets = answer_sets("a :- b. b :- a. b :- c. c.")
        assert sets == {frozenset({"a", "b", "c"})}

    def test_loop_with_choice_support(self):
        sets = answer_sets("{ c }. a :- b. b :- a. b :- c.")
        assert sets == {frozenset(), frozenset({"a", "b", "c"})}

    def test_reachability_is_founded(self):
        text = """
        edge(1,2). edge(2,3). edge(3,1).
        { start(1) }.
        reach(X) :- start(X).
        reach(Y) :- reach(X), edge(X,Y).
        """
        sets = answer_sets(text)
        with_reach = [s for s in sets if "reach(1)" in s]
        without = [s for s in sets if "reach(1)" not in s]
        assert len(with_reach) == 1 and len(without) == 1
        assert {"reach(1)", "reach(2)", "reach(3)"} <= with_reach[0]

    def test_mutual_recursion_three_atoms(self):
        sets = answer_sets("a :- b. b :- c. c :- a.")
        assert sets == {frozenset()}

    def test_projection_through_a_recursive_aggregate_body(self):
        """The projected DFS reads the same support literals as the CDCL
        search, so a loop whose rule carries an aggregate body is
        checked on the DFS too instead of raising ProjectionIncomplete."""
        program = Control(
            "{ a; b; c }. x(1) :- b. x(2) :- c."
            " p :- q, #count { X : x(X) } >= 1. q :- p. p :- a. q :- c, not b."
        ).ground()
        solver = StableModelSolver(program)
        projected = []

        def on_model(assignment):
            projected.append(
                frozenset(
                    a
                    for a in program.possible_atoms
                    if assignment[solver.atom_var(a)] > 0
                )
            )

        count = solver.project_models([atom("a"), atom("b"), atom("c")], on_model)
        enumerated = {
            frozenset(model.atoms) for model in StableModelSolver(program).models()
        }
        assert count == len(projected) == len(set(projected)) == 8
        assert set(projected) == enumerated == set(stable_models(program))


class TestChoice:
    def test_free_choice_powerset(self):
        sets = answer_sets("{ a; b }.")
        assert sets == {
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        }

    def test_cardinality_lower_bound(self):
        sets = answer_sets("1 { a; b }.")
        assert frozenset() not in sets
        assert len(sets) == 3

    def test_cardinality_exact(self):
        sets = answer_sets("item(x). item(y). item(z). 2 { pick(I) : item(I) } 2.")
        picks = {frozenset(a for a in s if a.startswith("pick")) for s in sets}
        assert len(picks) == 3

    def test_conditional_choice_guarded_by_body(self):
        sets = answer_sets("{ a } :- b.")
        assert sets == {frozenset()}  # b never holds, so a cannot be chosen

    def test_choice_upper_bound_zero(self):
        sets = answer_sets("{ a } 0.")
        assert sets == {frozenset()}


class TestAggregates:
    def test_count_lower(self):
        text = "item(1..3). { s(X) : item(X) }. ok :- #count { X : s(X) } >= 2. :- not ok."
        sets = answer_sets(text)
        assert all(sum(1 for a in s if a.startswith("s(")) >= 2 for a_ in [None] for s in sets)
        assert len(sets) == 4  # C(3,2)+C(3,3)

    def test_count_upper(self):
        text = "item(1..3). { s(X) : item(X) }. :- #count { X : s(X) } >= 2."
        sets = answer_sets(text)
        assert len(sets) == 4  # empty + 3 singletons

    def test_sum_with_negative_weights(self):
        text = """
        { a; b }.
        ok :- #sum { 2 : a; -1 : b } >= 1.
        """
        sets = answer_sets(text)
        ok_sets = {s for s in sets if "ok" in s}
        assert ok_sets == {frozenset({"a", "ok"}), frozenset({"a", "b", "ok"})}

    def test_sum_set_semantics_counts_tuple_once(self):
        # both conditions yield tuple (1,t): weight contributes once
        text = """
        a. b.
        ok :- #sum { 1,t : a; 1,t : b } >= 2.
        """
        sets = answer_sets(text)
        assert sets == {frozenset({"a", "b"})}  # ok must NOT hold

    def test_min_aggregate(self):
        text = """
        v(3). v(5).
        ok :- #min { X : v(X) } >= 3.
        bad :- #min { X : v(X) } >= 4.
        """
        sets = answer_sets(text)
        only = next(iter(sets))
        assert "ok" in only and "bad" not in only

    def test_max_aggregate(self):
        text = """
        v(3). v(5).
        ok :- #max { X : v(X) } >= 4.
        """
        sets = answer_sets(text)
        assert "ok" in next(iter(sets))

    def test_empty_min_is_sup(self):
        # no v/1 atoms: #min over empty set is #sup, so >= bound holds
        text = "{ u }. ok :- #min { X : v(X) } >= 100."
        sets = answer_sets(text)
        assert all("ok" in s for s in sets)

    def test_empty_max_fails_lower_guard(self):
        text = "{ u }. ok :- #max { X : v(X) } >= 0."
        sets = answer_sets(text)
        assert all("ok" not in s for s in sets)

    def test_recursive_aggregate_rejected(self):
        with pytest.raises(SolverError):
            Control("p(1). q(X) :- p(X), #count { Y : q(Y) } >= 0.").solve()


class TestAssumptions:
    def test_assumption_restricts_models(self):
        ctl = Control("{ a; b }.")
        models = ctl.solve(assumptions=[(atom("a"), True)])
        assert all(m.contains(atom("a")) for m in models)
        assert len(models) == 2

    def test_negative_assumption(self):
        ctl = Control("{ a }.")
        models = ctl.solve(assumptions=[(atom("a"), False)])
        assert len(models) == 1
        assert not models[0].contains(atom("a"))

    def test_assumption_on_impossible_atom(self):
        ctl = Control("b.")
        assert ctl.solve(assumptions=[(atom("zzz"), True)]) == []
        assert len(ctl.solve(assumptions=[(atom("zzz"), False)])) == 1


class TestShowAndModelApi:
    def test_show_filters_symbols(self):
        ctl = Control("a. b. #show a/0.")
        model = ctl.first_model()
        assert [str(s) for s in model.symbols()] == ["a"]
        assert len(model.symbols(shown=False)) == 2

    def test_model_contains(self):
        model = Control("p(1).").first_model()
        assert model.contains(atom("p", 1))
        assert not model.contains(atom("p", 2))

    def test_limit(self):
        assert len(Control("{ a; b; c }.").solve(limit=3)) == 3

    def test_brave_and_cautious(self):
        ctl = Control("a. b :- not c. c :- not b.")
        brave = {str(x) for x in ctl.brave_consequences()}
        cautious = {str(x) for x in ctl.cautious_consequences()}
        assert brave == {"a", "b", "c"}
        assert cautious == {"a"}


class TestDeterminism:
    def test_enumeration_is_deterministic(self):
        text = "{ a; b; c }. :- a, b, c."
        first = [sorted(map(str, m.atoms)) for m in Control(text).solve()]
        second = [sorted(map(str, m.atoms)) for m in Control(text).solve()]
        assert first == second


def encoded_variables(program):
    """SAT variables of the encoding: ``true``, one per atom, plus
    auxiliaries."""
    if isinstance(program, str):
        program = Control(program).ground()
    return StableModelSolver(program).statistics["variables"]


class TestEncodingShape:
    """A literal fixed at decision level 0 is implied by the formula,
    so the encoder drops it from every conjunction; an auxiliary
    variable stands only for two or more unfixed literals."""

    def test_fact_in_body_builds_no_auxiliary(self):
        # true, f, x, y, h: with f fixed, `h :- f, x.` is `h :- x.`
        assert encoded_variables("f. { x; y }. h :- f, x.") == 5

    def test_two_unfixed_literals_build_one_auxiliary(self):
        assert encoded_variables("f. { x; y }. h :- f, x, y.") == 6

    def test_body_negating_a_fact_is_false(self):
        # the grounder drops `g :- x, not f.` next to the fact `f.`, so
        # the ground program is built directly
        f, x, g = atom("f"), atom("x"), atom("g")
        program = GroundProgram(
            rules=[
                GroundRule(f),
                GroundRule(GroundChoice(((x, (), ()),))),
                GroundRule(g, pos=(x,), neg=(f,)),
            ],
            possible_atoms=[f, x, g],
        )
        assert encoded_variables(program) == 4
        models = list(StableModelSolver(program).models())
        assert {frozenset(map(str, m.atoms)) for m in models} == {
            frozenset({"f"}),
            frozenset({"f", "x"}),
        }

    def test_unbounded_choice_builds_no_indicators(self):
        assert encoded_variables("{ a; b; c }.") == 4
        # true, x, a, b, c: each element's support is its condition x
        assert encoded_variables("{ x }. { a : x; b : x; c : x }.") == 5

    def test_bounded_choice_still_builds_its_counter(self):
        assert encoded_variables("1 { a; b; c } 2.") > 4
        # three `atom and condition` indicators feed the counter
        assert (
            encoded_variables("{ x }. 1 { a : x; b : x; c : x } 2.")
            > encoded_variables("{ x }. { a : x; b : x; c : x }.") + 3
        )
        assert len(answer_sets("{ x }. 1 { a : x; b : x; c : x } 2.")) == 6

    def test_water_tank_auxiliaries_conjoin_unfixed_literals(self, monkeypatch):
        from repro.casestudy import build_system_model, static_requirements
        from repro.epa import EpaEngine

        program = EpaEngine(
            build_system_model(), static_requirements()
        )._sweep_template().program
        conjoined = []
        conjunction = StableModelSolver._conjunction

        def recording(solver, literals):
            before = solver._sat.num_vars
            literal = conjunction(solver, literals)
            if literal > before:
                conjoined.append(list(literals))
            return literal

        monkeypatch.setattr(StableModelSolver, "_conjunction", recording)
        sat = StableModelSolver(program)._sat
        assert conjoined
        for literals in conjoined:
            unfixed = [l for l in literals if not sat.fixed_at_top(abs(l))]
            assert len(unfixed) >= 2, literals
