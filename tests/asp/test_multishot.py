"""Differential validation of multi-shot solving.

A multi-shot :class:`~repro.asp.Control` grounds once and answers many
queries by flipping external atoms, reusing one solver (learnt clauses,
phase saving, watch lists) across solves.  These tests require every
query answered that way to be *identical* to a fresh single-shot
control built for the same assignment — on the paper's Listing 1
program, hand-written programs, and hypothesis-generated random
programs.  Any divergence means solver reuse leaked state (a blocking
clause or optimum pin that outlived its solve), not just saved time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp import Control, atom

LISTING_1 = """
component(engineering_workstation). component(hmi).
fault(infected).
mitigation(infected, user_training).
potential_fault(C, F) :-
    component(C), fault(F),
    mitigation(F, M),
    not active_mitigation(C, M).
"""


def model_sets(models):
    """Order-insensitive fingerprint of an enumeration."""
    return sorted(
        sorted(str(atom) for atom in model.atoms) for model in models
    )


def fresh_models(text, true_externals):
    """The single-shot baseline: externals become plain facts."""
    control = Control(text)
    for external in true_externals:
        control.add("%s." % external)
    return model_sets(control.solve())


class TestExternals:
    def test_add_external_defaults_to_false(self):
        control = Control("a :- e.", multishot=True)
        control.add_external("e")
        models = control.solve()
        assert model_sets(models) == [[]]

    def test_assign_external_flips_models(self):
        control = Control("a :- e.", multishot=True)
        control.add_external("e")
        control.assign_external("e", value=True)
        assert model_sets(control.solve()) == [["a", "e"]]
        control.assign_external("e", value=False)
        assert model_sets(control.solve()) == [[]]

    def test_assign_undeclared_external_rejected(self):
        control = Control("a.", multishot=True)
        try:
            control.assign_external("ghost", value=True)
        except ValueError:
            pass
        else:
            raise AssertionError("undeclared external accepted")

    def test_free_external_enumerates_both_values(self):
        control = Control("a :- e.", multishot=True)
        control.add_external("e")
        control.assign_external("e", value=None)
        assert model_sets(control.solve()) == [[], ["a", "e"]]

    def test_redeclaring_external_is_idempotent(self):
        control = Control("a :- e.", multishot=True)
        control.add_external("e")
        control.add_external("e")
        control.assign_external("e", value=True)
        assert model_sets(control.solve()) == [["a", "e"]]


class TestListing1:
    """The paper's Listing 1 with mitigation deployment as an external."""

    def deployments(self):
        return [
            (),
            (("hmi", "user_training"),),
            (("engineering_workstation", "user_training"),),
            (("hmi", "user_training"), ("engineering_workstation", "user_training")),
            (),  # return to the empty deployment: full retraction
        ]

    def test_sweep_matches_fresh_controls(self):
        control = Control(LISTING_1, multishot=True)
        for component in ("engineering_workstation", "hmi"):
            control.add_external("active_mitigation", component, "user_training")
        for deployment in self.deployments():
            deployed = set(deployment)
            for component in ("engineering_workstation", "hmi"):
                control.assign_external(
                    "active_mitigation",
                    component,
                    "user_training",
                    value=(component, "user_training") in deployed,
                )
            expected = fresh_models(
                LISTING_1,
                [
                    "active_mitigation(%s, %s)" % pair
                    for pair in sorted(deployed)
                ],
            )
            assert model_sets(control.solve()) == expected

    def test_sweep_reuses_ground_program_and_solver(self):
        control = Control(LISTING_1, multishot=True)
        control.add_external("active_mitigation", "hmi", "user_training")
        for value in (False, True, False, True):
            control.assign_external(
                "active_mitigation", "hmi", "user_training", value=value
            )
            control.solve()
        multishot = control.statistics["solving"]["multishot"]
        assert multishot["solves"] == 4
        assert multishot["reground_avoided"] == 3


class TestRetraction:
    """Per-solve clauses must not survive into the next solve."""

    CHOICES = "{ a }. { b }. c :- a, b."

    def test_repeated_enumeration_is_complete(self):
        control = Control(self.CHOICES, multishot=True)
        first = model_sets(control.solve())
        second = model_sets(control.solve())
        assert len(first) == 4
        assert first == second

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 5])
    def test_limited_solve_does_not_poison_the_next(self, limit):
        control = Control(self.CHOICES, multishot=True)
        assert len(control.solve(limit=limit)) == min(limit, 4)
        assert model_sets(control.solve()) == model_sets(
            Control(self.CHOICES).solve()
        )

    def test_first_model_probes_take_no_guard(self):
        """A one-model call records no blocking clause, so it needs no
        guard variable: a persistent solver's variable count stays at
        its encoding's however many probes it answers."""
        control = Control(self.CHOICES, multishot=True)
        control.first_model()
        variables = control.statistics["solving"]["variables"]
        for _ in range(50):
            assert control.is_satisfiable([(atom("c"), True)])
            assert control.first_model([(atom("a"), False)]) is not None
            assert not control.is_satisfiable(
                [(atom("c"), True), (atom("b"), False)]
            )
        assert control.statistics["solving"]["variables"] == variables
        assert len(control.solve()) == 4
        # an enumeration past one model still takes its guard
        assert control.statistics["solving"]["variables"] == variables + 1

    def test_assumptions_do_not_persist(self):
        control = Control(self.CHOICES, multishot=True)
        pinned = control.solve(assumptions=[(atom("a"), True)])
        assert pinned
        assert all("a" in atoms for atoms in model_sets(pinned))
        assert len(control.solve()) == 4

    def test_optimize_then_enumerate(self):
        control = Control(
            self.CHOICES + " #minimize { 1, a : a; 1, b : b }.",
            multishot=True,
        )
        best = control.optimize()
        assert best and best[0].cost == ((0, 0),)
        # the optimum pin and improvement clauses must all be retracted
        assert len(control.solve()) == 4
        # and the optimum must be rediscoverable from scratch
        again = control.optimize()
        assert again and again[0].cost == ((0, 0),)


class TestSolveIter:
    def test_solve_iter_streams_all_models(self):
        control = Control("{ a }. { b }.", multishot=True)
        streamed = model_sets(list(control.solve_iter()))
        assert streamed == model_sets(control.solve())

    def test_solve_iter_early_stop_keeps_control_usable(self):
        control = Control("{ a }. { b }.", multishot=True)
        iterator = control.solve_iter()
        next(iterator)
        iterator.close()
        assert len(control.solve()) == 4

    def test_first_model_and_is_satisfiable(self):
        control = Control("{ a }. :- not a.", multishot=True)
        model = control.first_model()
        assert model is not None and "a" in {str(x) for x in model.atoms}
        assert control.is_satisfiable()
        assert not control.is_satisfiable(assumptions=[(atom("a"), False)])
        # the UNSAT probe was assumption-scoped, not permanent
        assert control.is_satisfiable()


@st.composite
def random_external_programs(draw):
    """Random programs over two externals plus a random query schedule."""
    lines = []
    heads = ["p", "q", "r"]
    n_rules = draw(st.integers(min_value=1, max_value=4))
    for _ in range(n_rules):
        head = draw(st.sampled_from(heads))
        body = []
        for literal in ("e1", "e2", draw(st.sampled_from(heads))):
            if draw(st.booleans()):
                body.append(
                    "not %s" % literal if draw(st.booleans()) else literal
                )
        if head not in body:
            lines.append(
                "%s :- %s." % (head, ", ".join(body)) if body else "%s." % head
            )
    if draw(st.booleans()):
        lines.append("{ %s }." % draw(st.sampled_from(heads)))
    schedule = draw(
        st.lists(
            st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=4
        )
    )
    return "\n".join(lines), schedule


@settings(max_examples=40, deadline=None)
@given(random_external_programs())
def test_random_programs_match_fresh_controls(case):
    text, schedule = case
    control = Control(text, multishot=True)
    control.add_external("e1")
    control.add_external("e2")
    for e1, e2 in schedule:
        control.assign_external("e1", value=e1)
        control.assign_external("e2", value=e2)
        expected = fresh_models(
            text, [name for name, on in (("e1", e1), ("e2", e2)) if on]
        )
        assert model_sets(control.solve()) == expected
