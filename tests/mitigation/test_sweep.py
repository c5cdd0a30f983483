"""Differential tests for the multi-shot budget sweep.

:func:`~repro.mitigation.sweep_budgets` answers every candidate budget
on one persistent control by flipping a ``budget_active`` external per
solve.  The fresh baseline is a loop of
:func:`~repro.mitigation.optimize_asp` calls.  The two paths may break
ties between equally-optimal deployments differently, so the bar is
*objective* equality — same residual risk weight and same cost at every
budget — plus feasibility of each plan.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mitigation import (
    BlockingProblem,
    OptimizationError,
    optimize_asp,
    sweep_budgets,
)
from repro.observability import SolveStats


def cover_problem():
    problem = BlockingProblem()
    problem.add_mitigation("m1", 4)
    problem.add_mitigation("m2", 3)
    problem.add_mitigation("m3", 2)
    problem.add_scenario("s1", ["m1"], "H")
    problem.add_scenario("s2", ["m1", "m2"], "M")
    problem.add_scenario("s3", ["m2", "m3"], "VH")
    return problem


def fresh_loop(problem, budgets):
    """The fresh-control reference: one :func:`optimize_asp` per budget."""
    return {budget: optimize_asp(problem, budget) for budget in sorted(set(budgets))}


def objectives(plans):
    return {
        budget: (plan.residual_risk_weight, plan.cost)
        for budget, plan in plans.items()
    }


def assert_feasible(problem, plans):
    for budget, plan in plans.items():
        assert plan.cost <= budget
        assert plan.deployed <= set(problem.mitigation_costs)
        # blocked/unblocked must be consistent with the deployment
        for scenario, blockers in problem.scenario_blockers.items():
            expected = bool(blockers & plan.deployed)
            assert (scenario in plan.blocked) == expected


class TestBudgetSweep:
    BUDGETS = [0, 2, 5, 7, 100]

    def test_multishot_matches_fresh_loop(self):
        problem = cover_problem()
        multishot = sweep_budgets(problem, self.BUDGETS)
        fresh = fresh_loop(problem, self.BUDGETS)
        assert objectives(multishot) == objectives(fresh)
        assert_feasible(problem, multishot)
        assert_feasible(problem, fresh)

    def test_each_budget_unaffected_by_the_others(self):
        # the persistent control guards every cap with its own external:
        # a budget solved alongside others reads as if solved alone
        problem = cover_problem()
        together = objectives(sweep_budgets(problem, self.BUDGETS))
        for budget in self.BUDGETS:
            alone = objectives(sweep_budgets(problem, [budget]))
            assert alone == {budget: together[budget]}

    def test_no_budgets_no_plans(self):
        assert sweep_budgets(cover_problem(), []) == {}
        assert fresh_loop(cover_problem(), []) == {}

    def test_duplicate_budgets_collapse(self):
        plans = sweep_budgets(cover_problem(), [5, 5, 5, 2])
        assert sorted(plans) == [2, 5]

    def test_unconstrained_budget_matches_optimize_asp(self):
        problem = cover_problem()
        unconstrained = optimize_asp(problem)
        swept = sweep_budgets(problem, [100])[100]
        assert swept.residual_risk_weight == unconstrained.residual_risk_weight
        assert swept.cost == unconstrained.cost

    def test_sweep_records_multishot_stats(self):
        stats = SolveStats()
        sweep_budgets(cover_problem(), self.BUDGETS, stats=stats)
        assert stats["mitigation"]["budget_sweeps"] == 1
        multishot = stats["solving"]["multishot"]
        assert multishot["solves"] == len(set(self.BUDGETS))
        assert multishot["reground_avoided"] == len(set(self.BUDGETS)) - 1

    def test_validation_errors_still_raise(self):
        problem = BlockingProblem()
        problem.add_scenario("s1", ["ghost"])
        with pytest.raises(OptimizationError):
            sweep_budgets(problem, [1, 2])


@st.composite
def random_problems(draw):
    n_mitigations = draw(st.integers(min_value=1, max_value=4))
    names = ["m%d" % i for i in range(n_mitigations)]
    problem = BlockingProblem()
    for name in names:
        problem.add_mitigation(
            name, draw(st.integers(min_value=1, max_value=5))
        )
    n_scenarios = draw(st.integers(min_value=1, max_value=4))
    for index in range(n_scenarios):
        blockers = draw(
            st.lists(st.sampled_from(names), unique=True, max_size=n_mitigations)
        )
        risk = draw(st.sampled_from(["VL", "L", "M", "H", "VH"]))
        problem.add_scenario("s%d" % index, blockers, risk)
    budgets = draw(
        st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=3
        )
    )
    return problem, budgets


@settings(max_examples=25, deadline=None)
@given(random_problems())
def test_random_sweeps_match_fresh_loop(case):
    problem, budgets = case
    multishot = sweep_budgets(problem, budgets)
    fresh = fresh_loop(problem, budgets)
    assert objectives(multishot) == objectives(fresh)
    assert_feasible(problem, multishot)
