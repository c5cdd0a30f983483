"""Mitigation analysis and cost-benefit optimization (paper Sec. IV-C/D).

Mitigation covering problems (block every attack scenario), exact ASP
optimization vs greedy and exhaustive baselines, budget-constrained
multi-phase consolidation planning, and cost-benefit balance sheets.

Exports by paper section
------------------------
Sec. IV-C (mitigation selection as a covering problem)
    :class:`BlockingProblem`, :class:`MitigationPlan`,
    :func:`optimize_asp` (the paper's weak-constraint mechanism; takes
    ``stats=``/``trace=`` observability hooks), :func:`optimize_greedy`,
    :func:`optimize_exhaustive`, :class:`OptimizationError`,
    :func:`optimality_core` (why a plan is optimal: the minimized unsat
    core of the tightened cost bound);
Sec. IV-D (budgets and phased deployment)
    :func:`plan_phases`, :func:`sweep_budgets` (multi-shot what-if over
    candidate budgets), :class:`MultiPhasePlan`,
    :class:`PhasePlan`;
cost models and balance sheets
    :class:`MitigationCost`, :class:`AttackCostModel`,
    :class:`FailureCostModel`, :func:`risk_weight`, :data:`RISK_WEIGHT`,
    :func:`evaluate_plan`, :func:`compare_plans`, :func:`most_efficient`,
    :class:`CostBenefitResult`.
"""

from .costbenefit import (
    CostBenefitResult,
    compare_plans,
    evaluate_plan,
    most_efficient,
)
from .costs import (
    RISK_WEIGHT,
    AttackCostModel,
    FailureCostModel,
    MitigationCost,
    risk_weight,
)
from .optimizer import (
    BlockingProblem,
    MitigationPlan,
    OptimizationError,
    optimality_core,
    optimize_asp,
    optimize_exhaustive,
    optimize_greedy,
    sweep_budgets,
)
from .planning import MultiPhasePlan, PhasePlan, plan_phases

__all__ = [
    "AttackCostModel",
    "BlockingProblem",
    "CostBenefitResult",
    "FailureCostModel",
    "MitigationCost",
    "MitigationPlan",
    "MultiPhasePlan",
    "OptimizationError",
    "PhasePlan",
    "RISK_WEIGHT",
    "compare_plans",
    "evaluate_plan",
    "most_efficient",
    "optimality_core",
    "optimize_asp",
    "optimize_exhaustive",
    "optimize_greedy",
    "plan_phases",
    "risk_weight",
    "sweep_budgets",
]
