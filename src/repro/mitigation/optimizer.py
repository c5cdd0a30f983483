"""Mitigation-set optimization (paper Sec. IV-C/D).

"The reasoning framework is then used to narrow the solution space and
identify the best and most cost-effective mitigation solutions for a
given attack scenario."  The core problem: choose a mitigation set that
*blocks* attack/fault scenarios at minimum cost, optionally under a
budget.  Three interchangeable solvers:

* :func:`optimize_asp` — exact, through the ASP engine's weak-constraint
  optimization (the paper's mechanism);
* :func:`optimize_greedy` — the classic ln(n)-approximate weighted
  set-cover heuristic (fast baseline);
* :func:`optimize_exhaustive` — brute force (ground truth for tests).

Observability: :func:`optimize_asp` accepts ``stats=`` (a
:class:`~repro.observability.SolveStats` the underlying solve's
statistics are merged into, with call counts under ``mitigation``) and
``trace=`` (a sink streaming the branch-and-bound ``solver.bound``
events — one per cost improvement).  :func:`optimality_core` explains
*why a plan is optimal*: the minimized unsat core of the tightened cost
bound, i.e. the scenarios whose blocking requirements alone force the
optimal price.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..asp import Control
from ..observability import NULL_SINK, SolveStats, Tracer
from ..observability.metrics import get_registry
from ..provenance import minimize_core
from .costs import risk_weight


class OptimizationError(Exception):
    """Raised for infeasible cover problems or malformed inputs."""


@dataclass
class BlockingProblem:
    """A mitigation-covering problem.

    ``mitigation_costs`` maps mitigation id -> deployment cost;
    ``scenario_blockers`` maps scenario id -> the set of mitigations any
    of which blocks it; ``scenario_risks`` maps scenario id -> O-RA risk
    label (used when prioritizing under a budget).
    """

    mitigation_costs: Dict[str, int] = field(default_factory=dict)
    scenario_blockers: Dict[str, Set[str]] = field(default_factory=dict)
    scenario_risks: Dict[str, str] = field(default_factory=dict)

    def add_mitigation(self, identifier: str, cost: int) -> None:
        self.mitigation_costs[identifier] = cost

    def add_scenario(
        self, identifier: str, blockers: Sequence[str], risk: str = "M"
    ) -> None:
        self.scenario_blockers[identifier] = set(blockers)
        self.scenario_risks[identifier] = risk

    def validate(self) -> None:
        for scenario, blockers in self.scenario_blockers.items():
            unknown = blockers - set(self.mitigation_costs)
            if unknown:
                raise OptimizationError(
                    "scenario %r references unknown mitigations %s"
                    % (scenario, sorted(unknown))
                )

    @property
    def unblockable(self) -> List[str]:
        """Scenarios no mitigation can block (must be accepted risk)."""
        return sorted(
            s for s, blockers in self.scenario_blockers.items() if not blockers
        )


@dataclass(frozen=True)
class MitigationPlan:
    """A chosen mitigation set and its consequences."""

    deployed: FrozenSet[str]
    cost: int
    blocked: FrozenSet[str]
    unblocked: FrozenSet[str]
    residual_risk_weight: int

    @property
    def complete(self) -> bool:
        return not self.unblocked

    def __str__(self) -> str:
        return "deploy {%s} cost=%d blocks %d/%d scenarios" % (
            ", ".join(sorted(self.deployed)),
            self.cost,
            len(self.blocked),
            len(self.blocked) + len(self.unblocked),
        )


def _evaluate(problem: BlockingProblem, deployed: Set[str]) -> MitigationPlan:
    blocked = {
        scenario
        for scenario, blockers in problem.scenario_blockers.items()
        if blockers & deployed
    }
    unblocked = set(problem.scenario_blockers) - blocked
    residual = sum(
        risk_weight(problem.scenario_risks.get(s, "M")) for s in unblocked
    )
    return MitigationPlan(
        frozenset(deployed),
        sum(problem.mitigation_costs[m] for m in deployed),
        frozenset(blocked),
        frozenset(unblocked),
        residual,
    )


# ----------------------------------------------------------------------
# exact: ASP with weak constraints (the paper's mechanism)
# ----------------------------------------------------------------------
def _asp_name(identifier: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() else "_" for ch in identifier.lower()
    )
    if not cleaned or not cleaned[0].isalpha():
        cleaned = "x_" + cleaned
    return cleaned


def _problem_control(
    problem: BlockingProblem,
    trace: Optional[object] = None,
    multishot: bool = False,
) -> Tuple[Control, Dict[str, str], Dict[str, str]]:
    problem.validate()
    control = Control(trace=trace, multishot=multishot)
    names: Dict[str, str] = {}
    forward: Dict[str, str] = {}
    for mitigation in sorted(problem.mitigation_costs):
        name = _asp_name(mitigation)
        while name in names:
            name += "_"
        names[name] = mitigation
        forward[mitigation] = name
    for mitigation, cost in sorted(problem.mitigation_costs.items()):
        name = forward[mitigation]
        control.add("mitigation(%s). cost(%s, %d)." % (name, name, cost))
    scenario_names: Dict[str, str] = {}
    for scenario in sorted(problem.scenario_blockers):
        name = _asp_name(scenario)
        while name in scenario_names.values():
            name += "_"
        scenario_names[scenario] = name
    for scenario, blockers in sorted(problem.scenario_blockers.items()):
        scenario_name = scenario_names[scenario]
        weight = risk_weight(problem.scenario_risks.get(scenario, "M"))
        control.add(
            "scenario(%s). scenario_weight(%s, %d)."
            % (scenario_name, scenario_name, weight)
        )
        for mitigation in sorted(blockers):
            control.add("blocks(%s, %s)." % (forward[mitigation], scenario_name))
    control.add(
        """
        { deploy(M) : mitigation(M) }.
        blocked(S) :- scenario(S), deploy(M), blocks(M, S).
        """
    )
    return control, names, scenario_names


def optimize_asp(
    problem: BlockingProblem,
    budget: Optional[int] = None,
    stats: Optional[SolveStats] = None,
    trace: Optional[object] = None,
) -> MitigationPlan:
    """Exact optimization via ASP weak constraints.

    Without a budget: block every blockable scenario at minimum cost.
    With a budget: total cost must respect it; residual risk weight is
    minimized first, cost second (lexicographic priorities) — the
    "constraint on the mitigation budgets" task of Sec. IV-D.

    ``stats`` receives the solve's statistics tree (merged in place,
    plus an ``mitigation.optimize_calls`` counter); ``trace`` streams
    grounder/solver events including per-improvement ``solver.bound``.
    """
    tracer = Tracer(trace if trace is not None else NULL_SINK)
    get_registry().counter(
        "repro_mitigation_optimize_calls_total",
        "exact ASP mitigation optimizations run",
    ).inc()
    with tracer.span("mitigation.optimize", budget=budget) as span:
        control, names, scenario_names = _problem_control(problem, trace=trace)
        if budget is None:
            for scenario, blockers in problem.scenario_blockers.items():
                if blockers:
                    control.add(
                        ":- not blocked(%s)." % scenario_names[scenario]
                    )
            control.add(":~ deploy(M), cost(M, C). [C@1, M]")
        else:
            control.add(
                ":- #sum { C, M : deploy(M), cost(M, C) } > %d." % budget
            )
            control.add(
                ":~ scenario(S), scenario_weight(S, W), not blocked(S). [W@2, S]"
            )
            control.add(":~ deploy(M), cost(M, C). [C@1, M]")
        models = control.optimize()
        if stats is not None:
            stats.merge(control.statistics)
            stats.incr("mitigation.optimize_calls")
        if not models:
            raise OptimizationError("no feasible mitigation plan")
        deployed = {
            names[str(a.arguments[0])]
            for a in models[0].atoms
            if a.predicate == "deploy"
        }
        plan = _evaluate(problem, deployed)
        span.update(deployed=len(deployed), cost=plan.cost)
    return plan


def optimality_core(
    problem: BlockingProblem,
    cost: int,
    stats: Optional[SolveStats] = None,
    trace: Optional[object] = None,
    minimize: bool = True,
) -> Optional[List[str]]:
    """Why no cheaper plan exists: an unsat core of the tightened bound.

    Asks "block every blockable scenario for strictly less than
    ``cost``" and, when that is unsatisfiable (i.e. ``cost`` is
    optimal), returns the scenario ids whose blocking requirements
    alone already force the price — the proof-carrying answer to "why
    does the optimal plan cost this much".  Returns ``None`` when a
    cheaper plan exists (``cost`` was not optimal).  With ``minimize``
    the core is a MUS: dropping any returned scenario from the
    requirement set admits a sub-``cost`` plan.
    """
    tracer = Tracer(trace if trace is not None else NULL_SINK)
    get_registry().counter(
        "repro_mitigation_optimality_cores_total",
        "optimality unsat-core queries answered",
    ).inc()
    with tracer.span("mitigation.optimality_core", cost=cost) as span:
        control, _names, scenario_names = _problem_control(
            problem, trace=trace, multishot=True
        )
        blockable = sorted(
            scenario
            for scenario, blockers in problem.scenario_blockers.items()
            if blockers
        )
        for scenario in blockable:
            name = scenario_names[scenario]
            control.add(":- require_blocked(%s), not blocked(%s)." % (name, name))
            # externals default false, so assumption subsets relax
            # exactly the dropped scenarios during minimization
            control.add_external("require_blocked", name)
        control.add(":- #sum { C, M : deploy(M), cost(M, C) } > %d." % (cost - 1))
        from ..asp import atom as _atom

        def is_unsat(scenarios: Sequence[str]) -> bool:
            assumptions = [
                (_atom("require_blocked", scenario_names[s]), True)
                for s in scenarios
            ]
            return not control.is_satisfiable(assumptions)

        core: Optional[List[str]] = None
        if is_unsat(blockable):
            reverse = {name: s for s, name in scenario_names.items()}
            core = sorted(
                reverse[str(head.arguments[0])]
                for head, value in control.unsat_core or []
                if value and head.predicate == "require_blocked"
            )
            if minimize:
                core = minimize_core(is_unsat, core)
        if stats is not None:
            stats.merge(control.statistics)
            stats.incr("mitigation.optimality_cores")
        span.update(core=len(core) if core is not None else -1)
    return core


def sweep_budgets(
    problem: BlockingProblem,
    budgets: Sequence[int],
    stats: Optional[SolveStats] = None,
    trace: Optional[object] = None,
) -> Dict[int, MitigationPlan]:
    """The budget-constrained plan for every candidate budget.

    The what-if question behind phased planning: "what does each extra
    unit of budget buy?".  All budgets are solved on one persistent
    multi-shot control — each budget's ``#sum`` cap is guarded by a
    ``budget_active(B)`` external, and the sweep flips one external per
    solve instead of regrounding.  Each plan is as good as
    :func:`optimize_asp` finds at that budget (ties between equally
    optimal deployments may break differently).  Returns budget -> plan,
    duplicates collapsed.
    """
    distinct = sorted(set(budgets))
    control, names, _scenario_names = _problem_control(
        problem, trace=trace, multishot=True
    )
    control.add(
        ":~ scenario(S), scenario_weight(S, W), not blocked(S). [W@2, S]"
    )
    control.add(":~ deploy(M), cost(M, C). [C@1, M]")
    for budget in distinct:
        control.add(
            ":- budget_active(%d), #sum { C, M : deploy(M), cost(M, C) } > %d."
            % (budget, budget)
        )
        control.add_external("budget_active", budget)
    plans: Dict[int, MitigationPlan] = {}
    for budget in distinct:
        for other in distinct:
            control.assign_external("budget_active", other, value=other == budget)
        models = control.optimize()
        if stats is not None:
            stats.incr("mitigation.optimize_calls")
        if not models:
            raise OptimizationError(
                "no feasible mitigation plan within budget %d" % budget
            )
        deployed = {
            names[str(a.arguments[0])]
            for a in models[0].atoms
            if a.predicate == "deploy"
        }
        plans[budget] = _evaluate(problem, deployed)
    if stats is not None:
        stats.merge(control.statistics)
        stats.incr("mitigation.budget_sweeps")
    return plans


# ----------------------------------------------------------------------
# greedy baseline
# ----------------------------------------------------------------------
def optimize_greedy(
    problem: BlockingProblem,
    budget: Optional[int] = None,
) -> MitigationPlan:
    """Weighted set-cover greedy: repeatedly deploy the mitigation with
    the best (newly blocked risk weight) / cost ratio."""
    problem.validate()
    deployed: Set[str] = set()
    remaining = {
        scenario
        for scenario, blockers in problem.scenario_blockers.items()
        if blockers
    }
    spent = 0
    while remaining:
        best_mitigation = None
        best_ratio = 0.0
        for mitigation, cost in problem.mitigation_costs.items():
            if mitigation in deployed:
                continue
            if budget is not None and spent + cost > budget:
                continue
            gain = sum(
                risk_weight(problem.scenario_risks.get(s, "M"))
                for s in remaining
                if mitigation in problem.scenario_blockers[s]
            )
            if cost <= 0:
                ratio = float("inf") if gain > 0 else 0.0
            else:
                ratio = gain / cost
            if ratio > best_ratio:
                best_ratio = ratio
                best_mitigation = mitigation
        if best_mitigation is None:
            break  # nothing affordable helps anymore
        deployed.add(best_mitigation)
        spent += problem.mitigation_costs[best_mitigation]
        remaining = {
            s
            for s in remaining
            if best_mitigation not in problem.scenario_blockers[s]
        }
    plan = _evaluate(problem, deployed)
    if budget is None and set(plan.unblocked) - set(problem.unblockable):
        raise OptimizationError(
            "greedy failed to cover all blockable scenarios"
        )
    return plan


# ----------------------------------------------------------------------
# brute force (ground truth)
# ----------------------------------------------------------------------
def optimize_exhaustive(
    problem: BlockingProblem,
    budget: Optional[int] = None,
) -> MitigationPlan:
    """Enumerate every mitigation subset; exponential, for tests and
    small instances."""
    problem.validate()
    mitigations = sorted(problem.mitigation_costs)
    best: Optional[MitigationPlan] = None
    for size in range(len(mitigations) + 1):
        for combination in itertools.combinations(mitigations, size):
            plan = _evaluate(problem, set(combination))
            if budget is not None and plan.cost > budget:
                continue
            if budget is None and set(plan.unblocked) - set(
                problem.unblockable
            ):
                continue
            key = (plan.residual_risk_weight, plan.cost)
            if best is None or key < (best.residual_risk_weight, best.cost):
                best = plan
    if best is None:
        raise OptimizationError("no feasible mitigation plan")
    return best
