"""Optimal-scenario queries over the EPA model (paper Sec. IV-D).

The optimization tasks the paper lists are two-sided:

* **attacker view** — "Attack Cost: resources that an attacker must
  expend to successfully attack the system" and "Most efficient attack":
  the cheapest fault/technique combination that still violates a
  requirement;
* **analyst view** — "when searching for the most critical consequence,
  the severity of the faults can be set as cost metrics" (Sec. II-C):
  the most severe scenario a bounded adversary can cause.

Both are single ASP optimization calls over the same joint model the
exhaustive analysis uses — weak constraints on ``active_fault``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..asp import Control
from .engine import EpaEngine, _active_pairs, _requirement_symbol
from .faults import FaultRef
from .results import ScenarioOutcome
from .rules import scenario_choice


class OptimalQueryError(Exception):
    """Raised when a query is infeasible (no scenario can violate)."""


@dataclass(frozen=True)
class OptimalScenario:
    """Result of an optimal-scenario query."""

    outcome: ScenarioOutcome
    objective: int
    #: objective meaning depends on the query: attacker cost or severity

    def __str__(self) -> str:
        return "%s [objective=%d]" % (self.outcome, self.objective)


def _default_costs(engine: EpaEngine) -> Dict[FaultRef, int]:
    """Attack cost defaults: severity-weighted — harder/more protected
    faults cost more to activate (rank 1..5 -> cost)."""
    return {ref: 3 for ref in engine._fault_pairs()}


def _add_attack_program(
    engine: EpaEngine,
    control: Control,
    requirement: str,
    costs: Optional[Mapping[FaultRef, int]],
) -> None:
    """Add the attack program to ``control``: an unbounded fault choice
    whose scenarios violate ``requirement``, each active fault priced by
    ``costs`` (default :func:`_default_costs`) or at 1 without one."""
    if requirement not in {r.name for r in engine.requirements}:
        raise OptimalQueryError("unknown requirement %r" % requirement)
    cost_map = dict(costs) if costs is not None else _default_costs(engine)
    control.add(scenario_choice(0))
    control.add(":- not violated(%s)." % _requirement_symbol(requirement))
    for fault, cost in sorted(cost_map.items(), key=lambda kv: str(kv[0])):
        control.add_fact("attack_cost", fault.component, fault.fault, cost)
    control.add(":~ active_fault(C, F), attack_cost(C, F, W). [W@1, C, F]")
    # faults without a declared cost default to cost 1
    control.add("priced(C, F) :- attack_cost(C, F, _).")
    control.add(":~ active_fault(C, F), not priced(C, F). [1@1, C, F]")


def cheapest_attack(
    engine: EpaEngine,
    requirement: str,
    costs: Optional[Mapping[FaultRef, int]] = None,
    active_mitigations: Mapping[str, Sequence[str]] = (),
) -> OptimalScenario:
    """The minimum-cost fault combination violating ``requirement``.

    ``costs`` maps fault refs to attacker expenditure (defaults to a
    uniform cost); mitigated faults cannot be activated, so deploying a
    mitigation raises (or infinitizes) the real attack cost — exactly
    the trade-off the cost-benefit step balances.
    """
    control = engine._base_control(dict(active_mitigations or {}))
    _add_attack_program(engine, control, requirement, costs)
    models = control.optimize()
    if not models:
        raise OptimalQueryError(
            "no scenario can violate %r under the given mitigations"
            % requirement
        )
    outcome = engine._outcome(models[0], with_paths=True)
    objective = models[0].cost[0][1] if models[0].cost else 0
    return OptimalScenario(outcome, objective)


def most_severe_attack(
    engine: EpaEngine,
    max_faults: int = 1,
    active_mitigations: Mapping[str, Sequence[str]] = (),
) -> OptimalScenario:
    """The worst consequence a bounded adversary can cause.

    Maximizes (requirement magnitude weight summed over violations,
    then the scenario severity rank) subject to at most ``max_faults``
    simultaneous activations — the paper's "most critical consequence"
    query with severity as the cost metric.
    """
    control = engine._base_control(dict(active_mitigations or {}))
    control.add(scenario_choice(max_faults))
    weights = {"VL": 1, "L": 2, "M": 3, "H": 4, "VH": 5}
    for requirement in engine.requirements:
        control.add_fact(
            "req_weight",
            _requirement_symbol(requirement.name),
            weights.get(requirement.magnitude, 3),
        )
    control.add("#maximize { W@2,R : violated(R), req_weight(R, W) }.")
    control.add("#maximize { S@1 : scenario_severity(S) }.")
    models = control.optimize()
    if not models:
        raise OptimalQueryError("model is unsatisfiable")
    outcome = engine._outcome(models[0], with_paths=True)
    violated_weight = sum(
        weights.get(r.magnitude, 3)
        for r in engine.requirements
        if r.name in outcome.violated
    )
    return OptimalScenario(outcome, violated_weight)


def attack_cost_of_mitigation(
    engine: EpaEngine,
    requirement: str,
    mitigation_deployments: Sequence[Mapping[str, Sequence[str]]],
    costs: Optional[Mapping[FaultRef, int]] = None,
) -> Dict[int, Optional[int]]:
    """How much each candidate deployment raises the attacker's bill.

    For each deployment (index -> cheapest attack cost, or ``None`` when
    the requirement becomes unviolatable): the security gain of a
    mitigation is precisely this cost increase (the economic reading of
    "blocking" in Sec. IV-D).

    The whole sweep runs on one persistent multi-shot control:
    deployments are external-atom assignments, so the attack program
    grounds once and every optimization call reuses the same solver.
    Each cost equals the objective of :func:`cheapest_attack` under
    that deployment.
    """
    control = Control(trace=engine._trace, multishot=True)
    control._program.extend(engine._assemble_base_program())
    _add_attack_program(engine, control, requirement, costs)
    for external, _ in engine._choice_index().mitigations.values():
        control.add_external(external)
    results: Dict[int, Optional[int]] = {}
    for index, deployment in enumerate(mitigation_deployments):
        engine._assign_mitigations(control, _active_pairs(deployment))
        models = control.optimize()
        if not models:
            results[index] = None
        else:
            results[index] = models[0].cost[0][1] if models[0].cost else 0
    engine._stats.merge(control.statistics)
    engine._stats.incr("epa.deployment_sweeps")
    return results
