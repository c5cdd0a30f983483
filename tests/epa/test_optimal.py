"""Unit tests for the optimal-scenario queries (Sec. IV-D)."""

import pytest

from repro.epa import (
    EpaEngine,
    FaultRef,
    OptimalQueryError,
    StaticRequirement,
    attack_cost_of_mitigation,
    cheapest_attack,
    most_severe_attack,
)
from repro.modeling import RelationshipType, SystemModel, standard_cps_library


def chain():
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


REQ = [
    StaticRequirement(
        "rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"
    ),
    StaticRequirement(
        "ro", "err(v, omission)", focus="v", magnitude="L"
    ),
]


def engine(**kwargs):
    return EpaEngine(chain(), REQ, **kwargs)


def fresh_attack_costs(engine, requirement, deployments, costs=None):
    """The fresh-control reference for :func:`attack_cost_of_mitigation`:
    one :func:`cheapest_attack` per deployment, ``None`` when none
    exists."""
    results = {}
    for index, deployment in enumerate(deployments):
        try:
            results[index] = cheapest_attack(
                engine, requirement, costs, deployment
            ).objective
        except OptimalQueryError:
            results[index] = None
    return results


class TestCheapestAttack:
    def test_minimizes_declared_costs(self):
        costs = {
            FaultRef("s", "stuck_at_value"): 10,
            FaultRef("s", "drift"): 2,
            FaultRef("c", "wrong_output"): 10,
            FaultRef("c", "compromised"): 10,
            FaultRef("v", "stuck_at_open"): 10,
            FaultRef("v", "stuck_at_closed"): 10,
            FaultRef("v", "slow_response"): 10,
        }
        result = cheapest_attack(engine(), "rv", costs)
        assert result.objective == 2
        assert FaultRef("s", "drift") in result.outcome.active_faults

    def test_single_fault_suffices(self):
        result = cheapest_attack(engine(), "rv")
        assert result.outcome.fault_count == 1
        assert result.outcome.violates("rv")

    def test_unknown_requirement_rejected(self):
        with pytest.raises(OptimalQueryError):
            cheapest_attack(engine(), "nonexistent")

    def test_mitigation_changes_the_optimum(self):
        costs = self._full_costs(default=5)
        costs[FaultRef("c", "compromised")] = 1  # the cheap path
        eng = engine(fault_mitigations={"compromised": ("edr",)})
        unprotected = cheapest_attack(eng, "rv", costs)
        assert unprotected.objective == 1
        protected = cheapest_attack(
            eng, "rv", costs, active_mitigations={"c": ("edr",)}
        )
        assert protected.objective > 1

    @staticmethod
    def _full_costs(default=5):
        return {
            FaultRef(component, fault): default
            for component, faults in (
                ("s", ("no_signal", "stuck_at_value", "drift")),
                ("c", ("crash", "wrong_output", "compromised")),
                ("v", ("stuck_at_open", "stuck_at_closed", "slow_response")),
            )
            for fault in faults
        }

    def test_infeasible_when_everything_mitigated(self):
        """A single fully-masked target: no attack can violate."""
        library = standard_cps_library()
        model = SystemModel("m")
        library.instantiate(model, "filter", "f")
        library.instantiate(model, "actuator", "v")
        model.add_relationship("f", "v", RelationshipType.FLOW)
        eng = EpaEngine(
            model,
            [StaticRequirement("rv", "err(v, K), hazardous_kind(K)", focus="v")],
            fault_mitigations={
                "stuck_at_open": ("m",),
                "stuck_at_closed": ("m",),
                "slow_response": ("m",),
            },
        )
        with pytest.raises(OptimalQueryError):
            cheapest_attack(
                eng,
                "rv",
                active_mitigations={"v": ("m",)},
            )

    def test_undeclared_costs_default_to_one(self):
        result = cheapest_attack(engine(), "rv", costs={})
        assert result.objective == 1


class TestMostSevereAttack:
    def test_prefers_high_magnitude_requirement(self):
        result = most_severe_attack(engine(), max_faults=1)
        # violating rv (VH) dominates violating ro (L)
        assert result.outcome.violates("rv")

    def test_respects_fault_bound(self):
        result = most_severe_attack(engine(), max_faults=1)
        assert result.outcome.fault_count <= 1

    def test_two_faults_can_do_more(self):
        single = most_severe_attack(engine(), max_faults=1)
        double = most_severe_attack(engine(), max_faults=2)
        assert double.objective >= single.objective
        # with two faults both requirements fall (value + omission)
        assert double.outcome.violates("rv")
        assert double.outcome.violates("ro")


class TestAttackCostOfMitigation:
    def test_costs_reported_per_deployment(self):
        costs = TestCheapestAttack._full_costs(default=7)
        costs[FaultRef("c", "compromised")] = 1
        eng = engine(fault_mitigations={"compromised": ("edr",)})
        results = attack_cost_of_mitigation(
            eng,
            "rv",
            [{}, {"c": ("edr",)}],
            costs,
        )
        assert results[0] == 1
        assert results[1] is not None and results[1] > 1

    def test_returning_to_a_deployment_reads_the_same(self):
        # one control serves the whole sweep: switching the mitigation
        # back off must restore the unprotected optimum exactly
        costs = TestCheapestAttack._full_costs(default=7)
        costs[FaultRef("c", "compromised")] = 1
        deployments = [{}, {"c": ("edr",)}, {}, {"c": ("edr",)}]
        eng = engine(fault_mitigations={"compromised": ("edr",)})
        results = attack_cost_of_mitigation(eng, "rv", deployments, costs)
        assert results[0] == results[2] == 1
        assert results[1] == results[3] > 1
        fresh = fresh_attack_costs(
            engine(fault_mitigations={"compromised": ("edr",)}),
            "rv",
            deployments,
            costs,
        )
        assert results == fresh
