"""Differential validation of the incremental EPA engine.

An incremental :class:`~repro.epa.EpaEngine` answers single-scenario
queries on one persistent multi-shot control by flipping externals and
assumptions; these answers must be identical to the fresh-control path
(``incremental=False``) that regrounds per call.  Full sweeps take the
cube sweep whatever ``incremental`` says — every sweep on the engine's
one template, with the deployment, restriction and bound as assumptions
— so one live engine re-analyzed under a sequence of deployments,
bounds and restrictions must match the CDCL reference enumeration
(:mod:`tests.cdcl_reference`) at every step — on
the three-component chain model, the water-tank case study, and the
deployment sweeps of ``epa.optimal``.
"""

import pytest

from repro.epa import EpaEngine, FaultRef, StaticRequirement
from repro.epa.optimal import attack_cost_of_mitigation
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.observability import MemoryTraceSink
from tests.cdcl_reference import cdcl_outcomes

REQ = [
    StaticRequirement("rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"),
]

#: chain faults that a (made-up) training mitigation can suppress
MITIGATIONS = {
    "no_signal": ("shielding",),
    "compromised": ("hardening", "monitoring"),
    "stuck_at_open": ("maintenance",),
}


def chain_model():
    """sensor -> controller -> actuator (9 fault modes, 512 scenarios)."""
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


def engines():
    """An incremental engine and its fresh-path twin."""
    incremental = EpaEngine(
        chain_model(), REQ, fault_mitigations=MITIGATIONS, incremental=True
    )
    fresh = EpaEngine(
        chain_model(), REQ, fault_mitigations=MITIGATIONS, incremental=False
    )
    return incremental, fresh


def reference(**kwargs):
    """The CDCL enumeration of the chain's scenario space."""
    return cdcl_outcomes(engines()[1], **kwargs)


class TestChainDifferential:
    @pytest.mark.parametrize("max_faults", [0, 1, 2])
    def test_plain_enumeration(self, max_faults):
        incremental, fresh = engines()
        expected = reference(max_faults=max_faults)
        assert incremental.analyze(max_faults=max_faults).outcomes == expected
        assert fresh.analyze(max_faults=max_faults).outcomes == expected

    def test_deployment_sweep_on_one_engine(self):
        sink = MemoryTraceSink()
        incremental = EpaEngine(
            chain_model(), REQ, fault_mitigations=MITIGATIONS, trace=sink
        )
        _, fresh = engines()
        session = [
            ({}, 2),
            ({"s": ("shielding",)}, 1),
            ({"c": ("hardening",)}, 3),
            ({"s": ("shielding",), "c": ("monitoring",), "v": ("maintenance",)}, 0),
            ({}, 2),  # back to empty: nothing of a deployment lingers
        ]
        faults = (FaultRef("s", "no_signal"), FaultRef("c", "compromised"))
        for deployment, max_faults in session:
            assert incremental.analyze(
                active_mitigations=deployment, max_faults=max_faults
            ).outcomes == reference(
                active_mitigations=deployment, max_faults=max_faults
            )
            ours = incremental.analyze_scenario(faults, deployment)
            theirs = fresh.analyze_scenario(faults, deployment)
            assert (ours.key(), ours.violated) == (theirs.key(), theirs.violated)
        # sweeps and point queries share the engine's one scenario-program
        # grounding (the trace sink bypasses the process-wide ground cache)
        assert len(sink.named("grounder.done")) == 1
        multishot = incremental.statistics["solving"]["multishot"]
        # sweeps after the first plus point queries after the first
        assert multishot["reground_avoided"] == 2 * (len(session) - 1)

    def test_restrict_faults(self):
        incremental, _ = engines()
        restrict = [FaultRef("s", "drift"), FaultRef("c", "crash")]
        assert incremental.analyze(
            restrict_faults=restrict
        ).outcomes == reference(restrict_faults=restrict)
        # the restriction must not leak into the next unrestricted call
        assert len(incremental.analyze(max_faults=1)) == 10

    def test_analyze_scenario(self):
        incremental, fresh = engines()
        scenarios = [
            (),
            (FaultRef("s", "no_signal"),),
            (FaultRef("c", "compromised"), FaultRef("v", "stuck_at_open")),
        ]
        for faults in scenarios:
            ours = incremental.analyze_scenario(faults)
            reference = fresh.analyze_scenario(faults)
            assert ours.key() == reference.key()
            assert ours.violated == reference.violated
        # every query after the first reused the one persistent control
        multishot = incremental.statistics["solving"]["multishot"]
        assert multishot["solves"] == len(scenarios)
        assert multishot["reground_avoided"] == len(scenarios) - 1

    def test_analyze_scenario_respects_mitigations(self):
        incremental, fresh = engines()
        deployment = {"s": ("shielding",)}
        faults = (FaultRef("s", "no_signal"),)
        ours = incremental.analyze_scenario(faults, active_mitigations=deployment)
        reference = fresh.analyze_scenario(faults, active_mitigations=deployment)
        # the suppressed fault stays inactive on both paths
        assert ours.key() == reference.key() == ()


class TestWaterTankDifferential:
    """The paper's case study, bounded to keep its 2^22 space at bay."""

    def test_bounded_enumeration(self):
        from repro.casestudy import build_system_model, static_requirements

        engine = EpaEngine(build_system_model(), static_requirements())
        assert engine.analyze(max_faults=1).outcomes == cdcl_outcomes(
            engine, max_faults=1
        )


class TestAttackCostSweep:
    def test_multishot_matches_fresh(self):
        deployments = [
            {},
            {"s": ("shielding",)},
            {"c": ("hardening",)},
            {"s": ("shielding",), "v": ("maintenance",)},
        ]
        incremental, _ = engines()
        multishot = attack_cost_of_mitigation(incremental, "rv", deployments)
        legacy_engine, _ = engines()
        legacy = attack_cost_of_mitigation(
            legacy_engine, "rv", deployments, multishot=False
        )
        assert multishot == legacy
        assert set(multishot) == set(range(len(deployments)))

    def test_no_deployments_no_costs(self):
        incremental, fresh = engines()
        assert attack_cost_of_mitigation(incremental, "rv", []) == {}
        assert attack_cost_of_mitigation(fresh, "rv", [], multishot=False) == {}
