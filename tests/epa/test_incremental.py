"""Differential validation of the incremental EPA engine.

An incremental :class:`~repro.epa.EpaEngine` answers single-scenario
queries as one-cube sweeps on the engine's template, pinning the
deployment's externals and every potential fault; these answers must be
identical to the fresh-control path (``incremental=False``) that
regrounds per call.  Full sweeps take the cube sweep whatever
``incremental`` says — every sweep on the engine's one template, with
the deployment, restriction and bound as assumptions — so one live
engine re-analyzed under a sequence of deployments, bounds and
restrictions must match the CDCL reference enumeration
(:mod:`tests.cdcl_reference`) at every step — on the three-component
chain model, the water-tank case study, and the deployment sweeps of
``epa.optimal``.
"""

import random

import pytest

from benchmarks.test_bench_multishot import MITIGATIONS as TANK_MITIGATIONS
from benchmarks.test_bench_multishot import deployment_grid
from repro.asp.solver import StableModelSolver
from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine, FaultRef, StaticRequirement
from repro.epa.optimal import attack_cost_of_mitigation
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.observability import MemoryTraceSink
from tests.cdcl_reference import cdcl_outcomes
from tests.core.test_parallel import _force_fallback
from tests.epa.test_optimal import fresh_attack_costs

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
            assert ours == fresh.analyze_scenario(faults, deployment)
        # sweeps and point queries share the engine's one scenario-program
        # grounding
        assert len(sink.named("grounder.done")) == 1
        multishot = incremental.statistics["solving"]["multishot"]
        # every sweep and point query after the first sweep
        assert multishot["reground_avoided"] == 2 * len(session) - 1

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
            assert incremental.analyze_scenario(faults) == fresh.analyze_scenario(
                faults
            )
        # every query after the first reused the engine's one template,
        # each finding its one scenario on the projected DFS
        stats = incremental.statistics
        assert stats["solving"]["multishot"]["reground_avoided"] == len(scenarios) - 1
        assert stats["solving"]["models"] == len(scenarios)
        assert stats["epa"]["analyze_calls"] == len(scenarios)
        assert stats["epa"]["parallel"]["fallbacks"] == 0

    def test_analyze_scenario_respects_mitigations(self):
        incremental, fresh = engines()
        deployment = {"s": ("shielding",)}
        faults = (FaultRef("s", "no_signal"),)
        ours = incremental.analyze_scenario(faults, active_mitigations=deployment)
        reference = fresh.analyze_scenario(faults, active_mitigations=deployment)
        # the suppressed fault stays inactive on both paths
        assert ours.key() == reference.key() == ()


class TestOneCubePointQuery:
    """Point queries on the template against the fresh-control path."""

    #: the grid's four components plus the tank's three controllers,
    #: whose ``compromised`` fault hardening does suppress
    COMPONENTS = sorted(
        set(component for deployment in deployment_grid() for component in deployment)
        | {"tank_controller", "in_valve_controller", "out_valve_controller"}
    )

    def queries(self, pairs, count=30, seed=26):
        """Seeded random ``(faults, deployment)`` pairs on the tank:
        1–3 of its fault ``pairs`` under a random hardening deployment,
        ``compromised`` drawn four times as often as the rest so that
        some requested faults are suppressed."""
        rng = random.Random(seed)
        weights = [4 if ref.fault == "compromised" else 1 for ref in pairs]
        return [
            (
                rng.sample(pairs, rng.randint(1, 3), counts=weights),
                {
                    component: ("hardening",)
                    for component in self.COMPONENTS
                    if rng.random() < 0.5
                },
            )
            for _ in range(count)
        ]

    def tank(self, incremental):
        return EpaEngine(
            build_system_model(),
            static_requirements(),
            fault_mitigations=TANK_MITIGATIONS,
            incremental=incremental,
        )

    def check(self):
        ours, fresh = self.tank(True), self.tank(False)
        queries = self.queries(ours._fault_pairs())
        for faults, deployment in queries:
            # full outcomes, propagation paths included
            assert ours.analyze_scenario(faults, deployment) == fresh.analyze_scenario(
                faults, deployment
            )
        return ours, len(queries)

    def test_matches_fresh_controls(self):
        engine, count = self.check()
        assert engine.statistics["epa"]["parallel"]["fallbacks"] == 0
        assert engine.statistics["solving"]["models"] == count

    def test_matches_fresh_controls_on_the_fallback(self, monkeypatch):
        _force_fallback(monkeypatch)
        engine, count = self.check()
        assert engine.statistics["epa"]["parallel"]["fallbacks"] == count

    def test_one_grounding_one_encoding(self, monkeypatch):
        """Sweeps under several deployments and bounds and point queries
        ground and encode the engine's template once; each blocking-core
        bound grounds and encodes its own control once."""
        built = []
        encode = StableModelSolver.__init__

        def counting(solver, *args, **kwargs):
            built.append(solver)
            encode(solver, *args, **kwargs)

        monkeypatch.setattr(StableModelSolver, "__init__", counting)
        sink = MemoryTraceSink()
        engine = EpaEngine(
            chain_model(), REQ, fault_mitigations=MITIGATIONS, trace=sink
        )
        faults = (FaultRef("s", "no_signal"), FaultRef("c", "compromised"))
        deployments = [{}, {"s": ("shielding",)}, {"c": ("hardening",)}, {}]
        for max_faults, deployment in enumerate(deployments):
            engine.analyze(active_mitigations=deployment, max_faults=max_faults)
            engine.analyze_scenario(faults, deployment)
            engine.aggregate(active_mitigations=deployment, max_faults=max_faults)
            engine.analyze_scenario(faults[:1], deployment)
        assert len(sink.named("grounder.done")) == 1
        assert len(built) == 1
        for max_faults in (1, 2, 1):
            engine.blocking_core({"s": ("shielding",)}, max_faults=max_faults)
        assert len(sink.named("grounder.done")) == 1 + 2
        assert len(built) == 1 + 2


class TestWaterTankDifferential:
    """The paper's case study, bounded to keep its 2^22 space at bay."""

    def test_bounded_enumeration(self):
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
        legacy = fresh_attack_costs(legacy_engine, "rv", deployments)
        assert multishot == legacy
        assert set(multishot) == set(range(len(deployments)))

    def test_no_deployments_no_costs(self):
        incremental, fresh = engines()
        assert attack_cost_of_mitigation(incremental, "rv", []) == {}
        assert fresh_attack_costs(fresh, "rv", []) == {}
