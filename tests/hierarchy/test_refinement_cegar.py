"""Unit tests for asset refinement, threat levels, Fig. 3 and CEGAR."""

import pytest

from repro.casestudy import (
    build_system_model,
    refined_system_model,
    static_requirements,
    workstation_refinement,
)
from repro.epa import EpaEngine, EpaReport, FaultRef, ScenarioOutcome, StaticRequirement
from repro.hierarchy import (
    CegarError,
    HierarchicalEvaluation,
    RefinementError,
    RefinementSpec,
    ThreatLevel,
    aspect_mutations,
    cegar_loop,
    oracle_from_detailed_report,
    refine,
    refinement_children,
    is_refined,
    threat_model,
)
from repro.modeling import ElementType, RelationshipType, SystemModel
from repro.observability import MemoryTraceSink, SolveStats
from repro.security import builtin_catalog


class TestAssetRefinement:
    def test_refined_model_contains_submodel(self):
        refined = refined_system_model()
        for identifier in ("email_client", "browser", "infected_computer"):
            assert refined.has_element(identifier)

    def test_composite_keeps_identity_without_faults(self):
        refined = refined_system_model()
        assert is_refined(refined, "engineering_workstation")
        assert not refined.element("engineering_workstation").properties.get(
            "fault_modes"
        )

    def test_composition_children(self):
        refined = refined_system_model()
        children = refinement_children(refined, "engineering_workstation")
        assert children == ["browser", "email_client", "infected_computer"]

    def test_external_relationships_rewired(self):
        refined = refined_system_model()
        # outgoing flows now leave from the exit component
        targets = {
            r.target for r in refined.outgoing("infected_computer")
        }
        assert "in_valve_controller" in targets
        assert "out_valve_controller" in targets

    def test_original_model_unchanged(self):
        original = build_system_model()
        refine(original, workstation_refinement())
        assert not original.has_element("email_client")

    def test_unknown_target_rejected(self):
        spec = workstation_refinement()
        bad = RefinementSpec("ghost", spec.submodel, spec.entry, spec.exit)
        with pytest.raises(RefinementError):
            refine(build_system_model(), bad)

    def test_bad_boundary_rejected(self):
        spec = workstation_refinement()
        bad = RefinementSpec(spec.target, spec.submodel, "ghost", spec.exit)
        with pytest.raises(RefinementError):
            refine(build_system_model(), bad)

    def test_id_collision_rejected(self):
        submodel = SystemModel("sub")
        submodel.add_element("water_tank", "Clash", ElementType.NODE)
        spec = RefinementSpec(
            "engineering_workstation", submodel, "water_tank", "water_tank"
        )
        with pytest.raises(RefinementError):
            refine(build_system_model(), spec)

    def test_attack_path_through_refined_chain(self):
        """Fig. 4: the infection path E-mail Client -> Browser ->
        Infected Computer -> valve controllers exists after refinement."""
        refined = refined_system_model()
        graph = refined.propagation_graph()
        import networkx as nx

        # the Fig. 4 chain is a real propagation path...
        assert graph.has_edge("email_client", "browser")
        assert graph.has_edge("browser", "infected_computer")
        assert graph.has_edge("infected_computer", "in_valve_controller")
        # ...and the physical process is reachable from the e-mail client
        assert nx.has_path(graph, "email_client", "input_valve")


class TestThreatLevels:
    def test_aspect_mutations_cover_components(self):
        mutations = aspect_mutations(build_system_model())
        components = {m.component for m in mutations}
        assert "water_tank" in components
        aspects = {m.origin for m in mutations}
        assert aspects == {"availability", "reliability", "timeliness", "integrity"}

    def test_level1_has_only_generic_faults(self):
        threats = threat_model(build_system_model(), ThreatLevel.ASPECTS)
        assert all(m.fault.startswith("loss_of_") for m in threats.mutations)

    def test_level2_contains_concrete_faults(self):
        threats = threat_model(
            build_system_model(),
            ThreatLevel.FAULTS_AND_VULNERABILITIES,
            builtin_catalog(),
        )
        pairs = {(m.component, m.fault) for m in threats.mutations}
        assert ("output_valve", "stuck_at_closed") in pairs
        assert any(m.origin_kind == "technique" for m in threats.mutations)

    def test_level3_adds_mitigations(self):
        threats = threat_model(
            build_system_model(), ThreatLevel.MITIGATIONS, builtin_catalog()
        )
        assert threats.mitigations
        assert any("M0917" in ms for ms in threats.mitigations.values())

    def test_level3_requires_catalog(self):
        with pytest.raises(ValueError):
            threat_model(build_system_model(), ThreatLevel.MITIGATIONS)


class TestHierarchicalEvaluation:
    def test_fig3_matrix(self):
        evaluation = HierarchicalEvaluation(
            static_requirements(), builtin_catalog(), max_faults=1
        )
        cells = evaluation.evaluate_matrix(
            build_system_model(), refined_system_model()
        )
        assert [c.focus for c in cells] == [
            "topology-based propagation",
            "detailed propagation analysis",
            "mitigation plan",
        ]
        assert [c.threat_level for c in cells] == [
            ThreatLevel.ASPECTS,
            ThreatLevel.FAULTS_AND_VULNERABILITIES,
            ThreatLevel.MITIGATIONS,
        ]

    def test_topology_finds_hazards_early(self):
        evaluation = HierarchicalEvaluation(
            static_requirements(), max_faults=1
        )
        cell = evaluation.topology_based(build_system_model())
        assert cell.violating_count > 0

    def test_mitigation_plan_cell_has_plan(self):
        evaluation = HierarchicalEvaluation(
            static_requirements(), builtin_catalog(), max_faults=1
        )
        cell = evaluation.mitigation_plan(refined_system_model())
        assert cell.plan is not None

    def test_mitigation_plan_requires_catalog(self):
        evaluation = HierarchicalEvaluation(static_requirements())
        with pytest.raises(ValueError):
            evaluation.mitigation_plan(build_system_model())


def _outcome(faults, violated):
    return ScenarioOutcome(
        frozenset(FaultRef(*f.split(".")) for f in faults),
        frozenset(violated),
        {},
    )


class TestCegarLoop:
    def test_spurious_eliminated_by_refinement(self):
        coarse = EpaReport(
            [_outcome(["a.f"], ["r"]), _outcome(["b.f"], ["r"])], ["r"]
        )
        detailed = EpaReport([_outcome(["a.f"], ["r"])], ["r"])

        oracle = oracle_from_detailed_report(detailed)
        result = cegar_loop(
            analysis=lambda: coarse,
            oracle=oracle,
            refiner=lambda spurious: (lambda: detailed),
        )
        assert result.converged
        assert len(result.confirmed) == 1
        assert result.spurious_eliminated() == 1

    def test_no_spurious_converges_immediately(self):
        report = EpaReport([_outcome(["a.f"], ["r"])], ["r"])
        result = cegar_loop(
            analysis=lambda: report,
            oracle=lambda outcome: True,
            refiner=lambda spurious: None,
        )
        assert result.converged
        assert len(result.iterations) == 1

    def test_refinement_exhausted(self):
        report = EpaReport([_outcome(["a.f"], ["r"])], ["r"])
        result = cegar_loop(
            analysis=lambda: report,
            oracle=lambda outcome: False,
            refiner=lambda spurious: None,
        )
        assert not result.converged
        assert result.confirmed == []

    def test_confirmed_hazards_never_lost(self):
        """The soundness invariant: confirmations accumulate."""
        coarse = EpaReport(
            [_outcome(["a.f"], ["r"]), _outcome(["b.f"], ["r"])], ["r"]
        )
        empty = EpaReport([], ["r"])
        oracle_calls = []

        def oracle(outcome):
            oracle_calls.append(outcome.key())
            return outcome.key() == (("a.f"),)

        result = cegar_loop(
            analysis=lambda: coarse,
            oracle=oracle,
            refiner=lambda spurious: (lambda: empty),
        )
        assert [o.key() for o in result.confirmed] == [("a.f",)]

    def test_classification_partitions_report_in_order(self):
        """Every violating candidate of a real EPA report is classified
        exactly once, in report order."""
        report = EpaEngine(build_system_model(), static_requirements()).analyze(
            max_faults=1
        )
        candidates = report.violating()
        assert len(candidates) > 1
        keep = {o.key() for o in candidates[::2]}
        calls = []

        def oracle(outcome):
            calls.append(outcome.key())
            return outcome.key() in keep

        result = cegar_loop(
            analysis=lambda: report,
            oracle=oracle,
            refiner=lambda spurious: None,
        )
        (iteration,) = result.iterations
        assert calls == [o.key() for o in candidates]
        assert iteration.confirmed == candidates[::2]
        assert iteration.spurious == candidates[1::2]
        assert not result.converged

    def test_stats_and_spans_per_iteration(self):
        coarse = EpaReport(
            [_outcome(["a.f"], ["r"]), _outcome(["b.f"], ["r"])], ["r"]
        )
        detailed = EpaReport([_outcome(["a.f"], ["r"])], ["r"])
        stats = SolveStats()
        sink = MemoryTraceSink()
        result = cegar_loop(
            analysis=lambda: coarse,
            oracle=oracle_from_detailed_report(detailed),
            refiner=lambda spurious: (lambda: detailed),
            stats=stats,
            trace=sink,
        )
        assert result.converged
        assert stats.get_path("cegar.iterations") == 2
        assert stats.get_path("cegar.candidates") == 3
        assert stats.get_path("cegar.confirmed") == 2
        assert stats.get_path("cegar.spurious") == 1
        assert stats.get_path("cegar.converged") == 1
        ends = [
            e.payload
            for e in sink.named("cegar.iteration")
            if e.payload["span"] == "E"
        ]
        assert [e["level"] for e in ends] == [1, 2]
        assert [e["candidates"] for e in ends] == [2, 1]

    def test_max_iterations_validated(self):
        with pytest.raises(CegarError):
            cegar_loop(
                analysis=lambda: EpaReport([], []),
                oracle=lambda o: True,
                refiner=lambda s: None,
                max_iterations=0,
            )

    def test_oracle_from_detailed_report_subset_logic(self):
        detailed = EpaReport([_outcome(["a.f1", "b.f2"], ["r"])], ["r"])
        oracle = oracle_from_detailed_report(detailed)
        # a coarse candidate on {a, b} is confirmed
        assert oracle(_outcome(["a.loss_of_integrity", "b.loss_of_integrity"], ["r"]))
        # a candidate on {c} is spurious
        assert not oracle(_outcome(["c.loss_of_integrity"], ["r"]))
