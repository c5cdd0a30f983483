"""Tests for the synthetic fleet generator and the attack-space count.

The fleet generator's contract is *exactness*: everything is a pure
function of the :class:`~repro.security.fleet.FleetSpec` — two builds
of one spec are byte-identical (including through an ArchiMate XML
round trip), and :meth:`~repro.security.fleet.FleetSpec.scenario_count`
predicts the EPA sweep's scenario count analytically.  The companion
differential pins :meth:`AttackScenarioSpace.size` against the real
enumeration across seeded fleet models — the analytic count must agree
with ``sum(1 for _ in scenarios())`` for every seed, actor capability
and chain bound.
"""

import pytest

from repro.modeling import from_xml, to_xml, validate
from repro.security import (
    AttackScenarioSpace,
    FleetSpec,
    ThreatActor,
    build_fleet_model,
    fleet_catalog,
    fleet_engine,
    fleet_fault_mitigations,
    fleet_models,
    fleet_requirements,
)

SMALL = FleetSpec(
    tiers=3,
    components_per_tier=3,
    fault_modes_per_component=2,
    max_faults=2,
)


class TestFleetModel:
    def test_deterministic_generation(self):
        first = to_xml(build_fleet_model(SMALL))
        second = to_xml(build_fleet_model(SMALL))
        assert first == second

    def test_seed_varies_architecture(self):
        pairs = list(fleet_models(SMALL, 3))
        assert [spec.seed for spec, _ in pairs] == [0, 1, 2]
        xmls = {to_xml(model) for _, model in pairs}
        assert len(xmls) == 3

    def test_model_validates_and_roundtrips(self):
        model = build_fleet_model(SMALL)
        assert validate(model).ok
        clone = from_xml(to_xml(model))
        assert to_xml(clone) == to_xml(model)
        assert len(clone.elements) == 9

    def test_entry_tier_is_exposed(self):
        model = build_fleet_model(SMALL)
        for position in range(SMALL.components_per_tier):
            element = model.element("t0_c%d" % position)
            assert element.properties["exposure"] == "public"

    def test_fault_modes_follow_spec(self):
        spec = FleetSpec(fault_modes_per_component=3)
        model = build_fleet_model(spec)
        for identifier in spec.component_ids():
            modes = model.element(identifier).properties["fault_modes"]
            assert [m["name"] for m in modes] == ["fm0", "fm1", "fm2"]

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            build_fleet_model(FleetSpec(tiers=0))


class TestScenarioCounting:
    def test_counting_formula(self):
        assert SMALL.fault_pairs == 18
        # C(18,0) + C(18,1) + C(18,2)
        assert SMALL.scenario_count() == 1 + 18 + 153
        assert SMALL.scenario_count(max_faults=0) == 2 ** 18
        assert SMALL.scenario_count(max_faults=99) == 2 ** 18

    def test_engine_sweep_matches_count(self):
        engine = fleet_engine(SMALL)
        aggregate = engine.aggregate(max_faults=SMALL.max_faults)
        assert aggregate.scenarios == SMALL.scenario_count()

    def test_streamed_fleet_sweep_is_byte_identical(self):
        engine = fleet_engine(SMALL)
        report = engine.analyze(max_faults=SMALL.max_faults)
        magnitudes = {r.name: r.magnitude for r in engine.requirements}
        reference = report.to_aggregate(magnitudes)
        streamed = fleet_engine(SMALL).aggregate(max_faults=SMALL.max_faults)
        assert streamed.dumps() == reference.dumps()


class TestFleetCatalog:
    def test_catalog_has_initial_access_layer(self):
        catalog = fleet_catalog(SMALL)
        entry = [
            t
            for t in catalog.techniques
            if t.identifier.startswith("T9A")
        ]
        assert len(entry) == 3
        assert all(t.difficulty == "L" for t in entry)
        assert all(t.induced_behaviour == "compromised" for t in entry)

    def test_fault_mitigations_cover_all_modes(self):
        mapping = fleet_fault_mitigations(SMALL)
        assert sorted(mapping) == ["fm0", "fm1"]
        catalog = fleet_catalog(SMALL)
        known = {m.identifier for m in catalog.mitigations}
        for mitigations in mapping.values():
            assert set(mitigations) <= known

    def test_requirements_focus_on_physical_tier(self):
        model = build_fleet_model(SMALL)
        requirements = fleet_requirements(SMALL, model)
        assert len(requirements) == SMALL.requirements
        for requirement in requirements:
            assert requirement.focus.startswith(
                "t%d_" % (SMALL.tiers - 1)
            )


class TestAttackSpaceSizeDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_size_matches_enumeration(self, seed):
        spec = FleetSpec(
            seed=seed,
            tiers=3,
            components_per_tier=3,
            fault_modes_per_component=2,
        )
        space = AttackScenarioSpace(
            build_fleet_model(spec),
            fleet_catalog(spec),
            actors=(
                ThreatActor("apt", "H"),
                ThreatActor("script_kiddie", "L"),
            ),
            max_chain=3,
        )
        assert space.size() == sum(1 for _ in space.scenarios())

    def test_size_respects_chain_bound(self):
        model = build_fleet_model(SMALL)
        catalog = fleet_catalog(SMALL)
        for bound in (1, 2, 4):
            space = AttackScenarioSpace(model, catalog, max_chain=bound)
            assert space.size() == sum(1 for _ in space.scenarios())

    def test_empty_space_when_no_entry(self):
        spec = FleetSpec(tiers=2, components_per_tier=2)
        model = build_fleet_model(spec)
        # a catalog without the grafted initial-access layer has no
        # entry points -> zero scenarios, analytically and enumerated
        from repro.security import synthetic_catalog

        bare = synthetic_catalog(seed=spec.seed)
        space = AttackScenarioSpace(model, bare)
        assert space.size() == 0
        assert sum(1 for _ in space.scenarios()) == 0
