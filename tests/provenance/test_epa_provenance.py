"""Provenance surfaced through the EPA engine and the optimizer.

Blocking cores (which mitigations a violation-free result rests on),
proof-backed scenario explanations, and optimality cores (why no
cheaper plan exists) — each verified against an independent oracle:
``analyze()`` sweeps for the EPA cores, ``optimize_asp`` for the
optimizer cores.
"""

import pytest

from benchmarks.test_bench_multishot import MITIGATIONS as TANK_MITIGATIONS
from benchmarks.test_bench_multishot import deployment_grid
from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine, FaultRef, StaticRequirement, scenario_proof
from repro.mitigation import BlockingProblem, optimality_core, optimize_asp
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.observability import SolveStats
from repro.provenance import assert_well_founded


def chain_model():
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
]


def shielded_engine():
    """Every fault mode covered by its own shield mitigation."""
    bare = EpaEngine(chain_model(), REQ)
    fault_modes = sorted({ref.fault for ref in bare._fault_pairs()})
    mitigations = {fault: ("shield_%s" % fault,) for fault in fault_modes}
    return EpaEngine(chain_model(), REQ, fault_mitigations=mitigations)


def full_deployment(engine):
    deployment = {}
    for ref in engine._fault_pairs():
        deployment.setdefault(ref.component, set()).add(
            "shield_%s" % ref.fault
        )
    return {c: sorted(ms) for c, ms in deployment.items()}


class TestBlockingCore:
    def test_none_when_violations_remain(self):
        engine = shielded_engine()
        assert engine.blocking_core({}) is None

    def test_core_blocks_and_is_minimal(self):
        engine = shielded_engine()
        deployment = full_deployment(engine)
        core = engine.blocking_core(deployment)
        assert core is not None and core
        deployed = {
            (component, mitigation)
            for component, mitigations in deployment.items()
            for mitigation in mitigations
        }
        assert set(core) <= deployed

        def as_deployment(pairs):
            result = {}
            for component, mitigation in pairs:
                result.setdefault(component, []).append(mitigation)
            return result

        # oracle: the core alone keeps every scenario safe...
        report = engine.analyze(active_mitigations=as_deployment(core))
        assert all(outcome.is_safe for outcome in report.outcomes)
        # ...and dropping any element re-admits a violation (MUS)
        for index in range(len(core)):
            rest = core[:index] + core[index + 1 :]
            report = engine.analyze(
                active_mitigations=as_deployment(rest)
            )
            assert any(not o.is_safe for o in report.outcomes)

    def test_core_queries_leave_analysis_controls_untouched(self):
        engine = shielded_engine()
        baseline = engine.analyze(max_faults=1)
        engine.blocking_core(full_deployment(engine))
        again = engine.analyze(max_faults=1)
        assert [o.key() for o in again.outcomes] == [
            o.key() for o in baseline.outcomes
        ]


def one_shield_short(engine):
    """The full shield deployment, then each variant one shield short:
    some still block every violation (a core), some do not (``None``)."""
    full = full_deployment(engine)
    pairs = [(c, m) for c, ms in full.items() for m in ms]
    variants = [full]
    for dropped in pairs:
        variant = {}
        for component, mitigation in pairs:
            if (component, mitigation) != dropped:
                variant.setdefault(component, []).append(mitigation)
        variants.append(variant)
    return variants


def tank_engine():
    return EpaEngine(
        build_system_model(),
        static_requirements(),
        fault_mitigations=TANK_MITIGATIONS,
    )


class TestLongCoreSession:
    """Every probe of a blocking core is a first-model solve on the
    bound's persistent control, which records no clause and takes no
    guard variable — so a long what-if session's core control keeps
    the size of its first call, and its answers stay a fresh engine's."""

    @pytest.mark.parametrize(
        "build, deployments",
        [
            (tank_engine, deployment_grid),
            (shielded_engine, lambda: one_shield_short(shielded_engine())),
        ],
        ids=["tank-grid", "shielded-chain"],
    )
    def test_core_control_does_not_grow(self, build, deployments):
        deployments = deployments()
        fresh = [build().blocking_core(d, max_faults=2) for d in deployments]
        engine = build()
        calls = 512
        answers = []
        variables = []
        for call in range(calls):
            deployment = deployments[call % len(deployments)]
            answers.append(engine.blocking_core(deployment, max_faults=2))
            control = engine._core_controls[2]
            variables.append(control.statistics["solving"]["variables"])
        assert variables == [variables[0]] * calls
        assert answers == [fresh[call % len(deployments)] for call in range(calls)]


class TestScenarioProof:
    def test_why_violation_bottoms_out_in_chosen_fault(self):
        engine = EpaEngine(chain_model(), REQ)
        proof = scenario_proof(engine, [FaultRef("s", "stuck_at_value")])
        violations = proof.violations()
        assert [str(a) for a in violations] == ["violated(rv)"]
        root = proof.why(violations[0])
        assert_well_founded(root)
        kinds = {node.kind for node in _walk(root)}
        assert "choice" in kinds and "fact" in kinds
        text = proof.why_text("violated(rv)")
        assert "active_fault(s,stuck_at_value)" in text
        assert "via" in text  # origins rendered

    def test_why_not_on_safe_scenario(self):
        engine = EpaEngine(chain_model(), REQ)
        proof = scenario_proof(engine, [])
        assert proof.violations() == []
        answer = proof.why_not("violated(rv)")
        assert answer.known
        assert "absent" in proof.why_not_text("violated(rv)")

    def test_prove_scenario_method_delegates(self):
        engine = EpaEngine(chain_model(), REQ)
        proof = engine.prove_scenario([FaultRef("s", "stuck_at_value")])
        assert proof.why("violated(rv)").atom.predicate == "violated"

    def test_mitigated_scenario_has_no_violation(self):
        engine = shielded_engine()
        deployment = {"s": ["shield_stuck_at_value"]}
        proof = engine.prove_scenario(
            [FaultRef("s", "stuck_at_value")], deployment
        )
        # the fault is suppressed: it never activates, nothing violates
        assert proof.violations() == []
        answer = proof.why_not("active_fault(s, stuck_at_value)")
        assert answer.known


class TestOptimalityCore:
    def test_core_names_the_forcing_scenarios(self):
        problem = BlockingProblem()
        problem.add_mitigation("m1", 3)
        problem.add_mitigation("m2", 2)
        problem.add_mitigation("m3", 5)
        problem.add_scenario("s1", ["m1"])
        problem.add_scenario("s2", ["m2"])
        problem.add_scenario("s3", ["m1", "m3"])  # free given m1
        plan = optimize_asp(problem)
        core = optimality_core(problem, plan.cost)
        assert core == ["s1", "s2"]

    def test_stats_record_the_query(self):
        problem = BlockingProblem()
        problem.add_mitigation("m1", 3)
        problem.add_mitigation("m2", 2)
        problem.add_scenario("s1", ["m1"])
        problem.add_scenario("s2", ["m2"])
        stats = SolveStats()
        core = optimality_core(problem, optimize_asp(problem).cost, stats=stats)
        assert core == ["s1", "s2"]
        assert stats.get_path("mitigation.optimality_cores") == 1
        # the bound check plus one deletion trial per core scenario
        assert stats.get_path("summary.calls") >= 1 + len(core)

    def test_none_when_cost_not_optimal(self):
        problem = BlockingProblem()
        problem.add_mitigation("m1", 1)
        problem.add_scenario("s1", ["m1"])
        assert optimality_core(problem, 2) is None

    def test_mus_against_relaxed_problems(self):
        problem = BlockingProblem()
        problem.add_mitigation("cheap", 1)
        problem.add_mitigation("costly", 4)
        problem.add_scenario("easy", ["cheap", "costly"])
        problem.add_scenario("hard", ["costly"])
        plan = optimize_asp(problem)
        core = optimality_core(problem, plan.cost)
        assert core is not None
        # oracle: dropping any core scenario admits a cheaper plan
        for scenario in core:
            relaxed = BlockingProblem()
            relaxed.mitigation_costs = dict(problem.mitigation_costs)
            relaxed.scenario_blockers = {
                s: set(b)
                for s, b in problem.scenario_blockers.items()
                if s != scenario
            }
            relaxed.scenario_risks = dict(problem.scenario_risks)
            assert optimize_asp(relaxed).cost < plan.cost


def _walk(root):
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children)
