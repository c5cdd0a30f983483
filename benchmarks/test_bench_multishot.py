"""Benchmarks of the multi-shot mitigation sweeps.

The paper's Sec. IV-D what-if loops — "what does this deployment cost
the attacker?", "what does each extra unit of budget buy?", "what does
the scenario space look like under this deployment?" — issue many
solves over one program.  These benches time the multi-shot paths
(ground once, flip externals per solve); ``run_bench.py`` compares the
medians against the recorded fresh-control-per-query baselines, so the
speedup column in ``BENCH_asp.json`` is the sweep-level win of solver
reuse.  Every bench asserts its ``reground_avoided`` count — a
multi-shot sweep that silently fell back to regrounding would still be
correct, just not the thing being measured.
"""

import itertools
import random

from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine
from repro.epa.optimal import attack_cost_of_mitigation
from repro.mitigation import BlockingProblem, sweep_budgets
from repro.observability import SolveStats
from repro.observability.metrics import get_registry

MITIGATIONS = {"compromised": ("hardening", "user_training")}


def deployment_grid():
    """All 16 hardening subsets over the four cyber-facing components."""
    components = ["plc", "scada", "historian", "hmi"]
    return [
        {c: ("hardening",) for c, bit in zip(components, bits) if bit}
        for bits in itertools.product((0, 1), repeat=len(components))
    ]


def synthetic_problem(mitigations=8, scenarios=20, seed=7):
    rng = random.Random(seed)
    problem = BlockingProblem()
    names = []
    for index in range(mitigations):
        name = "m%02d" % index
        problem.add_mitigation(name, rng.randint(2, 30))
        names.append(name)
    for index in range(scenarios):
        blockers = rng.sample(names, rng.randint(1, 3))
        problem.add_scenario("s%02d" % index, blockers, rng.choice(("L", "M", "H", "VH")))
    return problem


def test_bench_attack_cost_sweep_multishot(benchmark):
    """16 deployments, one persistent attack control (water tank)."""
    deployments = deployment_grid()

    def sweep():
        engine = EpaEngine(
            build_system_model(),
            static_requirements(),
            fault_mitigations=MITIGATIONS,
        )
        costs = attack_cost_of_mitigation(engine, "r1", deployments)
        return engine, costs

    engine, costs = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert set(costs) == set(range(len(deployments)))
    multishot = engine.statistics["solving"]["multishot"]
    assert multishot["reground_avoided"] > 0
    assert multishot["solves"] == len(deployments)


def test_bench_reanalysis_sweep(benchmark):
    """16 full re-analyses at max_faults=2 on one engine (water tank):
    every sweep after the first runs on the engine's sweep template."""
    deployments = deployment_grid()
    groundings = get_registry().histogram("repro_stage_seconds", stage="ground")

    def sweep():
        # a fresh engine per round grounds as a fresh session does
        before = groundings.count
        engine = EpaEngine(
            build_system_model(),
            static_requirements(),
            fault_mitigations=MITIGATIONS,
        )
        reports = [
            engine.analyze(active_mitigations=deployment, max_faults=2)
            for deployment in deployments
        ]
        return engine, reports, groundings.count - before

    engine, reports, grounded = benchmark.pedantic(sweep, rounds=3, iterations=1)
    # the tank's 22 fault modes within two faults; hardening covers no
    # fault the tank declares, so every deployment sees the same space
    assert [len(report) for report in reports] == [254] * len(deployments)
    # one grounding for the session: the template's
    assert grounded == 1
    multishot = engine.statistics["solving"]["multishot"]
    assert multishot["reground_avoided"] == len(deployments) - 1


def test_bench_budget_sweep_multishot(benchmark):
    """8 budgets over one persistent blocking-problem control."""
    problem = synthetic_problem()
    budgets = [10, 20, 30, 40, 60, 80, 120, 160]

    def sweep():
        stats = SolveStats()
        plans = sweep_budgets(problem, budgets, stats=stats)
        return stats, plans

    stats, plans = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert sorted(plans) == sorted(set(budgets))
    # bigger budgets never increase the residual risk
    residuals = [plans[b].residual_risk_weight for b in sorted(plans)]
    assert residuals == sorted(residuals, reverse=True)
    multishot = stats["solving"]["multishot"]
    assert multishot["reground_avoided"] > 0
