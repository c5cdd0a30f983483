"""The engine's choice index and its memoized propagation paths.

An :class:`~repro.epa.EpaEngine` derives its fault and mitigation
universe — every fault pair with its ``active_fault`` atom and covering
mitigations, every ``active_mitigation`` external with its declared id —
once, and every sweep, point query and blocking core reads it from
there.  These tests pin that contract three ways: a warm engine builds
no atom and recomputes no shortest path; the choice space a deployment
and a restriction leave equals the per-call derivation the index
replaced (kept below as the reference), in order; and the memoized
propagation paths equal a fresh ``nx.shortest_path`` recomputation.
The projection order fixes the cube layout, aggregate bytes and checkpoint
digests, so CI also runs this module under fixed hash seeds.
"""

import random

import networkx
import pytest

import repro.epa.engine as engine_module
from benchmarks.test_bench_multishot import MITIGATIONS, deployment_grid
from repro.asp import atom
from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine, FaultRef, StaticRequirement
from repro.epa.engine import _active_pairs, _mitigation_symbol
from repro.epa.results import PropagationStep
from tests.core.test_parallel import _fleet, _security_tank
from tests.provenance.test_epa_provenance import REQ, chain_model

#: the tank's declared fault pairs, in model order
TANK_FAULTS = [
    ("water_tank", "leak"),
    ("level_sensor", "no_signal"),
    ("level_sensor", "stuck_at_value"),
    ("level_sensor", "drift"),
    ("tank_controller", "crash"),
    ("tank_controller", "wrong_output"),
    ("tank_controller", "compromised"),
    ("in_valve_controller", "crash"),
    ("in_valve_controller", "wrong_output"),
    ("in_valve_controller", "compromised"),
    ("out_valve_controller", "crash"),
    ("out_valve_controller", "wrong_output"),
    ("out_valve_controller", "compromised"),
    ("input_valve", "stuck_at_open"),
    ("input_valve", "stuck_at_closed"),
    ("input_valve", "slow_response"),
    ("output_valve", "stuck_at_open"),
    ("output_valve", "stuck_at_closed"),
    ("output_valve", "slow_response"),
    ("hmi", "no_signal"),
    ("hmi", "stale_display"),
    ("engineering_workstation", "infected"),
]


def tank(**options):
    return EpaEngine(
        build_system_model(),
        static_requirements(),
        fault_mitigations=MITIGATIONS,
        **options
    )


def symbol_tank():
    """The tank with mitigation ids that need ``_mitigation_symbol``,
    one declared for a component the tank does not have."""
    return EpaEngine(
        build_system_model(),
        static_requirements(),
        fault_mitigations={"compromised": ("hardening",), "crash": ("M1030",)},
        component_mitigations={
            ("tank_controller", "compromised"): ("M0917", "user-training"),
            ("hmi", "no_signal"): ("M0917",),
            ("plc", "compromised"): ("user-training",),
        },
    )


# ----------------------------------------------------------------------
# the per-call derivation the index replaced, kept as the reference
# ----------------------------------------------------------------------
def reference_fault_pairs(engine):
    pairs = []
    seen = set()
    for element in engine.model.elements:
        for fault in element.properties.get("fault_modes", []) or []:
            ref = FaultRef(element.identifier, fault["name"])
            if ref not in seen:
                seen.add(ref)
                pairs.append(ref)
    for mutation in engine.extra_mutations:
        ref = FaultRef(mutation.component, mutation.fault)
        if ref not in seen:
            seen.add(ref)
            pairs.append(ref)
    return pairs


def reference_relevant_mitigations(engine):
    names = {}
    for ref in reference_fault_pairs(engine):
        for mitigation in engine.fault_mitigations.get(ref.fault, ()):
            names.setdefault(
                (ref.component, _mitigation_symbol(mitigation)), mitigation
            )
    for (component, _fault), mitigations in sorted(
        engine.component_mitigations.items()
    ):
        for mitigation in mitigations:
            names.setdefault((component, _mitigation_symbol(mitigation)), mitigation)
    return names


def reference_potential_faults(engine, active_mitigations):
    active = _active_pairs(active_mitigations)
    potential = []
    for ref in reference_fault_pairs(engine):
        covering = {
            _mitigation_symbol(m) for m in engine.fault_mitigations.get(ref.fault, ())
        }
        covering.update(
            _mitigation_symbol(m)
            for m in engine.component_mitigations.get((ref.component, ref.fault), ())
        )
        if not any((ref.component, m) in active for m in covering):
            potential.append(ref)
    return potential


def reference_choice_space(engine, deployment, restrict):
    choices = reference_potential_faults(engine, deployment)
    project = [atom("active_fault", ref.component, ref.fault) for ref in choices]
    chosen = _active_pairs(deployment)
    assumptions = [
        (
            atom("active_mitigation", component, mitigation),
            (component, mitigation) in chosen,
        )
        for component, mitigation in reference_relevant_mitigations(engine)
    ]
    if restrict is None:
        return project, assumptions, project
    allowed = {(f.component, f.fault) for f in restrict}
    free = []
    for ref, choice_atom in zip(choices, project):
        if (ref.component, ref.fault) in allowed:
            free.append(choice_atom)
        else:
            assumptions.append((choice_atom, False))
    return project, assumptions, free


def deployments(engine, rng, count=12):
    """The 16 grid deployments plus ``count`` seeded ones over the
    engine's own mitigation components and ids, an undeclared component
    and an undeclared id among them."""
    names = reference_relevant_mitigations(engine)
    components = sorted({component for component, _ in names} | {"plc"})
    ids = sorted(set(names.values()) | {"firewall"})
    seeded = [
        {
            component: tuple(rng.sample(ids, rng.randint(1, len(ids))))
            for component in components
            if rng.random() < 0.5
        }
        for _ in range(count)
    ]
    return deployment_grid() + seeded


def restrictions(engine, deployment, rng):
    """``None``, empty, and seeded subsets of the fault pairs that mix
    suppressed faults and refs the engine does not declare."""
    pairs = reference_fault_pairs(engine)
    potential = set(reference_potential_faults(engine, deployment))
    suppressed = [ref for ref in pairs if ref not in potential]
    undeclared = [
        FaultRef("nowhere", "nothing"),
        FaultRef(pairs[0].component, "undeclared"),
    ]
    subsets = [None, []]
    for _ in range(3):
        subset = rng.sample(pairs, rng.randint(1, len(pairs)))
        subset += rng.sample(suppressed, min(len(suppressed), 2))
        subset += undeclared[: rng.randint(0, 2)]
        rng.shuffle(subset)
        subsets.append(subset)
    return subsets


ENGINES = {
    "tank": tank,
    "symbol-tank": symbol_tank,
    "security-tank": _security_tank,
    "fleet": _fleet,
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_choice_space_matches_the_per_call_derivation(name):
    engine = ENGINES[name]()
    rng = random.Random(28)
    assert engine._fault_pairs() == reference_fault_pairs(engine)
    mitigations = engine._choice_index().mitigations
    assert list(mitigations) == list(reference_relevant_mitigations(engine))
    assert {pair: declared for pair, (_, declared) in mitigations.items()} == (
        reference_relevant_mitigations(engine)
    )
    for deployment in deployments(engine, rng):
        for restrict in restrictions(engine, deployment, rng):
            assert engine._choice_space(deployment, restrict) == (
                reference_choice_space(engine, deployment, restrict)
            )


def test_tank_projection_is_the_declared_fault_order():
    """Pinned, not derived: the projection order fixes the cube layout,
    so it must not depend on the hash seed."""
    engine = tank()
    deployment = {
        "tank_controller": ("hardening",),
        "out_valve_controller": ("user_training",),
    }
    suppressed = {
        ("tank_controller", "compromised"),
        ("out_valve_controller", "compromised"),
    }
    project, _, free = engine._choice_space(deployment, None)
    expected = [
        atom("active_fault", *pair) for pair in TANK_FAULTS if pair not in suppressed
    ]
    assert project == free == expected


def test_blocking_core_names_the_declared_ids():
    """Core externals map back to the ids the deployment declared."""
    bare = EpaEngine(chain_model(), REQ)
    faults = sorted({ref.fault for ref in bare._fault_pairs()})
    engine = EpaEngine(
        chain_model(), REQ, fault_mitigations={f: ("Shield-%s" % f,) for f in faults}
    )
    deployment = {}
    for ref in engine._fault_pairs():
        deployment.setdefault(ref.component, []).append("Shield-%s" % ref.fault)
    core = engine.blocking_core(deployment)
    deployed = {(c, m) for c, ms in deployment.items() for m in ms}
    assert core and set(core) <= deployed


def test_warm_engine_builds_no_atom_and_memoizes_paths(monkeypatch):
    engine = tank()
    engine.analyze(max_faults=2)
    atoms = []
    sources = []
    build_atom = engine_module.atom
    shortest_path = networkx.shortest_path

    def counting_atom(*args):
        atoms.append(args)
        return build_atom(*args)

    def counting_path(graph, source, target):
        sources.append((source, target))
        return shortest_path(graph, source, target)

    monkeypatch.setattr(engine_module, "atom", counting_atom)
    monkeypatch.setattr(networkx, "shortest_path", counting_path)
    # the counter sees a fresh engine build its index
    fresh = tank()
    fresh._choice_index()
    assert len(atoms) == len(TANK_FAULTS) + 6
    del atoms[:]

    rng = random.Random(2028)
    pairs = engine._fault_pairs()
    hardened = [{c: ("hardening",)} for c in ("tank_controller", "in_valve_controller")]
    grid = deployment_grid() + hardened
    points = [
        (rng.sample(pairs, rng.randint(1, 3)), rng.choice(grid)) for _ in range(100)
    ]

    def session():
        for faults, deployment in points:
            engine.analyze_scenario(faults, deployment)
        for deployment in deployment_grid():
            engine.analyze(active_mitigations=deployment, max_faults=1)
            engine.blocking_core(deployment, max_faults=2)

    session()
    assert atoms == []
    assert sources and len(sources) == len(set(sources))
    del sources[:]
    session()
    assert atoms == [] and sources == []


def test_paths_match_a_fresh_shortest_path():
    requirements = list(static_requirements()) + [
        StaticRequirement(
            "r_unreachable",
            "err(water_tank, K), hazardous_kind(K)",
            focus="engineering_workstation",
        ),
        StaticRequirement(
            "r_absent", "err(water_tank, K), hazardous_kind(K)", focus="nowhere"
        ),
    ]
    engine = EpaEngine(
        build_system_model(), requirements, fault_mitigations=MITIGATIONS
    )
    graph = build_system_model().propagation_graph()
    assert "nowhere" not in graph
    focus = {r.name: r.focus for r in requirements}

    def expected_paths(outcome):
        paths = {}
        for requirement in outcome.violated:
            best = None
            for fault in sorted(outcome.active_faults, key=str):
                try:
                    candidate = networkx.shortest_path(
                        graph, fault.component, focus[requirement]
                    )
                except (networkx.NetworkXNoPath, networkx.NodeNotFound):
                    continue
                if best is None or len(candidate) < len(best):
                    best = candidate
            if best and len(best) > 1:
                paths[requirement] = tuple(
                    PropagationStep(a, b) for a, b in zip(best, best[1:])
                )
        return paths

    report = engine.analyze(max_faults=2, with_paths=True)
    violated = {name for outcome in report.outcomes for name in outcome.violated}
    assert {"r_unreachable", "r_absent"} <= violated
    assert any(outcome.paths for outcome in report.outcomes)
    for outcome in report.outcomes:
        assert outcome.paths == expected_paths(outcome)
