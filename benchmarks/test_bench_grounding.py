"""Grounding-throughput benches.

Not a paper artifact — these stress the semi-naive grounder's join
machinery (argument indexing, delta rounds, the fact path) rather than
the solver, complementing ``test_bench_asp_classic.py``:

* transitive closure over a dense digraph — a quadratic recursive join
  whose cost is entirely in candidate selection (the classic
  Datalog-engine stressor);
* the two sweep templates ``repro assess --max-faults 1`` grounds on
  the water tank — the EPA engine's real grounding profile (hundreds of
  facts, the rule base of Sec. IV, deployment externals), from cold
  caches every round;
* a multi-component ArchiMate model sweep across mitigation
  placements — one engine, so one template grounding for the whole run
  and sweeps over it.
"""

import pytest

from repro.asp import Control, clear_ground_cache, clear_intern_caches
from repro.epa import EpaEngine, StaticRequirement
from repro.modeling import SystemModel
from repro.modeling.elements import RelationshipType
from repro.modeling.library import standard_cps_library


def transitive_closure_program(nodes, stride=3):
    """A dense digraph (each node points to the next ``stride`` nodes)
    plus the textbook recursive closure rules."""
    lines = ["node(1..%d)." % nodes]
    for source in range(1, nodes + 1):
        for offset in range(1, stride + 1):
            target = source + offset
            if target <= nodes:
                lines.append("edge(%d, %d)." % (source, target))
    lines.append("path(X, Y) :- edge(X, Y).")
    lines.append("path(X, Z) :- path(X, Y), edge(Y, Z).")
    return "\n".join(lines)


def test_bench_transitive_closure(benchmark):
    text = transitive_closure_program(30)

    def ground_and_solve():
        clear_ground_cache()  # measure grounding, not cache lookups
        control = Control(text)
        models = control.solve()
        return control, models

    control, models = benchmark(ground_and_solve)
    assert len(models) == 1
    # every ordered pair (i, j) with i < j is reachable
    paths = sum(
        1 for atom in models[0].atoms if atom.predicate == "path"
    )
    assert paths == 30 * 29 // 2
    index = control.statistics["grounding"]["index"]
    assert index["hits"] > 0, "argument index unused on the closure join"
    print()
    print(
        "dense-digraph closure: %d path atoms; index %d hits / %d scans"
        % (paths, index["hits"], index["scans"])
    )


def test_bench_ground_assessment_templates(benchmark):
    """Ground the sweep templates of the phase-4 and phase-5 engines
    that ``repro assess --max-faults 1`` builds, from cold caches."""
    # imported here: run_bench.py imports this module for its closure
    # program with only benchmarks/ on the path
    from tests.asp.test_grounder_differential import assessment_engine

    def fresh_controls():
        # a cold grounding per round, as a fresh `repro assess` pays it;
        # building the engines and their programs is not timed
        clear_ground_cache()
        clear_intern_caches()
        controls = tuple(
            assessment_engine(refined)._incremental_control()
            for refined in (False, True)
        )
        return controls, {}

    def ground(*controls):
        return [control.ground() for control in controls]

    grounds = benchmark.pedantic(ground, setup=fresh_controls, rounds=5)
    assert [len(ground.rules) for ground in grounds] == [724, 882]


def chain_model(components):
    """A serving chain alternating controllers and sensors."""
    library = standard_cps_library()
    model = SystemModel("sweep")
    identifiers = []
    for position in range(components):
        type_name = ("sensor", "controller", "filter")[position % 3]
        identifier = "%s_%d" % (type_name, position)
        library.instantiate(model, type_name, identifier)
        identifiers.append(identifier)
    for source, target in zip(identifiers, identifiers[1:]):
        model.add_relationship(source, target, RelationshipType.SERVING)
    return model, identifiers


def test_bench_epa_model_sweep(benchmark):
    model, identifiers = chain_model(9)
    requirements = [
        StaticRequirement("tail_ok", "affected(%s)" % identifiers[-1])
    ]
    engine = EpaEngine(
        model,
        requirements,
        fault_mitigations={"drift": ("calibration",)},
    )
    # sweep over mitigation placements: the engine grounds its sweep
    # template once (on its first sweep) and every placement, in every
    # round, sweeps that template under deployment assumptions
    placements = [{}] + [
        {identifier: ("calibration",)}
        for identifier in identifiers
        if identifier.startswith("sensor")
    ]

    def sweep():
        reports = [
            engine.analyze(active_mitigations=placement, max_faults=1)
            for placement in placements
        ]
        return reports

    reports = benchmark(sweep)
    assert len(reports) == len(placements)
    # one fault-free scenario plus one scenario per fault mode each run
    assert all(len(report.outcomes) > 1 for report in reports)
    print()
    print(
        "EPA sweep: %d configurations x %d scenarios over a %d-component chain"
        % (len(reports), len(reports[0].outcomes), len(identifiers))
    )
