"""Provenance cost: the off path gated strictly, the on path priced.

``test_bench_epa_enumerate_provenance_off`` times the sequential
water-tank enumeration with provenance *off* (the default).
``run_bench.py --check`` gates this bench at a stricter tolerance (3%)
than the global 25%, so accidental overhead on the provenance-off fast
path fails CI instead of hiding inside the generic noise budget.  The
zero-cost contract itself is asserted inline: the engine's base
program grounds to byte-identical text with and without provenance.

``test_bench_scenario_proof_provenance_on`` prices the on path: one
provenance-tracking solve of a violating scenario plus a well-founded
justification of every violated requirement.
"""

from repro.asp.grounder import Grounder
from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine
from repro.provenance import assert_well_founded, iter_nodes

MAX_FAULTS = 2
#: C(22, 0..2) fault combinations of the 22 water-tank fault pairs
EXPECTED_SCENARIOS = 254


def water_tank_engine():
    return EpaEngine(build_system_model(), static_requirements())


def test_bench_epa_enumerate_provenance_off(benchmark):
    def sweep():
        # a fresh engine per round keeps the grounding inside the
        # measurement — provenance overhead, if any, lives there
        return water_tank_engine().analyze(max_faults=MAX_FAULTS)

    report = benchmark(sweep)
    assert len(report) == EXPECTED_SCENARIOS
    # the zero-cost contract behind the strict gate: same base program,
    # ground with and without origin tracking, identical rendered text
    plain = Grounder(water_tank_engine()._assemble_base_program()).ground()
    tracked = Grounder(
        water_tank_engine()._assemble_base_program(), provenance=True
    ).ground()
    assert str(plain) == str(tracked)
    assert plain.origins is None
    assert len(tracked.origins) == len(tracked.rules)


def test_bench_scenario_proof_provenance_on(benchmark):
    engine = water_tank_engine()
    report = engine.analyze(max_faults=1)
    faults = sorted(report.violating()[0].active_faults, key=str)

    def prove():
        proof = engine.prove_scenario(faults)
        return [proof.why(violated) for violated in proof.violations()]

    roots = benchmark(prove)
    assert roots
    for root in roots:
        assert_well_founded(root)
        kinds = {node.kind for node in iter_nodes(root)}
        assert "choice" in kinds  # bottoms out in the scenario guess
