"""Benchmarks of the cube sweep, serial and sharded.

``test_bench_serial_analyze`` times the default ``EpaEngine.analyze``
— the cube sweep run in-process by one worker — on the water-tank
scenario space at ``max_faults=3`` (1794 scenarios), and
``test_bench_parallel_analyze_4_workers`` times the same sweep sharded
over 4 worker processes.  Both assert their output equals the CDCL
reference enumeration.  ``run_bench.py`` reports the 4-worker speedup
against the serial median of the same run, so that column measures
parallelism alone and reads about 1x on a 2-core host.

``test_bench_fleet_sweep_serial`` and ``test_bench_fleet_sweep_2_workers``
are the scaling pair: the ``benchmarks/e2e`` fleet-stream sweep
(C(48, <=3) = 18,473 scenarios, ``EpaEngine.aggregate``) on 1 and 2
workers, the 2-worker aggregate asserted byte-identical (RAG1) to the
serial one.  ``run_bench.py`` reports the 2-worker speedup against the
serial median of the same run and ``--check`` holds it to a floor
(``SPEEDUP_FLOORS``); ``--check`` also gates every median against
``BENCH_asp.json`` (see ``docs/parallelism.md``).
"""

from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine
from repro.observability import ProgressTracker
from repro.security.fleet import FleetSpec, fleet_engine
from tests.cdcl_reference import cdcl_reference, rag1

MAX_FAULTS = 3
#: C(22,0..3) fault combinations of the 22 water-tank fault pairs
EXPECTED_SCENARIOS = 1794

#: the fleet-stream workload of benchmarks/e2e: C(48, <=3) = 18,473
FLEET_SPEC = FleetSpec(
    tiers=3, components_per_tier=4, fault_modes_per_component=4, max_faults=3
)

#: RAG1 bytes of the serial fleet sweep, for the 2-worker comparison
_serial_fleet = {}


def _check_sweep(engine, report, workers):
    assert len(report) == EXPECTED_SCENARIOS
    stats = engine.statistics
    assert stats["epa"]["parallel"]["shards"] >= 4
    assert stats["epa"]["parallel"]["workers"] == workers
    # same scenarios, same verdicts as the CDCL reference enumeration
    reference = EpaEngine(build_system_model(), static_requirements())
    assert rag1(engine, report) == cdcl_reference(
        reference, max_faults=MAX_FAULTS
    )


def _sweep(workers):
    # the tracker rides inside the timed region on purpose: the
    # regression gate in run_bench.py --check is what keeps the
    # progress/heartbeat overhead honest
    engine = EpaEngine(
        build_system_model(),
        static_requirements(),
        workers=workers,
        progress=ProgressTracker(),
    )
    return engine, engine.analyze(max_faults=MAX_FAULTS)


def test_bench_serial_analyze(benchmark):
    engine, report = benchmark.pedantic(
        _sweep, args=(None,), rounds=3, iterations=1
    )
    _check_sweep(engine, report, workers=1)


def test_bench_parallel_analyze_4_workers(benchmark):
    engine, report = benchmark.pedantic(
        _sweep, args=(4,), rounds=3, iterations=1
    )
    _check_sweep(engine, report, workers=4)


def _fleet_sweep(workers):
    engine = fleet_engine(FLEET_SPEC, workers=workers)
    return engine.aggregate(max_faults=FLEET_SPEC.max_faults)


def _serial_fleet_rag1():
    if "rag1" not in _serial_fleet:
        _serial_fleet["rag1"] = _fleet_sweep(None).dumps()
    return _serial_fleet["rag1"]


def test_bench_fleet_sweep_serial(benchmark):
    aggregate = benchmark.pedantic(
        _fleet_sweep, args=(None,), rounds=3, iterations=1
    )
    assert aggregate.scenarios == FLEET_SPEC.scenario_count()
    _serial_fleet["rag1"] = aggregate.dumps()


def test_bench_fleet_sweep_2_workers(benchmark):
    aggregate = benchmark.pedantic(
        _fleet_sweep, args=(2,), rounds=3, iterations=1
    )
    assert aggregate.scenarios == FLEET_SPEC.scenario_count()
    assert aggregate.dumps() == _serial_fleet_rag1()
