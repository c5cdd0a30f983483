"""Benchmarks of the cube sweep, serial and sharded.

``test_bench_serial_analyze`` times the default ``EpaEngine.analyze``
— the cube sweep run in-process by one worker — on the water-tank
scenario space at ``max_faults=3`` (1794 scenarios), and
``test_bench_parallel_analyze_4_workers`` times the same sweep sharded
over 4 worker processes.  Both assert their output equals the CDCL
reference enumeration.  ``run_bench.py`` reports the 4-worker speedup
against the serial median of the same run, so that column measures
parallelism alone and reads about 1x on a 2-core host; ``--check``
gates both medians against ``BENCH_asp.json`` (see
``docs/parallelism.md``).
"""

from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine
from repro.observability import ProgressTracker
from tests.cdcl_reference import cdcl_reference, rag1

MAX_FAULTS = 3
#: C(22,0..3) fault combinations of the 22 water-tank fault pairs
EXPECTED_SCENARIOS = 1794


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
