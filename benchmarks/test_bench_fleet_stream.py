"""Benchmark of the streaming fleet sweep (bounded-memory aggregation).

``test_bench_fleet_stream_aggregate`` times a full streamed EPA sweep
of a synthetic fleet model (:mod:`repro.security.fleet`) more than
100x larger than the previous largest bench: C(108, <=3) = 210,043
scenarios against the water-tank parallel bench's 1,794.  The sweep
runs through :meth:`repro.epa.EpaEngine.aggregate`, which folds every
model into a :class:`~repro.epa.ScenarioAggregate` as it is found —
the model list never exists — so the test also asserts the process's
peak RSS stays under a fixed ceiling that a materialized
:class:`~repro.epa.EpaReport` of the same sweep would blow through.
``run_bench.py`` additionally records the file's child ``max_rss_kb``
in the bench history and gates it under ``--check`` (see
``MEMORY_CEILINGS_KB``).

``REPRO_BENCH_FLEET_SCALE=smoke`` drops to a C(48, <=3) = 18,473
scenario sweep — the CI smoke gate runs that scale; the nightly big
bench runs the full one (see ``.github/workflows/ci.yml``).

The companion tests pin the correctness contracts the bench rests on:
``test_fleet_stream_equivalence`` checks the materialized report and
the in-process and sharded streamed aggregates fold byte-identically
to the CDCL reference enumeration, and ``test_fleet_checkpoint_kill_resume`` kills a
checkpointed sweep partway through and proves the resumed run
reproduces the uninterrupted result byte for byte
(``docs/streaming.md``).
"""

import os

import pytest

from repro.epa import EpaError, ScenarioAggregate
from repro.observability.metrics import record_peak_rss
from repro.security.fleet import FleetSpec, fleet_engine
from tests.cdcl_reference import cdcl_reference, rag1

#: the headline workload: C(108, <=3) = 210,043 scenarios, >100x the
#: 1,794-scenario water-tank parallel bench
FULL_SPEC = FleetSpec(
    tiers=3,
    components_per_tier=6,
    fault_modes_per_component=6,
    max_faults=3,
)
#: CI smoke scale: C(48, <=3) = 18,473 scenarios
SMOKE_SPEC = FleetSpec(
    tiers=3,
    components_per_tier=4,
    fault_modes_per_component=4,
    max_faults=3,
)
#: small spec for the equivalence and kill/resume contracts
SMALL_SPEC = FleetSpec(
    tiers=3,
    components_per_tier=3,
    fault_modes_per_component=2,
    max_faults=2,
)

#: the streamed sweep must stay far below what materializing the full
#: outcome list would need; generous enough for interpreter overhead
PEAK_RSS_CEILING_BYTES = 512 * 1024 * 1024


def _bench_spec():
    scale = os.environ.get("REPRO_BENCH_FLEET_SCALE", "full").strip().lower()
    return SMOKE_SPEC if scale == "smoke" else FULL_SPEC


def test_bench_fleet_stream_aggregate(benchmark):
    spec = _bench_spec()
    expected = spec.scenario_count()
    if spec is FULL_SPEC:
        # the sizing contract of this bench: >= 100x the previous
        # largest bench's 1,794-scenario sweep
        assert expected >= 100 * 1794

    def sweep():
        engine = fleet_engine(spec)
        return engine.aggregate(max_faults=spec.max_faults)

    aggregate = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert aggregate.scenarios == expected
    assert aggregate.violating > 0
    assert aggregate.single_points_of_failure()
    peak = record_peak_rss()
    if peak is not None:
        assert peak < PEAK_RSS_CEILING_BYTES, (
            "streamed sweep peak RSS %.1f MB breached the %.0f MB "
            "bounded-memory ceiling" % (peak / 2**20, PEAK_RSS_CEILING_BYTES / 2**20)
        )


def test_fleet_stream_equivalence():
    spec = SMALL_SPEC
    engine = fleet_engine(spec)
    reference = cdcl_reference(engine, max_faults=spec.max_faults)
    assert ScenarioAggregate.loads(reference).scenarios == spec.scenario_count()
    # the materialized report and the in-process and sharded streamed
    # sweeps must all reproduce the CDCL reference fold byte for byte
    assert rag1(engine, engine.analyze(max_faults=spec.max_faults)) == reference
    assert fleet_engine(spec).aggregate(
        max_faults=spec.max_faults
    ).dumps() == reference
    sharded = fleet_engine(spec, workers=2).aggregate(max_faults=spec.max_faults)
    assert sharded.dumps() == reference


def test_fleet_checkpoint_kill_resume(tmp_path, monkeypatch):
    import repro.epa.engine as engine_module

    spec = SMALL_SPEC
    path = str(tmp_path / "sweep.ckpt")
    reference = fleet_engine(spec).aggregate(max_faults=spec.max_faults)

    real_write = engine_module.write_checkpoint
    writes = []

    def dying_write(target, digest, completed, aggregate):
        written = real_write(target, digest, completed, aggregate)
        writes.append(len(completed))
        if len(writes) == 2:
            raise KeyboardInterrupt("simulated kill mid-sweep")
        return written

    monkeypatch.setattr(engine_module, "write_checkpoint", dying_write)
    with pytest.raises((KeyboardInterrupt, EpaError)):
        fleet_engine(spec).aggregate(
            max_faults=spec.max_faults, checkpoint=path, checkpoint_every=1
        )
    monkeypatch.setattr(engine_module, "write_checkpoint", real_write)

    # the kill left a valid token covering a strict subset of the cubes
    assert writes == [1, 2]
    resumed = fleet_engine(spec).aggregate(
        max_faults=spec.max_faults, checkpoint=path, checkpoint_every=1
    )
    assert resumed.dumps() == reference.dumps()
    # a mismatched configuration must refuse the token, not mis-merge
    with pytest.raises(EpaError):
        fleet_engine(spec).aggregate(
            max_faults=spec.max_faults + 1, checkpoint=path
        )
