"""Tests for the streaming sweep spine (``docs/streaming.md``).

Four contracts:

* **byte identity** — the swept aggregate and report (in-process and
  sharded, under deployments and restrictions) fold byte-for-byte to
  the RAG1 fold of the CDCL reference enumeration
  (:mod:`tests.cdcl_reference`);
* **bounded residency** — :meth:`~repro.epa.EpaEngine.analyze_stream`
  never accumulates outcomes: at any point only a handful of yielded
  objects are alive;
* **checkpoint/resume** — a killed sweep resumes from its token to the
  same bytes, also in another process under another hash seed; a token
  from a different configuration, or cut at any byte, is refused;
* **channel plumbing** — the ``emit`` the pool passes each task and its
  ``on_partial``/``on_retry``/``on_result`` callbacks behave
  identically in-process and across worker processes, and drop stale
  partials from crashed attempts.
"""

import gc
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.asp.cubes import FLOOR
from repro.casestudy import build_system_model
from repro.epa import (
    EpaEngine,
    EpaError,
    FaultRef,
    ScenarioAggregate,
    StaticRequirement,
    read_checkpoint,
    write_checkpoint,
)
from repro.epa.aggregate import CHECKPOINT_MAGIC, AggregateError, SerializeError
from repro.epa.engine import CUBE_FACTOR
from repro.epa.results import ScenarioOutcome
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.observability import MemoryTraceSink
from repro.parallel import WorkStealingPool
from repro.security.fleet import FleetSpec, fleet_engine
from tests.cdcl_reference import cdcl_reference, rag1

REQ = [
    StaticRequirement(
        "rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"
    ),
]


def chain_model():
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


def _reference(**kwargs):
    """The CDCL fold every swept variant must reproduce."""
    return cdcl_reference(EpaEngine(chain_model(), REQ), **kwargs)


class TestStreamedByteIdentity:
    def test_sequential_stream_matches_materialized(self):
        reference = _reference(max_faults=2)
        streamed = EpaEngine(chain_model(), REQ).aggregate(max_faults=2)
        assert streamed.dumps() == reference

    def test_analyze_stream_fold_matches(self):
        engine = EpaEngine(chain_model(), REQ)
        materialized = engine.analyze(max_faults=2)
        assert rag1(engine, materialized) == _reference(max_faults=2)

    @pytest.mark.parametrize("payload", ["aggregate", "models"])
    def test_sharded_stream_matches(self, payload):
        """Both partial payloads workers ship: pre-folded aggregates
        (``aggregate``, with a chunk smaller than a cube so each cube
        ships several) and outcome chunks (``analyze``)."""
        engine = EpaEngine(chain_model(), REQ, workers=2)
        if payload == "aggregate":
            swept = engine.aggregate(max_faults=2, chunk_size=3)
        else:
            swept = engine.analyze(max_faults=2)
        assert rag1(engine, swept) == _reference(max_faults=2)

    def test_deployment_and_restriction_match(self):
        deployment = {"s": ("redundancy",)}
        restrict = [FaultRef("s", "no_signal"), FaultRef("c", "crash")]
        kwargs = dict(
            active_mitigations=deployment,
            max_faults=2,
            restrict_faults=restrict,
        )
        reference = _reference(**kwargs)
        sequential = EpaEngine(chain_model(), REQ).aggregate(**kwargs)
        sharded = EpaEngine(chain_model(), REQ, workers=2).aggregate(**kwargs)
        assert sequential.dumps() == reference
        assert sharded.dumps() == reference

    def test_unbounded_sweep_matches(self):
        reference = _reference()
        streamed = EpaEngine(chain_model(), REQ).aggregate()
        assert streamed.scenarios == 2 ** 9
        assert streamed.dumps() == reference

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        tiers=st.integers(min_value=2, max_value=3),
        components=st.integers(min_value=1, max_value=3),
        modes=st.integers(min_value=1, max_value=2),
        max_faults=st.integers(min_value=1, max_value=2),
    )
    def test_property_streamed_matches_on_seeded_fleets(
        self, seed, tiers, components, modes, max_faults
    ):
        """Property over seeded fleet models: for any spec in the
        sampled range, the swept report and aggregate reproduce the CDCL
        reference fold byte for byte."""
        spec = FleetSpec(
            seed=seed,
            tiers=tiers,
            components_per_tier=components,
            fault_modes_per_component=modes,
            max_faults=max_faults,
        )
        engine = fleet_engine(spec)
        reference = cdcl_reference(engine, max_faults=max_faults)
        assert ScenarioAggregate.loads(reference).scenarios == (
            spec.scenario_count(max_faults)
        )
        assert rag1(engine, engine.analyze(max_faults=max_faults)) == reference
        streamed = fleet_engine(spec).aggregate(max_faults=max_faults)
        assert streamed.dumps() == reference


class TestBoundedResidency:
    def test_analyze_stream_keeps_few_outcomes_alive(self):
        engine = EpaEngine(chain_model(), REQ)
        refs = []
        count = 0
        for outcome in engine.analyze_stream():
            assert isinstance(outcome, ScenarioOutcome)
            refs.append(weakref.ref(outcome))
            count += 1
            if count % 64 == 0:
                gc.collect()
                alive = sum(1 for ref in refs if ref() is not None)
                # nothing in the pipeline may retain the yielded
                # outcomes: only the loop variable itself stays alive
                assert alive <= 4
        assert count == 2 ** 9

    def test_early_close_stops_cleanly(self):
        engine = EpaEngine(chain_model(), REQ)
        stream = engine.analyze_stream(max_faults=2)
        first = next(stream)
        stream.close()
        assert isinstance(first, ScenarioOutcome)
        # the engine remains usable after an abandoned stream
        assert engine.aggregate(max_faults=1).scenarios == 10


class TestAggregateFold:
    def test_merge_rejects_mismatched_requirements(self):
        left = ScenarioAggregate(["a"], {})
        right = ScenarioAggregate(["b"], {})
        with pytest.raises(AggregateError):
            left.merge(right)

    def test_minimal_sets_are_an_antichain(self):
        aggregate = ScenarioAggregate(["rv"], {})
        single = frozenset([FaultRef("s", "no_signal")])
        pair = frozenset(
            [FaultRef("s", "no_signal"), FaultRef("c", "crash")]
        )
        for faults in (pair, single, pair):
            aggregate.add(
                ScenarioOutcome(faults, frozenset(["rv"]), {}, frozenset())
            )
        assert aggregate.minimal_sets() == [single]
        assert aggregate.single_points_of_failure() == sorted(single, key=str)

    def test_truncation_cap_sets_flag(self):
        aggregate = ScenarioAggregate(["rv"], {}, max_minimal_sets=2)
        for name in ("one", "two", "three"):
            faults = frozenset([FaultRef(name, "crash")])
            aggregate.add(
                ScenarioOutcome(faults, frozenset(["rv"]), {}, frozenset())
            )
        assert len(aggregate.minimal_violating) == 2
        assert aggregate.minimal_truncated

    def test_roundtrip_and_equality(self):
        engine = EpaEngine(chain_model(), REQ)
        aggregate = engine.aggregate(max_faults=2)
        clone = ScenarioAggregate.loads(aggregate.dumps())
        assert clone == aggregate
        assert clone.to_dict() == aggregate.to_dict()
        assert "scenarios analyzed" in clone.summary()


#: one checkpointed water-tank sweep at ``max_faults=2`` (4 cubes) in a
#: fresh interpreter: ``kill`` dies after the second cube's token is
#: written and prints the writes; ``resume`` finishes from the token
#: and prints the aggregate's bytes and how many cubes it resumed
CHECKPOINTED_TANK_SWEEP = """
import sys
import repro.epa.engine as engine_module
from repro.casestudy import build_system_model
from repro.epa import EpaEngine, StaticRequirement

path, mode = sys.argv[1:]
real_write = engine_module.write_checkpoint
writes = []

def dying_write(target, digest, completed, aggregate):
    written = real_write(target, digest, completed, aggregate)
    writes.append(len(completed))
    if len(writes) == 2:
        raise KeyboardInterrupt("simulated kill")
    return written

if mode == "kill":
    engine_module.write_checkpoint = dying_write
requirement = StaticRequirement(
    "r1", "err(water_tank, K), hazardous_kind(K)", "water_tank", "VH"
)
engine = EpaEngine(build_system_model(), [requirement])
try:
    aggregate = engine.aggregate(
        max_faults=2, checkpoint=path, checkpoint_every=1
    )
except KeyboardInterrupt:
    print(writes)
else:
    print(aggregate.dumps().hex())
    print(engine.statistics["epa"]["aggregate"]["resumed_cubes"])
"""


def _run_tank_sweep(path, mode, hash_seed):
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    environment = dict(os.environ, PYTHONHASHSEED=hash_seed)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, environment.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", CHECKPOINTED_TANK_SWEEP, path, mode],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.splitlines()


class TestCheckpointResume:
    def test_token_roundtrip(self, tmp_path):
        path = str(tmp_path / "token.ckpt")
        aggregate = ScenarioAggregate(["rv"], {"rv": "VH"})
        write_checkpoint(path, "cafe" * 16, [3, 1, 2], aggregate.dumps())
        state = read_checkpoint(path)
        assert state.digest == "cafe" * 16
        assert list(state.completed) == [1, 2, 3]
        assert ScenarioAggregate.loads(state.aggregate) == aggregate

    def test_torn_token_rejected(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        aggregate = ScenarioAggregate(["rv"], {})
        write_checkpoint(str(path), "00" * 32, [0], aggregate.dumps())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(SerializeError):
            read_checkpoint(str(path))

    def test_every_cut_of_a_real_token_is_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=str(path)
        )
        token = path.read_bytes()
        torn = tmp_path / "torn.ckpt"
        for cut in range(len(token)):
            torn.write_bytes(token[:cut])
            with pytest.raises(SerializeError) as excinfo:
                read_checkpoint(str(torn))
            if cut >= len(CHECKPOINT_MAGIC):
                assert "torn checkpoint" in str(excinfo.value)

    def test_resume_across_processes_and_hash_seeds(self, tmp_path):
        # the template digest must not depend on the process or on
        # PYTHONHASHSEED, or a killed sweep could never be resumed
        path = str(tmp_path / "tank.ckpt")
        requirement = StaticRequirement(
            "r1", "err(water_tank, K), hazardous_kind(K)", "water_tank", "VH"
        )
        reference = EpaEngine(build_system_model(), [requirement]).aggregate(
            max_faults=2
        )
        assert _run_tank_sweep(path, "kill", "0") == ["[1, 2]"]
        assert sorted(read_checkpoint(path).completed) == [0, 1]
        blob, resumed_cubes = _run_tank_sweep(path, "resume", "3")
        assert bytes.fromhex(blob) == reference.dumps()
        assert resumed_cubes == "2"
        # the token is exactly its RCK1 fields (digest, cube ids, RAG1
        # aggregate): re-encoding them reproduces every byte
        state = read_checkpoint(path)
        assert ScenarioAggregate.loads(state.aggregate) == reference
        rewritten = str(tmp_path / "rewritten.ckpt")
        write_checkpoint(rewritten, state.digest, state.completed, state.aggregate)
        with open(path, "rb") as original, open(rewritten, "rb") as copy:
            assert copy.read() == original.read()

    def test_kill_and_resume_reproduces_bytes(self, tmp_path, monkeypatch):
        import repro.epa.engine as engine_module

        path = str(tmp_path / "sweep.ckpt")
        reference = EpaEngine(chain_model(), REQ).aggregate(max_faults=2)

        real_write = engine_module.write_checkpoint
        calls = []

        def dying_write(target, digest, completed, aggregate):
            written = real_write(target, digest, completed, aggregate)
            calls.append(len(completed))
            if len(calls) == 2:
                raise KeyboardInterrupt("simulated kill")
            return written

        monkeypatch.setattr(engine_module, "write_checkpoint", dying_write)
        with pytest.raises(KeyboardInterrupt):
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=path, checkpoint_every=1
            )
        monkeypatch.setattr(engine_module, "write_checkpoint", real_write)
        assert calls == [1, 2]

        resumed = EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=path, checkpoint_every=1
        )
        assert resumed.dumps() == reference.dumps()
        stats = read_checkpoint(path)
        assert ScenarioAggregate.loads(stats.aggregate) == reference

    def test_completed_token_short_circuits(self, tmp_path):
        path = str(tmp_path / "done.ckpt")
        reference = EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=path
        )
        again = EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=path
        )
        assert again.dumps() == reference.dumps()

    def test_mismatched_configuration_refused(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        EpaEngine(chain_model(), REQ).aggregate(max_faults=1, checkpoint=path)
        with pytest.raises(EpaError):
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=path
            )

    def test_changed_magnitudes_refused(self, tmp_path, monkeypatch):
        # magnitudes never reach the ground program, only the fold: a
        # token folded under "VH" must not be resumed under "L"
        import repro.epa.engine as engine_module

        path = str(tmp_path / "sweep.ckpt")
        real_write = engine_module.write_checkpoint

        def dying_write(target, digest, completed, aggregate):
            real_write(target, digest, completed, aggregate)
            raise KeyboardInterrupt("simulated kill")

        monkeypatch.setattr(engine_module, "write_checkpoint", dying_write)
        with pytest.raises(KeyboardInterrupt):
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=path, checkpoint_every=1
            )
        monkeypatch.setattr(engine_module, "write_checkpoint", real_write)
        low = [replace(requirement, magnitude="L") for requirement in REQ]
        with pytest.raises(EpaError):
            EpaEngine(chain_model(), low).aggregate(
                max_faults=2, checkpoint=path, checkpoint_every=1
            )

    def test_changed_antichain_cap_refused(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        EpaEngine(chain_model(), REQ).aggregate(max_faults=2, checkpoint=path)
        with pytest.raises(EpaError, match="antichain cap"):
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=path, max_minimal_sets=1
            )


class TestCubeFactor:
    def test_cube_count_scales_with_factor(self, monkeypatch):
        import repro.epa.engine as engine_module

        # 46 scenarios, below the floor: the count alone sets the layout
        for factor, cubes in ((8, 8), (1, 2)):
            monkeypatch.setattr(engine_module, "CUBE_FACTOR", factor)
            engine = EpaEngine(chain_model(), REQ)
            engine.aggregate(max_faults=2)
            assert engine.statistics["epa"]["parallel"]["shards"] == cubes

    def test_sweep_cubes_respect_the_size_bound(self):
        # C(24, <=3) = 2,325 scenarios in 1 worker x factor 4 cubes
        spec = FleetSpec(
            tiers=2,
            components_per_tier=3,
            fault_modes_per_component=4,
            max_faults=3,
            seed=11,
        )
        sink = MemoryTraceSink()
        fleet_engine(spec, trace=sink).aggregate(max_faults=spec.max_faults)
        cubes = sorted(sink.named("epa.cube"), key=lambda e: e.payload["cube"])
        models = [event.payload["models"] for event in cubes]
        assert len(models) >= CUBE_FACTOR
        assert sum(models) == spec.scenario_count()
        bound = max(spec.scenario_count() / CUBE_FACTOR, FLOOR)
        assert max(models) <= bound
        # dispatched largest first
        assert models == sorted(models, reverse=True)


def _emit_three(value, emit):
    """Ship two partials then return (module-level: workers pickle it)."""
    emit(("part", value, 1))
    emit(("part", value, 2))
    return value * 10


def _emit_or_die(item, emit):
    """Emit a partial, then crash on the first attempt of item 1.

    The sentinel file makes the crash happen exactly once across the
    retried worker processes: the first attempt creates it and dies,
    the retry finds it and succeeds.
    """
    value, die_path = item
    emit(("part", value))
    if value == 1:
        try:
            with open(die_path, "x"):
                pass
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return value


class TestResultChannel:
    def test_emit_partial_without_channel_is_noop(self):
        # without on_partial, emit discards: tasks still finish and
        # nothing but results reaches the parent, in-process and across
        # worker processes alike
        for workers, items in ((1, [5]), (2, [0, 1, 2, 3])):
            done = []
            results = WorkStealingPool(workers).map(
                _emit_three,
                items,
                on_result=lambda index, value: done.append((index, value)),
            )
            assert results == [value * 10 for value in items]
            assert sorted(done) == list(enumerate(results))

    def test_in_process_channel(self):
        pool = WorkStealingPool(1)
        partials = []
        order = []
        results = pool.map(
            _emit_three,
            [5],
            on_partial=lambda index, value: partials.append((index, value)),
            on_result=lambda index, value: order.append((index, value)),
        )
        assert results == [50]
        assert partials == [(0, ("part", 5, 1)), (0, ("part", 5, 2))]
        assert order == [(0, 50)]

    def test_subprocess_channel(self):
        pool = WorkStealingPool(2)
        partials = {}
        done = []
        results = pool.map(
            _emit_three,
            [0, 1, 2, 3],
            on_partial=lambda index, value: partials.setdefault(
                index, []
            ).append(value),
            on_result=lambda index, value: done.append(index),
        )
        assert results == [0, 10, 20, 30]
        assert sorted(done) == [0, 1, 2, 3]
        for index in range(4):
            assert partials[index] == [
                ("part", index, 1),
                ("part", index, 2),
            ]

    def test_crash_retries_and_reports(self, tmp_path):
        pool = WorkStealingPool(2)
        retried = []
        buffers = {}
        die_path = str(tmp_path / "died.once")

        def on_partial(index, value):
            buffers.setdefault(index, []).append(value)

        def on_retry(index):
            # the client contract: a retry invalidates every partial
            # buffered for that task (docs/streaming.md)
            retried.append(index)
            buffers.pop(index, None)

        results = pool.map(
            _emit_or_die,
            [(value, die_path) for value in range(4)],
            on_partial=on_partial,
            on_retry=on_retry,
        )
        assert results == [0, 1, 2, 3]
        # item 1 crashed at least once and was retried
        assert 1 in retried
        # only the successful attempt's partial survives the clears
        assert buffers[1] == [("part", 1)]
