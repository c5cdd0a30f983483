"""Tests for the streaming sweep spine (``docs/streaming.md``).

Five contracts:

* **byte identity** — the swept aggregate and report (in-process and
  sharded, under deployments and restrictions) fold byte-for-byte to
  the canonical bytes of the CDCL reference enumeration's fold
  (:mod:`tests.cdcl_reference`);
* **bounded residency** — :meth:`~repro.epa.EpaEngine.analyze_stream`
  never accumulates outcomes: at any point only a handful of yielded
  objects are alive;
* **canonical form** — an aggregate's state is pinned JSON, a
  checkpoint is one JSON document, and malformed input raises
  :class:`SerializeError`; an in-process sweep encodes nothing;
* **checkpoint/resume** — a killed sweep resumes from its token to the
  same bytes, also in another process under another hash seed; a token
  from a different configuration, cut at any byte or in the old binary
  format, is refused, and so is a path that cannot be read or written;
* **checkpoint cost** — each cube returns its whole aggregate once, and
  a sweep that writes a token after every cube still merges each cube's
  aggregate at most twice: once into the token's aggregate, once into
  the result.  (The pool's ``on_result`` channel, worker deaths
  mid-cube and cubes that fall back after reporting models are pinned
  in ``tests/core/test_parallel.py``.)
"""

import gc
import json
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
from repro.epa.aggregate import CHECKPOINT_FORMAT, AggregateError, SerializeError
from repro.epa.engine import CUBE_FACTOR
from repro.epa.results import ScenarioOutcome
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.observability import MemoryTraceSink
from repro.security.fleet import FleetSpec, fleet_engine
from tests.cdcl_reference import canonical_bytes, cdcl_reference

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
        assert canonical_bytes(engine, materialized) == _reference(max_faults=2)

    @pytest.mark.parametrize("payload", ["aggregate", "models"])
    def test_sharded_stream_matches(self, payload):
        """Both parts a cube task returns: the cube's aggregate
        (``aggregate``) and its outcome list (``analyze``)."""
        engine = EpaEngine(chain_model(), REQ, workers=2)
        if payload == "aggregate":
            swept = engine.aggregate(max_faults=2)
        else:
            swept = engine.analyze(max_faults=2)
        assert canonical_bytes(engine, swept) == _reference(max_faults=2)

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
        materialized = engine.analyze(max_faults=max_faults)
        assert canonical_bytes(engine, materialized) == reference
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
        assert clone.state() == aggregate.state()
        assert clone.criticality() == aggregate.criticality()
        assert clone.summary() == aggregate.summary()
        assert "scenarios analyzed" in clone.summary()
        assert ScenarioAggregate.from_state(aggregate.state()) == aggregate
        assert aggregate.copy().dumps() == aggregate.dumps()


def _outcome(faults, violated, rank):
    return ScenarioOutcome(
        frozenset(FaultRef.parse(fault) for fault in faults),
        frozenset(violated),
        {},
        severity_rank=rank,
    )


#: the canonical bytes of :func:`_small_aggregate`: sorted keys, no
#: spaces, integer-keyed tables and risk cells as sorted rows, the
#: minimal sets by size then name, the requirement order kept
SMALL_AGGREGATE_BYTES = (
    b'{"component_criticality":{"c":2,"s":2,"v":1},'
    b'"fault_count_hist":[[0,1],[1,2],[2,2]],'
    b'"magnitudes":{"rv":"VH"},"max_minimal_sets":8,'
    b'"minimal_truncated":false,'
    b'"minimal_violating":[["s.no_signal"],["c.crash","v.stuck"]],'
    b'"requirements":["rv","ra"],'
    b'"risk_cells":[["L","M",1],["L","VH",1],["M","VH",1]],'
    b'"scenarios":5,"severity_hist":[[0,1],[2,2],[3,1],[4,1]],'
    b'"violating":3,"violation_counts":{"ra":2,"rv":2},'
    b'"worst_component_grade":{"c":4,"s":4,"v":2}}'
)


def _small_aggregate(order=(0, 1, 2, 3, 4)):
    outcomes = [
        _outcome([], [], 0),
        _outcome(["v.stuck", "c.crash"], ["ra"], 2),
        _outcome(["s.no_signal"], ["rv"], 3),
        _outcome(["c.crash", "s.no_signal"], ["rv", "ra"], 4),
        _outcome(["c.crash"], [], 2),
    ]
    aggregate = ScenarioAggregate(["rv", "ra"], {"rv": "VH"}, max_minimal_sets=8)
    for index in order:
        aggregate.add(outcomes[index])
    return aggregate


#: a checkpoint in the binary format this module wrote before its
#: tokens became JSON (magic ``RCK1``, varint fields, an ``RAG1``
#: aggregate), as its last codec wrote it for a one-scenario aggregate
BINARY_TOKEN = (
    b"RCK1@" + b"ab" * 32 + b"\x02\x00\x026RAG1\x01\x02rv\x02VH\x00\x80 "
    b"\x01\x01\x01\x02rv\x01\x01\x01\x01\x01\x00\x01\x01\x01s\x01\x00"
    b"\x01\x01M\x02VH\x01\x01\x01\x0bs.no_signal\x00"
)


def _field_edit(change):
    """A token edit: decode the JSON, apply ``change`` to the document,
    re-encode it canonically (sorted keys, no spaces)."""

    def edit(data):
        token = json.loads(data)
        change(token)
        return json.dumps(token, sort_keys=True, separators=(",", ":")).encode()

    return edit


class TestCanonicalForm:
    def test_canonical_bytes_are_pinned(self):
        aggregate = _small_aggregate()
        assert aggregate.dumps() == SMALL_AGGREGATE_BYTES
        assert _small_aggregate((4, 3, 2, 1, 0)).dumps() == SMALL_AGGREGATE_BYTES
        assert json.loads(SMALL_AGGREGATE_BYTES) == aggregate.state()
        assert ScenarioAggregate.loads(SMALL_AGGREGATE_BYTES) == aggregate

    @pytest.mark.parametrize(
        "data",
        [
            SMALL_AGGREGATE_BYTES + b" {}",
            SMALL_AGGREGATE_BYTES[:-1],
            SMALL_AGGREGATE_BYTES.replace(b'"scenarios":5,', b""),
            SMALL_AGGREGATE_BYTES.replace(b'"scenarios":5', b'"scenarios":"5"'),
            SMALL_AGGREGATE_BYTES.replace(b"[[0,1],[1,2]", b"[[1,2],[0,1]"),
            SMALL_AGGREGATE_BYTES.replace(b'"ra":2,', b""),
            SMALL_AGGREGATE_BYTES.replace(b"[0,1],[1,2]", b"[0,1],[1]"),
            SMALL_AGGREGATE_BYTES.replace(b'"s.no_signal"]', b'"no_signal"]'),
            SMALL_AGGREGATE_BYTES.replace(b"false", b"0"),
            SMALL_AGGREGATE_BYTES[:-1] + b',"extra":1}',
            b"[]",
            b"\xff\xfe",
            BINARY_TOKEN,
        ],
        ids=[
            "trailing-data",
            "cut-short",
            "missing-field",
            "string-count",
            "rows-out-of-order",
            "missing-requirement-count",
            "short-row",
            "fault-without-component",
            "int-flag",
            "extra-field",
            "array",
            "not-utf8",
            "binary-token",
        ],
    )
    def test_malformed_state_raises_serialize_error(self, data):
        with pytest.raises(SerializeError):
            ScenarioAggregate.loads(data)

    def test_in_process_sweep_encodes_nothing(self, monkeypatch):
        calls = []
        real_dumps = ScenarioAggregate.dumps
        real_loads = ScenarioAggregate.loads.__func__

        def counted_dumps(aggregate):
            calls.append("dumps")
            return real_dumps(aggregate)

        def counted_loads(cls, data):
            calls.append("loads")
            return real_loads(cls, data)

        monkeypatch.setattr(ScenarioAggregate, "dumps", counted_dumps)
        monkeypatch.setattr(ScenarioAggregate, "loads", classmethod(counted_loads))
        swept = EpaEngine(chain_model(), REQ).aggregate(max_faults=2)
        assert calls == []
        # the wrappers do count: the comparison below calls both
        assert ScenarioAggregate.loads(swept.dumps()) == swept
        assert calls == ["dumps", "loads"]
        assert real_dumps(swept) == _reference(max_faults=2)


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
engine_module.CHECKPOINT_EVERY = 1
requirement = StaticRequirement(
    "r1", "err(water_tank, K), hazardous_kind(K)", "water_tank", "VH"
)
engine = EpaEngine(build_system_model(), [requirement])
try:
    aggregate = engine.aggregate(max_faults=2, checkpoint=path)
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
        path = tmp_path / "token.ckpt"
        aggregate = _small_aggregate()
        written = write_checkpoint(str(path), "cafe" * 16, [3, 1, 2, 1], aggregate)
        # one canonical JSON document: format, digest, sorted cube ids
        # and the aggregate's state
        assert path.read_bytes() == (
            b'{"aggregate":' + SMALL_AGGREGATE_BYTES + b',"completed":[1,2,3],'
            b'"digest":"' + b"cafe" * 16 + b'","format":"repro-checkpoint/1"}'
        )
        assert written == len(path.read_bytes())
        state = read_checkpoint(str(path))
        assert state.digest == "cafe" * 16
        assert sorted(state.completed) == [1, 2, 3]
        assert state.aggregate == aggregate
        assert state.aggregate.dumps() == aggregate.dumps()

    def test_torn_token_rejected(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        aggregate = ScenarioAggregate(["rv"], {})
        write_checkpoint(str(path), "00" * 32, [0], aggregate)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(SerializeError):
            read_checkpoint(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            _field_edit(lambda token: token.update(format="repro-checkpoint/0")),
            _field_edit(lambda token: token.pop("digest")),
            _field_edit(lambda token: token["aggregate"].pop("violating")),
            _field_edit(lambda token: token.update(completed=[0, "1"])),
            _field_edit(lambda token: token.update(completed=[0, 1.0])),
            _field_edit(lambda token: token.update(completed=[True])),
            _field_edit(lambda token: token.update(completed=[1, 0])),
            _field_edit(lambda token: token.update(digest=7)),
            _field_edit(lambda token: token.update(extra=1)),
            lambda data: data + b"{}",
            lambda data: data + b"\n",
            lambda data: BINARY_TOKEN,
        ],
        ids=[
            "wrong-format",
            "missing-field",
            "missing-aggregate-field",
            "string-cube-id",
            "float-cube-id",
            "bool-cube-id",
            "unsorted-cube-ids",
            "integer-digest",
            "extra-field",
            "trailing-data",
            "trailing-newline",
            "binary-token",
        ],
    )
    def test_malformed_token_rejected(self, tmp_path, edit):
        path = tmp_path / "token.ckpt"
        write_checkpoint(str(path), "00" * 32, [0, 1], _small_aggregate())
        token = path.read_bytes()
        # the canonical re-encoding the edits start from reads back
        assert _field_edit(lambda token: None)(token) == token
        path.write_bytes(edit(token))
        with pytest.raises(SerializeError) as excinfo:
            read_checkpoint(str(path))
        assert str(path) in str(excinfo.value)

    def test_sweep_refuses_a_binary_token(self, tmp_path):
        # before any cube runs, and without overwriting the token
        path = tmp_path / "old.ckpt"
        path.write_bytes(BINARY_TOKEN)
        with pytest.raises(SerializeError):
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=str(path)
            )
        assert path.read_bytes() == BINARY_TOKEN

    def test_every_cut_of_a_real_token_is_refused(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=str(path)
        )
        token = path.read_bytes()
        assert json.loads(token)["format"] == CHECKPOINT_FORMAT
        torn = tmp_path / "torn.ckpt"
        for cut in range(len(token)):
            torn.write_bytes(token[:cut])
            with pytest.raises(SerializeError) as excinfo:
                read_checkpoint(str(torn))
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
        printed, resumed_cubes = _run_tank_sweep(path, "resume", "3")
        assert bytes.fromhex(printed) == reference.dumps()
        assert resumed_cubes == "2"
        # the token is exactly its fields (digest, cube ids, aggregate
        # state) as one canonical JSON document: re-encoding them
        # reproduces every byte
        state = read_checkpoint(path)
        assert state.aggregate == reference
        assert state.aggregate.dumps() == reference.dumps()
        with open(path, "rb") as original:
            assert json.loads(original.read())["aggregate"] == reference.state()
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
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY", 1)
        with pytest.raises(KeyboardInterrupt):
            EpaEngine(chain_model(), REQ).aggregate(max_faults=2, checkpoint=path)
        monkeypatch.setattr(engine_module, "write_checkpoint", real_write)
        assert calls == [1, 2]

        resumed = EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=path
        )
        assert resumed.dumps() == reference.dumps()
        state = read_checkpoint(path)
        assert state.aggregate == reference
        assert state.aggregate.dumps() == reference.dumps()

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
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY", 1)
        with pytest.raises(KeyboardInterrupt):
            EpaEngine(chain_model(), REQ).aggregate(max_faults=2, checkpoint=path)
        monkeypatch.setattr(engine_module, "write_checkpoint", real_write)
        low = [replace(requirement, magnitude="L") for requirement in REQ]
        with pytest.raises(EpaError):
            EpaEngine(chain_model(), low).aggregate(max_faults=2, checkpoint=path)

    def test_changed_antichain_cap_refused(self, tmp_path, monkeypatch):
        import repro.epa.engine as engine_module

        path = str(tmp_path / "sweep.ckpt")
        EpaEngine(chain_model(), REQ).aggregate(max_faults=2, checkpoint=path)
        monkeypatch.setattr(engine_module, "DEFAULT_MAX_MINIMAL_SETS", 1)
        with pytest.raises(EpaError, match="antichain cap"):
            EpaEngine(chain_model(), REQ).aggregate(max_faults=2, checkpoint=path)

    def test_unreadable_path_is_an_epa_error(self, tmp_path):
        # a directory where the token should be: refused before any
        # cube runs, naming the path
        with pytest.raises(EpaError, match="cannot read checkpoint") as excinfo:
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=str(tmp_path)
            )
        assert str(tmp_path) in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_unwritable_path_is_an_epa_error(self, tmp_path):
        path = str(tmp_path / "missing" / "sweep.ckpt")
        with pytest.raises(EpaError, match="cannot write checkpoint") as excinfo:
            EpaEngine(chain_model(), REQ).aggregate(max_faults=2, checkpoint=path)
        assert path in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, OSError)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoints_merge_each_cube_at_most_twice(
        self, tmp_path, monkeypatch, workers
    ):
        # a token after every cube: each write extends the token's
        # aggregate with the one new cube instead of re-merging them all
        import repro.epa.engine as engine_module

        merges = []
        real_merge = ScenarioAggregate.merge

        def counted_merge(aggregate, other):
            merges.append(other.scenarios)
            return real_merge(aggregate, other)

        monkeypatch.setattr(ScenarioAggregate, "merge", counted_merge)
        monkeypatch.setattr(engine_module, "CHECKPOINT_EVERY", 1)
        path = str(tmp_path / "sweep.ckpt")
        engine = EpaEngine(chain_model(), REQ, workers=workers)
        aggregate = engine.aggregate(max_faults=2, checkpoint=path)
        cubes = engine.statistics["epa"]["parallel"]["shards"]
        assert cubes >= 4
        assert len(merges) <= 2 * cubes
        assert aggregate.dumps() == _reference(max_faults=2)
        assert read_checkpoint(path).aggregate.dumps() == aggregate.dumps()


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
