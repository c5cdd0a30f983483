"""Tests for the worker-pool layer and the EPA cube sweep.

The contract under test: every sweep variant — ``analyze`` and
``aggregate``, in-process or sharded, with or without the CDCL fallback
— reproduces the CDCL reference enumeration (:mod:`tests.cdcl_reference`),
and pool-level failures surface as clean exceptions — a crashed worker
process must become an :class:`~repro.epa.EpaError`, never a hang or a
half-filled report.
"""

import functools
import os

import pytest

from repro.asp.solver import ProjectionIncomplete, StableModelSolver
from repro.epa import EpaEngine, EpaError, FaultRef, StaticRequirement
from repro.epa import engine as engine_module
from repro.observability.metrics import get_registry
from repro.parallel import ParallelError, WorkStealingPool
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from tests.cdcl_reference import cdcl_outcomes, cdcl_reference, rag1

REQ = [
    StaticRequirement("rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"),
]

#: chain faults that a (made-up) training mitigation can suppress
MITIGATIONS = {
    "no_signal": ("shielding",),
    "compromised": ("hardening", "monitoring"),
    "stuck_at_open": ("maintenance",),
}


def chain_model():
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


def _square(value, emit):  # must be module-level: pool workers pickle it
    return value * value


def _die(item, emit):  # simulates a worker killed by the OS (OOM, signal)
    os._exit(1)


def _die_on_cube(context, item, emit):  # a ``_sweep_worker`` stand-in
    _die(item, emit)


def _count_task(value, emit):  # records one metric in its own process
    get_registry().counter(
        "repro_test_pool_tasks_total", "tasks run by the pool metrics test"
    ).inc()
    return value


class TestShardedAnalyze:
    def test_parallel_report_equals_sequential(self):
        reference = cdcl_outcomes(EpaEngine(chain_model(), REQ), max_faults=2)
        parallel = EpaEngine(chain_model(), REQ, workers=4).analyze(max_faults=2)
        assert parallel.outcomes == reference

    def test_parallel_run_accounts_shards_in_stats(self):
        engine = EpaEngine(chain_model(), REQ, workers=4)
        engine.analyze(max_faults=1)
        stats = engine.statistics
        assert stats["epa"]["parallel"]["shards"] >= 4
        assert stats["epa"]["parallel"]["workers"] == 4
        # worker solving counters were folded back into the parent tree
        assert stats["solving"]["models"] >= 10

    def test_crashed_worker_becomes_epa_error(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_sweep_worker", _die_on_cube)
        engine = EpaEngine(chain_model(), REQ, workers=4)
        with pytest.raises(EpaError):
            engine.analyze(max_faults=1)

    def test_serial_sweep_accounts_cubes_in_stats(self):
        engine = EpaEngine(chain_model(), REQ)
        aggregate = engine.aggregate(max_faults=1)
        stats = engine.statistics
        assert stats["epa"]["parallel"]["shards"] >= 2
        assert stats["epa"]["parallel"]["workers"] == 1
        assert stats["epa"]["parallel"]["fallbacks"] == 0
        assert stats["solving"]["models"] == aggregate.scenarios == 10


def _sleep_square(payload, emit):  # skewed task cost: (seconds, value)
    seconds, value = payload
    import time

    time.sleep(seconds)
    return value * value


def _die_once(payload, emit):  # crashes the first time only (flag-file trick)
    flag, value = payload
    if os.path.exists(flag):
        return value * value
    with open(flag, "w"):
        pass
    os._exit(1)


def _raise_tagged(value, emit):
    raise KeyError("nope-%d" % value)


def _die_while_shipping(payload, emit):
    """Item 1's first attempt dies while a large partial is in flight:
    the parent is still busy with the small partial before it."""
    import time

    flag, value = payload
    emit(("small", value))
    emit(("large", value, b"x" * (1 << 20)))
    if value == 1 and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        time.sleep(0.1)
        os._exit(1)
    return value


class TestWorkStealingPool:
    def test_preserves_submission_order(self):
        pool = WorkStealingPool(4)
        items = list(range(17))
        assert pool.map(_square, items) == [v * v for v in items]
        assert sorted(pool.last_assignments) == items

    def test_degenerate_runs_inline(self):
        pool = WorkStealingPool(1)
        assert pool.map(_square, [2, 3]) == [4, 9]
        assert pool.last_assignments == {0: 0, 1: 0}
        # a single item never forks either, whatever the worker count
        assert WorkStealingPool(8).map(_square, [5]) == [25]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingPool(0)

    def test_skewed_tasks_trigger_steals(self):

        # home tags are index % workers: even items land on worker 0 and
        # sleep, odd items land on worker 1 and return immediately —
        # worker 1 must steal worker 0's backlog to finish the batch
        items = [(0.2 if i % 2 == 0 else 0.0, i) for i in range(8)]
        steals = get_registry().counter(
            "repro_parallel_steals_total",
            "tasks executed by a worker other than their home worker",
        )
        before = steals.value
        results = WorkStealingPool(2).map(_sleep_square, items)
        assert results == [i * i for i in range(8)]
        assert steals.value > before

    def test_crashed_worker_retries_and_recovers(self, tmp_path):
        # the task kills its worker once, then succeeds on the retry:
        # the pool must respawn the worker and still return every result
        flag = str(tmp_path / "died-once")
        items = [(flag, value) for value in range(4)]
        results = WorkStealingPool(2).map(_die_once, items)
        assert results == [value * value for value in range(4)]

    def test_repeated_crashes_exhaust_attempts(self):
        from repro.parallel import MAX_TASK_ATTEMPTS

        with pytest.raises(ParallelError) as excinfo:
            WorkStealingPool(2).map(_die, list(range(4)))
        assert str(MAX_TASK_ATTEMPTS) in str(excinfo.value)

    def test_death_while_shipping_a_partial_does_not_wedge_the_pool(
        self, tmp_path
    ):
        import threading
        import time

        # the worker dies while its large partial is still being
        # written; the respawned worker's messages must get through
        def on_partial(index, value):
            if value[0] == "small" and index == 1:
                time.sleep(0.5)

        flag = str(tmp_path / "died-once")
        items = [(flag, value) for value in range(4)]
        outcome = {}

        def run():
            outcome["results"] = WorkStealingPool(2).map(
                _die_while_shipping, items, on_partial=on_partial
            )

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "pool wedged after a worker death"
        assert outcome["results"] == list(range(4))

    def test_empty_batch(self):
        pool = WorkStealingPool(4)
        assert pool.map(_square, []) == []
        assert pool.last_assignments == {}

    def test_more_workers_than_items(self):
        # only as many workers as items are spawned: every lane that ran
        # a task is one of the first three
        pool = WorkStealingPool(8)
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert sorted(pool.last_assignments) == [0, 1, 2]
        assert set(pool.last_assignments.values()) <= {0, 1, 2}

    def test_inprocess_exception_propagates_unwrapped(self):
        # no process boundary was crossed: nothing to chain
        with pytest.raises(KeyError) as excinfo:
            WorkStealingPool(1).map(_raise_tagged, [1, 2])
        assert excinfo.value.__cause__ is None
        assert "nope-1" in str(excinfo.value)

    def test_function_exception_carries_worker_traceback(self):
        with pytest.raises(KeyError) as excinfo:
            WorkStealingPool(2).map(_raise_tagged, [1, 2, 3])
        cause = excinfo.value.__cause__
        assert isinstance(cause, ParallelError)
        assert cause.worker_traceback is not None
        assert "_raise_tagged" in cause.worker_traceback

    def test_dead_worker_warns_before_the_respawn(self, tmp_path):

        stalled = get_registry().counter(
            "repro_worker_stalled_total",
            "pool workers detected stalled (silent past the timeout) or "
            "dead while holding a task",
        )
        respawns = get_registry().counter(
            "repro_parallel_respawns_total",
            "worker processes respawned after dying mid-task",
        )
        stalled_before = stalled.value
        respawns_before = respawns.value
        events = []

        def on_stall(worker, task, silent_s, reason):
            # capture the respawn counter *at warning time*: the health
            # warning must precede the respawn it explains
            events.append((worker, task, reason, respawns.value))

        flag = str(tmp_path / "died-once")
        items = [(flag, value) for value in range(4)]
        results = WorkStealingPool(2, on_stall=on_stall).map(_die_once, items)
        assert results == [value * value for value in range(4)]
        died = [event for event in events if event[2] == "died"]
        assert died, "worker death must raise a health warning"
        assert stalled.value > stalled_before
        assert died[0][3] == respawns_before
        assert respawns.value > respawns_before

    def test_worker_metrics_reach_the_parent_once(self):
        # every task bumps the counter once in whichever process runs
        # it; the parent must see each bump exactly once
        registry = get_registry()
        for workers in (2, 1):
            registry.reset()
            assert WorkStealingPool(workers).map(_count_task, range(4)) == [
                0, 1, 2, 3
            ]
            assert registry.counter("repro_test_pool_tasks_total").value == 4


def _force_fallback(monkeypatch):
    """Make every cube's projected enumeration give up at once, so the
    sweep redoes each cube on the CDCL enumerator."""

    def raiser(self, project, on_model, assumptions=(), max_true=None):
        raise ProjectionIncomplete("forced by test")

    monkeypatch.setattr(StableModelSolver, "project_models", raiser)


#: every way to run a full sweep, as ``(engine options, method, forced
#: CDCL fallback)``
SWEEPS = {
    "analyze": ({}, "analyze", False),
    "analyze-2-workers": ({"workers": 2}, "analyze", False),
    "aggregate": ({}, "aggregate", False),
    "aggregate-2-workers": ({"workers": 2}, "aggregate", False),
    "analyze-fallback": ({}, "analyze", True),
}

#: chain-model sweep arguments the variants are checked under
CHAIN_CASES = {
    "unbounded": {},
    "max-faults-1": {"max_faults": 1},
    "max-faults-2": {"max_faults": 2},
    "deployment": {
        "active_mitigations": {"s": ("shielding",), "c": ("hardening",)},
        "max_faults": 2,
    },
    "restriction": {
        "restrict_faults": [
            FaultRef("s", "no_signal"),
            FaultRef("c", "crash"),
            FaultRef("v", "stuck_at_open"),
        ],
        "max_faults": 2,
    },
    # the engine's template has already swept under another deployment
    # and bound: nothing of that sweep may leak into this one
    "warm-template": {
        "warm_up": {"active_mitigations": {"v": ("maintenance",)}, "max_faults": 1},
        "active_mitigations": {"c": ("monitoring",)},
        "max_faults": 3,
    },
}


def _security_tank(**options):
    """The water tank with the security mutations ``repro assess`` adds."""
    from repro.casestudy import build_system_model, static_requirements
    from repro.security import (
        builtin_catalog,
        candidate_mutations,
        mitigations_for_mutation,
    )

    model = build_system_model()
    catalog = builtin_catalog()
    mutations = candidate_mutations(model, catalog)
    fault_mitigations = {}
    for mutation in mutations:
        applicable = mitigations_for_mutation(catalog, mutation)
        if applicable:
            fault_mitigations[mutation.fault] = tuple(applicable)
    return EpaEngine(
        model,
        static_requirements(),
        fault_mitigations=fault_mitigations,
        extra_mutations=tuple(m for m in mutations if m.origin_kind != "fault"),
        **options
    )


def _tank(**options):
    from repro.casestudy import build_system_model, static_requirements

    return EpaEngine(build_system_model(), static_requirements(), **options)


def _fleet(**options):
    """A seeded synthetic fleet (three tiers, twelve fault pairs)."""
    from repro.security.fleet import FleetSpec, fleet_engine

    spec = FleetSpec(
        seed=7, tiers=3, components_per_tier=2, fault_modes_per_component=2
    )
    return fleet_engine(spec, **options)


@functools.lru_cache(maxsize=None)
def _model_reference(factory, max_faults):
    return cdcl_reference(factory(), max_faults=max_faults)


def _sweep(monkeypatch, factory, variant, warm_up=None, **kwargs):
    """Run one sweep variant; ``warm_up`` (sweep arguments) runs a first
    sweep on the same engine, so the measured one reuses its template."""
    options, method, fallback = SWEEPS[variant]
    if fallback:
        _force_fallback(monkeypatch)
    engine = factory(**options)
    if warm_up is not None:
        getattr(engine, method)(**warm_up)
    return engine, getattr(engine, method)(**kwargs)


class TestParallelByteIdentity:
    """Every sweep variant reproduces the CDCL reference."""

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    @pytest.mark.parametrize("variant", sorted(SWEEPS))
    def test_chain_sweep_matches_cdcl_reference(self, monkeypatch, variant, case):
        chain = lambda **options: EpaEngine(
            chain_model(), REQ, fault_mitigations=MITIGATIONS, **options
        )
        arguments = dict(CHAIN_CASES[case])
        warm_up = arguments.pop("warm_up", None)
        reference = cdcl_reference(chain(), **arguments)
        engine, result = _sweep(
            monkeypatch, chain, variant, warm_up=warm_up, **arguments
        )
        assert rag1(engine, result) == reference
        if SWEEPS[variant][2]:
            assert engine.statistics["epa"]["parallel"]["fallbacks"] > 0

    @pytest.mark.parametrize(
        "factory, max_faults", [(_tank, 2), (_security_tank, 1), (_fleet, 2)]
    )
    @pytest.mark.parametrize("variant", sorted(SWEEPS))
    def test_model_sweep_matches_cdcl_reference(
        self, monkeypatch, variant, factory, max_faults
    ):
        engine, result = _sweep(monkeypatch, factory, variant, max_faults=max_faults)
        assert rag1(engine, result) == _model_reference(factory, max_faults)

    def test_restricted_sweep_matches_sequential(self):
        restrict = CHAIN_CASES["restriction"]["restrict_faults"]
        reference = cdcl_outcomes(
            EpaEngine(chain_model(), REQ), max_faults=2, restrict_faults=restrict
        )
        parallel = EpaEngine(chain_model(), REQ, workers=4).analyze(
            max_faults=2, restrict_faults=restrict
        )
        assert parallel.outcomes == reference

    def test_with_paths_matches_sequential(self, monkeypatch):
        reference = cdcl_outcomes(
            EpaEngine(chain_model(), REQ), max_faults=2, with_paths=True
        )
        factory = lambda **options: EpaEngine(chain_model(), REQ, **options)
        assert any(o.paths for o in reference)
        # the forced fallback patches the solver class: run it last
        for variant in ("analyze", "analyze-2-workers", "analyze-fallback"):
            _engine, report = _sweep(
                monkeypatch, factory, variant, max_faults=2, with_paths=True
            )
            # full outcome equality: erroneous components, detection
            # points and propagation paths included
            assert report.outcomes == reference, variant

    def test_cube_mode_matches_sequential(self):
        reference = cdcl_outcomes(EpaEngine(chain_model(), REQ), max_faults=2)
        parallel = EpaEngine(chain_model(), REQ, workers=4).analyze(
            max_faults=2
        )
        assert parallel.outcomes == reference

    @pytest.mark.parametrize("incremental", [True, False])
    def test_scenario_verdict_matches_sequential(self, incremental):
        # single-scenario queries never shard: ``workers`` must not
        # change what ``analyze_scenario`` answers
        serial_engine = EpaEngine(chain_model(), REQ, incremental=incremental)
        sharded_engine = EpaEngine(
            chain_model(), REQ, workers=2, incremental=incremental
        )
        report = serial_engine.analyze(max_faults=1)
        targets = [o.active_faults for o in report.outcomes if o.fault_count == 1]
        assert targets
        for target in targets:
            serial = serial_engine.analyze_scenario(target)
            sharded = sharded_engine.analyze_scenario(target)
            assert sharded.key() == serial.key()
            assert sharded.violated == serial.violated
            assert sharded.severity_rank == serial.severity_rank


class TestSweepState:
    """A sweep's state travels with its pool task, nowhere else."""

    def test_concurrent_in_process_sweeps_stay_apart(self):
        import sys
        import threading

        bounds = (2, 3)
        references = {
            max_faults: _tank().analyze(max_faults=max_faults).outcomes
            for max_faults in bounds
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the sweeps finely
        try:
            for _trial in range(3):
                barrier = threading.Barrier(len(bounds), timeout=30)
                outcomes = {}

                def sweep(max_faults):
                    engine = _tank()
                    barrier.wait()
                    outcomes[max_faults] = engine.analyze(
                        max_faults=max_faults
                    ).outcomes

                threads = [
                    threading.Thread(target=sweep, args=(max_faults,))
                    for max_faults in bounds
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert outcomes == references
        finally:
            sys.setswitchinterval(interval)

    def test_engine_refuses_other_threads(self):
        import threading

        engine = EpaEngine(chain_model(), REQ)
        calls = {
            "analyze": lambda: engine.analyze(max_faults=1),
            "aggregate": lambda: engine.aggregate(max_faults=1),
            "analyze_scenario": lambda: engine.analyze_scenario(()),
            "blocking_core": lambda: engine.blocking_core({}, max_faults=1),
        }
        refused = {}

        def run():
            for name, call in calls.items():
                try:
                    call()
                except EpaError as error:
                    refused[name] = str(error)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert sorted(refused) == sorted(calls)
        # the building thread is still served
        assert len(engine.analyze(max_faults=1)) == 10

    def test_spawn_workers_rebuild_the_bound_context(self, monkeypatch):
        chain = lambda: EpaEngine(chain_model(), REQ, fault_mitigations=MITIGATIONS)
        aggregate = chain().aggregate(max_faults=2).dumps()
        outcomes = chain().analyze(max_faults=2).outcomes
        monkeypatch.setattr(
            engine_module,
            "WorkStealingPool",
            functools.partial(WorkStealingPool, context="spawn"),
        )
        assert chain().aggregate(max_faults=2, workers=2).dumps() == aggregate
        assert chain().analyze(max_faults=2, workers=2).outcomes == outcomes
