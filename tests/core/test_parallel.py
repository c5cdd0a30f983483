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

from repro.asp import serialize
from repro.asp.solver import ProjectionIncomplete, StableModelSolver
from repro.epa import EpaEngine, EpaError, FaultRef, StaticRequirement
from repro.epa import engine as engine_module
from repro.hierarchy.cegar import cegar_loop
from repro.observability import SolveStats
from repro.parallel import ParallelError, merge_stats, parallel_map
from repro.qualitative.spaces import QuantitySpace
from repro.risk.sensitivity import one_at_a_time
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


def _square(value):  # must be module-level: the process backend pickles it
    return value * value


def _die(payload):  # simulates a worker killed by the OS (OOM, signal)
    os._exit(1)


def _explode(payload):  # a cube that raises instead of finishing
    raise RuntimeError("cube %d failed" % payload["index"])


class TestParallelMap:
    def test_preserves_submission_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4) == [
            value * value for value in items
        ]

    def test_degenerate_cases_run_sequentially(self):
        assert parallel_map(_square, [3], workers=8) == [9]
        assert parallel_map(_square, [2, 3], workers=1) == [4, 9]
        assert parallel_map(_square, [], workers=4) == []

    def test_thread_backend_supports_closures(self):
        offset = 10
        results = parallel_map(
            lambda v: v + offset, range(8), workers=4, backend="thread"
        )
        assert results == [v + 10 for v in range(8)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], workers=2, backend="fiber")

    def test_function_exceptions_propagate(self):
        def boom(value):
            raise KeyError(value)

        with pytest.raises(KeyError):
            parallel_map(boom, [1, 2, 3], workers=2, backend="thread")

    def test_crashed_worker_raises_parallel_error(self):
        with pytest.raises(ParallelError):
            parallel_map(_die, [1, 2, 3, 4], workers=2)


class TestMergeStats:
    def test_numeric_leaves_sum(self):
        target = SolveStats()
        target.incr("solving.models", 2)
        merged = merge_stats(
            target,
            [
                {"solving": {"models": 3}, "summary": {"calls": 1}},
                {"solving": {"models": 5}},
            ],
        )
        assert merged["solving"]["models"] == 10
        assert merged["summary"]["calls"] == 1


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
        monkeypatch.setattr(engine_module, "_sweep_worker", _die)
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

    def test_sweeps_leave_no_published_context(self, monkeypatch):
        # every sweep publishes a ground program and a solver template
        # for its workers; none may outlive the sweep, or a what-if
        # session grows by one entry per deployment it re-analyzes
        contexts = dict(engine_module._CUBE_CONTEXTS)
        programs = dict(serialize._SHARED)
        engine = EpaEngine(chain_model(), REQ, fault_mitigations=MITIGATIONS)
        sharded = EpaEngine(
            chain_model(), REQ, fault_mitigations=MITIGATIONS, workers=2
        )
        for deployment in ({}, {"s": ("shielding",)}, {"c": ("hardening",)}):
            engine.analyze(active_mitigations=deployment, max_faults=2)
            engine.aggregate(active_mitigations=deployment, max_faults=2)
            sharded.analyze(active_mitigations=deployment, max_faults=2)
        monkeypatch.setattr(engine_module, "_sweep_worker", _explode)
        with pytest.raises(RuntimeError):
            engine.analyze(max_faults=2)
        assert engine_module._CUBE_CONTEXTS == contexts
        assert serialize._SHARED == programs


class TestThreadedCallers:
    def test_cegar_verdicts_match_sequential(self):
        engine = EpaEngine(chain_model(), REQ)
        report = engine.analyze(max_faults=2)
        oracle = lambda outcome: outcome.fault_count <= 1
        run = lambda workers: cegar_loop(
            analysis=lambda: report,
            oracle=oracle,
            refiner=lambda spurious: None,
            workers=workers,
        )
        sequential, threaded = run(None), run(4)
        assert [o.key() for o in threaded.confirmed] == [
            o.key() for o in sequential.confirmed
        ]
        assert threaded.converged == sequential.converged

    def test_sensitivity_results_match_sequential(self):
        space = QuantitySpace("risk", ("VL", "L", "M", "H", "VH"))
        table = {
            ("L", "VL"): "VL",
            ("L", "L"): "VL",
            ("L", "M"): "L",
            ("L", "VH"): "M",
        }
        function = lambda lef, lm: table[(lef, lm)]
        kwargs = dict(
            fixed={"lef": "L"},
            uncertain={"lm": ("VL", "L", "M", "VH")},
            outcome_space=space,
        )
        assert one_at_a_time(function, workers=4, **kwargs) == one_at_a_time(
            function, **kwargs
        )


def _sleep_square(payload):  # skewed task cost: (seconds, value)
    seconds, value = payload
    import time

    time.sleep(seconds)
    return value * value


def _die_once(payload):  # crashes the first time only (flag-file trick)
    flag, value = payload
    if os.path.exists(flag):
        return value * value
    with open(flag, "w"):
        pass
    os._exit(1)


def _raise_tagged(value):
    raise KeyError("nope-%d" % value)


class TestWorkStealingPool:
    def test_preserves_submission_order(self):
        from repro.parallel import WorkStealingPool

        pool = WorkStealingPool(4)
        items = list(range(17))
        assert pool.map(_square, items) == [v * v for v in items]
        assert sorted(pool.last_assignments) == items

    def test_degenerate_runs_inline(self):
        from repro.parallel import WorkStealingPool

        pool = WorkStealingPool(1)
        assert pool.map(_square, [2, 3]) == [4, 9]
        assert pool.last_assignments == {0: 0, 1: 0}
        # a single item never forks either, whatever the worker count
        assert WorkStealingPool(8).map(_square, [5]) == [25]

    def test_invalid_worker_count_rejected(self):
        from repro.parallel import WorkStealingPool

        with pytest.raises(ValueError):
            WorkStealingPool(0)

    def test_skewed_tasks_trigger_steals(self):
        from repro.observability.metrics import get_registry
        from repro.parallel import WorkStealingPool

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
        from repro.parallel import WorkStealingPool

        # the task kills its worker once, then succeeds on the retry:
        # the pool must respawn the worker and still return every result
        flag = str(tmp_path / "died-once")
        items = [(flag, value) for value in range(4)]
        results = WorkStealingPool(2).map(_die_once, items)
        assert results == [value * value for value in range(4)]

    def test_repeated_crashes_exhaust_attempts(self):
        from repro.parallel import MAX_TASK_ATTEMPTS, WorkStealingPool

        with pytest.raises(ParallelError) as excinfo:
            WorkStealingPool(2).map(_die, list(range(4)))
        assert str(MAX_TASK_ATTEMPTS) in str(excinfo.value)

    def test_function_exception_carries_worker_traceback(self):
        from repro.parallel import WorkStealingPool

        with pytest.raises(KeyError) as excinfo:
            WorkStealingPool(2).map(_raise_tagged, [1, 2, 3])
        cause = excinfo.value.__cause__
        assert isinstance(cause, ParallelError)
        assert cause.worker_traceback is not None
        assert "_raise_tagged" in cause.worker_traceback

    def test_dead_worker_warns_before_the_respawn(self, tmp_path):
        from repro.observability.metrics import get_registry
        from repro.parallel import WorkStealingPool

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


def _force_fallback(monkeypatch):
    """Make every cube's projected enumeration give up at once, so the
    sweep redoes each cube on the CDCL enumerator."""

    def raiser(self, project, on_model, assumptions=()):
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


def _sweep(monkeypatch, factory, variant, **kwargs):
    options, method, fallback = SWEEPS[variant]
    if fallback:
        _force_fallback(monkeypatch)
    engine = factory(**options)
    return engine, getattr(engine, method)(**kwargs)


class TestParallelByteIdentity:
    """Every sweep variant reproduces the CDCL reference."""

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    @pytest.mark.parametrize("variant", sorted(SWEEPS))
    def test_chain_sweep_matches_cdcl_reference(self, monkeypatch, variant, case):
        chain = lambda **options: EpaEngine(
            chain_model(), REQ, fault_mitigations=MITIGATIONS, **options
        )
        reference = cdcl_reference(chain(), **CHAIN_CASES[case])
        engine, result = _sweep(monkeypatch, chain, variant, **CHAIN_CASES[case])
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
        parallel = EpaEngine(
            chain_model(), REQ, workers=4, parallel_mode="cube"
        ).analyze(max_faults=2)
        assert parallel.outcomes == reference

    def test_portfolio_scenario_verdict_matches_sequential(self):
        serial_engine = EpaEngine(chain_model(), REQ)
        portfolio_engine = EpaEngine(
            chain_model(), REQ, workers=2, parallel_mode="portfolio"
        )
        report = serial_engine.analyze(max_faults=1)
        target = next(
            o for o in report.outcomes if o.fault_count == 1
        ).active_faults
        serial = serial_engine.analyze_scenario(target)
        raced = portfolio_engine.analyze_scenario(target)
        assert raced.violated == serial.violated
        assert raced.severity_rank == serial.severity_rank

    def test_invalid_parallel_mode_rejected(self):
        with pytest.raises(EpaError):
            EpaEngine(chain_model(), REQ, parallel_mode="bogus")
