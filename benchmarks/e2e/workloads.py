"""The four end-to-end workloads and the loop that measures them.

Each workload is a closed loop with one client.  One repetition sets up
(timed as ``setup_s``), runs one unit of work (timed as ``run_s``, with
every user-visible call timed as a query), then checks the outputs
against a reference that does not use the path being measured — outside
both timed regions.  Every repetition starts from empty ground and
intern caches, because a CLI user pays grounding on every call.  Why
each workload was chosen is recorded in ``README.md``.
"""

import gc
import itertools
import math
import random
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from statistics import median
from types import SimpleNamespace

from repro import casestudy
from repro.asp import clear_ground_cache, clear_intern_caches
from repro.core import AssessmentPipeline
from repro.epa import EpaEngine, FaultRef
from repro.mitigation import BlockingProblem, optimize_greedy
from repro.observability import MemoryTraceSink, Tracer, to_chrome_trace
from repro.security import builtin_catalog, mitigations_for_mutation
from repro.security.fleet import FleetSpec, fleet_engine

from benchmarks.e2e import layers
from benchmarks.test_bench_multishot import MITIGATIONS, deployment_grid


class Rep:
    """What one repetition measured."""

    def __init__(self, traced):
        self.traced = traced
        self.setup_s = 0.0
        self.run_s = 0.0
        #: ``(kind, milliseconds)`` of every user-visible call
        self.queries = []
        self.scenarios = 0
        self.attempted = 0
        #: one line per failed or wrong operation
        self.failures = []
        self.layers = {}
        #: host speed around this repetition (see :func:`host_speed`);
        #: the times above stay as measured
        self.speed = 1.0

    def to_dict(self):
        return dict(vars(self))


def timed(record, kind, call, *args, **kwargs):
    """Run one user-visible call and record its latency."""
    record.attempted += 1
    started = time.perf_counter()
    result = call(*args, **kwargs)
    record.queries.append((kind, (time.perf_counter() - started) * 1000.0))
    return result


def fault_pairs(model):
    """Every declared (component, fault mode) pair of a model."""
    return [
        (element.identifier, fault["name"])
        for element in model.elements
        for fault in element.properties.get("fault_modes", []) or []
    ]


def scenario_space(pairs, max_faults):
    """Fault subsets of size at most ``max_faults``: the EPA sweep size."""
    return sum(math.comb(pairs, k) for k in range(max_faults + 1))


class Workload:
    """One workload: set up, run one unit of work, check the outputs."""

    #: pool workers the workload's sweeps use (for per-lane accounting)
    workers = 1

    def setup(self, seed):
        raise NotImplementedError

    def run(self, state, record):
        raise NotImplementedError

    def check(self, state, record):
        raise NotImplementedError

    def statistics(self, state):
        """The solver statistics tree of the unit of work."""
        return state.engine.statistics.to_dict()


class TankSweep(Workload):
    """The default ``repro analyze`` path on the water tank."""

    def __init__(self, max_faults=3):
        self.max_faults = max_faults

    def setup(self, seed):
        model = casestudy.build_system_model()
        engine = EpaEngine(model, casestudy.static_requirements())
        return SimpleNamespace(model=model, engine=engine, report=None)

    def run(self, state, record):
        state.report = timed(
            record, "sweep", state.engine.analyze, max_faults=self.max_faults
        )
        record.scenarios += len(state.report)

    def check(self, state, record):
        expected = scenario_space(len(fault_pairs(state.model)), self.max_faults)
        fault_sets = {outcome.active_faults for outcome in state.report.outcomes}
        if len(state.report) != expected or len(fault_sets) != expected:
            record.failures.append(
                "tank-sweep: %d scenarios (%d distinct), expected %d"
                % (len(state.report), len(fault_sets), expected)
            )


class FleetStream(Workload):
    """The bounded-memory cube sweep over seeded synthetic fleets."""

    workers = 2

    def __init__(self, spec, small):
        self.spec = spec
        self.small = small
        #: seeds whose small fleet already passed the sharded == serial check
        self._small_checked = set()

    def setup(self, seed):
        spec = replace(self.spec, seed=seed)
        engine = fleet_engine(spec, workers=self.workers)
        return SimpleNamespace(spec=spec, engine=engine, result=None)

    def run(self, state, record):
        state.result = timed(
            record,
            "sweep",
            state.engine.aggregate,
            max_faults=state.spec.max_faults,
        )
        record.scenarios += state.result.scenarios

    def check(self, state, record):
        expected = state.spec.scenario_count()
        if state.result.scenarios != expected:
            record.failures.append(
                "fleet-stream: %d scenarios, expected %d"
                % (state.result.scenarios, expected)
            )
        if state.spec.seed not in self._small_checked:
            # sharded == serial, byte for byte, on a small fleet of the
            # same seed (the full-size serial sweep is too slow to repeat)
            self._small_checked.add(state.spec.seed)
            small = replace(self.small, seed=state.spec.seed)
            sharded = fleet_engine(small, workers=self.workers).aggregate(
                max_faults=small.max_faults
            )
            serial = fleet_engine(small).aggregate(max_faults=small.max_faults)
            if sharded.dumps() != serial.dumps():
                record.failures.append(
                    "fleet-stream: sharded RAG1 differs from the serial sweep"
                )


class WhatIfSession(Workload):
    """Point checks, blocking cores and re-analyses on one live engine.

    A session re-analyzes and asks a blocking core under each of
    ``deployments`` seed-chosen hardening subsets, with ``points`` point
    checks per subset, in seed-shuffled order.  Learnt clauses pile up on
    the live engine, so later re-analyses in a session run slower than
    early ones and the session's ``run_s`` carries that slowdown.  Eight
    of the 16 subsets keep a session near 3 s, short enough for a median
    over several sessions in one run on a host whose speed drifts.
    """

    def __init__(self, deployments=8, points=7, max_faults=2):
        self.deployments = deployments
        self.points = points
        self.max_faults = max_faults
        self._references = {}

    def setup(self, seed):
        model = casestudy.build_system_model()
        engine = EpaEngine(
            model, casestudy.static_requirements(), fault_mitigations=MITIGATIONS
        )
        engine.analyze(max_faults=self.max_faults)
        return SimpleNamespace(
            engine=engine,
            baseline=engine.statistics.to_dict(),
            queries=self._session(seed, fault_pairs(model)),
            answers=[],
        )

    def _session(self, seed, pairs):
        rng = random.Random(seed)
        queries = []
        for deployment in rng.sample(deployment_grid(), self.deployments):
            queries.append(("reanalyze", deployment, None))
            queries.append(("core", deployment, None))
            for _ in range(self.points):
                faults = rng.sample(pairs, rng.randint(1, self.max_faults))
                queries.append(("point", deployment, faults))
        rng.shuffle(queries)
        return queries

    def run(self, state, record):
        engine = state.engine
        for kind, deployment, faults in state.queries:
            if kind == "point":
                answer = timed(
                    record,
                    kind,
                    engine.analyze_scenario,
                    [FaultRef(*pair) for pair in faults],
                    deployment,
                )
                record.scenarios += 1
            elif kind == "core":
                answer = timed(
                    record,
                    kind,
                    engine.blocking_core,
                    deployment,
                    max_faults=self.max_faults,
                )
            else:
                answer = timed(
                    record,
                    kind,
                    engine.analyze,
                    active_mitigations=deployment,
                    max_faults=self.max_faults,
                )
                record.scenarios += len(answer)
            state.answers.append(answer)

    def _reference(self, deployment):
        """Verdicts from a fresh (non-incremental) engine, per fault set."""
        key = tuple(sorted(deployment))
        verdicts = self._references.get(key)
        if verdicts is None:
            engine = EpaEngine(
                casestudy.build_system_model(),
                casestudy.static_requirements(),
                fault_mitigations=MITIGATIONS,
                incremental=False,
            )
            report = engine.analyze(
                active_mitigations=deployment, max_faults=self.max_faults
            )
            verdicts = {o.active_faults: o.violated for o in report.outcomes}
            self._references[key] = verdicts
        return verdicts

    def check(self, state, record):
        for (kind, deployment, faults), answer in zip(state.queries, state.answers):
            verdicts = self._reference(deployment)
            if kind == "point":
                requested = set(faults)
                active = {(f.component, f.fault) for f in answer.active_faults}
                wrong = (
                    not active <= requested
                    or verdicts.get(answer.active_faults) != answer.violated
                )
            elif kind == "core":
                violable = any(verdicts.values())
                wrong = (answer is None) != violable
            else:
                wrong = {
                    o.active_faults: o.violated for o in answer.outcomes
                } != verdicts
            if wrong:
                record.failures.append(
                    "whatif-session: %s under %s disagrees with the "
                    "non-incremental reference" % (kind, sorted(deployment))
                )

    def statistics(self, state):
        return layers.stats_delta(state.engine.statistics.to_dict(), state.baseline)


class AssessPipeline(Workload):
    """The ``repro assess`` pipeline on the water tank and workstation."""

    def __init__(self, max_faults=1, hazards=32):
        self.max_faults = max_faults
        #: hazards the case study has at this bound (a recorded constant)
        self.hazards = hazards

    def setup(self, seed):
        catalog = builtin_catalog()
        return SimpleNamespace(
            catalog=catalog,
            pipeline=AssessmentPipeline(
                casestudy.static_requirements(), catalog, max_faults=self.max_faults
            ),
            model=casestudy.build_system_model(),
            refined=casestudy.refined_system_model(),
            result=None,
        )

    def run(self, state, record):
        state.result = timed(
            record,
            "assessment",
            state.pipeline.run,
            state.model,
            refined_model=state.refined,
        )
        record.scenarios += len(state.result.report)

    def check(self, state, record):
        result = state.result
        pairs = {(m.component, m.fault) for m in result.mutations}
        expected = scenario_space(len(pairs), self.max_faults)
        if len(result.report) != expected or len(result.hazards) != self.hazards:
            record.failures.append(
                "assess-pipeline: %d scenarios / %d hazards, expected %d / %d"
                % (len(result.report), len(result.hazards), expected, self.hazards)
            )
        greedy = optimize_greedy(blocking_problem(result, state.catalog))
        if result.plan is None or result.plan.cost > greedy.cost:
            record.failures.append(
                "assess-pipeline: plan %s is worse than greedy cost %d"
                % (result.plan, greedy.cost)
            )

    def statistics(self, state):
        return state.result.statistics.to_dict()


def blocking_problem(result, catalog):
    """The phase-7 covering problem, rebuilt from the pipeline's outputs."""
    problem = BlockingProblem()
    for entry in catalog.mitigations:
        problem.add_mitigation(entry.identifier, entry.implementation_cost)
    mutation_by_fault = {m.fault: m for m in result.mutations}
    for outcome in result.hazards:
        blockers = set()
        for fault in outcome.active_faults:
            mutation = mutation_by_fault.get(fault.fault)
            if mutation is not None:
                blockers.update(mitigations_for_mutation(catalog, mutation))
        entry = result.register.by_scenario("+".join(outcome.key()) or "nominal")
        problem.add_scenario(entry.scenario, sorted(blockers), entry.risk)
    return problem


NAMES = ("tank-sweep", "fleet-stream", "whatif-session", "assess-pipeline")


def build(name, tiny=False):
    """A fresh workload; ``tiny`` shrinks every input for smoke tests."""
    if name == "tank-sweep":
        return TankSweep(max_faults=1 if tiny else 3)
    if name == "fleet-stream":
        small = FleetSpec(
            tiers=2, components_per_tier=2, fault_modes_per_component=2, max_faults=2
        )
        spec = FleetSpec(
            tiers=3, components_per_tier=4, fault_modes_per_component=4, max_faults=3
        )
        return FleetStream(small if tiny else spec, small)
    if name == "whatif-session":
        if tiny:
            return WhatIfSession(deployments=2, points=2, max_faults=1)
        return WhatIfSession()
    if name == "assess-pipeline":
        return AssessPipeline()
    raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(NAMES)))


def fresh_caches():
    clear_ground_cache()
    clear_intern_caches()
    gc.collect()


#: seconds :func:`_host_task` takes on the reference host (a
#: 2-vCPU Intel Xeon VM, Python 3.11, in a quiet phase); it only fixes
#: the scale of reported times, the same on every commit
HOST_TASK_REFERENCE_S = 0.012

#: measured seconds between two host-speed calibrations
CALIBRATION_INTERVAL_S = 1.0


def _host_task():
    """A fixed pure-Python task shaped like the engine's own work —
    tuple-keyed dicts, formatted strings, sorting, frozensets — and
    touching nothing of the program, so no change to it can move it."""
    table = {}
    for i in range(12000):
        key = (i % 211, "t%d" % (i % 97))
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return len({frozenset(key) for key, _ in ordered})


def host_speed():
    """Reference time over measured time of :func:`_host_task` (median of 5).

    The benchmark's host is a shared VM whose speed drifts by tens of
    percent, at times twofold, over seconds to minutes, so whole runs
    can land in a slow phase; the program slows with the task, so
    scaling a repetition's end-to-end times by this factor reports them
    at reference host speed.
    """
    samples = []
    # with the collector off the task's time cannot depend on how much
    # of the program's heap is still alive
    gc.disable()
    try:
        _host_task()  # untimed: the first run pays for cold allocator pages
        for _ in range(5):
            started = time.perf_counter()
            _host_task()
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return HOST_TASK_REFERENCE_S / median(samples)


def measure(workload, seed, seconds, trace=False):
    """Repeat the workload on the same inputs for ``seconds`` of set-up
    plus run time.

    A repetition is started only while the median repetition still fits
    the budget.  Every repetition gets the inputs of ``seed``, so however
    many fit, the median is taken over one input set.  The host speed is
    calibrated before the first repetition, after the last, and whenever
    a second of measuring has passed; each repetition's ``speed`` is the
    mean of the calibrations around it.  With ``trace``, repetitions
    alternate untraced and traced (odd ones), the traced ones under a
    :class:`layers.LayerClock`; the untraced ones still give the
    end-to-end numbers.  Returns ``{"reps": [...], "trace": <chrome
    trace or None>}``.
    """
    reps = []
    spent = []
    #: ``(repetitions measured before it, speed)`` per calibration
    speeds = [(0, host_speed())]
    since_calibration = 0.0
    tracer = Tracer(MemoryTraceSink()) if trace else None
    minimum = 2 if trace else 1
    for index in itertools.count():
        record = Rep(traced=trace and index % 2 == 1)
        fresh_caches()
        if since_calibration >= CALIBRATION_INTERVAL_S:
            speeds.append((index, host_speed()))
            since_calibration = 0.0
        clock = layers.LayerClock(tracer) if record.traced else nullcontext()
        try:
            with clock:
                started = time.perf_counter()
                state = workload.setup(seed)
                set_up = time.perf_counter()
                if record.traced:
                    clock.mark()
                workload.run(state, record)
                finished = time.perf_counter()
            record.setup_s = set_up - started
            record.run_s = finished - set_up
            if record.traced:
                record.layers = clock.metrics(
                    workload.statistics(state), record, workload.workers
                )
            workload.check(state, record)
        except Exception:  # the benchmark must report, not crash
            record.attempted += 1
            record.failures.append(traceback.format_exc())
            reps.append(record)
            break
        finally:
            # one repetition's state at a time: peak RSS and the next
            # set-up must not see the previous engine
            state = None
        reps.append(record)
        spent.append(record.setup_s + record.run_s)
        since_calibration += spent[-1]
        if len(reps) >= minimum and sum(spent) + median(spent) > seconds:
            break
    fresh_caches()
    speeds.append((len(reps), host_speed()))
    for index, record in enumerate(reps):
        before = [speed for count, speed in speeds if count <= index][-1]
        after = [speed for count, speed in speeds if count > index][0]
        record.speed = (before + after) / 2.0
    chrome = to_chrome_trace(tracer.sink.events) if trace else None
    return {"reps": [rep.to_dict() for rep in reps], "trace": chrome}
