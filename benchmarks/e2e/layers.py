"""Per-layer accounting for the traced run.

A :class:`LayerClock` wraps the public entry points of each layer from
the benchmark's side — nothing inside ``src/`` is touched — and keeps
*self time*: a wrapped call's duration minus the wrapped calls nested
in it.  The self times land in the process-wide metrics registry under
``bench_e2e_layer_*``, so the registry snapshots that pool workers
already ship home in their result envelopes carry the workers' layer
times too; they are kept apart with a ``side`` label.  Counts come from
the public statistics trees and the registry (``repro_stage_seconds``,
``repro_parallel_*``, ground-cache counters).  The coarse calls also
open spans on the benchmark's own ``Tracer(MemoryTraceSink())``, which
``run.py`` writes out as one Chrome trace.

Accounting identity: worker-side seconds are divided by the worker
count (on W lanes each lane carries 1/W of them), and ``parallel.wait_s``
is the parent's wait on the pool minus that share, so the additive
layers (:data:`ADDITIVE`) sum to the time spent inside the outermost
wrapped calls — the whole ``run_s`` of a sweep workload.
"""

import functools
import os
import time
from statistics import median, quantiles

from repro import casestudy
from repro.asp import Control, StableModelSolver
from repro.asp import control as control_module
from repro.asp import serialize
from repro.asp.solver import ProjectionIncomplete
from repro.core import pipeline
from repro.epa import EpaEngine, ScenarioAggregate
from repro.observability.metrics import get_registry
from repro.parallel import WorkStealingPool
from repro.security import fleet

PREFIX = "bench_e2e_layer_"

#: layers whose self seconds add up to the time inside wrapped calls
ADDITIVE = (
    "asp.parser",
    "asp.grounder",
    "asp.solver.encode",
    "asp.solver.search",
    "asp.serialize",
    "epa.engine",
    "epa.aggregate.fold",
    "epa.aggregate.codec",
    "parallel.pool",
)

#: ``(name, unit, better)`` of every per-layer metric, in report order
LAYER_METRICS = [
    ("modeling.build_s", "s", "lower"),
    ("asp.parser.parse_s", "s", "lower"),
    ("asp.parser.rules", "count", "lower"),
    ("asp.grounder.ground_s", "s", "lower"),
    ("asp.grounder.ground_rules", "count", "lower"),
    ("asp.grounder.atoms", "count", "lower"),
    ("asp.grounder.cache_hits", "count", "higher"),
    ("asp.grounder.cache_misses", "count", "lower"),
    ("asp.solver.encode_s", "s", "lower"),
    ("asp.solver.variables", "count", "lower"),
    ("asp.solver.search_s", "s", "lower"),
    ("asp.solver.models", "count", "lower"),
    ("asp.solver.projection_fallbacks", "count", "lower"),
    ("asp.sat.conflicts", "count", "lower"),
    ("asp.sat.propagations", "count", "lower"),
    ("asp.sat.learnt", "count", "lower"),
    ("asp.sat.learnt_deleted", "count", "higher"),
    ("asp.sat.restarts", "count", "lower"),
    ("asp.sat.lbd_avg", "lbd", "lower"),
    ("asp.control.solves", "count", "lower"),
    ("asp.control.reground_avoided", "count", "higher"),
    ("epa.engine.extract_s", "s", "lower"),
    ("epa.engine.scenarios", "count", "higher"),
    ("epa.engine.scenarios_per_s", "1/s", "higher"),
    ("epa.engine.point_ms_p50", "ms", "lower"),
    ("epa.engine.point_ms_p90", "ms", "lower"),
    ("epa.engine.core_ms_p50", "ms", "lower"),
    ("epa.engine.reanalyze_ms_p50", "ms", "lower"),
    ("epa.aggregate.fold_s", "s", "lower"),
    ("epa.aggregate.codec_s", "s", "lower"),
    ("epa.aggregate.rag1_bytes", "bytes", "lower"),
    ("asp.serialize.rgp1_s", "s", "lower"),
    ("asp.serialize.rgp1_bytes", "bytes", "lower"),
    ("parallel.cubes", "count", "lower"),
    ("parallel.steals", "count", "lower"),
    ("parallel.respawns", "count", "lower"),
    ("parallel.busy_s.w0", "s", "lower"),
    ("parallel.busy_s.w1", "s", "lower"),
    ("parallel.busy_frac", "frac", "higher"),
    ("parallel.lane_skew", "ratio", "lower"),
    ("parallel.wait_s", "s", "lower"),
    ("mitigation.optimize_s", "s", "lower"),
    ("hierarchy.cegar_s", "s", "lower"),
    ("hierarchy.cegar.iterations", "count", "lower"),
] + [("core.pipeline.phase%d_s" % n, "s", "lower") for n in range(1, 8)] + [
    ("observability.trace_overhead_frac", "frac", "lower"),
]

#: units whose per-run value is the median over traced repetitions;
#: counts come from the first traced repetition (every repetition of a
#: run gets the same inputs)
TIMED_UNITS = ("s", "ms", "1/s", "frac", "ratio")


def _rules(args, result):
    return len(result.rules)


def _variables(args, result):
    return args[0].statistics["variables"]


def _length(args, result):
    return len(result)


def entry_points():
    """``(owner, attribute, layer, options)`` of every wrapped call.

    ``inclusive`` calls report their whole duration and stay out of the
    self-time stack; ``span=False`` marks per-scenario calls too hot for
    one trace event each; ``size`` counts items (rules, variables,
    bytes) from the call's arguments and result.
    """
    return [
        (EpaEngine, "analyze", "epa.engine", {}),
        (EpaEngine, "aggregate", "epa.engine", {}),
        (EpaEngine, "analyze_scenario", "epa.engine", {}),
        (EpaEngine, "blocking_core", "epa.engine", {}),
        (control_module, "parse_program", "asp.parser", {"size": _rules}),
        (Control, "ground", "asp.grounder", {}),
        (Control, "solve", "asp.solver.search", {}),
        (Control, "first_model", "asp.solver.search", {}),
        (Control, "optimize", "asp.solver.search", {}),
        (StableModelSolver, "__init__", "asp.solver.encode", {"size": _variables}),
        (StableModelSolver, "project_models", "asp.solver.search", {}),
        (serialize, "dumps_ground", "asp.serialize", {"size": _length}),
        (serialize, "loads_ground", "asp.serialize", {}),
        (ScenarioAggregate, "add", "epa.aggregate.fold", {"span": False}),
        (ScenarioAggregate, "merge", "epa.aggregate.fold", {"span": False}),
        (
            ScenarioAggregate,
            "dumps",
            "epa.aggregate.codec",
            {"size": _length, "span": False},
        ),
        (ScenarioAggregate, "loads", "epa.aggregate.codec", {"span": False}),
        (WorkStealingPool, "map", "parallel.pool", {}),
        (pipeline, "optimize_asp", "mitigation", {"inclusive": True}),
        (casestudy, "build_system_model", "modeling", {"inclusive": True}),
        (casestudy, "refined_system_model", "modeling", {"inclusive": True}),
        (fleet, "build_fleet_model", "modeling", {"inclusive": True}),
    ]


def registry_totals():
    """Counter values and histogram sums, keyed ``(name, labels)``."""
    totals = {}
    for name, entry in get_registry().to_dict().items():
        for series in entry["series"]:
            labels = tuple(sorted((k, str(v)) for k, v in series["labels"].items()))
            totals[(name, labels)] = series.get("value", series.get("sum", 0.0))
    return totals


def _delta(before, after):
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def stats_delta(current, baseline):
    """Numeric leaves of a statistics tree minus a earlier snapshot."""
    delta = {}
    for key, value in current.items():
        if isinstance(value, dict):
            delta[key] = stats_delta(value, baseline.get(key) or {})
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            delta[key] = value - (baseline.get(key) or 0)
        else:
            delta[key] = value
    return delta


def _path(tree, dotted):
    for key in dotted.split("."):
        if not isinstance(tree, dict):
            return 0
        tree = tree.get(key, 0)
    return tree if isinstance(tree, (int, float)) else 0


class LayerClock:
    """Wrap the layers' entry points for one traced repetition.

    Use as a context manager around set-up and run; call :meth:`mark`
    between them, then :meth:`metrics` after the block.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.home = os.getpid()
        self.frames = []
        self.handles = {}
        self.saved = []
        self.snapshots = []

    def __enter__(self):
        self.snapshots = [registry_totals()]
        for owner, attribute, layer, options in entry_points():
            original = vars(owner)[attribute]
            self.saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer, **options))
        return self

    def __exit__(self, *exc_info):
        for owner, attribute, original in reversed(self.saved):
            setattr(owner, attribute, original)
        self.saved = []
        self.snapshots.append(registry_totals())

    def mark(self):
        """Set-up is over: later layer time belongs to the run."""
        self.snapshots.append(registry_totals())

    def _add(self, kind, layer, amount):
        side = "parent" if os.getpid() == self.home else "worker"
        handle = self.handles.get((kind, layer, side))
        if handle is None:
            handle = get_registry().counter(
                PREFIX + kind, "e2e benchmark layer accounting", layer=layer, side=side
            )
            self.handles[(kind, layer, side)] = handle
        handle.inc(amount)

    def _wrap(self, original, layer, size=None, inclusive=False, span=True):
        bound = isinstance(original, classmethod)
        function = original.__func__ if bound else original
        clock = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            opened = span and os.getpid() == clock.home
            frame = [0.0]
            if not inclusive:
                clock.frames.append(frame)
            started = time.perf_counter()
            try:
                if opened:
                    with clock.tracer.span(layer):
                        result = function(*args, **kwargs)
                else:
                    result = function(*args, **kwargs)
            except ProjectionIncomplete:
                clock._add("fallbacks", layer, 1)
                raise
            finally:
                elapsed = time.perf_counter() - started
                if not inclusive:
                    clock.frames.pop()
                    if clock.frames:
                        clock.frames[-1][0] += elapsed
                    elapsed = max(0.0, elapsed - frame[0])
                clock._add("seconds", layer, elapsed)
            if size is not None:
                clock._add("items", layer, size(args, result))
            return result

        return classmethod(timed) if bound else timed

    def metrics(self, stats, record, workers):
        """Per-layer values of this repetition (see ``LAYER_METRICS``)."""
        setup_start, run_start, run_end = self.snapshots
        setup = _delta(setup_start, run_start)
        run = _delta(run_start, run_end)

        def counter(source, name, **labels):
            key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
            return source.get(key, 0.0)

        def layer(kind, name, side, source=run):
            return counter(source, PREFIX + kind, layer=name, side=side)

        def both(kind, name):
            return layer(kind, name, "parent") + layer(kind, name, "worker")

        def seconds(name):
            return layer("seconds", name, "parent") + layer(
                "seconds", name, "worker"
            ) / workers

        def phase(number):
            return sum(
                value
                for (name, labels), value in run.items()
                if name == "repro_stage_seconds"
                and labels
                and labels[0][1].startswith("phase%d_" % number)
            )

        worker_share = sum(layer("seconds", name, "worker") for name in ADDITIVE)
        busy = [
            counter(run, "repro_parallel_worker_busy_seconds", worker=lane)
            for lane in range(workers)
        ]
        learnt = _path(stats, "solving.solvers.learnt")
        values = {
            "modeling.build_s": layer("seconds", "modeling", "parent", setup),
            "asp.parser.parse_s": seconds("asp.parser"),
            "asp.parser.rules": both("items", "asp.parser"),
            "asp.grounder.ground_s": seconds("asp.grounder"),
            "asp.grounder.ground_rules": counter(run, "repro_ground_rules_total"),
            "asp.grounder.atoms": _path(stats, "grounding.atoms"),
            "asp.grounder.cache_hits": counter(run, "repro_ground_cache_hits_total"),
            "asp.grounder.cache_misses": counter(
                run, "repro_ground_cache_misses_total"
            ),
            "asp.solver.encode_s": seconds("asp.solver.encode"),
            "asp.solver.variables": both("items", "asp.solver.encode"),
            "asp.solver.search_s": seconds("asp.solver.search"),
            "asp.solver.models": _path(stats, "solving.models"),
            "asp.solver.projection_fallbacks": both(
                "fallbacks", "asp.solver.search"
            ),
            "asp.sat.lbd_avg": (
                _path(stats, "solving.solvers.lbd_sum") / learnt if learnt else 0.0
            ),
            "asp.control.solves": _path(stats, "summary.calls"),
            "asp.control.reground_avoided": _path(
                stats, "solving.multishot.reground_avoided"
            ),
            "epa.engine.extract_s": seconds("epa.engine"),
            "epa.engine.scenarios": _path(stats, "epa.scenarios"),
            "epa.engine.scenarios_per_s": record.scenarios / record.run_s,
            "epa.aggregate.fold_s": seconds("epa.aggregate.fold"),
            "epa.aggregate.codec_s": seconds("epa.aggregate.codec"),
            "epa.aggregate.rag1_bytes": both("items", "epa.aggregate.codec"),
            "asp.serialize.rgp1_s": seconds("asp.serialize"),
            "asp.serialize.rgp1_bytes": both("items", "asp.serialize"),
            "parallel.cubes": counter(run, "repro_parallel_cubes_total"),
            "parallel.steals": counter(run, "repro_parallel_steals_total"),
            "parallel.respawns": counter(run, "repro_parallel_respawns_total"),
            "parallel.busy_s.w0": busy[0] if busy else 0.0,
            "parallel.busy_s.w1": busy[1] if len(busy) > 1 else 0.0,
            "parallel.busy_frac": sum(busy) / (workers * record.run_s),
            "parallel.lane_skew": (
                max(busy) * len(busy) / sum(busy) if sum(busy) else 0.0
            ),
            "parallel.wait_s": layer("seconds", "parallel.pool", "parent")
            - worker_share / workers,
            "mitigation.optimize_s": seconds("mitigation"),
            "hierarchy.cegar_s": _path(stats, "cegar.time"),
            "hierarchy.cegar.iterations": counter(
                run, "repro_cegar_iterations_total"
            ),
        }
        for key in ("conflicts", "propagations", "learnt", "learnt_deleted", "restarts"):
            values["asp.sat." + key] = _path(stats, "solving.solvers." + key)
        for number in range(1, 8):
            values["core.pipeline.phase%d_s" % number] = phase(number)
        # the additive metrics above sum to exactly this: worker shares
        # cancel against parallel.wait_s
        values["layer_sum_s"] = sum(
            layer("seconds", name, "parent") for name in ADDITIVE
        )
        return values


def percentile(values, fraction):
    """The ``fraction`` quantile (exclusive method), 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100)[round(fraction * 100) - 1]


def summarize(reps):
    """Per-layer metrics of a traced run: ``{name: value}``.

    Times are as measured (not scaled by host speed): medians over the
    traced repetitions.  Counts come from the first traced repetition, query
    latencies come from the untraced repetitions, and the trace
    overhead compares traced with untraced ``run_s`` at reference host
    speed.
    """
    measured = [rep for rep in reps if "run_s" in rep]
    traced = [rep for rep in measured if rep["traced"] and rep["layers"]]
    plain = [rep for rep in measured if not rep["traced"]]
    summary = {}
    for name, unit, _better in LAYER_METRICS:
        values = [rep["layers"].get(name, 0.0) for rep in traced]
        if not values:
            summary[name] = 0.0
        elif unit in TIMED_UNITS:
            summary[name] = median(values)
        else:
            summary[name] = values[0]
    latencies = {}
    for rep in plain:
        for kind, milliseconds in rep["queries"]:
            latencies.setdefault(kind, []).append(milliseconds)
    summary["epa.engine.point_ms_p50"] = percentile(latencies.get("point", []), 0.5)
    summary["epa.engine.point_ms_p90"] = percentile(latencies.get("point", []), 0.9)
    summary["epa.engine.core_ms_p50"] = percentile(latencies.get("core", []), 0.5)
    summary["epa.engine.reanalyze_ms_p50"] = percentile(
        latencies.get("reanalyze", []), 0.5
    )
    summary["untraced_run_s"] = median(rep["run_s"] for rep in plain) if plain else 0.0
    if traced and plain:
        # traced and untraced repetitions ran at different moments, so
        # compare them at reference host speed
        summary["observability.trace_overhead_frac"] = (
            median(rep["run_s"] * rep["speed"] for rep in traced)
            / median(rep["run_s"] * rep["speed"] for rep in plain)
            - 1.0
        )
    summary["layer_sum_s"] = median(rep["layers"]["layer_sum_s"] for rep in traced) if traced else 0.0
    return summary
