"""The qualitative EPA engine (topology-level analysis).

Joins the system-model facts, the EPA rule base, the mitigation
configuration and the safety requirements into one ASP program whose
stable models are exactly the candidate attack/fault scenarios; every
scenario is checked exhaustively ("all the candidate attack scenarios
over the joint model undergo exhaustive analysis by automated formal
methods", Fig. 1 step 4).

Observability: the engine aggregates the statistics of every solve it
issues into one :class:`~repro.observability.SolveStats`, exposed as
:attr:`EpaEngine.statistics` (per-call counts live under its ``epa``
section).  Pass ``trace=`` a sink to stream grounder/solver events plus
``epa.analyze`` summaries.

Enumeration: every full sweep — :meth:`EpaEngine.analyze` and
:meth:`EpaEngine.aggregate`, serial or sharded — runs through one cube
sweep.  The parent grounds once per engine: its first sweep builds a
sweep template (:class:`_SweepTemplate` — the point control's ground
program, with the deployment as externals and no fault bound, plus one
solver and its probe tables) that every later sweep reuses, so the
what-if loop of Fig. 1 re-analyzes deployment after deployment without
grounding or encoding anything.  A sweep turns what varies into
assumptions on the template (the deployment's external truth values, a
restriction's disallowed faults, each cube's pins) and the fault bound
into the DFS's ``max_true``; splits the fault-choice space into
size-bounded cubes, largest first (see :mod:`repro.asp.cubes`); binds
template and assumptions into one worker function
(:class:`_SweepContext`; fork-started workers inherit it with the
process, spawn-started ones unpickle it once); and maps that function
over the cubes on a :class:`~repro.parallel.WorkStealingPool` (with one
worker the pool runs in-process, so serial is simply the one-worker
case).  Every sweep pushes and pops on the template's one solver
trail, so an engine serves only the thread that built it (its sweeps,
point queries and blocking cores raise :class:`EpaError` anywhere
else); engines built on separate threads do not interfere.  Each cube
runs the propagation-driven projected enumeration
(:meth:`~repro.asp.solver.StableModelSolver.project_models`) and reads
outcomes straight off the assignment through the probe tables; a cube
whose leaves propagation cannot settle (:class:`ProjectionIncomplete`)
is redone on the CDCL enumerator over the sweep's bounded program,
ground where the cube runs.  The parent folds the shipped chunks
into the outcome list of an :class:`EpaReport` (``analyze``) or into a
:class:`~repro.epa.aggregate.ScenarioAggregate` (``aggregate``).  Cubes
partition the scenario space, so the result is the same for every
worker count (see ``docs/parallelism.md``).
:meth:`EpaEngine.analyze_stream` enumerates the same space lazily with
the CDCL enumerator alone — the independent reference the differential
tests compare the sweep against.

Point queries: by default :meth:`EpaEngine.analyze_scenario` keeps one
persistent multi-shot :class:`~repro.asp.Control` that declares the
mitigation deployments (``active_mitigation``) as external atoms, so
what-if queries flip assumptions instead of regrounding program text
(``incremental=False`` builds a fresh control per query).  Its ground
program is the sweep template's, so sweeps and point queries share one
grounding even when a trace sink bypasses the process-wide ground
cache.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from ..asp import Control, Model, atom
from ..asp.cubes import balanced_cubes, order_by_occurrence
from ..asp.sat import TRUE
from ..asp.ground import GroundProgram
from ..asp.serialize import dumps_ground, loads_ground
from ..asp.solver import ProjectionIncomplete, StableModelSolver
from ..asp.syntax import Atom, Program
from ..asp.terms import Number
from ..observability import NULL_SINK, SolveStats, Tracer
from ..observability.health import default_on_stall
from ..observability.metrics import record_peak_rss
from ..observability.progress import ProgressTracker
from ..modeling.model import SystemModel
from ..modeling.to_asp import to_asp_program
from ..parallel import ParallelError, WorkStealingPool
from ..provenance import minimize_core
from ..security.mapping import CandidateMutation
from .aggregate import (
    DEFAULT_MAX_MINIMAL_SETS,
    ScenarioAggregate,
    read_checkpoint,
    write_checkpoint,
)
from .faults import FaultRef
from .results import EpaReport, PropagationStep, ScenarioOutcome
from .rules import epa_rule_base, scenario_choice


#: cubes a sweep cuts per worker: enough for the work-stealing pool to
#: even out its lanes, few enough that per-cube setup stays negligible
CUBE_FACTOR = 4


class EpaError(Exception):
    """Raised for malformed requirements or mitigation declarations."""


@dataclass(frozen=True)
class StaticRequirement:
    """A safety requirement for the topology-level analysis.

    ``condition`` is an ASP body over the EPA vocabulary that holds when
    the requirement is *violated* — e.g. ``"err(water_tank, value)"`` for
    "the tank must not receive erroneous actuation".  ``focus`` names the
    component the requirement protects (used for propagation-path
    extraction); ``magnitude`` is the O-RA Loss Magnitude label of a
    violation.
    """

    name: str
    condition: str
    focus: str = ""
    magnitude: str = "H"
    description: str = ""


class EpaEngine:
    """Exhaustive topology-level error propagation analysis."""

    def __init__(
        self,
        model: SystemModel,
        requirements: Sequence[StaticRequirement],
        fault_mitigations: Mapping[str, Sequence[str]] = (),
        component_mitigations: Mapping[Tuple[str, str], Sequence[str]] = (),
        extra_mutations: Sequence[CandidateMutation] = (),
        trace: Optional[object] = None,
        incremental: bool = True,
        workers: Optional[int] = None,
        progress: Optional[ProgressTracker] = None,
    ):
        """``fault_mitigations`` maps fault-mode name -> mitigation ids
        (the paper's ``mitigation(F, M)``); ``component_mitigations``
        maps (component, fault) -> mitigation ids; ``trace`` is an
        optional :class:`~repro.observability.TraceSink` threaded into
        every solve the engine issues.  ``incremental`` governs point
        queries only: by default :meth:`analyze_scenario` reuses one
        persistent multi-shot control, ``incremental=False`` builds a
        fresh control per query.  Full sweeps always take the cube
        sweep on the engine's one template, ground once per engine
        whatever ``incremental`` says.  ``workers`` sets the default
        process-pool width of the sweeps (``None``/``1`` =
        in-process); point queries always run in-process.  The engine
        serves only the thread that built it.  A sweep cuts at least
        ``max(2, workers × CUBE_FACTOR)`` cubes, none holding more than
        that share of its scenarios (or
        :data:`~repro.asp.cubes.FLOOR`).  ``progress``
        attaches a :class:`~repro.observability.ProgressTracker` fed
        per shipped chunk and per completed cube — results are
        identical with or without it."""
        names = [r.name for r in requirements]
        if len(set(names)) != len(names):
            raise EpaError("duplicate requirement names")
        self.model = model
        self.requirements = tuple(requirements)
        self.fault_mitigations = {
            fault: tuple(ms) for fault, ms in dict(fault_mitigations).items()
        }
        self.component_mitigations = {
            key: tuple(ms)
            for key, ms in dict(component_mitigations).items()
        }
        self.extra_mutations = tuple(extra_mutations)
        self._graph = model.propagation_graph()
        self._trace = trace if trace is not None else NULL_SINK
        self._tracer = Tracer(self._trace)
        self._stats = SolveStats()
        self._incremental = incremental
        self._workers = workers
        self._progress = progress
        #: ASP requirement symbol -> declared requirement name
        self._requirement_names = {
            _requirement_symbol(r.name): r.name for r in self.requirements
        }
        self._base_program: Optional[Program] = None
        self._point_control: Optional[Control] = None
        self._template: Optional[_SweepTemplate] = None
        # every sweep pushes and pops on the template's one solver
        # trail, so the engine answers only the thread that built it
        self._thread = threading.get_ident()
        # separate multi-shot controls for unsat-core queries: they
        # carry extra blocking machinery point queries must not see
        self._core_controls: Dict[int, Control] = {}

    @property
    def statistics(self) -> SolveStats:
        """Aggregated solver statistics across every solve this engine
        issued (``grounding``/``solving``/``summary`` sections merged
        per call; scenario counts under ``epa``).  Returns a merged
        snapshot: persistent multi-shot controls contribute their
        cumulative trees alongside the per-call aggregate."""
        merged = SolveStats()
        merged.merge(self._stats)
        if self._point_control is not None:
            merged.merge(self._point_control.statistics)
        for control in self._core_controls.values():
            merged.merge(control.statistics)
        return merged

    # ------------------------------------------------------------------
    # program assembly
    # ------------------------------------------------------------------
    def _assemble_base_program(self) -> Program:
        """The mitigation-independent program slice, built once per
        engine (model facts, rule base, mutations, mitigation
        declarations, requirements) so every control — and the
        process-wide ground-program LRU — reuses one rendering."""
        if self._base_program is not None:
            return self._base_program
        builder = Control()
        builder._program.extend(to_asp_program(self.model))
        builder.add(epa_rule_base())
        for mutation in self.extra_mutations:
            builder.add_fact("fault_mode", mutation.component, mutation.fault)
            builder.add_fact(
                "fault_behaviour",
                mutation.component,
                mutation.fault,
                mutation.behaviour,
            )
            builder.add_fact(
                "fault_severity",
                mutation.component,
                mutation.fault,
                mutation.severity.lower(),
            )
        for fault, mitigations in sorted(self.fault_mitigations.items()):
            for mitigation in mitigations:
                builder.add_fact("mitigation", fault, _mitigation_symbol(mitigation))
        for (component, fault), mitigations in sorted(
            self.component_mitigations.items()
        ):
            for mitigation in mitigations:
                builder.add_fact(
                    "mitigation", component, fault, _mitigation_symbol(mitigation)
                )
        for requirement in self.requirements:
            builder.add_fact("requirement", _requirement_symbol(requirement.name))
            builder.add(
                "violated(%s) :- %s."
                % (_requirement_symbol(requirement.name), requirement.condition)
            )
        self._base_program = builder._program
        return self._base_program

    def _base_control(
        self,
        active_mitigations: Mapping[str, Sequence[str]],
        provenance: bool = False,
    ) -> Control:
        return _deployed_control(
            self._assemble_base_program(),
            active_mitigations,
            trace=self._trace,
            provenance=provenance,
        )

    def _incremental_control(self) -> Control:
        """The persistent multi-shot control for point queries.

        Mitigation deployments are declared as externals, so later
        queries only flip assumptions: one grounding, one SAT encoding,
        learnt clauses shared across the session.  Its ground program
        is also the sweep template's (:meth:`_sweep_template`), so
        point queries and sweeps share one grounding.
        """
        if self._point_control is None:
            control = Control(trace=self._trace, multishot=True)
            control._program.extend(self._assemble_base_program())
            control.add(scenario_choice(0))
            for component, mitigation in self._relevant_mitigation_pairs():
                control.add_external("active_mitigation", component, mitigation)
            self._point_control = control
        return self._point_control

    def _fault_pairs(self) -> List[FaultRef]:
        """Every declared (component, fault-mode) pair, model order."""
        pairs: List[FaultRef] = []
        seen: Set[FaultRef] = set()
        for element in self.model.elements:
            for fault in element.properties.get("fault_modes", []) or []:
                ref = FaultRef(element.identifier, fault["name"])
                if ref not in seen:
                    seen.add(ref)
                    pairs.append(ref)
        for mutation in self.extra_mutations:
            ref = FaultRef(mutation.component, mutation.fault)
            if ref not in seen:
                seen.add(ref)
                pairs.append(ref)
        return pairs

    def _relevant_mitigation_pairs(self) -> List[Tuple[str, str]]:
        """(component, mitigation-symbol) pairs that can suppress a
        fault — the external universe; deployments outside it have no
        semantic effect (``covers`` requires a declaration)."""
        pairs: List[Tuple[str, str]] = []
        seen: Set[Tuple[str, str]] = set()
        for ref in self._fault_pairs():
            for mitigation in self.fault_mitigations.get(ref.fault, ()):
                pair = (ref.component, _mitigation_symbol(mitigation))
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        for (component, _fault), mitigations in sorted(
            self.component_mitigations.items()
        ):
            for mitigation in mitigations:
                pair = (component, _mitigation_symbol(mitigation))
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        return pairs

    def _potential_faults(
        self, active_mitigations: Mapping[str, Sequence[str]]
    ) -> List[FaultRef]:
        """Python mirror of the ASP suppression logic: the fault pairs
        not suppressed by the given deployment (= the scenario-choice
        space the solver sees)."""
        active = _active_pairs(active_mitigations)
        potential: List[FaultRef] = []
        for ref in self._fault_pairs():
            covering = {
                _mitigation_symbol(m)
                for m in self.fault_mitigations.get(ref.fault, ())
            }
            covering.update(
                _mitigation_symbol(m)
                for m in self.component_mitigations.get(
                    (ref.component, ref.fault), ()
                )
            )
            if not any((ref.component, m) in active for m in covering):
                potential.append(ref)
        return potential

    def _mitigation_assumptions(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> List[Tuple[Atom, bool]]:
        """Every ``active_mitigation`` external with its truth value:
        true for ``pairs``, false otherwise (no external may stay free:
        models must match a fresh control's exactly)."""
        chosen = set(pairs)
        return [
            (
                atom("active_mitigation", component, mitigation),
                (component, mitigation) in chosen,
            )
            for component, mitigation in self._relevant_mitigation_pairs()
        ]

    def _assign_mitigations(
        self, control: Control, pairs: Iterable[Tuple[str, str]]
    ) -> None:
        """Pin every ``active_mitigation`` external of a multi-shot
        control — assignments persist there, so a mitigation dropped
        since the last call must be actively flipped back."""
        for external, value in self._mitigation_assumptions(pairs):
            control.assign_external(external, value=value)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(
        self,
        active_mitigations: Mapping[str, Sequence[str]] = (),
        max_faults: int = 0,
        restrict_faults: Optional[Iterable[FaultRef]] = None,
        with_paths: bool = False,
        workers: Optional[int] = None,
    ) -> EpaReport:
        """Enumerate and evaluate the scenario space.

        ``active_mitigations`` maps component -> deployed mitigation ids.
        ``max_faults`` bounds simultaneous fault activations (0 =
        unbounded); ``restrict_faults`` limits the scenario space to a
        subset of fault refs (used for targeted what-if queries).
        ``workers`` (default: the engine's) shards the sweep over a
        process pool.  With a trace sink attached, worker events are
        shipped back in the result envelopes and re-emitted on the
        parent's sink tagged ``worker=<i>``, so ``--trace`` composes
        with ``--workers N``.
        """
        self._check_thread()
        deployment = _deployment(active_mitigations)
        with self._tracer.span("epa.analyze", max_faults=max_faults) as span:
            outcomes = self._sweep(
                deployment, max_faults, restrict_faults, self._sweep_width(workers)
            )
            if with_paths:
                # paths need the topology graph, not the solver: the
                # parent attaches them after the fold
                outcomes = [self._with_paths(outcome) for outcome in outcomes]
            span.update(
                scenarios=len(outcomes),
                violating=sum(1 for o in outcomes if o.violated),
            )
        # the materialized path peaks memory here, not in a streamed
        # fold — record it on every analyze, not only on aggregate()
        record_peak_rss()
        self._progress_finish()
        return self._report(outcomes, deployment)

    def analyze_stream(
        self,
        active_mitigations: Mapping[str, Sequence[str]] = (),
        max_faults: int = 0,
        restrict_faults: Optional[Iterable[FaultRef]] = None,
        with_paths: bool = False,
    ) -> Iterator[ScenarioOutcome]:
        """Lazily yield scenario outcomes as the CDCL enumerator finds them.

        Same scenario space and outcomes as :meth:`analyze`, reached by
        a different search: a fresh control enumerates with conflict-
        driven search and projected blocking clauses, and each outcome
        is read off the full :class:`~repro.asp.Model` — which makes
        this the independent reference the differential tests compare
        the cube sweep against.  Outcomes are yielded one at a time and
        never collected — closing the iterator early stops the search —
        so memory stays bounded by one model.  Fleet-scale totals are
        faster through :meth:`aggregate`.
        """
        deployment = _deployment(active_mitigations)
        restrict = list(restrict_faults) if restrict_faults is not None else None
        control = _scenario_space(
            self._assemble_base_program(),
            deployment,
            max_faults,
            restrict,
            trace=self._trace,
        )
        # the only choice rule is the fault activation, so the choice
        # atoms functionally determine every model: project the
        # enumeration's blocking clauses onto them
        models = control.solve_iter(
            project=[
                atom("active_fault", ref.component, ref.fault)
                for ref in self._potential_faults(deployment)
            ]
        )
        count = 0
        try:
            for model in models:
                count += 1
                self._progress_scenarios(1)
                yield self._outcome(model, with_paths)
        finally:
            models.close()
            self._fold_statistics(control, scenarios=count)
            self._progress_finish()

    def aggregate(
        self,
        active_mitigations: Mapping[str, Sequence[str]] = (),
        max_faults: int = 0,
        restrict_faults: Optional[Iterable[FaultRef]] = None,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
        checkpoint_every: int = 8,
        chunk_size: int = 512,
        max_minimal_sets: int = DEFAULT_MAX_MINIMAL_SETS,
    ) -> ScenarioAggregate:
        """Sweep the scenario space into a bounded-memory aggregate.

        The full-sweep engine for fleet-scale workloads: the same cube
        sweep as :meth:`analyze`, but workers fold their models into
        :class:`~repro.epa.aggregate.ScenarioAggregate` chunks of
        ``chunk_size`` scenarios and ship those (RAG1 blobs), so the
        model list never exists.  The parent merges them cube-ordered,
        byte-identically to folding the materialized report.

        ``checkpoint`` names a file that periodically (every
        ``checkpoint_every`` completed cubes) receives a compact resume
        token — completed cube ids plus the partial aggregate — so a
        killed sweep restarts where it left off: call again with the
        same configuration and the same path.  A checkpoint written by
        a different sweep configuration is refused.
        """
        self._check_thread()
        deployment = _deployment(active_mitigations)
        workers = self._sweep_width(workers)
        with self._tracer.span(
            "epa.aggregate", max_faults=max_faults, workers=workers
        ) as span:
            result = self._sweep(
                deployment,
                max_faults,
                restrict_faults,
                workers,
                into=ScenarioAggregate(
                    [r.name for r in self.requirements],
                    {r.name: r.magnitude for r in self.requirements},
                    max_minimal_sets,
                ),
                checkpoint=checkpoint,
                checkpoint_every=checkpoint_every,
                chunk_size=chunk_size,
            )
            span.update(
                scenarios=result.scenarios, violating=result.violating
            )
        record_peak_rss()
        self._progress_finish()
        return result

    def _sweep_width(self, workers: Optional[int]) -> int:
        """The pool width of a sweep: the call's ``workers``, else the
        engine's; 1 (in-process) when neither is set."""
        if workers is None:
            workers = self._workers
        return workers or 1

    def _sweep(
        self,
        deployment: Mapping[str, Sequence[str]],
        max_faults: int,
        restrict_faults: Optional[Iterable[FaultRef]],
        workers: int,
        into: Optional[ScenarioAggregate] = None,
        checkpoint: Optional[str] = None,
        checkpoint_every: int = 8,
        chunk_size: int = 512,
    ) -> Union[List[ScenarioOutcome], ScenarioAggregate]:
        """The one enumeration path: a cube sweep on a work-stealing pool.

        Grounds nothing: the engine's sweep template
        (:meth:`_sweep_template`) is one unbounded scenario program
        with the deployment as externals, and everything that varies
        between sweeps becomes an assumption on it — the deployment as
        external truth values, a restriction as false literals on the
        disallowed fault atoms, each cube's pins — while ``max_faults``
        bounds the projected DFS itself (``max_true``).  Splits the
        fault-choice space over the occurrence-ordered fault atoms into
        at least ``max(2, workers × CUBE_FACTOR)`` cubes, none holding
        more than that share of the ``max_faults``-bounded space (or
        :data:`~repro.asp.cubes.FLOOR` scenarios), largest first (see
        :func:`~repro.asp.cubes.balanced_cubes`), and binds the sweep's
        worker state into the pool task as
        ``functools.partial(_sweep_worker, context)`` (see
        :class:`_SweepContext`); :func:`_sweep_worker` then enumerates
        each ``(cube id, cube)`` item and ships chunks through the
        pool's ``emit``.  The progress tracker, if any, is told the
        layout and the exact scenario total.  Without ``into`` the
        chunks are outcome lists and the sweep returns every outcome;
        with ``into`` (an empty aggregate fixing the requirement order,
        magnitudes and antichain cap) they are pre-folded aggregates and
        the sweep returns ``into`` with every chunk merged.  The parent
        keeps an in-progress buffer per cube, promotes it to a completed
        part when the cube's envelope arrives, and assembles results by
        merging completed parts in cube order on top of the resumed
        checkpoint — crash-retried and fallen-back cubes discard their
        buffered partials, so nothing is ever double counted.
        """
        template = self._sweep_template()
        restrict = list(restrict_faults) if restrict_faults is not None else None
        choices = self._potential_faults(deployment)
        project = [
            atom("active_fault", ref.component, ref.fault) for ref in choices
        ]
        assumptions = self._mitigation_assumptions(_active_pairs(deployment))
        cube_atoms = project
        if restrict is not None:
            allowed = {(f.component, f.fault) for f in restrict}
            cube_atoms = []
            for ref, choice_atom in zip(choices, project):
                if (ref.component, ref.fault) in allowed:
                    cube_atoms.append(choice_atom)
                else:
                    assumptions.append((choice_atom, False))
        max_true = max_faults if max_faults > 0 else None
        cubes, scenario_total = balanced_cubes(
            order_by_occurrence(template.program, cube_atoms),
            max(2, workers * CUBE_FACTOR),
            max_true,
        )
        context = _SweepContext(
            template,
            project,
            assumptions,
            max_true,
            fallback=(
                self._assemble_base_program(),
                deployment,
                max_faults,
                restrict,
            ),
            fold=(
                None
                if into is None
                else (into.requirements, into.magnitudes, into.max_minimal_sets)
            ),
            chunk=max(1, chunk_size),
            traced=self._trace is not NULL_SINK,
        )
        completed: Set[int] = set()
        if checkpoint is not None:
            config_digest = _sweep_digest(
                template.program, cubes, max_faults, into, deployment, restrict
            )
            if os.path.exists(checkpoint):
                completed, into = self._resume(checkpoint, config_digest)
        resumed = into.scenarios if into is not None else 0
        pending = [
            index for index in range(len(cubes)) if index not in completed
        ]
        if self._progress is not None:
            self._progress.set_total_cubes(
                len(cubes), done=len(completed), scenarios=scenario_total
            )
            if resumed:
                self._progress.preseed_scenarios(resumed)

        parts: Dict[int, object] = {}
        buffers: Dict[int, object] = {}
        finished = 0

        def assemble():
            chunks = [parts[cube_id] for cube_id in sorted(parts)]
            if into is None:
                return [outcome for chunk in chunks for outcome in chunk]
            total = into.copy()
            for chunk in chunks:
                total.merge(chunk)
            return total

        def snapshot() -> None:
            with self._tracer.span(
                "epa.checkpoint",
                path=checkpoint,
                mode="write",
                cubes=len(completed),
                total=len(cubes),
            ):
                write_checkpoint(
                    checkpoint, config_digest, completed, assemble().dumps()
                )

        def drop(cube_id: int) -> None:
            part = buffers.pop(cube_id, None)
            if part is not None:
                self._progress_scenarios(
                    -(len(part) if into is None else part.scenarios)
                )

        def on_partial(position: int, value: Tuple[str, object]) -> None:
            cube_id = pending[position]
            kind = value[0]
            if kind == "reset":
                # the worker fell back to the CDCL enumeration and
                # will re-stream the whole cube
                drop(cube_id)
            elif kind == "agg":
                chunk = ScenarioAggregate.loads(value[1])
                if cube_id in buffers:
                    buffers[cube_id].merge(chunk)
                else:
                    buffers[cube_id] = chunk
                self._progress_scenarios(chunk.scenarios)
            else:  # "outcomes"
                buffers.setdefault(cube_id, []).extend(value[1])
                self._progress_scenarios(len(value[1]))

        def on_retry(position: int) -> None:
            drop(pending[position])

        def on_result(position: int, _envelope: object) -> None:
            nonlocal finished
            cube_id = pending[position]
            if cube_id in buffers:
                parts[cube_id] = buffers.pop(cube_id)
            completed.add(cube_id)
            finished += 1
            self._progress_cube_done()
            if (
                checkpoint is not None
                and checkpoint_every > 0
                and finished % checkpoint_every == 0
            ):
                snapshot()

        pool = WorkStealingPool(workers, on_stall=self._on_stall)
        started = time.perf_counter()
        try:
            envelopes = pool.map(
                functools.partial(_sweep_worker, context),
                [(cube_id, cubes[cube_id]) for cube_id in pending],
                on_partial=on_partial,
                on_retry=on_retry,
                on_result=on_result,
            )
        except ParallelError as error:
            raise EpaError("EPA sweep failed: %s" % error) from error
        searched_s = time.perf_counter() - started
        lanes = pool.last_assignments
        for position, (shard_stats, events) in enumerate(envelopes):
            self._stats.merge(shard_stats)
            # replay the cube's trace stream on the parent sink, tagged
            # with the worker lane it actually ran in
            for name, _seconds, event_payload in events:
                payload = dict(event_payload)
                payload.setdefault("worker", lanes.get(position, position))
                self._trace.emit(name, **payload)
        result = assemble()
        if checkpoint is not None:
            snapshot()
        scenarios = len(result) if into is None else result.scenarios - resumed
        self._stats.incr("epa.parallel.shards", len(pending))
        self._stats.set("epa.parallel.workers", workers)
        self._stats.incr("summary.models.enumerated", scenarios)
        self._stats.add_time("summary.times.solve", searched_s)
        self._stats.add_time("summary.times.total", searched_s)
        self._note_analysis(scenarios)
        return result

    def _sweep_template(self) -> _SweepTemplate:
        """The engine's :class:`_SweepTemplate`, built on its first
        sweep from the point control's ground program, so sweeps and
        point queries share one grounding (its statistics merge into
        :attr:`statistics` once, through the point control).  Every
        later sweep reuses it and counts one
        ``solving.multishot.reground_avoided``."""
        if self._template is None:
            self._template = _SweepTemplate(
                self._incremental_control().ground(), self._requirement_names
            )
        else:
            self._stats.incr("solving.multishot.reground_avoided")
        return self._template

    def _check_thread(self) -> None:
        """Refuse calls from any thread but the one that built the
        engine: sweeps share the template's solver trail, point queries
        the persistent controls."""
        if threading.get_ident() != self._thread:
            raise EpaError(
                "an EpaEngine serves only the thread that built it; "
                "build one engine per thread"
            )

    def _resume(
        self, checkpoint: str, config_digest: str
    ) -> Tuple[Set[int], ScenarioAggregate]:
        """The completed cube ids and partial aggregate of a checkpoint,
        refused unless the same sweep configuration wrote it."""
        with self._tracer.span("epa.checkpoint", path=checkpoint, mode="read"):
            state = read_checkpoint(checkpoint)
        if state.digest != config_digest:
            raise EpaError(
                "checkpoint %s was written by a different sweep "
                "configuration (model, deployment, restriction, worker "
                "count, max_faults, antichain cap, requirement order "
                "and magnitudes must match to resume)"
                % checkpoint
            )
        self._stats.incr("epa.aggregate.resumed_cubes", len(state.completed))
        return set(state.completed), ScenarioAggregate.loads(state.aggregate)

    def analyze_scenario(
        self,
        faults: Iterable[FaultRef],
        active_mitigations: Mapping[str, Sequence[str]] = (),
        with_paths: bool = True,
    ) -> ScenarioOutcome:
        """Evaluate one specific fault combination.

        Faults suppressed by an active mitigation simply stay inactive,
        mirroring the paper's workflow where activating a mitigation
        "allows excluding this specific scenario from the evaluation".
        """
        self._check_thread()
        deployment = _deployment(active_mitigations)
        if self._incremental:
            control = self._incremental_control()
            self._assign_mitigations(control, _active_pairs(deployment))
            requested = {(f.component, f.fault) for f in faults}
            assumptions = [
                (
                    atom("active_fault", ref.component, ref.fault),
                    (ref.component, ref.fault) in requested,
                )
                for ref in self._potential_faults(deployment)
            ]
            models = control.solve(limit=1, assumptions=assumptions)
            self._note_analysis(scenarios=len(models))
        else:
            control = self._base_control(deployment)
            for fault in faults:
                control.add(
                    "active_fault(%s, %s) :- potential_fault(%s, %s)."
                    % (fault.component, fault.fault, fault.component, fault.fault)
                )
            first = control.first_model()
            models = [first] if first is not None else []
            self._fold_statistics(control, scenarios=len(models))
        if not models:
            raise EpaError("scenario program unexpectedly unsatisfiable")
        return self._outcome(models[0], with_paths)

    # ------------------------------------------------------------------
    # provenance / explanation
    # ------------------------------------------------------------------
    def _core_control(self, max_faults: int) -> Control:
        """The persistent control for blocking-core queries.

        Same shape as :meth:`_incremental_control` for the given fault
        bound, plus an ``epa_require_violation`` external that, when
        assumed true, makes the program unsatisfiable exactly when the
        active deployment blocks every violating scenario — the
        resulting unsat core names the mitigations that did the
        blocking.
        """
        control = self._core_controls.get(max_faults)
        if control is None:
            control = Control(trace=self._trace, multishot=True)
            control._program.extend(self._assemble_base_program())
            control.add(scenario_choice(max_faults))
            control.add("epa_some_violation :- violated(R), requirement(R).")
            control.add(":- epa_require_violation, not epa_some_violation.")
            control.add_external("epa_require_violation")
            for component, mitigation in self._relevant_mitigation_pairs():
                control.add_external("active_mitigation", component, mitigation)
            self._core_controls[max_faults] = control
        return control

    def blocking_core(
        self,
        active_mitigations: Mapping[str, Sequence[str]],
        max_faults: int = 0,
        minimize: bool = True,
    ) -> Optional[List[Tuple[str, str]]]:
        """Which deployed mitigations a violation-free result rests on.

        Returns ``None`` when some scenario still violates a
        requirement under the deployment (there is nothing to
        explain), and otherwise the ``(component, mitigation)`` subset
        of the deployment whose presence makes every violating
        scenario impossible — an unsat core of the query "find a
        violation", minimized to a MUS when ``minimize`` is true
        (dropping any returned mitigation re-admits a violating
        scenario).
        """
        self._check_thread()
        control = self._core_control(max_faults)
        active = _active_pairs(active_mitigations)

        def is_blocking(pairs: Iterable[Tuple[str, str]]) -> bool:
            self._assign_mitigations(control, pairs)
            control.assign_external("epa_require_violation", value=True)
            return not control.is_satisfiable()

        self._stats.incr("epa.blocking_core_calls")
        deployed = [
            pair for pair in self._relevant_mitigation_pairs() if pair in active
        ]
        if not is_blocking(deployed):
            return None
        core = [
            (str(head.arguments[0]), str(head.arguments[1]))
            for head, value in control.unsat_core or []
            if value and head.predicate == "active_mitigation"
        ]
        if minimize:
            core = minimize_core(is_blocking, core)
        names = self._mitigation_names()
        return sorted(
            (component, names.get((component, symbol), symbol))
            for component, symbol in core
        )

    def prove_scenario(
        self,
        faults: Iterable[FaultRef],
        active_mitigations: Mapping[str, Sequence[str]] = (),
    ) -> "ScenarioProof":
        """A proof-backed view of one scenario: ``why``/``why_not`` over
        the scenario's stable model (see :mod:`repro.epa.explain`)."""
        from .explain import scenario_proof

        return scenario_proof(self, faults, active_mitigations)

    def _mitigation_names(self) -> Dict[Tuple[str, str], str]:
        """(component, mitigation-symbol) back to the declared id."""
        names: Dict[Tuple[str, str], str] = {}
        for ref in self._fault_pairs():
            for mitigation in self.fault_mitigations.get(ref.fault, ()):
                names.setdefault(
                    (ref.component, _mitigation_symbol(mitigation)), mitigation
                )
        for (component, _fault), mitigations in sorted(
            self.component_mitigations.items()
        ):
            for mitigation in mitigations:
                names.setdefault(
                    (component, _mitigation_symbol(mitigation)), mitigation
                )
        return names

    def _report(
        self,
        outcomes: Sequence[ScenarioOutcome],
        deployment: Mapping[str, Sequence[str]],
    ) -> EpaReport:
        return EpaReport(
            outcomes,
            [r.name for r in self.requirements],
            {component: tuple(ms) for component, ms in deployment.items()},
        )

    def _note_analysis(self, scenarios: int) -> None:
        """Count one sweep or point query (solver statistics live on
        the persistent controls / worker envelopes)."""
        self._stats.incr("epa.analyze_calls")
        self._stats.incr("epa.scenarios", scenarios)

    # ------------------------------------------------------------------
    # progress / health hooks
    # ------------------------------------------------------------------
    def _progress_scenarios(self, count: int) -> None:
        if self._progress is not None and count:
            self._progress.add_scenarios(count)

    def _progress_cube_done(self) -> None:
        if self._progress is not None:
            self._progress.cube_done()

    def _progress_finish(self) -> None:
        if self._progress is not None:
            self._progress.finish()

    def _on_stall(
        self, worker: int, task_index: int, silent_s: float, reason: str
    ) -> None:
        """Pool stall warnings: a trace event plus the stderr default."""
        self._trace.emit(
            "health.worker_stalled",
            worker=worker,
            task=task_index,
            silent_s=round(silent_s, 3),
            reason=reason,
        )
        default_on_stall(worker, task_index, silent_s, reason)

    def _fold_statistics(self, control: Control, scenarios: int) -> None:
        """Merge one solve's stats into the engine-level aggregate."""
        self._stats.merge(control.statistics)
        self._note_analysis(scenarios)

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def _outcome(self, model: Model, with_paths: bool) -> ScenarioOutcome:
        """One solved :class:`Model` as a scenario outcome."""
        outcome = _model_extract(model, self._requirement_names)
        return self._with_paths(outcome) if with_paths else outcome

    def _with_paths(self, outcome: ScenarioOutcome) -> ScenarioOutcome:
        return replace(
            outcome, paths=self._paths(outcome.active_faults, outcome.violated)
        )

    def _paths(
        self, active: Iterable[FaultRef], violated: Iterable[str]
    ) -> Dict[str, Tuple[PropagationStep, ...]]:
        paths: Dict[str, Tuple[PropagationStep, ...]] = {}
        focus_by_requirement = {
            r.name: r.focus for r in self.requirements if r.focus
        }
        for requirement in violated:
            focus = focus_by_requirement.get(requirement)
            if not focus:
                continue
            best: Optional[List[str]] = None
            # name order breaks ties between equally short paths, so the
            # choice does not depend on set iteration order
            for fault in sorted(active, key=str):
                try:
                    candidate = nx.shortest_path(
                        self._graph, fault.component, focus
                    )
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    continue
                if best is None or len(candidate) < len(best):
                    best = candidate
            if best and len(best) > 1:
                paths[requirement] = tuple(
                    PropagationStep(a, b) for a, b in zip(best, best[1:])
                )
        return paths


def _build_probes(
    solver: StableModelSolver,
    possible_atoms: Sequence[Atom],
    requirement_names: Mapping[str, str],
) -> Dict[str, list]:
    """SAT-variable probe tables for outcome extraction.

    Maps each outcome-relevant ground atom (``active_fault``,
    ``violated``, ``err``, ``detected``, ``scenario_severity``) to its
    solver variable, so a worker can read a whole
    :class:`ScenarioOutcome` straight off the propagation-complete
    assignment array without materializing a :class:`Model`.
    """
    probes: Dict[str, list] = {
        "fault": [],
        "violated": [],
        "err": [],
        "detected": [],
        "severity": [],
    }
    for ground_atom in possible_atoms:
        variable = solver.atom_var(ground_atom)
        if variable is None:
            continue
        predicate = ground_atom.predicate
        if predicate == "active_fault":
            component, fault = ground_atom.arguments
            probes["fault"].append(
                (variable, FaultRef(str(component), str(fault)))
            )
        elif predicate == "violated":
            name = str(ground_atom.arguments[0])
            probes["violated"].append(
                (variable, requirement_names.get(name, name))
            )
        elif predicate == "err":
            component, kind = ground_atom.arguments
            probes["err"].append((variable, str(component), str(kind)))
        elif predicate == "detected":
            probes["detected"].append(
                (variable, str(ground_atom.arguments[0]))
            )
        elif predicate == "scenario_severity":
            value = ground_atom.arguments[0]
            if isinstance(value, Number):
                probes["severity"].append((variable, value.value))
    return probes


class _SweepTemplate:
    """The sweep state an engine builds once and keeps for its life.

    The ground program every sweep enumerates (the point control's:
    unbounded scenario choice, deployment as externals), one solver
    template and the probe tables built from it.  Sweeps only pass it
    assumptions, and the projected DFS leaves the solver's formula as
    it found it, so one template serves every deployment, restriction
    and bound.  Pickles as its ground program
    (:func:`repro.asp.serialize.dumps_ground`); the solver and probe
    tables are rebuilt on arrival.
    """

    def __init__(
        self, program: GroundProgram, requirement_names: Mapping[str, str]
    ):
        self.program = program
        self.solver = StableModelSolver(program)
        self.requirement_names = dict(requirement_names)
        self.probes = _build_probes(
            self.solver, program.possible_atoms, self.requirement_names
        )

    def __reduce__(self):
        return (
            _load_sweep_template,
            (dumps_ground(self.program), self.requirement_names),
        )


def _load_sweep_template(
    blob: bytes, requirement_names: Mapping[str, str]
) -> _SweepTemplate:
    """Unpickle a :class:`_SweepTemplate` from its pickled program."""
    return _SweepTemplate(loads_ground(blob), requirement_names)


class _SweepContext:
    """The state every cube task of one sweep shares.

    The engine's :class:`_SweepTemplate`, the projection atoms, the
    sweep's assumptions (deployment externals and restriction), the
    fault bound (``max_true``, ``None`` = unbounded), what the CDCL
    fallback grounds (``fallback``: base program, deployment, bound,
    restriction — see :meth:`bounded_program`), the fold spec
    (``None`` for outcome chunks, else ``(requirements, magnitudes,
    antichain cap)``), the chunk size and whether cubes record trace
    events.  :meth:`EpaEngine._sweep` binds it into the pool task as
    ``functools.partial(_sweep_worker, context)``: fork-started workers
    inherit it with the process, copy-on-write; spawn-started workers
    unpickle it once per process (the template rebuilding its solver
    and probe tables from its program); the one-worker sweep uses it
    as is.
    """

    def __init__(
        self,
        template: _SweepTemplate,
        project: Sequence[Atom],
        assumptions: Sequence[Tuple[Atom, bool]],
        max_true: Optional[int],
        fallback: Tuple[
            Program,
            Mapping[str, Sequence[str]],
            int,
            Optional[Sequence[FaultRef]],
        ],
        fold: Optional[Tuple[Sequence[str], Mapping[str, str], int]],
        chunk: int,
        traced: bool,
    ):
        self.template = template
        self.project = list(project)
        self.assumptions = list(assumptions)
        self.max_true = max_true
        self.fallback = fallback
        self.fold = fold
        self.chunk = chunk
        self.traced = traced
        self._bounded: Optional[GroundProgram] = None

    def bounded_program(self) -> GroundProgram:
        """The sweep's bounded scenario program, for the CDCL fallback:
        ground in the process that first needs it, then kept."""
        if self._bounded is None:
            self._bounded = _scenario_space(*self.fallback).ground()
        return self._bounded


def _probe_extract(
    assignment: Sequence[int], probes: Mapping[str, list]
) -> ScenarioOutcome:
    """One outcome read straight off a complete assignment array."""
    active = set()
    for variable, ref in probes["fault"]:
        if assignment[variable] == TRUE:
            active.add(ref)
    violated = set()
    for variable, name in probes["violated"]:
        if assignment[variable] == TRUE:
            violated.add(name)
    erroneous: Dict[str, Set[str]] = {}
    for variable, component, kind in probes["err"]:
        if assignment[variable] == TRUE:
            erroneous.setdefault(component, set()).add(kind)
    detected = set()
    for variable, name in probes["detected"]:
        if assignment[variable] == TRUE:
            detected.add(name)
    severity = 0
    for variable, value in probes["severity"]:
        if assignment[variable] == TRUE and value > severity:
            severity = value
    return ScenarioOutcome(
        frozenset(active),
        frozenset(violated),
        {c: frozenset(kinds) for c, kinds in erroneous.items()},
        frozenset(detected),
        {},
        severity,
    )


def _model_extract(
    model: Model, requirement_names: Mapping[str, str]
) -> ScenarioOutcome:
    """One outcome read off a full :class:`Model` (no paths)."""
    active = set()
    violated = set()
    erroneous: Dict[str, Set[str]] = {}
    detected = set()
    severity = 0
    for model_atom in model.atoms:
        if model_atom.predicate == "active_fault":
            component, fault = model_atom.arguments
            active.add(FaultRef(str(component), str(fault)))
        elif model_atom.predicate == "violated":
            name = str(model_atom.arguments[0])
            violated.add(requirement_names.get(name, name))
        elif model_atom.predicate == "err":
            component, kind = model_atom.arguments
            erroneous.setdefault(str(component), set()).add(str(kind))
        elif model_atom.predicate == "detected":
            detected.add(str(model_atom.arguments[0]))
        elif model_atom.predicate == "scenario_severity":
            value = model_atom.arguments[0]
            if isinstance(value, Number) and value.value > severity:
                severity = value.value
    return ScenarioOutcome(
        frozenset(active),
        frozenset(violated),
        {c: frozenset(kinds) for c, kinds in erroneous.items()},
        frozenset(detected),
        {},
        severity,
    )


def _sweep_digest(
    ground: GroundProgram,
    cubes: Sequence[Sequence[Tuple[Atom, bool]]],
    max_faults: int,
    into: ScenarioAggregate,
    deployment: Mapping[str, Sequence[str]],
    restrict: Optional[Sequence[FaultRef]],
) -> str:
    """The configuration fingerprint a checkpoint is valid against.

    Covers everything that determines which scenarios each cube id
    enumerates and how they fold — the engine's template program, the
    cube layout (and therefore the worker count), the fault bound, the
    aggregate's antichain cap, requirement order and magnitudes, the
    deployment and any restriction (assumptions on the template, so
    fingerprinted here) — so resuming under a different configuration
    is refused instead of silently merging mismatched shards.  The
    program is fingerprinted through the ``repr`` of its rules, weak
    constraints, shows and possible atoms, in order: every ground term
    and atom renders structurally, so the text is the same in every
    process and under every ``PYTHONHASHSEED``.  (Pickle bytes would
    not do: their memo references depend on which objects happen to
    be shared, so equal programs can pickle differently.)
    """
    program_text = "\n".join(
        repr(section)
        for section in (
            ground.rules,
            ground.weak_constraints,
            ground.shows,
            ground.possible_atoms,
        )
    )
    parts = [
        hashlib.sha256(program_text.encode("utf-8")).hexdigest(),
        str(max_faults),
        str(into.max_minimal_sets),
        "requirements:" + ",".join(into.requirements),
        "magnitudes:"
        + ",".join("%s=%s" % item for item in sorted(into.magnitudes.items())),
    ]
    for cube in cubes:
        parts.append(
            ";".join("%s=%d" % (cube_atom, value) for cube_atom, value in cube)
        )
    for component, mitigations in sorted(deployment.items()):
        parts.append("%s:%s" % (component, ",".join(mitigations)))
    if restrict is not None:
        parts.append("restrict:" + ",".join(sorted(str(f) for f in restrict)))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _sweep_worker(
    context: _SweepContext,
    item: Tuple[int, Sequence[Tuple[Atom, bool]]],
    emit: Callable[[object], None],
) -> Tuple[Dict[str, object], List[Tuple[str, float, Dict[str, object]]]]:
    """Enumerate one ``(cube id, cube)`` item, shipping results as they
    are found.

    Runs in a pool worker (in-process for a one-worker sweep) with the
    sweep's :class:`_SweepContext` bound in: runs the
    propagation-driven projected enumeration on the engine's template
    solver, assuming the sweep's assumptions plus the cube and bounding
    it by the sweep's ``max_true``, and every ``context.chunk``
    scenarios passes a partial to ``emit`` — ``("outcomes", [...])``
    when ``context.fold`` is ``None``, else ``("agg", blob)``, a
    :class:`ScenarioAggregate` over ``fold = (requirements, magnitudes,
    antichain cap)`` in its RAG1 form — so parent-side memory tracks the
    fold, not the model count.  If the projected enumeration reports
    :class:`ProjectionIncomplete` (a leaf propagation could not
    settle), the worker ships ``("reset",)`` (the parent drops the
    cube's buffered partials) and re-streams the cube from the complete
    CDCL enumeration of the sweep's bounded program, ground in the
    worker on its first fallback — slower, never wrong.

    Returns the envelope ``(stats, trace events)``: ``stats`` carries
    ``solving.models``, the cube's SAT counters and
    ``epa.parallel.fallbacks`` (1 when the cube fell back); the parent
    replays the ``epa.cube`` events on its own sink tagged
    ``worker=<i>``, so ``--trace`` composes with ``--workers N``.  The
    pool ships the task's metrics itself.
    """
    cube_id, cube = item
    solver = context.template.solver
    probes = context.template.probes
    chunk = context.chunk
    fold = context.fold
    batch: List[ScenarioOutcome] = []

    def flush() -> None:
        nonlocal batch
        if not batch:
            return
        if fold is None:
            emit(("outcomes", batch))
        else:
            part = ScenarioAggregate(*fold)
            for outcome in batch:
                part.add(outcome)
            emit(("agg", part.dumps()))
        batch = []

    def on_model(assignment: Sequence[int]) -> None:
        batch.append(_probe_extract(assignment, probes))
        if len(batch) >= chunk:
            flush()

    start = time.perf_counter()
    before = solver.statistics["solvers"]
    fallback = False
    try:
        count = solver.project_models(
            context.project,
            on_model,
            assumptions=context.assumptions + list(cube),
            max_true=context.max_true,
        )
        searched = {
            key: value - before[key]
            for key, value in solver.statistics["solvers"].items()
        }
    except ProjectionIncomplete:
        # tell the parent to discard everything streamed so far, then
        # redo the cube on the reference path
        fallback = True
        emit(("reset",))
        batch = []
        reference = StableModelSolver(context.bounded_program())
        count = 0
        for model in reference.models(assumptions=cube, project=context.project):
            batch.append(
                _model_extract(model, context.template.requirement_names)
            )
            count += 1
            if len(batch) >= chunk:
                flush()
        searched = reference.statistics["solvers"]
    flush()
    elapsed = time.perf_counter() - start
    events: List[Tuple[str, float, Dict[str, object]]] = []
    if context.traced:
        events.append(
            (
                "epa.cube",
                elapsed,
                {
                    "cube": cube_id,
                    "models": count,
                    "assumed": len(cube),
                    "fallback": fallback,
                    "seconds": elapsed,
                },
            )
        )
    stats = {
        "solving": {"models": count, "solvers": searched},
        "epa": {"parallel": {"fallbacks": int(fallback)}},
    }
    return stats, events


def _deployed_control(
    base: Program,
    active_mitigations: Mapping[str, Sequence[str]],
    trace: Optional[object] = None,
    provenance: bool = False,
) -> Control:
    """A fresh control over ``base`` with a deployment as facts."""
    control = Control(trace=trace, provenance=provenance)
    control._program.extend(base)
    for component, mitigations in sorted(dict(active_mitigations).items()):
        for mitigation in mitigations:
            control.add_fact(
                "active_mitigation", component, _mitigation_symbol(mitigation)
            )
    return control


def _scenario_space(
    base: Program,
    deployment: Mapping[str, Sequence[str]],
    max_faults: int,
    restrict: Optional[Sequence[FaultRef]],
    trace: Optional[object] = None,
) -> Control:
    """A fresh control whose stable models are one sweep's scenarios:
    the CDCL enumeration of :meth:`EpaEngine.analyze_stream` and of a
    cube that falls back."""
    control = _deployed_control(base, deployment, trace=trace)
    control.add(scenario_choice(max_faults))
    if restrict is not None:
        for fault in restrict:
            control.add_fact("allowed_fault", fault.component, fault.fault)
        control.add(":- active_fault(C, F), not allowed_fault(C, F).")
    return control


def _deployment(
    active_mitigations: Mapping[str, Sequence[str]]
) -> Dict[str, Tuple[str, ...]]:
    """A deployment argument normalized to component -> mitigation ids."""
    return {
        component: tuple(ms)
        for component, ms in dict(active_mitigations or {}).items()
    }


def _active_pairs(
    active_mitigations: Mapping[str, Sequence[str]]
) -> Set[Tuple[str, str]]:
    """A deployment as (component, mitigation-symbol) pairs."""
    return {
        (component, _mitigation_symbol(mitigation))
        for component, mitigations in dict(active_mitigations or {}).items()
        for mitigation in mitigations
    }


def _mitigation_symbol(identifier: str) -> str:
    """Mitigation ids like ``M0917`` become ASP-safe symbols."""
    lowered = identifier.lower().replace("-", "_")
    if not lowered[0].isalpha():
        lowered = "m_" + lowered
    return lowered


def _requirement_symbol(name: str) -> str:
    lowered = name.lower().replace("-", "_").replace(" ", "_")
    if not lowered[0].isalpha():
        lowered = "r_" + lowered
    return lowered
