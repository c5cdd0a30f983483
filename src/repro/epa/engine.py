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
sweep.  The parent grounds once, splits the fault-choice space into
occurrence-ordered cubes (see :mod:`repro.asp.cubes`), publishes the
ground program plus a solver template and probe tables in a
module-level context that fork-started workers inherit copy-on-write,
and maps one worker function over the cubes on a
:class:`~repro.parallel.WorkStealingPool` (with one worker the pool runs
in-process, so serial is simply the one-worker case).  Each cube runs
the propagation-driven projected enumeration
(:meth:`~repro.asp.solver.StableModelSolver.project_models`) and reads
outcomes straight off the assignment through the probe tables; a cube
whose leaves propagation cannot settle (:class:`ProjectionIncomplete`)
is redone on the CDCL enumerator.  The parent folds the shipped chunks
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
(``incremental=False`` builds a fresh control per query).
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from ..asp import Control, Model, atom
from ..asp.cubes import linear_cubes, order_by_occurrence, resolve_cube_factor
from ..asp.sat import TRUE
from ..asp.serialize import publish, shared_program, unpublish
from ..asp.solver import ProjectionIncomplete, StableModelSolver
from ..asp.syntax import Atom, Program
from ..asp.terms import Number
from ..observability import (
    NULL_SINK,
    SolveStats,
    Tracer,
    finalize_solver_stats,
)
from ..observability.health import default_on_stall
from ..observability.metrics import get_registry, record_peak_rss
from ..observability.progress import ProgressTracker
from ..modeling.model import SystemModel
from ..modeling.to_asp import to_asp_program
from ..parallel import ParallelError, WorkStealingPool, emit_partial
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
        cube_factor: Optional[int] = None,
        progress: Optional[ProgressTracker] = None,
    ):
        """``fault_mitigations`` maps fault-mode name -> mitigation ids
        (the paper's ``mitigation(F, M)``); ``component_mitigations``
        maps (component, fault) -> mitigation ids; ``trace`` is an
        optional :class:`~repro.observability.TraceSink` threaded into
        every solve the engine issues.  ``incremental`` governs point
        queries only: by default :meth:`analyze_scenario` reuses one
        persistent multi-shot control, ``incremental=False`` builds a
        fresh control per query (full sweeps always take the cube
        sweep).  ``workers`` sets the default process-pool width of the
        sweeps (``None``/``1`` = in-process); point queries always run
        in-process.  ``cube_factor`` overrides the cube oversubscription
        factor (default: ``REPRO_CUBE_FACTOR`` or 4; see
        :func:`repro.asp.cubes.resolve_cube_factor`).  ``progress``
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
        self._cube_factor = cube_factor
        self._progress = progress
        #: ASP requirement symbol -> declared requirement name
        self._requirement_names = {
            _requirement_symbol(r.name): r.name for r in self.requirements
        }
        self._base_program: Optional[Program] = None
        self._point_control: Optional[Control] = None
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
        # lbd_avg is a derived quotient, not a summable counter: the
        # merges above summed lbd_sum/learnt exactly, so recompute the
        # average over the merged totals
        solvers = merged.get_path("solving.solvers")
        if isinstance(solvers, SolveStats):
            finalize_solver_stats(solvers)
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
        control = Control(trace=self._trace, provenance=provenance)
        control._program.extend(self._assemble_base_program())
        for component, mitigations in sorted(dict(active_mitigations).items()):
            for mitigation in mitigations:
                control.add_fact(
                    "active_mitigation", component, _mitigation_symbol(mitigation)
                )
        return control

    def _scenario_space(
        self,
        deployment: Mapping[str, Sequence[str]],
        max_faults: int,
        restrict: Optional[Sequence[FaultRef]],
    ) -> Control:
        """A fresh control whose stable models are one sweep's scenarios."""
        control = self._base_control(deployment)
        control.add(scenario_choice(max_faults))
        if restrict is not None:
            for fault in restrict:
                control.add_fact("allowed_fault", fault.component, fault.fault)
            control.add(":- active_fault(C, F), not allowed_fault(C, F).")
        return control

    def _incremental_control(self) -> Control:
        """The persistent multi-shot control for point queries.

        Mitigation deployments are declared as externals, so later
        queries only flip assumptions: one grounding, one SAT encoding,
        learnt clauses shared across the session.
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

    def _assign_mitigations(
        self, control: Control, pairs: Iterable[Tuple[str, str]]
    ) -> None:
        """Pin every ``active_mitigation`` external: true for ``pairs``,
        false otherwise — assignments persist on multi-shot controls,
        so a mitigation dropped since the last call must be actively
        flipped back (and no external may stay free: models must match
        a fresh control's exactly)."""
        chosen = set(pairs)
        for component, mitigation in self._relevant_mitigation_pairs():
            control.assign_external(
                "active_mitigation",
                component,
                mitigation,
                value=(component, mitigation) in chosen,
            )

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
        control = self._scenario_space(deployment, max_faults, restrict)
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

        Grounds once, splits the fault-choice space into
        ``max(2, workers × cube factor)`` occurrence-ordered linear
        cubes and publishes the worker context (see
        :func:`_published_context`); :func:`_sweep_worker` then
        enumerates each cube and ships chunks on the pool's result
        channel.  Without ``into`` the chunks are outcome lists and the
        sweep returns every outcome; with ``into`` (an empty aggregate
        fixing the requirement order, magnitudes and antichain cap) they
        are pre-folded aggregates and the sweep returns ``into`` with
        every chunk merged.  The parent keeps an in-progress buffer per
        cube, promotes it to a completed part when the cube's envelope
        arrives, and assembles results by merging completed parts in
        cube order on top of the resumed checkpoint — crash-retried and
        fallen-back cubes discard their buffered partials, so nothing
        is ever double counted.
        """
        restrict = list(restrict_faults) if restrict_faults is not None else None
        control = self._scenario_space(deployment, max_faults, restrict)
        ground = control.ground()
        choices = self._potential_faults(deployment)
        project = [
            atom("active_fault", ref.component, ref.fault) for ref in choices
        ]
        cube_atoms = project
        if restrict is not None:
            allowed = {(f.component, f.fault) for f in restrict}
            cube_atoms = [
                choice_atom
                for ref, choice_atom in zip(choices, project)
                if (ref.component, ref.fault) in allowed
            ]
        factor = resolve_cube_factor(self._cube_factor)
        cubes = linear_cubes(
            order_by_occurrence(ground, cube_atoms), max(2, workers * factor)
        )
        with _published_context(
            ground, project, self._requirement_names
        ) as (digest, blob):
            completed: Set[int] = set()
            if checkpoint is not None:
                config_digest = _sweep_digest(
                    digest, cubes, max_faults, into.max_minimal_sets,
                    deployment, restrict,
                )
                if os.path.exists(checkpoint):
                    completed, into = self._resume(checkpoint, config_digest)
            resumed = into.scenarios if into is not None else 0
            pending = [
                index for index in range(len(cubes)) if index not in completed
            ]
            if self._progress is not None:
                self._progress.set_total_cubes(len(cubes), done=len(completed))
                if resumed:
                    self._progress.preseed_scenarios(resumed)

            pool = WorkStealingPool(workers, on_stall=self._on_stall)
            subprocess_mode = workers > 1 and len(pending) > 1
            # fork workers inherit the published context; only spawn
            # workers need the blob to rebuild it
            shipped_blob = (
                blob if subprocess_mode and pool.start_method != "fork" else None
            )
            fold = (
                None
                if into is None
                else (into.requirements, into.magnitudes, into.max_minimal_sets)
            )
            traced = self._trace is not NULL_SINK
            payloads = [
                {
                    "digest": digest,
                    "blob": shipped_blob,
                    "project": project,
                    "requirement_names": self._requirement_names,
                    "cube": cubes[cube_id],
                    "index": cube_id,
                    "traced": traced,
                    "fold": fold,
                    "chunk": max(1, chunk_size),
                    "subprocess": subprocess_mode,
                }
                for cube_id in pending
            ]

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

            started = time.perf_counter()
            try:
                envelopes = pool.map(
                    _sweep_worker,
                    payloads,
                    on_partial=on_partial,
                    on_retry=on_retry,
                    on_result=on_result,
                )
            except ParallelError as error:
                raise EpaError("EPA sweep failed: %s" % error) from error
            searched_s = time.perf_counter() - started
        registry = get_registry()
        lanes = pool.last_assignments
        for position, (shard_stats, events, metrics) in enumerate(envelopes):
            self._stats.merge(shard_stats)
            # replay the cube's trace stream on the parent sink, tagged
            # with the worker lane it actually ran in
            for name, _seconds, event_payload in events:
                payload = dict(event_payload)
                payload.setdefault("worker", lanes.get(position, position))
                self._trace.emit(name, **payload)
            if metrics:
                registry.merge(metrics)
        result = assemble()
        if checkpoint is not None:
            snapshot()
        scenarios = len(result) if into is None else result.scenarios - resumed
        self._stats.incr("epa.parallel.shards", len(pending))
        self._stats.set("epa.parallel.workers", workers)
        self._stats.incr("summary.models.enumerated", scenarios)
        self._stats.add_time("summary.times.solve", searched_s)
        self._stats.add_time("summary.times.total", searched_s)
        self._fold_statistics(control, scenarios)
        return result

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
                "configuration (model, deployment, cube layout, "
                "max_faults and cube factor must match to resume)"
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


#: sweep worker context published by the parent for the duration of one
#: sweep: ``digest -> (solver template, probe tables, project atoms)``
_CUBE_CONTEXTS: Dict[str, Tuple[StableModelSolver, Dict[str, list], List[Atom]]] = {}


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


def _cube_context_for(
    program, project: Sequence[Atom], requirement_names: Mapping[str, str]
) -> Tuple[StableModelSolver, Dict[str, list], List[Atom]]:
    """The solver template, probe tables and projection of one program."""
    solver = StableModelSolver(program)
    probes = _build_probes(solver, program.possible_atoms, requirement_names)
    return solver, probes, list(project)


@contextmanager
def _published_context(
    ground, project: List[Atom], requirement_names: Mapping[str, str]
) -> Iterator[Tuple[str, bytes]]:
    """Publish the shared worker context for the duration of one sweep.

    Serializes the ground program (priming the
    :mod:`repro.asp.serialize` shared cache) and stores a solver
    template plus probe tables under the program digest; yields
    ``(digest, blob)``.  Workers forked inside the block inherit the
    whole context copy-on-write — their first task starts at a dict
    lookup instead of a program decode and solver encode.  Both entries
    are removed when the block exits, and no earlier: a worker
    respawned mid-sweep forks from them.
    """
    digest, blob = publish(ground)
    _CUBE_CONTEXTS[digest] = _cube_context_for(ground, project, requirement_names)
    try:
        yield digest, blob
    finally:
        _CUBE_CONTEXTS.pop(digest, None)
        unpublish(digest)


def _cube_context(
    payload: Mapping[str, object]
) -> Tuple[StableModelSolver, Dict[str, list], List[Atom]]:
    """The worker-side context: inherited via fork, or rebuilt once.

    Fork-started workers (and the in-process one-worker sweep) find the
    parent's published context in :data:`_CUBE_CONTEXTS`.
    Spawn-started workers (no fork on the platform) miss and rebuild it
    from the serialized program blob in the payload; the rebuilt context
    is cached, so only the worker's first task pays the decode + solver
    encode.
    """
    digest = payload["digest"]
    context = _CUBE_CONTEXTS.get(digest)
    if context is None:
        program = shared_program(digest, payload.get("blob"))
        context = _cube_context_for(
            program, payload["project"], payload["requirement_names"]
        )
        _CUBE_CONTEXTS[digest] = context
    return context


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
    program_digest: str,
    cubes: Sequence[Sequence[Tuple[Atom, bool]]],
    max_faults: int,
    max_minimal_sets: int,
    deployment: Mapping[str, Sequence[str]],
    restrict: Optional[Sequence[FaultRef]],
) -> str:
    """The configuration fingerprint a checkpoint is valid against.

    Covers everything that determines which scenarios each cube id
    enumerates — the ground program, the cube layout (and therefore
    workers x cube factor), the fault bound, the aggregate's antichain
    cap, the deployment and any restriction — so resuming under a
    different configuration is refused instead of silently merging
    mismatched shards.
    """
    parts = [program_digest, str(max_faults), str(max_minimal_sets)]
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
    payload: Dict[str, object]
) -> Tuple[
    Dict[str, object],
    List[Tuple[str, float, Dict[str, object]]],
    Dict[str, object],
]:
    """Enumerate one cube, shipping results as they are found.

    Runs in a pool worker (in-process for a one-worker sweep): looks up
    the shared context (solver template, probe tables), runs the
    propagation-driven projected enumeration with the cube as
    assumptions, and every ``chunk`` scenarios pushes a partial through
    :func:`repro.parallel.emit_partial` — ``("outcomes", [...])`` when
    the payload's ``fold`` is ``None``, else ``("agg", blob)``, a
    :class:`ScenarioAggregate` over ``fold = (requirements, magnitudes,
    antichain cap)`` in its RAG1 form — so parent-side memory tracks the
    fold, not the model count.  If the projected enumeration reports
    :class:`ProjectionIncomplete` (a leaf propagation could not
    settle), the worker ships ``("reset",)`` (the parent drops the
    cube's buffered partials) and re-streams the cube from the complete
    CDCL enumeration — slower, never wrong.

    Returns the envelope ``(stats, trace events, metrics snapshot)``:
    ``stats`` carries ``solving.models``, the cube's SAT counters and
    ``epa.parallel.fallbacks`` (1 when the cube fell back); the parent
    replays the ``epa.cube`` events on its own sink tagged
    ``worker=<i>`` and folds the metrics into its process-wide
    registry, so ``--trace`` and ``--metrics`` compose with
    ``--workers N``.
    """
    registry = get_registry()
    if payload["subprocess"]:
        # pool workers persist across tasks: zero the child's registry
        # so each envelope carries exactly this cube's metrics.  In the
        # in-process case the parent registry must survive; metrics are
        # then already in place and the envelope ships none.
        registry.reset()
    solver, probes, project = _cube_context(payload)
    cube = payload["cube"]
    chunk = payload["chunk"]
    fold = payload["fold"]
    batch: List[ScenarioOutcome] = []

    def flush() -> None:
        nonlocal batch
        if not batch:
            return
        if fold is None:
            emit_partial(("outcomes", batch))
        else:
            part = ScenarioAggregate(*fold)
            for outcome in batch:
                part.add(outcome)
            emit_partial(("agg", part.dumps()))
        batch = []

    def on_model(assignment: Sequence[int]) -> None:
        batch.append(_probe_extract(assignment, probes))
        if len(batch) >= chunk:
            flush()

    start = time.perf_counter()
    before = solver.statistics["solvers"]
    fallback = False
    try:
        count = solver.project_models(project, on_model, assumptions=cube)
        searched = {
            key: value - before[key]
            for key, value in solver.statistics["solvers"].items()
        }
    except ProjectionIncomplete:
        # tell the parent to discard everything streamed so far, then
        # redo the cube on the reference path
        fallback = True
        emit_partial(("reset",))
        batch = []
        requirement_names = payload["requirement_names"]
        reference = StableModelSolver(shared_program(payload["digest"]))
        count = 0
        for model in reference.models(assumptions=cube, project=project):
            batch.append(_model_extract(model, requirement_names))
            count += 1
            if len(batch) >= chunk:
                flush()
        searched = reference.statistics["solvers"]
    flush()
    elapsed = time.perf_counter() - start
    events: List[Tuple[str, float, Dict[str, object]]] = []
    if payload["traced"]:
        events.append(
            (
                "epa.cube",
                elapsed,
                {
                    "cube": payload["index"],
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
    metrics = registry.to_dict() if payload["subprocess"] else {}
    return stats, events, metrics


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
