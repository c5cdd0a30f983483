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
sweep.  The parent grounds once per engine: its first sweep or point
query builds a sweep template (:class:`_SweepTemplate` — the joint
scenario program, with the deployment as externals and no fault bound,
plus one solver and its probe tables) that every later call reuses, so
the what-if loop of Fig. 1 re-analyzes deployment after deployment
without grounding or encoding anything.  A sweep turns what varies into
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
ground where the cube runs.  A cube task returns its whole result:
the cube's outcome list (``analyze``) or the one
:class:`~repro.epa.aggregate.ScenarioAggregate` its outcomes were folded
into (``aggregate``), which the parent concatenates or merges in cube
order.  Cubes partition the scenario space, so the result is the same
for every worker count (see ``docs/parallelism.md``).
:meth:`EpaEngine.analyze_stream` enumerates the same space lazily with
the CDCL enumerator alone — the independent reference the differential
tests compare the sweep against.

Point queries: by default :meth:`EpaEngine.analyze_scenario` is a
one-cube sweep on the same template.  It pins the deployment's
externals and every potential fault (requested ones true, the rest
false) and runs the sweep worker in-process, so a what-if query takes
the projected-DFS leaf, probe extraction and CDCL fallback of every
sweep cube, and grounds and encodes nothing.  Its pins come off the
engine's choice index (:meth:`EpaEngine._choice_index`: every fault
pair with its ``active_fault`` atom and covering mitigations, every
``active_mitigation`` external with its declared id), built once like
the template, and its propagation paths off shortest paths memoized
per (fault component, focus), so a query builds no atom and walks
neither the model nor the graph.  ``incremental=False`` grounds a
fresh control per query instead: the independent reference the
point-query tests compare against.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple, Union

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

#: completed cubes between two checkpoint writes of a checkpointed
#: ``aggregate`` (the last write follows the last cube)
CHECKPOINT_EVERY = 8

#: outcomes a cube task extracts before it folds them into the cube's
#: part in one loop: adding each outcome to an aggregate as the search
#: finds it ran the ``fleet-stream`` sweep slower
FOLD_BLOCK = 512


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
        queries only: by default :meth:`analyze_scenario` answers as a
        one-cube sweep on the engine's template, ``incremental=False``
        grounds a fresh control per query.  Full sweeps always take the
        cube sweep on that one template, ground once per engine
        whatever ``incremental`` says.  ``workers`` sets the
        process-pool width of the sweeps (``None``/``1`` =
        in-process); point queries always run in-process.  The engine
        serves only the thread that built it.  A sweep cuts at least
        ``max(2, workers × CUBE_FACTOR)`` cubes, none holding more than
        that share of its scenarios (or
        :data:`~repro.asp.cubes.FLOOR`).  ``progress``
        attaches a :class:`~repro.observability.ProgressTracker` fed
        per completed cube — results are identical with or without
        it."""
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
        self._workers = workers or 1
        self._progress = progress
        #: ASP requirement symbol -> declared requirement name
        self._requirement_names = {
            _requirement_symbol(r.name): r.name for r in self.requirements
        }
        self._base_program: Optional[Program] = None
        self._choices: Optional[_ChoiceIndex] = None
        self._template: Optional[_SweepTemplate] = None
        #: requirement name -> focus component, and the memoized
        #: shortest propagation path per (fault component, focus)
        self._focus = {r.name: r.focus for r in self.requirements if r.focus}
        self._shortest: Dict[Tuple[str, str], Optional[Tuple[str, ...]]] = {}
        # every sweep pushes and pops on the template's one solver
        # trail, so the engine answers only the thread that built it
        self._thread = threading.get_ident()
        # multi-shot controls for unsat-core queries, one per bound:
        # their cores need the bounded program with its blocking rules
        self._core_controls: Dict[int, Control] = {}

    @property
    def statistics(self) -> SolveStats:
        """Aggregated solver statistics across every solve this engine
        issued (``grounding``/``solving``/``summary`` sections merged
        per call; scenario counts under ``epa``).  Returns a merged
        snapshot: the blocking-core controls contribute their
        cumulative trees alongside the per-call aggregate."""
        merged = SolveStats()
        merged.merge(self._stats)
        for control in self._core_controls.values():
            merged.merge(control.statistics)
        return merged

    # ------------------------------------------------------------------
    # program assembly
    # ------------------------------------------------------------------
    def _assemble_base_program(self) -> Program:
        """The mitigation-independent program slice, built once per
        engine (model facts, rule base, mutations, mitigation
        declarations, requirements) so every control reuses one
        parse."""
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

    def _choice_index(self) -> _ChoiceIndex:
        """The engine's :class:`_ChoiceIndex`, derived from the model
        and the mitigation declarations on first use and kept for the
        engine's life, like the base program and the sweep template."""
        if self._choices is not None:
            return self._choices
        refs: Dict[FaultRef, None] = {}
        for element in self.model.elements:
            for fault in element.properties.get("fault_modes", []) or []:
                refs.setdefault(FaultRef(element.identifier, fault["name"]))
        for mutation in self.extra_mutations:
            refs.setdefault(FaultRef(mutation.component, mutation.fault))
        faults = []
        names: Dict[Tuple[str, str], str] = {}
        for ref in refs:
            by_fault = self.fault_mitigations.get(ref.fault, ())
            for mitigation in by_fault:
                names.setdefault(
                    (ref.component, _mitigation_symbol(mitigation)), mitigation
                )
            covering = frozenset(
                (ref.component, _mitigation_symbol(mitigation))
                for mitigation in by_fault
                + self.component_mitigations.get((ref.component, ref.fault), ())
            )
            faults.append(
                (ref, atom("active_fault", ref.component, ref.fault), covering)
            )
        for (component, _fault), mitigations in sorted(
            self.component_mitigations.items()
        ):
            for mitigation in mitigations:
                names.setdefault(
                    (component, _mitigation_symbol(mitigation)), mitigation
                )
        self._choices = _ChoiceIndex(
            faults,
            {
                pair: (atom("active_mitigation", *pair), name)
                for pair, name in names.items()
            },
        )
        return self._choices

    def _fault_pairs(self) -> List[FaultRef]:
        """Every declared (component, fault-mode) pair, model order."""
        return [ref for ref, _, _ in self._choice_index().faults]

    def _potential_faults(
        self, active: Set[Tuple[str, str]]
    ) -> List[Tuple[FaultRef, Atom]]:
        """Python mirror of the ASP suppression logic: the fault pairs
        not suppressed by the deployed ``(component, mitigation
        symbol)`` pairs (= the scenario-choice space the solver sees),
        each with its ``active_fault`` atom."""
        return [
            (ref, choice)
            for ref, choice, covering in self._choice_index().faults
            if active.isdisjoint(covering)
        ]

    def _mitigation_assumptions(
        self, pairs: Iterable[Tuple[str, str]]
    ) -> List[Tuple[Atom, bool]]:
        """Every ``active_mitigation`` external with its truth value:
        true for ``pairs``, false otherwise (no external may stay free:
        models must match a fresh control's exactly)."""
        chosen = set(pairs)
        return [
            (external, pair in chosen)
            for pair, (external, _) in self._choice_index().mitigations.items()
        ]

    def _assign_mitigations(
        self, control: Control, pairs: Iterable[Tuple[str, str]]
    ) -> None:
        """Pin every ``active_mitigation`` external of a multi-shot
        control — assignments persist there, so a mitigation dropped
        since the last call must be actively flipped back."""
        for external, value in self._mitigation_assumptions(pairs):
            control.assign_external(external, value=value)

    def _choice_space(
        self,
        deployment: Mapping[str, Sequence[str]],
        restrict: Optional[Sequence[FaultRef]],
    ) -> Tuple[List[Atom], List[Tuple[Atom, bool]], List[Atom]]:
        """What a deployment and a restriction leave of the template's
        fault choice, read off the engine's choice index
        (:meth:`_choice_index`): the ``active_fault`` atoms of the
        potential faults (the projection), the assumptions that pin the
        deployment's externals and the faults outside ``restrict``
        false, and the fault atoms left free (all of them when
        ``restrict`` is ``None``)."""
        active = _active_pairs(deployment)
        choices = self._potential_faults(active)
        project = [choice for _, choice in choices]
        assumptions = self._mitigation_assumptions(active)
        if restrict is None:
            return project, assumptions, project
        allowed = {(f.component, f.fault) for f in restrict}
        free = []
        for ref, choice_atom in choices:
            if (ref.component, ref.fault) in allowed:
                free.append(choice_atom)
            else:
                assumptions.append((choice_atom, False))
        return project, assumptions, free

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(
        self,
        active_mitigations: Mapping[str, Sequence[str]] = (),
        max_faults: int = 0,
        restrict_faults: Optional[Iterable[FaultRef]] = None,
        with_paths: bool = False,
    ) -> EpaReport:
        """Enumerate and evaluate the scenario space.

        ``active_mitigations`` maps component -> deployed mitigation ids.
        ``max_faults`` bounds simultaneous fault activations (0 =
        unbounded); ``restrict_faults`` limits the scenario space to a
        subset of fault refs (used for targeted what-if queries).  The
        engine's ``workers`` shard the sweep over a process pool.  With
        a trace sink attached, worker events are
        shipped back in the result envelopes and re-emitted on the
        parent's sink tagged ``worker=<i>``, so ``--trace`` composes
        with ``--workers N``.
        """
        self._check_thread()
        deployment = _deployment(active_mitigations)
        with self._tracer.span("epa.analyze", max_faults=max_faults) as span:
            outcomes = self._sweep(deployment, max_faults, restrict_faults)
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
                choice
                for _, choice in self._potential_faults(_active_pairs(deployment))
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
        checkpoint: Optional[str] = None,
    ) -> ScenarioAggregate:
        """Sweep the scenario space into a bounded-memory aggregate.

        The full-sweep engine for fleet-scale workloads: the same cube
        sweep as :meth:`analyze`, but each cube task folds its models
        into one :class:`~repro.epa.aggregate.ScenarioAggregate` and
        returns that object, so the model list never exists.  The
        parent merges the cubes' aggregates in cube order,
        byte-identically to folding the materialized report.  The fold
        keeps at most :data:`~repro.epa.aggregate.DEFAULT_MAX_MINIMAL_SETS`
        minimal violating sets.

        ``checkpoint`` names a file that periodically (every
        :data:`CHECKPOINT_EVERY` completed cubes, and after the last)
        receives a JSON resume token — completed cube ids plus the
        partial aggregate — so a killed sweep restarts where it left
        off: call again with the same configuration and the same path.
        A checkpoint written by a different sweep configuration is
        refused, and one that cannot be read or written raises
        :class:`EpaError` naming the path.
        """
        self._check_thread()
        deployment = _deployment(active_mitigations)
        with self._tracer.span(
            "epa.aggregate", max_faults=max_faults, workers=self._workers
        ) as span:
            result = self._sweep(
                deployment,
                max_faults,
                restrict_faults,
                into=ScenarioAggregate(
                    [r.name for r in self.requirements],
                    {r.name: r.magnitude for r in self.requirements},
                    DEFAULT_MAX_MINIMAL_SETS,
                ),
                checkpoint=checkpoint,
            )
            span.update(
                scenarios=result.scenarios, violating=result.violating
            )
        record_peak_rss()
        self._progress_finish()
        return result

    def _sweep(
        self,
        deployment: Mapping[str, Sequence[str]],
        max_faults: int,
        restrict_faults: Optional[Iterable[FaultRef]],
        into: Optional[ScenarioAggregate] = None,
        checkpoint: Optional[str] = None,
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
        each ``(cube id, cube)`` item and returns the cube's part.  The
        progress tracker, if any, is told the layout and the exact
        scenario total, and advances as each cube's part arrives.
        Without ``into`` the parts are outcome lists and the sweep
        returns every outcome; with ``into`` (an empty aggregate fixing
        the requirement order, magnitudes and antichain cap) each part
        is its cube's aggregate and the sweep returns ``into`` with
        every part merged.  Either way the parts are assembled in cube
        order, on top of the resumed checkpoint, whatever order the
        cubes finished in.  A checkpointed sweep keeps the token's
        aggregate beside the result and extends it, every
        :data:`CHECKPOINT_EVERY` cubes, with only the parts completed
        since its last write, so each part is merged at most twice.
        """
        template = self._sweep_template()
        workers = self._workers
        restrict = list(restrict_faults) if restrict_faults is not None else None
        project, assumptions, cube_atoms = self._choice_space(deployment, restrict)
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
            traced=self._trace is not NULL_SINK,
        )
        completed: Set[int] = set()
        if checkpoint is not None:
            config_digest = _sweep_digest(
                template.program, cubes, max_faults, into, deployment, restrict
            )
            if os.path.exists(checkpoint):
                completed, into = self._resume(checkpoint, config_digest)
            # the aggregate of the token on disk, and the parts
            # completed since it was written, by cube id
            saved = into.copy()
            fresh: Dict[int, ScenarioAggregate] = {}
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

        def snapshot(aggregate: ScenarioAggregate) -> None:
            with self._tracer.span(
                "epa.checkpoint",
                path=checkpoint,
                mode="write",
                cubes=len(completed),
                total=len(cubes),
            ):
                try:
                    write_checkpoint(
                        checkpoint, config_digest, completed, aggregate
                    )
                except OSError as error:
                    raise EpaError(
                        "cannot write checkpoint %s: %s" % (checkpoint, error)
                    ) from error

        def on_result(position: int, envelope: tuple) -> None:
            part = envelope[0]
            cube_id = pending[position]
            completed.add(cube_id)
            self._progress_scenarios(
                len(part) if into is None else part.scenarios
            )
            self._progress_cube_done()
            if checkpoint is not None:
                fresh[cube_id] = part
                if len(fresh) == CHECKPOINT_EVERY:
                    for done in sorted(fresh):
                        saved.merge(fresh[done])
                    fresh.clear()
                    snapshot(saved)

        pool = WorkStealingPool(workers, on_stall=self._on_stall)
        started = time.perf_counter()
        try:
            envelopes = pool.map(
                functools.partial(_sweep_worker, context),
                [(cube_id, cubes[cube_id]) for cube_id in pending],
                on_result=on_result,
            )
        except ParallelError as error:
            raise EpaError("EPA sweep failed: %s" % error) from error
        searched_s = time.perf_counter() - started
        lanes = pool.last_assignments
        # ``pending`` lists cube ids in ascending order, and the pool
        # returns results in input order: this loop folds in cube order
        result = [] if into is None else into
        for position, (part, shard_stats, events) in enumerate(envelopes):
            if into is None:
                result.extend(part)
            else:
                into.merge(part)
            self._stats.merge(shard_stats)
            # replay the cube's trace stream on the parent sink, tagged
            # with the worker lane it actually ran in
            for name, _seconds, event_payload in events:
                payload = dict(event_payload)
                payload.setdefault("worker", lanes.get(position, position))
                self._trace.emit(name, **payload)
        if checkpoint is not None:
            snapshot(into)
        scenarios = len(result) if into is None else result.scenarios - resumed
        self._stats.incr("epa.parallel.shards", len(pending))
        self._stats.set("epa.parallel.workers", workers)
        self._note_analysis(scenarios, searched_s)
        return result

    def _template_control(self) -> Control:
        """A fresh control over the template's program: unbounded fault
        choice, deployments as ``active_mitigation`` externals."""
        control = Control(trace=self._trace)
        control._program.extend(self._assemble_base_program())
        control.add(scenario_choice(0))
        for external, _ in self._choice_index().mitigations.values():
            control.add_external(external)
        return control

    def _sweep_template(self) -> _SweepTemplate:
        """The engine's :class:`_SweepTemplate`, ground and encoded on
        its first sweep or point query (:meth:`_template_control`).  Its
        grounding statistics merge into :attr:`statistics` once; every
        later call reuses the template and counts one
        ``solving.multishot.reground_avoided``."""
        if self._template is None:
            control = self._template_control()
            self._template = _SweepTemplate(
                control.ground(), self._requirement_names
            )
            self._stats.merge(control.statistics)
        else:
            self._stats.incr("solving.multishot.reground_avoided")
        return self._template

    def _check_thread(self) -> None:
        """Refuse calls from any thread but the one that built the
        engine: sweeps and point queries share the template's solver
        trail, blocking cores the persistent controls."""
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
            try:
                state = read_checkpoint(checkpoint)
            except OSError as error:
                raise EpaError(
                    "cannot read checkpoint %s: %s" % (checkpoint, error)
                ) from error
        if state.digest != config_digest:
            raise EpaError(
                "checkpoint %s was written by a different sweep "
                "configuration (model, deployment, restriction, worker "
                "count, max_faults, antichain cap, requirement order "
                "and magnitudes must match to resume)"
                % checkpoint
            )
        self._stats.incr("epa.aggregate.resumed_cubes", len(state.completed))
        return set(state.completed), state.aggregate

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
        By default the query is a one-cube sweep on the engine's
        template: the requested faults are the restriction and its one
        cube pins them true, so :func:`_sweep_worker` visits a single
        leaf (or redoes it on the CDCL fallback).  ``incremental=False``
        grounds a fresh control instead.
        """
        self._check_thread()
        deployment = _deployment(active_mitigations)
        faults = list(faults)
        with self._tracer.span("epa.analyze_scenario", faults=len(faults)) as span:
            if self._incremental:
                project, assumptions, requested = self._choice_space(
                    deployment, faults
                )
                context = _SweepContext(
                    self._sweep_template(),
                    project,
                    assumptions,
                    None,
                    fallback=(self._assemble_base_program(), deployment, 0, faults),
                    fold=None,
                    traced=False,
                )
                started = time.perf_counter()
                outcomes, stats, _events = _sweep_worker(
                    context, (0, [(a, True) for a in requested])
                )
                self._stats.merge(stats)
                self._note_analysis(len(outcomes), time.perf_counter() - started)
                outcome = outcomes[0] if outcomes else None
            else:
                control = self._base_control(deployment)
                for fault in faults:
                    control.add(
                        "active_fault(%s, %s) :- potential_fault(%s, %s)."
                        % (fault.component, fault.fault, fault.component, fault.fault)
                    )
                model = control.first_model()
                self._fold_statistics(control, scenarios=int(model is not None))
                outcome = None if model is None else self._outcome(model, False)
            if outcome is None:
                raise EpaError("scenario program unexpectedly unsatisfiable")
            span.update(violated=sorted(outcome.violated))
        return self._with_paths(outcome) if with_paths else outcome

    # ------------------------------------------------------------------
    # provenance / explanation
    # ------------------------------------------------------------------
    def _core_control(self, max_faults: int) -> Control:
        """The persistent control for blocking-core queries.

        The sweep template's program with the given fault bound, plus an ``epa_require_violation`` external that, when
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
            for external, _ in self._choice_index().mitigations.values():
                control.add_external(external)
            self._core_controls[max_faults] = control
        return control

    def blocking_core(
        self,
        active_mitigations: Mapping[str, Sequence[str]],
        max_faults: int = 0,
    ) -> Optional[List[Tuple[str, str]]]:
        """Which deployed mitigations a violation-free result rests on.

        Returns ``None`` when some scenario still violates a
        requirement under the deployment (there is nothing to
        explain), and otherwise the ``(component, mitigation)`` subset
        of the deployment whose presence makes every violating
        scenario impossible — an unsat core of the query "find a
        violation", minimized to a MUS (dropping any returned mitigation
        re-admits a violating scenario).
        """
        self._check_thread()
        control = self._core_control(max_faults)
        active = _active_pairs(active_mitigations)

        def is_blocking(pairs: Iterable[Tuple[str, str]]) -> bool:
            self._assign_mitigations(control, pairs)
            control.assign_external("epa_require_violation", value=True)
            return not control.is_satisfiable()

        self._stats.incr("epa.blocking_core_calls")
        mitigations = self._choice_index().mitigations
        if not is_blocking([pair for pair in mitigations if pair in active]):
            return None
        pair_of = {external: pair for pair, (external, _) in mitigations.items()}
        core = minimize_core(
            is_blocking,
            [
                pair_of[head]
                for head, value in control.unsat_core or []
                if value and head in pair_of
            ],
        )
        return sorted(
            (component, mitigations[(component, symbol)][1])
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

    def _note_analysis(
        self, scenarios: int, searched_s: Optional[float] = None
    ) -> None:
        """Count one sweep or point query.  A search on the template
        (``searched_s`` given) also counts its models and time under
        ``summary``; a control's statistics carry its own."""
        self._stats.incr("epa.analyze_calls")
        self._stats.incr("epa.scenarios", scenarios)
        if searched_s is not None:
            self._stats.incr("summary.models.enumerated", scenarios)
            self._stats.add_time("summary.times.solve", searched_s)
            self._stats.add_time("summary.times.total", searched_s)

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
        for requirement in violated:
            focus = self._focus.get(requirement)
            if not focus:
                continue
            best: Optional[Tuple[str, ...]] = None
            # name order breaks ties between equally short paths, so the
            # choice does not depend on set iteration order
            for fault in sorted(active, key=str):
                candidate = self._shortest_path(fault.component, focus)
                if candidate is not None and (
                    best is None or len(candidate) < len(best)
                ):
                    best = candidate
            if best and len(best) > 1:
                paths[requirement] = tuple(
                    PropagationStep(a, b) for a, b in zip(best, best[1:])
                )
        return paths

    def _shortest_path(
        self, source: str, focus: str
    ) -> Optional[Tuple[str, ...]]:
        """``nx.shortest_path`` from ``source`` to ``focus`` (``None``
        when there is none), memoized for the engine's life: at most
        one entry per component and focus."""
        key = (source, focus)
        if key not in self._shortest:
            try:
                path = tuple(nx.shortest_path(self._graph, source, focus))
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                path = None
            self._shortest[key] = path
        return self._shortest[key]


class _ChoiceIndex(NamedTuple):
    """An engine's fault and mitigation universe.

    ``faults`` lists every declared (component, fault-mode) pair in
    model order (extra mutations last) with its ``active_fault`` atom
    and the ``(component, mitigation symbol)`` deployments that suppress
    it.  ``mitigations`` maps every deployment that can suppress a
    fault, in declaration order, to its ``active_mitigation`` external
    and declared mitigation id — the external universe; deployments
    outside it have no semantic effect (``covers`` requires a
    declaration).
    """

    faults: List[Tuple[FaultRef, Atom, FrozenSet[Tuple[str, str]]]]
    mitigations: Dict[Tuple[str, str], Tuple[Atom, str]]


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

    The ground program every sweep and point query enumerates
    (unbounded scenario choice, deployment as externals), one solver
    template and the probe tables built from it.  Sweeps and point
    queries only pass it assumptions, and the projected DFS leaves the
    solver's formula as it found it, so one template serves every
    deployment, restriction, bound and pinned scenario.  Pickles as its ground program
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
    (``None`` for outcome lists, else ``(requirements, magnitudes,
    antichain cap)``; see :meth:`new_part`) and whether cubes record
    trace events.  :meth:`EpaEngine._sweep` binds it into the pool task as
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
        traced: bool,
    ):
        self.template = template
        self.project = list(project)
        self.assumptions = list(assumptions)
        self.max_true = max_true
        self.fallback = fallback
        self.fold = fold
        self.traced = traced
        self._bounded: Optional[GroundProgram] = None

    def bounded_program(self) -> GroundProgram:
        """The sweep's bounded scenario program, for the CDCL fallback:
        ground in the process that first needs it, then kept."""
        if self._bounded is None:
            self._bounded = _scenario_space(*self.fallback).ground()
        return self._bounded

    def new_part(self) -> Union[List[ScenarioOutcome], ScenarioAggregate]:
        """An empty cube part: an outcome list without a fold spec,
        else an aggregate over it (both take outcomes by ``extend``)."""
        return [] if self.fold is None else ScenarioAggregate(*self.fold)


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
) -> Tuple[
    Union[List[ScenarioOutcome], ScenarioAggregate],
    Dict[str, object],
    List[Tuple[str, float, Dict[str, object]]],
]:
    """Enumerate one ``(cube id, cube)`` item and return its result.

    Runs in a pool worker (in-process for a one-worker sweep and a
    point query) with the sweep's :class:`_SweepContext` bound in: runs
    the propagation-driven projected enumeration on the engine's
    template solver, assuming the sweep's assumptions plus the cube and
    bounding it by the sweep's ``max_true``, and keeps the outcomes in
    the cube's *part* (:meth:`_SweepContext.new_part`) — a list when
    ``context.fold`` is ``None``, else one :class:`ScenarioAggregate`
    over ``fold = (requirements, magnitudes, antichain cap)`` that
    folds them, :data:`FOLD_BLOCK` at a time, so a worker holds the
    fold and one block, not the models.  If the projected enumeration
    reports :class:`ProjectionIncomplete` (a leaf propagation could not
    settle), the worker drops the part, outcomes already kept
    included, and redoes the cube from the complete CDCL enumeration
    of the sweep's bounded program, ground in the worker on its first
    fallback — slower, never wrong.

    Returns ``(part, stats, trace events)``: ``stats`` carries
    ``solving.models``, the cube's SAT counters and
    ``epa.parallel.fallbacks`` (1 when the cube fell back); the parent
    replays the ``epa.cube`` events on its own sink tagged
    ``worker=<i>``, so ``--trace`` composes with ``--workers N``.  The
    pool pickles the result only across a process boundary (an
    in-process sweep encodes nothing) and ships the task's metrics
    itself.
    """
    cube_id, cube = item
    solver = context.template.solver
    probes = context.template.probes
    part = context.new_part()
    block: List[ScenarioOutcome] = []

    def keep(outcome: ScenarioOutcome) -> None:
        block.append(outcome)
        if len(block) == FOLD_BLOCK:
            part.extend(block)
            block.clear()

    def on_model(assignment: Sequence[int]) -> None:
        keep(_probe_extract(assignment, probes))

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
        # drop what the projected search kept, then redo the cube on
        # the reference path
        fallback = True
        part = context.new_part()
        block.clear()
        reference = StableModelSolver(context.bounded_program())
        count = 0
        for model in reference.models(assumptions=cube, project=context.project):
            keep(_model_extract(model, context.template.requirement_names))
            count += 1
        searched = reference.statistics["solvers"]
    part.extend(block)
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
    return part, stats, events


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
