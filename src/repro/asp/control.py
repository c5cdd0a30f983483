"""High-level facade over the parser, grounder and solver.

:class:`Control` mimics the small slice of the clingo API the rest of the
framework uses: accumulate program text, ground once, then enumerate or
optimize.  By default each ``solve``/``optimize`` call builds a fresh SAT
encoding (from the control's one ground program) so repeated calls are
independent.  With ``multishot=True`` the control instead keeps one
:class:`~repro.asp.solver.StableModelSolver` alive across calls —
learnt clauses, saved phases and watch lists survive between solves,
and per-call artifacts (enumeration blocking clauses, optimization
bounds) are installed behind activation literals and retracted when the
call returns.  Combine with :meth:`Control.add_external` /
:meth:`Control.assign_external` (clingo-style external atoms, realized
as choice rules plus assumptions) to flip problem parameters between
solves without touching the program text: ground once, solve many.
Multi-shot traffic is counted under
``statistics["solving"]["multishot"]``
(``solves`` / ``reused_learnts`` / ``reground_avoided``).

Like clingo, every control carries a statistics tree: after any
``ground``/``solve``/``optimize`` call, :attr:`Control.statistics` is a
populated :class:`~repro.observability.SolveStats` with ``grounding``,
``solving`` and ``summary`` sections (counters accumulate across calls).
Pass ``trace=`` a :class:`~repro.observability.TraceSink` to stream
grounder and solver events; the default sink is a no-op.  ``ground``,
``solve`` and ``optimize`` run inside hierarchical
:class:`~repro.observability.Span`\\ s (``control.ground`` /
``control.solve`` / ``control.optimize``), each closing into a
begin/end event pair on the sink, and feed the process-wide
:class:`~repro.observability.MetricsRegistry`
(``repro_solve_calls_total``, ``repro_models_total``,
``repro_conflicts_total``, ``repro_stage_seconds{stage=...}``, ...).

A control grounds its program once and keeps the ground program until
the program text changes (``add``/``add_fact``/``add_external``); a
control never shares its grounding with another.  Callers that solve
the same program many times keep one control — the EPA engine's sweep
template, the multi-shot what-if controls — rather than rebuilding it.

Provenance: ``Control(provenance=True)`` makes the grounder record, for
every ground rule, the non-ground rule and substitution it came from
(``GroundProgram.origins``), and :meth:`Control.justify` builds
well-founded proof DAGs over a model from them (see
:mod:`repro.provenance`).  After a solve call that found no model,
:attr:`Control.unsat_core` holds the subset of that call's assumptions
(externals included) responsible — ``None`` after satisfiable calls,
``[]`` when the program is unconditionally unsatisfiable.  With the
flag off the grounding fast path is untouched.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..observability import NULL_SINK, SolveStats, Timer, Tracer
from ..observability.metrics import get_registry
from .grounder import Grounder, GroundingError
from .ground import GroundProgram
from .parser import parse_program
from .solver import Model, StableModelSolver
from .syntax import Atom, Choice, ChoiceElement, Program, Rule
from .terms import Number, String, Symbol, Term


def clear_ground_cache() -> None:
    """Do nothing: no ground program outlives its control.

    Kept because callers written against the former process-wide
    ground-program cache still call it.
    """


# process-wide metric handles (the registry zeroes in place on reset,
# so caching at import time is safe)
_METRICS = get_registry()
_SOLVE_CALLS = _METRICS.counter(
    "repro_solve_calls_total", "solve/optimize calls issued"
)
_MODELS = _METRICS.counter("repro_models_total", "stable models enumerated")
_CONFLICTS = _METRICS.counter("repro_conflicts_total", "CDCL conflicts analyzed")
_GROUND_RULES = _METRICS.counter(
    "repro_ground_rules_total", "ground rules produced"
)
_PROVENANCE_RULES = _METRICS.counter(
    "repro_provenance_rules_recorded_total",
    "ground rules with a recorded non-ground origin",
)
_SOLVE_SECONDS = _METRICS.histogram(
    "repro_stage_seconds", "per-stage wall-clock latency", stage="solve"
)
_GROUND_SECONDS = _METRICS.histogram(
    "repro_stage_seconds", "per-stage wall-clock latency", stage="ground"
)
_SAT_LEARNT_DELETED = _METRICS.counter(
    "repro_sat_learnt_deleted_total", "learnt clauses deleted by reduce-DB"
)


class Control:
    """Accumulate ASP text / facts, then ground and solve."""

    def __init__(
        self,
        text: str = "",
        trace: Optional[object] = None,
        multishot: bool = False,
        provenance: bool = False,
    ):
        self._program = Program()
        self._trace = trace if trace is not None else NULL_SINK
        self._tracer = Tracer(self._trace)
        self._stats = SolveStats()
        self._multishot = multishot
        self._provenance = provenance
        self._externals: "OrderedDict[Atom, Optional[bool]]" = OrderedDict()
        self._solver: Optional[StableModelSolver] = None
        self._solver_snapshot: Dict[str, object] = {}
        self._last_core: Optional[List[Tuple[Atom, bool]]] = None
        if text:
            self.add(text)
        self._ground: Optional[GroundProgram] = None

    @property
    def statistics(self) -> SolveStats:
        """The cumulative statistics tree (clingo ``statistics`` shape).

        Populated by ``ground``/``solve``/``optimize``; numeric counters
        accumulate across calls, sizes (``solving.variables``) reflect
        the most recent solve.  See ``docs/observability.md`` for the
        full schema.
        """
        return self._stats

    @property
    def trace(self) -> object:
        """The attached trace sink (a no-op sink by default)."""
        return self._trace

    @property
    def multishot(self) -> bool:
        """Whether this control reuses one solver across solve calls."""
        return self._multishot

    @property
    def provenance(self) -> bool:
        """Whether the grounder records rule origins for this control."""
        return self._provenance

    @property
    def unsat_core(self) -> Optional[List[Tuple[Atom, bool]]]:
        """Assumption core of the last model-free solve call.

        ``None`` unless the most recent ``solve``/``solve_iter``/
        ``optimize`` call yielded no model; ``[]`` when the program has
        no stable model regardless of assumptions; otherwise a subset of
        that call's effective assumptions — caller assumptions merged
        with external assignments — already sufficient for
        unsatisfiability.  Not minimized: pass through
        :func:`repro.provenance.minimize_core` /
        :func:`repro.provenance.assumption_core` for a MUS.
        """
        if self._last_core is None:
            return None
        return list(self._last_core)

    @property
    def externals(self) -> Dict[Atom, Optional[bool]]:
        """Current external assignments (``None`` means free)."""
        return dict(self._externals)

    # ------------------------------------------------------------------
    # program construction
    # ------------------------------------------------------------------
    def add(self, text: str) -> None:
        """Parse and append program text; invalidates prior grounding."""
        self._program.extend(parse_program(text))
        self._invalidate()

    def add_fact(self, predicate: str, *arguments: object) -> None:
        """Append a single ground fact built from Python values.

        Strings become symbols when they look like identifiers and quoted
        strings otherwise; ints become numbers; terms pass through.
        """
        args = tuple(to_term(a) for a in arguments)
        self._program.rules.append(Rule(Atom(predicate, args), ()))
        self._invalidate()

    def add_facts(self, facts: Iterable[Tuple[str, Tuple[object, ...]]]) -> None:
        for predicate, arguments in facts:
            self.add_fact(predicate, *arguments)

    def _invalidate(self) -> None:
        """Program text changed: drop grounding and any persistent solver."""
        self._ground = None
        self._solver = None
        self._solver_snapshot = {}

    # ------------------------------------------------------------------
    # external atoms (clingo-style multi-shot parameters)
    # ------------------------------------------------------------------
    def add_external(
        self,
        external: Union[Atom, str],
        *arguments: object,
        value: Optional[bool] = False,
    ) -> Atom:
        """Declare a ground atom as an external problem parameter.

        The atom is realized as a singleton choice rule (``{a}.``) so the
        grounding contains it, and its truth is fixed per solve call by
        an implicit assumption taken from the current assignment (set via
        :meth:`assign_external`).  Like clingo, externals default to
        false; ``value=None`` leaves the atom free.  Declaring the same
        external twice is a no-op (the assignment is kept).  Returns the
        external's ground atom.
        """
        target = _external_atom(external, arguments)
        if target not in self._externals:
            self._externals[target] = value
            # appended as an AST, like add_fact: engines declare dozens
            # of externals, and parsing ``{ a }.`` per atom adds up
            self._program.rules.append(Rule(Choice((ChoiceElement(target),)), ()))
            self._invalidate()
        return target

    def assign_external(
        self,
        external: Union[Atom, str],
        *arguments: object,
        value: Optional[bool],
    ) -> None:
        """Set a declared external's truth (``None`` frees it).

        Only the assignment changes — grounding and any persistent
        solver are kept, which is the whole point of multi-shot solving.
        Raises :class:`ValueError` for atoms never passed to
        :meth:`add_external`.
        """
        target = _external_atom(external, arguments)
        if target not in self._externals:
            raise ValueError("undeclared external atom: %s" % target)
        self._externals[target] = value

    def _solve_assumptions(
        self, assumptions: Sequence[Tuple[Atom, bool]]
    ) -> List[Tuple[Atom, bool]]:
        """External assignments plus caller assumptions (caller wins)."""
        if not self._externals:
            return list(assumptions)
        overridden = {target for target, _ in assumptions}
        merged: List[Tuple[Atom, bool]] = [
            (target, bool(value))
            for target, value in self._externals.items()
            if value is not None and target not in overridden
        ]
        merged.extend(assumptions)
        return merged

    # ------------------------------------------------------------------
    # grounding / solving
    # ------------------------------------------------------------------
    def ground(self) -> GroundProgram:
        """Ground the accumulated program (kept until the text changes)."""
        if self._ground is None:
            ground_timer = Timer()
            with self._tracer.span("control.ground") as span, ground_timer, \
                    self._stats.timer("summary.times.ground"):
                grounder = Grounder(
                    self._program, trace=self._trace, provenance=self._provenance
                )
                self._ground = grounder.ground()
                grounding_stats = grounder.statistics
                _GROUND_RULES.inc(grounding_stats.get("rules", 0))
                if self._provenance:
                    _PROVENANCE_RULES.inc(grounding_stats.get("provenance_rules", 0))
                span.update(rules=grounding_stats.get("rules", 0))
            self._stats.child("grounding").merge(grounding_stats)
            _GROUND_SECONDS.observe(ground_timer.elapsed)
            self._update_total_time()
        return self._ground

    def _acquire_solver(self) -> StableModelSolver:
        """A solver for one call: fresh, or the persistent multi-shot one."""
        ground = self.ground()
        if not self._multishot:
            return StableModelSolver(ground, trace=self._trace)
        if self._solver is None:
            self._solver = StableModelSolver(ground, trace=self._trace)
            self._solver_snapshot = {}
        else:
            self._stats.incr("solving.multishot.reground_avoided")
            self._stats.incr(
                "solving.multishot.reused_learnts",
                self._solver.statistics["solvers"]["learnt"],
            )
        self._stats.incr("solving.multishot.solves")
        return self._solver

    def solve(
        self,
        limit: Optional[int] = None,
        assumptions: Sequence[Tuple[Atom, bool]] = (),
        project: Optional[Sequence[Atom]] = None,
    ) -> List[Model]:
        """Enumerate up to ``limit`` answer sets (all when ``None``)."""
        return list(
            self.solve_iter(
                limit=limit, assumptions=assumptions, project=project
            )
        )

    def solve_iter(
        self,
        limit: Optional[int] = None,
        assumptions: Sequence[Tuple[Atom, bool]] = (),
        project: Optional[Sequence[Atom]] = None,
    ) -> Iterator[Model]:
        """Stream answer sets as they are found (generator).

        Closing the generator early stops the search; statistics for the
        partial solve are still recorded.  In multi-shot mode the
        blocking clauses driving the enumeration are retracted when the
        generator finishes, so the persistent solver stays clean.

        ``project`` passes a blocking-clause projection down to
        :meth:`StableModelSolver.models`: the caller asserts the given
        atoms functionally determine every answer set (see there for the
        contract), and enumeration records much shorter solution
        clauses in exchange.
        """
        with self._tracer.span(
            "control.solve", multishot=self._multishot
        ) as span:
            solver = self._acquire_solver()
            timer = Timer().start()
            count = 0
            inner = solver.models(
                limit=limit,
                assumptions=self._solve_assumptions(assumptions),
                retract=self._multishot,
                project=project,
            )
            try:
                for model in inner:
                    count += 1
                    yield model
            finally:
                inner.close()
                self._last_core = solver.unsat_core if count == 0 else None
                span.update(models=count)
                self._record_solve(solver, timer.stop(), count)

    def first_model(
        self, assumptions: Sequence[Tuple[Atom, bool]] = ()
    ) -> Optional[Model]:
        """The first answer set found, or ``None`` (stops immediately)."""
        iterator = self.solve_iter(limit=1, assumptions=assumptions)
        try:
            return next(iterator, None)
        finally:
            iterator.close()

    def is_satisfiable(
        self, assumptions: Sequence[Tuple[Atom, bool]] = ()
    ) -> bool:
        return self.first_model(assumptions) is not None

    def optimize(
        self,
        assumptions: Sequence[Tuple[Atom, bool]] = (),
        enumerate_optimal: bool = False,
        limit: Optional[int] = None,
    ) -> List[Model]:
        """Optimal model(s) under weak constraints / ``#minimize``."""
        with self._tracer.span(
            "control.optimize", multishot=self._multishot
        ) as span:
            solver = self._acquire_solver()
            timer = Timer().start()
            models = solver.optimize(
                assumptions=self._solve_assumptions(assumptions),
                enumerate_optimal=enumerate_optimal,
                limit=limit,
                retract=self._multishot,
            )
            self._last_core = solver.unsat_core if not models else None
            costs: Optional[List[int]] = None
            if models and models[0].cost:
                costs = [value for _, value in models[0].cost]
            span.update(models=len(models), costs=costs)
            self._record_solve(
                solver, timer.stop(), len(models), optimal=len(models), costs=costs
            )
        return models

    def _record_solve(
        self,
        solver: StableModelSolver,
        elapsed: float,
        models: int,
        optimal: int = 0,
        costs: Optional[List[int]] = None,
    ) -> None:
        """Fold one solve call's solver statistics into the tree."""
        snapshot = _copy_stats(solver.statistics)
        _SOLVE_CALLS.inc()
        _MODELS.inc(models)
        _SOLVE_SECONDS.observe(elapsed)
        # sizes describe the latest encoding — overwrite, don't sum
        variables = snapshot.pop("variables")
        tight = snapshot.pop("tight")
        if solver is self._solver:
            # reused solvers report cumulative counters: merge only the
            # delta since the previous record, lest calls double-count
            previous = self._solver_snapshot
            self._solver_snapshot = snapshot
            snapshot = _stats_delta(snapshot, previous)
        delta_solvers = snapshot.get("solvers", {})
        _CONFLICTS.inc(delta_solvers.get("conflicts", 0))
        _SAT_LEARNT_DELETED.inc(delta_solvers.get("learnt_deleted", 0))
        solving = self._stats.child("solving")
        solving.merge(snapshot)
        solving["variables"] = variables
        solving["tight"] = tight
        self._stats.incr("summary.calls")
        self._stats.incr("summary.models.enumerated", models)
        self._stats.incr("summary.models.optimal", optimal)
        self._stats.add_time("summary.times.solve", elapsed)
        if costs is not None:
            self._stats.set("summary.costs", costs)
        self._update_total_time()

    def _update_total_time(self) -> None:
        self._stats.set(
            "summary.times.total",
            self._stats.get_path("summary.times.ground", 0.0)
            + self._stats.get_path("summary.times.solve", 0.0),
        )

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def justify(self, model: Union[Model, Iterable[Atom]]) -> object:
        """A :class:`repro.provenance.Justifier` over ``model``.

        The justifier computes well-founded proof DAGs (``why``) and
        failed-support explanations (``why_not``) for atoms of the given
        stable model.  With ``provenance=True`` each proof step also
        carries the originating non-ground rule and substitution;
        without it the steps reference ground rules only.
        """
        from ..provenance import Justifier

        return Justifier(self.ground(), model)

    # ------------------------------------------------------------------
    # consequence reasoning
    # ------------------------------------------------------------------
    def brave_consequences(self) -> frozenset:
        """Atoms true in at least one answer set."""
        union: set = set()
        for model in self.solve():
            union.update(model.atoms)
        return frozenset(union)

    def cautious_consequences(self) -> frozenset:
        """Atoms true in every answer set (empty when UNSAT)."""
        intersection: Optional[set] = None
        for model in self.solve():
            if intersection is None:
                intersection = set(model.atoms)
            else:
                intersection.intersection_update(model.atoms)
        return frozenset(intersection or set())


def _external_atom(external: Union[Atom, str], arguments: Sequence[object]) -> Atom:
    if isinstance(external, Atom):
        if arguments:
            raise TypeError("pass either an Atom or predicate + arguments")
        return external
    return Atom(external, tuple(to_term(a) for a in arguments))


def _copy_stats(stats: Dict[str, object]) -> Dict[str, object]:
    """Deep-copy the dict levels of a statistics snapshot."""
    return {
        key: _copy_stats(value) if isinstance(value, dict) else value
        for key, value in stats.items()
    }


def _stats_delta(
    current: Dict[str, object], previous: Dict[str, object]
) -> Dict[str, object]:
    """Numeric leaves become ``current - previous``; the rest pass through."""
    delta: Dict[str, object] = {}
    for key, value in current.items():
        if isinstance(value, dict):
            delta[key] = _stats_delta(value, previous.get(key, {}))  # type: ignore[arg-type]
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            delta[key] = value
        else:
            delta[key] = value - previous.get(key, 0)  # type: ignore[operator]
    return delta


def to_term(value: object) -> Term:
    """Convert a Python value to a ground term."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return Symbol("true" if value else "false")
    if isinstance(value, int):
        return Number(value)
    if isinstance(value, str):
        if value and _is_identifier(value):
            return Symbol(value)
        return String(value)
    if isinstance(value, (tuple, list)):
        from .terms import Function

        return Function("", tuple(to_term(v) for v in value))
    raise TypeError("cannot convert %r to an ASP term" % (value,))


def _is_identifier(text: str) -> bool:
    if not text[0].islower():
        return False
    return all(ch.isalnum() or ch == "_" for ch in text)


def atom(predicate: str, *arguments: object) -> Atom:
    """Build a ground atom from Python values (test/API convenience)."""
    return Atom(predicate, tuple(to_term(a) for a in arguments))


__all__ = ["Control", "atom", "to_term", "clear_ground_cache", "GroundingError"]
