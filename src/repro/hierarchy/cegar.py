"""CEGAR-styled abstraction refinement (paper Fig. 1 step 5, Sec. VI).

"The shortlist of potentially successful attacks may contain spurious
solutions due to over-abstraction (but the method guarantees that no
actual hazardous attack is overlooked).  This way, a successive
iteration after CEGAR-styled model refinement and re-analysis or expert
review is needed to eliminate false solutions."

The loop is generic: an *analysis* produces candidate counterexamples
(violating scenarios); an *oracle* (a more detailed analysis, or the
expert-review callback) classifies each as real or spurious; a
*refiner* produces the next, more detailed analysis whenever spurious
candidates remain.  Soundness invariant: refinement only ever removes
spurious candidates — confirmed hazards accumulate monotonically.

Observability: pass ``stats=`` a
:class:`~repro.observability.SolveStats` and/or ``trace=`` a sink to
:func:`cegar_loop`; each iteration records its analysis wall-clock time
and candidate/confirmed/spurious counts under the ``cegar`` section and
runs inside a ``cegar.iteration`` span (a begin/end event pair carrying
the counts), incrementing ``repro_cegar_iterations_total`` in the
process-wide metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..epa.results import EpaReport, ScenarioOutcome
from ..observability import NULL_SINK, SolveStats, Timer, Tracer
from ..observability.metrics import get_registry


class CegarError(Exception):
    """Raised when the refiner cannot make progress."""


#: runs the analysis at the current abstraction level
Analysis = Callable[[], EpaReport]
#: classifies a violating scenario: True = real hazard, False = spurious
Oracle = Callable[[ScenarioOutcome], bool]
#: given the spurious scenarios, produce the refined analysis (or None
#: when no further refinement is available)
Refiner = Callable[[Sequence[ScenarioOutcome]], Optional[Analysis]]


@dataclass
class CegarIteration:
    """Record of one abstraction level."""

    level: int
    report: EpaReport
    confirmed: List[ScenarioOutcome] = field(default_factory=list)
    spurious: List[ScenarioOutcome] = field(default_factory=list)

    @property
    def candidate_count(self) -> int:
        return len(self.confirmed) + len(self.spurious)

    def __str__(self) -> str:
        return "level %d: %d candidates = %d confirmed + %d spurious" % (
            self.level,
            self.candidate_count,
            len(self.confirmed),
            len(self.spurious),
        )


@dataclass
class CegarResult:
    """The outcome of the whole loop."""

    iterations: List[CegarIteration]
    converged: bool

    @property
    def confirmed(self) -> List[ScenarioOutcome]:
        """All real hazards, deduplicated by scenario key."""
        seen: Set[Tuple[str, ...]] = set()
        result: List[ScenarioOutcome] = []
        for iteration in self.iterations:
            for outcome in iteration.confirmed:
                if outcome.key() not in seen:
                    seen.add(outcome.key())
                    result.append(outcome)
        return result

    @property
    def final_report(self) -> EpaReport:
        return self.iterations[-1].report

    def spurious_eliminated(self) -> int:
        return sum(len(i.spurious) for i in self.iterations[:-1])

    def __str__(self) -> str:
        return "\n".join(str(i) for i in self.iterations)


def cegar_loop(
    analysis: Analysis,
    oracle: Oracle,
    refiner: Refiner,
    max_iterations: int = 10,
    stats: Optional[SolveStats] = None,
    trace: Optional[object] = None,
) -> CegarResult:
    """Run analyze -> classify -> refine until no spurious candidates
    remain (or refinement is exhausted).

    The method's guarantee is preserved by construction: candidates the
    oracle confirms are kept forever; only oracle-rejected candidates
    trigger refinement, and the refined analysis replaces the *spurious*
    part of the verdict, never the confirmed part.

    ``stats`` (a :class:`~repro.observability.SolveStats`) accumulates
    per-iteration counts and analysis times under its ``cegar`` section;
    ``trace`` receives one ``cegar.iteration`` span (begin/end event
    pair) per level.
    """
    if max_iterations < 1:
        raise CegarError("need at least one iteration")
    sink = trace if trace is not None else NULL_SINK
    tracer = Tracer(sink)
    cegar_iterations = get_registry().counter(
        "repro_cegar_iterations_total", "CEGAR refinement iterations run"
    )
    iterations: List[CegarIteration] = []
    current = analysis
    for level in range(1, max_iterations + 1):
        with tracer.span("cegar.iteration", level=level) as span:
            timer = Timer().start()
            report = current()
            elapsed = timer.stop()
            iteration = CegarIteration(level, report)
            for outcome in report.violating():
                if oracle(outcome):
                    iteration.confirmed.append(outcome)
                else:
                    iteration.spurious.append(outcome)
            iterations.append(iteration)
            cegar_iterations.inc()
            if stats is not None:
                stats.incr("cegar.iterations")
                stats.incr("cegar.candidates", iteration.candidate_count)
                stats.incr("cegar.confirmed", len(iteration.confirmed))
                stats.incr("cegar.spurious", len(iteration.spurious))
                stats.add_time("cegar.time", elapsed)
            span.update(
                candidates=iteration.candidate_count,
                confirmed=len(iteration.confirmed),
                spurious=len(iteration.spurious),
            )
        if not iteration.spurious:
            if stats is not None:
                stats.set("cegar.converged", 1)
            return CegarResult(iterations, converged=True)
        refined = refiner(iteration.spurious)
        if refined is None:
            if stats is not None:
                stats.set("cegar.converged", 0)
            return CegarResult(iterations, converged=False)
        current = refined
    if stats is not None:
        stats.set("cegar.converged", 0)
    return CegarResult(iterations, converged=False)


def oracle_from_detailed_report(detailed: EpaReport) -> Oracle:
    """An oracle that confirms a coarse candidate iff the detailed
    analysis still finds a violating scenario on the same components.

    This is the automated half of "re-analysis or expert review": the
    coarse candidate names components whose aspect-level failure
    violates a requirement; it is real iff some concrete fault
    combination on those components still violates one.
    """
    real_component_sets = [
        frozenset(f.component for f in outcome.active_faults)
        for outcome in detailed.violating()
    ]

    def oracle(candidate: ScenarioOutcome) -> bool:
        components = frozenset(f.component for f in candidate.active_faults)
        return any(real <= components for real in real_component_sets)

    return oracle
