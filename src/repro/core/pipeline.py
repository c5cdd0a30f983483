"""The end-to-end assessment pipeline (paper Fig. 1).

Wires the seven phases of the experimental framework:

1. **System model** — merge aspect models, validate;
2. **Candidate system mutations** — inject faults/vulnerabilities/
   techniques from the security catalogs;
3. **Reasoning** — assemble the joint ASP model with the requirements;
4. **Hazard identification** — exhaustive scenario analysis;
5. **Model refinement** — CEGAR-style spurious-solution elimination
   (optional, when a refined model is supplied);
6. **Quantitative risk analysis** — qualitative risk register through
   the O-RA matrix;
7. **Mitigation strategy** — cost-benefit-optimal blocking plan.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..epa.engine import EpaEngine, StaticRequirement
from ..epa.results import EpaReport, ScenarioOutcome
from ..hierarchy.cegar import CegarResult, cegar_loop, oracle_from_detailed_report
from ..mitigation.costbenefit import CostBenefitResult, evaluate_plan
from ..mitigation.optimizer import (
    BlockingProblem,
    MitigationPlan,
    OptimizationError,
    optimize_asp,
)
from ..modeling.model import SystemModel
from ..modeling.validation import ValidationReport, validate
from ..observability import NULL_SINK, SolveStats, Tracer
from ..observability.metrics import get_registry
from ..risk.assessment import (
    RiskRegister,
    frequency_of_simultaneous,
    magnitude_of_violations,
)
from ..security.catalogs import SecurityCatalog
from ..security.mapping import (
    CandidateMutation,
    candidate_mutations,
    mitigations_for_mutation,
)


class PipelineError(Exception):
    """Raised when a phase cannot run (e.g. invalid model)."""


@contextmanager
def _phase_span(tracer: Tracer, number: int, name: str) -> Iterator[None]:
    """One pipeline phase: a ``pipeline.phase`` span plus a
    ``repro_stage_seconds{stage=...}`` latency observation.

    The no-op span carries no timing, so the histogram uses its own
    clock — metrics stay populated even when tracing is off.
    """
    slug = "phase%d_%s" % (number, name.lower().replace(" ", "_"))
    started = time.perf_counter()
    with tracer.span("pipeline.phase", number=number, phase=name):
        try:
            yield
        finally:
            get_registry().histogram(
                "repro_stage_seconds", "per-stage wall-clock latency", stage=slug
            ).observe(time.perf_counter() - started)


@dataclass
class PhaseRecord:
    """Audit record of one pipeline phase (interpretability support)."""

    number: int
    name: str
    summary: str

    def __str__(self) -> str:
        return "%d. %s: %s" % (self.number, self.name, self.summary)


@dataclass
class AssessmentResult:
    """Everything the pipeline produced."""

    model: SystemModel
    validation: ValidationReport
    mutations: List[CandidateMutation]
    report: EpaReport
    cegar: Optional[CegarResult]
    register: RiskRegister
    plan: Optional[MitigationPlan]
    cost_benefit: Optional[CostBenefitResult]
    phases: List[PhaseRecord] = field(default_factory=list)
    #: aggregated solver statistics across every solve the run issued
    statistics: SolveStats = field(default_factory=SolveStats)

    @property
    def hazards(self) -> List[ScenarioOutcome]:
        return self.report.violating()

    def summary(self) -> str:
        lines = [str(phase) for phase in self.phases]
        worst = self.register.worst()
        if worst is not None:
            lines.append("worst risk: %s" % worst)
        if self.plan is not None:
            lines.append("mitigation plan: %s" % self.plan)
        if self.cost_benefit is not None:
            lines.append("cost-benefit: %s" % self.cost_benefit)
        return "\n".join(lines)


class AssessmentPipeline:
    """Configure once, run against a model."""

    def __init__(
        self,
        requirements: Sequence[StaticRequirement],
        catalog: Optional[SecurityCatalog] = None,
        max_faults: int = 2,
        budget: Optional[int] = None,
        fail_on_validation_errors: bool = True,
        trace: Optional[object] = None,
        workers: Optional[int] = None,
        cube_factor: Optional[int] = None,
        progress: Optional[object] = None,
    ):
        """``workers`` shards the hazard-identification sweeps (phase
        4/5) over a process pool and ``cube_factor`` sets their cube
        oversubscription factor (both forwarded to the EPA engines, see
        :class:`~repro.epa.EpaEngine`); results are identical to a
        sequential run.  ``progress`` is an optional
        :class:`~repro.observability.progress.ProgressTracker` fed by
        the hazard-identification sweeps."""
        self.requirements = tuple(requirements)
        self.catalog = catalog
        self.max_faults = max_faults
        self.budget = budget
        self.fail_on_validation_errors = fail_on_validation_errors
        self._trace = trace if trace is not None else NULL_SINK
        self.workers = workers
        self.cube_factor = cube_factor
        self.progress = progress

    def run(
        self,
        model: SystemModel,
        aspects: Sequence[SystemModel] = (),
        refined_model: Optional[SystemModel] = None,
        active_mitigations: Mapping[str, Sequence[str]] = (),
    ) -> AssessmentResult:
        phases: List[PhaseRecord] = []
        stats = SolveStats()
        tracer = Tracer(self._trace)

        with tracer.span("pipeline.run") as run_span:
            # ---- phase 1: system model ------------------------------------
            with _phase_span(tracer, 1, "System Model"):
                for aspect in aspects:
                    model.merge(aspect)
                validation = validate(model)
                if self.fail_on_validation_errors and not validation.ok:
                    raise PipelineError(
                        "model validation failed:\n%s"
                        % "\n".join(map(str, validation.errors))
                    )
                phases.append(
                    PhaseRecord(
                        1,
                        "System Model",
                        "%d elements, %d relationships, %d diagnostics"
                        % (
                            len(model.elements),
                            len(model.relationships),
                            len(validation),
                        ),
                    )
                )

            # ---- phase 2: candidate mutations ------------------------------
            with _phase_span(tracer, 2, "Candidate System Mutations"):
                mutations = candidate_mutations(model, self.catalog)
                security_born = [
                    m for m in mutations if m.origin_kind != "fault"
                ]
                phases.append(
                    PhaseRecord(
                        2,
                        "Candidate System Mutations",
                        "%d candidates (%d from security catalogs)"
                        % (len(mutations), len(security_born)),
                    )
                )

            # ---- phase 3: reasoning model ----------------------------------
            with _phase_span(tracer, 3, "Reasoning"):
                fault_mitigations: Dict[str, Tuple[str, ...]] = {}
                if self.catalog is not None:
                    for mutation in mutations:
                        applicable = mitigations_for_mutation(
                            self.catalog, mutation
                        )
                        if applicable:
                            fault_mitigations[mutation.fault] = tuple(
                                applicable
                            )
                engine = EpaEngine(
                    model,
                    self.requirements,
                    fault_mitigations=fault_mitigations,
                    extra_mutations=tuple(security_born),
                    trace=self._trace,
                    workers=self.workers,
                    cube_factor=self.cube_factor,
                    progress=self.progress,
                )
                phases.append(
                    PhaseRecord(
                        3,
                        "Reasoning",
                        "joint ASP model with %d requirements, %d mitigable faults"
                        % (len(self.requirements), len(fault_mitigations)),
                    )
                )

            # ---- phase 4: hazard identification ----------------------------
            with _phase_span(tracer, 4, "Hazard Identification"):
                report = engine.analyze(
                    active_mitigations=active_mitigations,
                    max_faults=self.max_faults,
                    with_paths=True,
                )
                stats.merge(engine.statistics)
                phases.append(
                    PhaseRecord(
                        4,
                        "Hazard Identification",
                        "%d scenarios analyzed, %d violate requirements"
                        % (len(report), len(report.violating())),
                    )
                )

            # ---- phase 5: model refinement (CEGAR) --------------------------
            cegar: Optional[CegarResult] = None
            with _phase_span(tracer, 5, "Model Refinement"):
                if refined_model is not None:
                    refined_mutations = candidate_mutations(
                        refined_model, self.catalog
                    )
                    refined_engine = EpaEngine(
                        refined_model,
                        self.requirements,
                        fault_mitigations=fault_mitigations,
                        extra_mutations=tuple(
                            m
                            for m in refined_mutations
                            if m.origin_kind != "fault"
                        ),
                        trace=self._trace,
                        workers=self.workers,
                        cube_factor=self.cube_factor,
                        progress=self.progress,
                    )
                    detailed = refined_engine.analyze(
                        active_mitigations=active_mitigations,
                        max_faults=self.max_faults,
                    )
                    stats.merge(refined_engine.statistics)
                    oracle = oracle_from_detailed_report(detailed)
                    cegar = cegar_loop(
                        analysis=lambda: report,
                        oracle=oracle,
                        refiner=lambda spurious: (lambda: detailed),
                        max_iterations=2,
                        stats=stats,
                        trace=self._trace,
                    )
                    report = cegar.final_report
                    phases.append(
                        PhaseRecord(
                            5,
                            "Model Refinement",
                            "%d spurious candidates eliminated over %d iterations"
                            % (
                                cegar.spurious_eliminated(),
                                len(cegar.iterations),
                            ),
                        )
                    )
                else:
                    phases.append(
                        PhaseRecord(
                            5, "Model Refinement", "skipped (no refined model)"
                        )
                    )

            # ---- phase 6: quantitative risk analysis ------------------------
            with _phase_span(tracer, 6, "Quantitative Risk Analysis"):
                register = RiskRegister()
                magnitudes = {r.name: r.magnitude for r in self.requirements}
                for index, outcome in enumerate(report.violating(), start=1):
                    register.add(
                        "+".join(outcome.key()) or "nominal",
                        frequency_of_simultaneous(outcome.fault_count),
                        magnitude_of_violations(
                            sorted(outcome.violated), magnitudes
                        ),
                        violated_requirements=sorted(outcome.violated),
                        mutations=outcome.key(),
                    )
                phases.append(
                    PhaseRecord(
                        6,
                        "Quantitative Risk Analysis",
                        "%d register entries, worst = %s"
                        % (
                            len(register),
                            register.worst().risk if len(register) else "none",
                        ),
                    )
                )

            # ---- phase 7: mitigation strategy -------------------------------
            plan: Optional[MitigationPlan] = None
            cost_benefit: Optional[CostBenefitResult] = None
            with _phase_span(tracer, 7, "Mitigation Strategy"):
                if self.catalog is not None and len(register):
                    problem = BlockingProblem()
                    for entry in self.catalog.mitigations:
                        problem.add_mitigation(
                            entry.identifier, entry.implementation_cost
                        )
                    mutation_by_fault = {m.fault: m for m in mutations}
                    scenario_magnitudes: Dict[str, str] = {}
                    for outcome in report.violating():
                        blockers: set = set()
                        for fault in outcome.active_faults:
                            mutation = mutation_by_fault.get(fault.fault)
                            if mutation is not None:
                                blockers.update(
                                    mitigations_for_mutation(
                                        self.catalog, mutation
                                    )
                                )
                        entry = register.by_scenario(
                            "+".join(outcome.key()) or "nominal"
                        )
                        problem.add_scenario(
                            entry.scenario, sorted(blockers), entry.risk
                        )
                        scenario_magnitudes[entry.scenario] = (
                            entry.loss_magnitude
                        )
                    try:
                        plan = optimize_asp(
                            problem,
                            budget=self.budget,
                            stats=stats,
                            trace=self._trace,
                        )
                        cost_benefit = evaluate_plan(plan, scenario_magnitudes)
                        phase_summary = str(plan)
                    except OptimizationError as error:
                        phase_summary = "no feasible plan (%s)" % error
                    phases.append(
                        PhaseRecord(7, "Mitigation Strategy", phase_summary)
                    )
                else:
                    phases.append(
                        PhaseRecord(
                            7,
                            "Mitigation Strategy",
                            "skipped (no catalog or no hazards)",
                        )
                    )

            run_span.update(
                phases=len(phases),
                scenarios=len(report),
                hazards=len(report.violating()),
            )

        return AssessmentResult(
            model,
            validation,
            mutations,
            report,
            cegar,
            register,
            plan,
            cost_benefit,
            phases,
            stats,
        )
