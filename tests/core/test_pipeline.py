"""Integration tests for the 7-phase assessment pipeline (Fig. 1)."""

import pytest

from repro.casestudy import (
    build_system_model,
    refined_system_model,
    static_requirements,
)
from repro.core import AssessmentPipeline, PipelineError
from repro.modeling import ElementType, RelationshipType, SystemModel
from repro.reporting import assessment_report
from repro.security import builtin_catalog


@pytest.fixture(scope="module")
def result():
    pipeline = AssessmentPipeline(
        static_requirements(), builtin_catalog(), max_faults=1
    )
    return pipeline.run(
        build_system_model(), refined_model=refined_system_model()
    )


class TestPhases:
    def test_all_seven_phases_recorded(self, result):
        assert [p.number for p in result.phases] == [1, 2, 3, 4, 5, 6, 7]
        names = [p.name for p in result.phases]
        assert names == [
            "System Model",
            "Candidate System Mutations",
            "Reasoning",
            "Hazard Identification",
            "Model Refinement",
            "Quantitative Risk Analysis",
            "Mitigation Strategy",
        ]

    def test_mutations_injected(self, result):
        assert any(m.origin_kind == "technique" for m in result.mutations)
        assert any(m.origin_kind == "vulnerability" for m in result.mutations)

    def test_hazards_found(self, result):
        assert result.hazards
        assert all(not o.is_safe for o in result.hazards)

    def test_risk_register_covers_hazards(self, result):
        assert len(result.register) == len(result.hazards)
        assert result.register.worst().risk in ("H", "VH")

    def test_mitigation_plan_produced(self, result):
        assert result.plan is not None
        assert result.plan.deployed
        assert result.cost_benefit is not None
        assert result.cost_benefit.worthwhile

    def test_summary_mentions_each_phase(self, result):
        summary = result.summary()
        for phase in result.phases:
            assert phase.name in summary

    def test_report_renders(self, result):
        text = assessment_report(result)
        assert "ASSESSMENT REPORT" in text
        assert "Risk register" in text


class TestValidationGate:
    def _broken_model(self):
        model = SystemModel("broken")
        model.add_element("a", "A", ElementType.NODE)
        model.add_element("b", "B", ElementType.NODE)
        model.add_relationship(
            "a", "b", RelationshipType.PHYSICAL_CONNECTION, check=False
        )
        return model

    def test_validation_errors_stop_the_pipeline(self):
        pipeline = AssessmentPipeline(static_requirements())
        with pytest.raises(PipelineError):
            pipeline.run(self._broken_model())

    def test_validation_gate_can_be_disabled(self):
        pipeline = AssessmentPipeline(
            static_requirements(), fail_on_validation_errors=False
        )
        result = pipeline.run(self._broken_model())
        assert not result.validation.ok


class TestConfiguration:
    def test_without_catalog_skips_mitigation(self):
        pipeline = AssessmentPipeline(static_requirements(), max_faults=1)
        result = pipeline.run(build_system_model())
        assert result.plan is None
        assert "skipped" in result.phases[6].summary

    def test_budget_limits_plan(self):
        pipeline = AssessmentPipeline(
            static_requirements(), builtin_catalog(), max_faults=1, budget=10
        )
        result = pipeline.run(build_system_model())
        assert result.plan is not None
        assert result.plan.cost <= 10

    def test_aspect_models_merged(self):
        pipeline = AssessmentPipeline(static_requirements(), max_faults=1)
        deployment = SystemModel("deployment")
        deployment.add_element(
            "backup_hmi",
            "Backup HMI",
            ElementType.APPLICATION_COMPONENT,
        )
        base = build_system_model()
        base.add_relationship  # base untouched otherwise
        result = pipeline.run(base, aspects=[deployment])
        assert result.model.has_element("backup_hmi")

    def test_workers_leave_the_result_unchanged(self, result):
        # --workers shards the phase-3 and phase-5 sweeps only; the
        # refinement loop and every later phase see identical reports
        pipeline = AssessmentPipeline(
            static_requirements(), builtin_catalog(), max_faults=1, workers=2
        )
        sharded = pipeline.run(
            build_system_model(), refined_model=refined_system_model()
        )
        assert sharded.hazards == result.hazards
        assert assessment_report(sharded) == assessment_report(result)

    def test_active_mitigations_shrink_hazards(self):
        from repro.casestudy import M1, M2

        pipeline = AssessmentPipeline(
            static_requirements(), builtin_catalog(), max_faults=1
        )
        unprotected = pipeline.run(build_system_model())
        protected = pipeline.run(
            build_system_model(),
            active_mitigations={
                "engineering_workstation": ("M0917", "M0949", "M0926")
            },
        )
        assert len(protected.hazards) <= len(unprotected.hazards)
