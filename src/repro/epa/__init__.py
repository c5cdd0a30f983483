"""Qualitative error propagation analysis — the paper's core (Sec. IV).

Topology-level exhaustive scenario analysis over the ASP rule base
(Listing 1 generalized), behaviour-level temporal analysis with LTLf
requirements (Listing 2 conventions), result vectors with propagation
paths, and the RST-extended uncertain EPA of Sec. V-B.

Exports by paper section
------------------------
Sec. IV-A/B (exhaustive scenario analysis)
    :class:`EpaEngine` (with a ``.statistics`` tree and ``trace=`` hook,
    see :mod:`repro.observability`), :class:`StaticRequirement`,
    :class:`EpaReport`, :class:`ScenarioOutcome`,
    :class:`PropagationStep`, :func:`epa_rule_base`,
    :func:`scenario_choice`, the fault taxonomy (:class:`FaultRef`,
    :data:`ERROR_KINDS`, :data:`BEHAVIOUR_TO_KIND`,
    :data:`MASKABLE_KINDS`, :func:`error_kind`);
Sec. IV-B (behavioural/temporal analysis, Listing 2)
    :class:`BehaviouralEpa`, :class:`BehaviouralScenario`;
Sec. IV-C (optimization queries over the scenario space)
    :func:`cheapest_attack`, :func:`most_severe_attack`,
    :func:`attack_cost_of_mitigation`, :class:`OptimalScenario`;
Sec. V-B (rough-set-extended uncertain EPA)
    :func:`uncertain_analysis`, :class:`UncertainEpaResult`,
    :func:`epa_decision_system`, :func:`discriminating_faults`,
    :func:`refinement_gain`;
workflow support (explanations "for analysts of average skills")
    :func:`explain_outcome`, :func:`explain_report`,
    :class:`Explanation`;
provenance (proof-backed explainability, see :mod:`repro.provenance`)
    :func:`scenario_proof` / :class:`ScenarioProof` — derivation-DAG
    ``why``/``why_not`` over a re-solved scenario — and
    :meth:`EpaEngine.blocking_core`, the minimized unsat core naming
    the mitigations a violation-free result rests on;
streaming sweeps (bounded memory; ``docs/streaming.md``)
    :class:`ScenarioAggregate` — the on-the-fly fold behind
    :meth:`EpaEngine.aggregate` (:meth:`EpaEngine.analyze_stream` is
    the lazy CDCL enumeration it is tested against), whose canonical
    JSON state also makes up the checkpoint tokens
    (:class:`CheckpointState`, :func:`read_checkpoint`,
    :func:`write_checkpoint`).
"""

from .aggregate import (
    CheckpointState,
    ScenarioAggregate,
    read_checkpoint,
    write_checkpoint,
)
from .behavioral import BehaviouralEpa, BehaviouralScenario
from .optimal import (
    OptimalQueryError,
    OptimalScenario,
    attack_cost_of_mitigation,
    cheapest_attack,
    most_severe_attack,
)
from .explain import (
    Explanation,
    ScenarioProof,
    explain_outcome,
    explain_report,
    scenario_proof,
)
from .engine import EpaEngine, EpaError, StaticRequirement
from .faults import (
    BEHAVIOUR_TO_KIND,
    ERROR_KINDS,
    MASKABLE_KINDS,
    FaultRef,
    FaultTaxonomyError,
    error_kind,
)
from .results import EpaReport, PropagationStep, ScenarioOutcome
from .rules import epa_rule_base, scenario_choice
from .uncertain import (
    UncertainEpaResult,
    discriminating_faults,
    epa_decision_system,
    refinement_gain,
    uncertain_analysis,
)

__all__ = [
    "BEHAVIOUR_TO_KIND",
    "BehaviouralEpa",
    "BehaviouralScenario",
    "CheckpointState",
    "ERROR_KINDS",
    "EpaEngine",
    "EpaError",
    "Explanation",
    "EpaReport",
    "FaultRef",
    "FaultTaxonomyError",
    "MASKABLE_KINDS",
    "OptimalQueryError",
    "OptimalScenario",
    "PropagationStep",
    "ScenarioAggregate",
    "ScenarioOutcome",
    "ScenarioProof",
    "StaticRequirement",
    "UncertainEpaResult",
    "attack_cost_of_mitigation",
    "cheapest_attack",
    "most_severe_attack",
    "discriminating_faults",
    "epa_decision_system",
    "epa_rule_base",
    "error_kind",
    "explain_outcome",
    "explain_report",
    "read_checkpoint",
    "refinement_gain",
    "scenario_choice",
    "scenario_proof",
    "uncertain_analysis",
    "write_checkpoint",
]
