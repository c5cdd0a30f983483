"""Explanation generation for EPA results.

The paper puts "the *simplicity*, *interpretability* of each step, and
the *explainability* of the results" first among the SME requirements
(Sec. II-A), and praises qualitative reasoning because "the
interpretation of the solutions is straightforward".  This module turns
scenario outcomes into the corresponding natural-language explanations:
what was activated, how it travelled, what it violated, and what would
have stopped it.

Two tiers.  :func:`explain_outcome` is the heuristic narrative built
from an outcome alone.  :func:`scenario_proof` is the proof-backed
tier: it re-solves one scenario with provenance-tracking grounding and
returns a :class:`ScenarioProof` whose ``why``/``why_not`` answers are
derivation DAGs over the actual stable model — every claim is a rule
chain down to facts and chosen fault atoms, not a plausible story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..asp.syntax import Atom
from ..modeling.model import SystemModel
from ..provenance import (
    Justifier,
    ProofNode,
    WhyNot,
    format_proof,
    format_why_not,
    parse_atom,
)
from .engine import EpaEngine, StaticRequirement, _active_pairs
from .faults import FaultRef
from .results import ScenarioOutcome
from .rules import scenario_choice


@dataclass(frozen=True)
class Explanation:
    """A structured explanation of one scenario outcome."""

    headline: str
    activation: List[str]
    propagation: List[str]
    violations: List[str]
    defenses: List[str]

    def text(self) -> str:
        lines = [self.headline, ""]
        for title, entries in (
            ("Activated faults", self.activation),
            ("Propagation", self.propagation),
            ("Consequences", self.violations),
            ("Defenses", self.defenses),
        ):
            if entries:
                lines.append(title + ":")
                lines.extend("  - " + entry for entry in entries)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.text()


_KIND_PHRASE = {
    "omission": "stops producing output",
    "value": "produces wrong values",
    "timing": "responds too late",
    "malicious": "falls under attacker control",
}


def explain_outcome(
    outcome: ScenarioOutcome,
    model: Optional[SystemModel] = None,
    requirements: Sequence[StaticRequirement] = (),
    mitigations: Mapping[str, Sequence[str]] = (),
) -> Explanation:
    """Build the explanation of a scenario outcome.

    ``model`` (when given) supplies human-readable component names;
    ``requirements`` supply descriptions and magnitudes; ``mitigations``
    maps fault names to the mitigation ids that would suppress them
    (used for the "what would have stopped this" section).
    """

    def name_of(identifier: str) -> str:
        if model is not None and model.has_element(identifier):
            return model.element(identifier).name
        return identifier

    requirement_by_name = {r.name: r for r in requirements}

    if outcome.is_safe:
        if outcome.active_faults:
            headline = (
                "Scenario [%s] is tolerated: the activated faults do not "
                "violate any requirement." % ", ".join(sorted(outcome.key()))
            )
        else:
            headline = "Nominal scenario: no faults active, no violations."
    else:
        headline = "Scenario [%s] violates %s." % (
            ", ".join(sorted(outcome.key())) or "nominal",
            ", ".join(sorted(outcome.violated)),
        )

    activation = []
    for fault in sorted(outcome.active_faults, key=str):
        kinds = outcome.erroneous.get(fault.component, frozenset())
        phrase = (
            "; ".join(
                _KIND_PHRASE.get(kind, kind) for kind in sorted(kinds)
            )
            or "is faulty"
        )
        activation.append(
            "%s: fault '%s' — the component %s"
            % (name_of(fault.component), fault.fault, phrase)
        )

    propagation = []
    for requirement_name, steps in sorted(outcome.paths.items()):
        chain = " -> ".join(
            [name_of(steps[0].source)] + [name_of(s.target) for s in steps]
        )
        propagation.append("towards %s: %s" % (requirement_name, chain))
    fault_components = {f.component for f in outcome.active_faults}
    for component in sorted(outcome.erroneous):
        if component not in fault_components:
            kinds = ", ".join(sorted(outcome.erroneous[component]))
            propagation.append(
                "%s is reached by erroneous input (%s)"
                % (name_of(component), kinds)
            )
    for detector in sorted(outcome.detected_at):
        propagation.append(
            "%s detects the erroneous behaviour and raises an alert"
            % name_of(detector)
        )

    violations = []
    for requirement_name in sorted(outcome.violated):
        requirement = requirement_by_name.get(requirement_name)
        if requirement is not None:
            violations.append(
                "%s (%s) — loss magnitude %s"
                % (
                    requirement_name,
                    requirement.description or requirement.condition,
                    requirement.magnitude,
                )
            )
        else:
            violations.append(requirement_name)

    defenses = []
    mitigation_map = dict(mitigations or {})
    for fault in sorted(outcome.active_faults, key=str):
        applicable = mitigation_map.get(fault.fault, ())
        if applicable:
            defenses.append(
                "activating %s on %s would suppress fault '%s'"
                % (
                    " or ".join(applicable),
                    name_of(fault.component),
                    fault.fault,
                )
            )
    if not defenses and not outcome.is_safe and outcome.active_faults:
        defenses.append(
            "no catalogued mitigation covers these faults; consider "
            "masking/redundancy at the affected components"
        )

    return Explanation(headline, activation, propagation, violations, defenses)


class ScenarioProof:
    """Proof-backed queries over one scenario's stable model.

    Wraps the provenance-tracking :class:`~repro.asp.Control` and
    :class:`~repro.provenance.Justifier` of a re-solved scenario.
    ``why``/``why_not`` accept a ground :class:`~repro.asp.syntax.Atom`
    or its text form (``"err(water_tank, value)"``) and answer with
    derivation DAGs carrying the originating non-ground rules and
    substitutions.
    """

    def __init__(self, control, model, justifier: Justifier):
        self.control = control
        self.model = model
        self.justifier = justifier

    @property
    def atoms(self) -> frozenset:
        """The atoms of the scenario's stable model."""
        return frozenset(self.model.atoms)

    def why(self, query: Union[Atom, str]) -> ProofNode:
        """A well-founded proof DAG for an atom of the model."""
        return self.justifier.why(self._atom(query))

    def why_not(self, query: Union[Atom, str]) -> WhyNot:
        """Why an atom is absent: every candidate rule and its blocker."""
        return self.justifier.why_not(self._atom(query))

    def why_text(self, query: Union[Atom, str]) -> str:
        """:meth:`why` rendered as an indented text tree."""
        return format_proof(self.why(query))

    def why_not_text(self, query: Union[Atom, str]) -> str:
        """:meth:`why_not` rendered as readable text."""
        return format_why_not(self.why_not(query))

    def violations(self) -> List[Atom]:
        """The ``violated/1`` atoms of the model (natural why targets)."""
        return sorted(
            (a for a in self.model.atoms if a.predicate == "violated"),
            key=str,
        )

    @staticmethod
    def _atom(query: Union[Atom, str]) -> Atom:
        return query if isinstance(query, Atom) else parse_atom(query)


def scenario_proof(
    engine: EpaEngine,
    faults: Iterable[FaultRef],
    active_mitigations: Mapping[str, Sequence[str]] = (),
) -> ScenarioProof:
    """Re-solve one scenario with provenance on and justify its model.

    Mirrors :meth:`EpaEngine.analyze_scenario` semantics: requested
    faults that survive the deployment are pinned active, every other
    potential fault is pinned inactive, and the (unique) stable model
    is justified.  Uses a fresh provenance-tracking control — the
    engine's sweep template and blocking-core controls are untouched.
    """
    deployment = {
        component: tuple(ms)
        for component, ms in dict(active_mitigations or {}).items()
    }
    control = engine._base_control(deployment, provenance=True)
    control.add(scenario_choice(0))
    requested = {(f.component, f.fault) for f in faults}
    assumptions = [
        (choice, (ref.component, ref.fault) in requested)
        for ref, choice in engine._potential_faults(_active_pairs(deployment))
    ]
    model = control.first_model(assumptions=assumptions)
    if model is None:
        raise ValueError("scenario program unexpectedly unsatisfiable")
    return ScenarioProof(control, model, control.justify(model))


def explain_report(
    engine: EpaEngine,
    outcomes: Sequence[ScenarioOutcome],
    limit: Optional[int] = None,
) -> List[Explanation]:
    """Explanations for (the first ``limit``) outcomes of an analysis."""
    mitigation_map: Dict[str, Tuple[str, ...]] = dict(engine.fault_mitigations)
    selected = list(outcomes)[: limit or len(outcomes)]
    return [
        explain_outcome(
            outcome,
            engine.model,
            engine.requirements,
            mitigation_map,
        )
        for outcome in selected
    ]
