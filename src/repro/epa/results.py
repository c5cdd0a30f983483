"""EPA result datatypes.

"The result of the qualitative error propagation analysis in ASP is a
vector that describes the violated safety constraints and gives the
components' error propagation path and active fault modes" (Sec. II-C).
:class:`ScenarioOutcome` is that vector; :class:`EpaReport` the full
exhaustive analysis over the scenario space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .faults import FaultRef


@dataclass(frozen=True)
class PropagationStep:
    """One hop of an error propagation path."""

    source: str
    target: str

    def __str__(self) -> str:
        return "%s -> %s" % (self.source, self.target)


@dataclass(frozen=True)
class ScenarioOutcome:
    """The analysis vector of one scenario (fault-mode combination)."""

    active_faults: FrozenSet[FaultRef]
    violated: FrozenSet[str]
    #: components carrying an error, with the error kinds they carry
    erroneous: Mapping[str, FrozenSet[str]]
    detected_at: FrozenSet[str] = frozenset()
    #: propagation paths per violated requirement (may be empty when the
    #: path extractor is not run)
    paths: Mapping[str, Tuple[PropagationStep, ...]] = field(
        default_factory=dict
    )
    #: worst active fault severity rank (1..5, 0 when no fault is active)
    severity_rank: int = 0

    @property
    def is_safe(self) -> bool:
        return not self.violated

    @property
    def fault_count(self) -> int:
        return len(self.active_faults)

    def violates(self, requirement: str) -> bool:
        return requirement in self.violated

    def key(self) -> Tuple[str, ...]:
        """Canonical scenario key (sorted fault refs)."""
        return tuple(sorted(str(f) for f in self.active_faults))

    def __str__(self) -> str:
        faults = ", ".join(sorted(str(f) for f in self.active_faults)) or "-"
        violations = ", ".join(sorted(self.violated)) or "-"
        return "faults[%s] -> violated[%s]" % (faults, violations)


class EpaReport:
    """The exhaustive scenario analysis of one model configuration."""

    def __init__(
        self,
        outcomes: Sequence[ScenarioOutcome],
        requirements: Sequence[str],
        active_mitigations: Mapping[str, Tuple[str, ...]] = (),
    ):
        self._outcomes = list(outcomes)
        self.requirements = tuple(requirements)
        self.active_mitigations = dict(active_mitigations or {})

    @property
    def outcomes(self) -> List[ScenarioOutcome]:
        return sorted(
            self._outcomes, key=lambda o: (o.fault_count, o.key())
        )

    def __len__(self) -> int:
        return len(self._outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def violating(self, requirement: Optional[str] = None) -> List[ScenarioOutcome]:
        """Scenarios violating some requirement (or a specific one)."""
        if requirement is None:
            return [o for o in self.outcomes if not o.is_safe]
        return [o for o in self.outcomes if o.violates(requirement)]

    def safe(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.is_safe]

    def outcome_for(self, faults: Iterable[str]) -> ScenarioOutcome:
        """The outcome whose active fault set equals ``faults``
        (fault refs as ``component.fault`` strings)."""
        wanted = tuple(sorted(faults))
        for outcome in self._outcomes:
            if outcome.key() == wanted:
                return outcome
        raise KeyError("no scenario with faults %r analyzed" % (wanted,))

    def minimal_violating(
        self, requirement: Optional[str] = None
    ) -> List[FrozenSet[FaultRef]]:
        """Minimal fault combinations causing a violation — the EPA
        equivalent of FTA minimal cut sets."""
        violating = [o.active_faults for o in self.violating(requirement)]
        violating.sort(key=lambda s: (len(s), tuple(sorted(map(str, s)))))
        minimal: List[FrozenSet[FaultRef]] = []
        for candidate in violating:
            if not any(kept <= candidate for kept in minimal):
                minimal.append(candidate)
        return minimal

    def to_aggregate(self, magnitudes: Mapping[str, str] = ()):
        """Fold this report into a streaming
        :class:`~repro.epa.aggregate.ScenarioAggregate`.

        The materialized-to-streamed bridge (and the reference path the
        byte-identity tests compare streamed sweeps against):
        ``engine.aggregate(...)`` produces the same bytes as
        ``engine.analyze(...).to_aggregate(magnitudes)`` for matching
        magnitude maps.  Imported lazily — :mod:`repro.epa.aggregate`
        itself imports this module.
        """
        from .aggregate import ScenarioAggregate

        return ScenarioAggregate.from_outcomes(
            self.outcomes, self.requirements, magnitudes
        )

    def single_points_of_failure(self) -> List[FaultRef]:
        """Single faults that alone violate some requirement."""
        return sorted(
            (
                next(iter(cut))
                for cut in self.minimal_violating()
                if len(cut) == 1
            ),
            key=str,
        )

    def violation_counts(self) -> Dict[str, int]:
        """Per requirement: how many scenarios violate it."""
        return {
            requirement: len(self.violating(requirement))
            for requirement in self.requirements
        }

    def criticality(self) -> Dict[str, int]:
        """Per component: number of violating scenarios its faults are in
        — the hot-spot ranking that guides refinement (Sec. VI)."""
        counts: Dict[str, int] = {}
        for outcome in self.violating():
            for fault in outcome.active_faults:
                counts[fault.component] = counts.get(fault.component, 0) + 1
        return dict(
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        )
