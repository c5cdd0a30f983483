"""Streaming aggregation of EPA scenario outcomes (bounded memory).

:class:`~repro.epa.results.EpaReport` holds every
:class:`~repro.epa.results.ScenarioOutcome` of a sweep — the right shape
at case-study scale, and exactly the wrong one at fleet scale, where the
outcome list *is* the memory wall.  :class:`ScenarioAggregate` is the
streaming replacement: outcomes are folded one at a time into running
totals — scenario and violation counts, per-requirement violation
tallies, fault-count and severity histograms, per-component criticality
and worst-case severity grades, O-RA risk-matrix cell counts and the
minimal violating fault sets (an antichain, subsumption-pruned on
insert) — and then discarded.  Memory is bounded by the model size and
the number of distinct minimal cut sets, never by the scenario count.

Determinism is the load-bearing property: :meth:`ScenarioAggregate.add`
and :meth:`ScenarioAggregate.merge` are commutative and associative (the
antichain merge included, as long as :attr:`minimal_truncated` stays
false), and :meth:`ScenarioAggregate.state` is a canonical form — every
field as JSON values, every map in sorted order, the requirement order
kept — so a streamed sweep, a cube-sharded parallel sweep merged in any
completion order, and a materialized report folded after the fact
(:meth:`~repro.epa.results.EpaReport.to_aggregate`) all have equal
states, which :meth:`ScenarioAggregate.dumps` writes as byte-identical
canonical JSON.  Differential tests pin this.

Sweep *checkpoints* carry the same state: :func:`write_checkpoint`
atomically persists a resume token — one JSON document holding the
sweep's config digest, the completed cube ids and the merged partial
aggregate — so a killed million-scenario run restarts where it left off
(see ``docs/streaming.md``).  A token is never a pickle, which could
run code when read back; malformed or torn input raises
:class:`SerializeError`.

Exports: :class:`ScenarioAggregate`, :class:`CheckpointState`,
:func:`read_checkpoint`, :func:`write_checkpoint`,
:class:`SerializeError`, :data:`DEFAULT_MAX_MINIMAL_SETS`.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from ..observability.metrics import get_registry
from ..risk.assessment import frequency_of_simultaneous, magnitude_of_violations
from .faults import FaultRef, FaultTaxonomyError
from .results import ScenarioOutcome

#: the ``format`` tag of a checkpoint token
CHECKPOINT_FORMAT = "repro-checkpoint/1"

#: antichain capacity before :attr:`ScenarioAggregate.minimal_truncated`
#: flips — far above any real minimal-cut-set family, present so a
#: pathological model cannot turn the one unbounded structure of the
#: aggregate back into a memory wall
DEFAULT_MAX_MINIMAL_SETS = 4096

#: every outcome folded into a streaming aggregate, process-wide
_STREAM_MODELS = get_registry().counter(
    "repro_stream_models_total",
    "stable models folded into streaming scenario aggregates",
)


class AggregateError(ValueError):
    """Raised on a merge of aggregates over different sweep shapes."""


class SerializeError(ValueError):
    """Raised on a checkpoint token or aggregate state that is
    malformed, cut short or in an earlier format."""


def _canonical(value: object) -> bytes:
    """The one JSON spelling of ``value``: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")


#: what decoding a malformed state raises, as :class:`SerializeError`
_MALFORMED = (AttributeError, LookupError, TypeError, ValueError, FaultTaxonomyError)

#: the count tables :meth:`ScenarioAggregate.merge` adds key by key
_COUNT_TABLES = (
    "violation_counts",
    "fault_count_hist",
    "severity_hist",
    "component_criticality",
    "risk_cells",
)


class ScenarioAggregate:
    """Running aggregates of one scenario sweep, folded model by model."""

    __slots__ = (
        "requirements",
        "magnitudes",
        "max_minimal_sets",
        "scenarios",
        "violating",
        "violation_counts",
        "fault_count_hist",
        "severity_hist",
        "component_criticality",
        "worst_component_grade",
        "risk_cells",
        "minimal_violating",
        "minimal_truncated",
    )

    def __init__(
        self,
        requirements: Sequence[str],
        magnitudes: Mapping[str, str] = (),
        max_minimal_sets: int = DEFAULT_MAX_MINIMAL_SETS,
    ):
        """``requirements`` fixes the tally order (the engine's
        declaration order); ``magnitudes`` maps requirement name -> O-RA
        Loss Magnitude label, feeding the risk-matrix cells."""
        self.requirements: Tuple[str, ...] = tuple(requirements)
        self.magnitudes: Dict[str, str] = dict(magnitudes or {})
        self.max_minimal_sets = max_minimal_sets
        self.scenarios = 0
        self.violating = 0
        self.violation_counts: Dict[str, int] = dict.fromkeys(self.requirements, 0)
        self.fault_count_hist: Dict[int, int] = {}
        self.severity_hist: Dict[int, int] = {}
        self.component_criticality: Dict[str, int] = {}
        self.worst_component_grade: Dict[str, int] = {}
        self.risk_cells: Dict[Tuple[str, str], int] = {}
        self.minimal_violating: List[FrozenSet[FaultRef]] = []
        self.minimal_truncated = False

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def add(self, outcome: ScenarioOutcome) -> None:
        """Fold one scenario outcome and forget it."""
        _STREAM_MODELS.inc()
        self.scenarios += 1
        count = outcome.fault_count
        self.fault_count_hist[count] = self.fault_count_hist.get(count, 0) + 1
        rank = outcome.severity_rank
        self.severity_hist[rank] = self.severity_hist.get(rank, 0) + 1
        if not outcome.violated:
            return
        self.violating += 1
        for name in outcome.violated:
            self.violation_counts[name] = self.violation_counts.get(name, 0) + 1
        cell = (
            frequency_of_simultaneous(count),
            magnitude_of_violations(sorted(outcome.violated), self.magnitudes),
        )
        self.risk_cells[cell] = self.risk_cells.get(cell, 0) + 1
        for fault in outcome.active_faults:
            component = fault.component
            self.component_criticality[component] = (
                self.component_criticality.get(component, 0) + 1
            )
            if rank > self.worst_component_grade.get(component, 0):
                self.worst_component_grade[component] = rank
        self._insert_minimal(outcome.active_faults)

    def extend(self, outcomes: Iterable[ScenarioOutcome]) -> None:
        """Fold every outcome of ``outcomes``, like ``list.extend``."""
        for outcome in outcomes:
            self.add(outcome)

    def _insert_minimal(self, candidate: FrozenSet[FaultRef]) -> None:
        """Antichain insert: drop the candidate when a kept set subsumes
        it, drop kept supersets otherwise.  Insertion order does not
        matter (the result is the minimal-element family of the inserted
        sets) until the capacity cap trips, after which new incomparable
        sets are refused and :attr:`minimal_truncated` records the loss."""
        kept = self.minimal_violating
        for existing in kept:
            if existing <= candidate:
                return
        survivors = [s for s in kept if not candidate <= s]
        if len(survivors) >= self.max_minimal_sets:
            self.minimal_truncated = True
            self.minimal_violating = survivors
            return
        survivors.append(candidate)
        self.minimal_violating = survivors

    def merge(self, other: "ScenarioAggregate") -> "ScenarioAggregate":
        """Fold another aggregate of the *same sweep shape* into this
        one, in place.  Commutative and associative (below the antichain
        cap), which is what lets cube shards merge in completion order
        while still serializing byte-identically."""
        if other.requirements != self.requirements:
            raise AggregateError(
                "cannot merge aggregates over different requirement sets"
            )
        if other.magnitudes != self.magnitudes:
            raise AggregateError(
                "cannot merge aggregates with different magnitude maps"
            )
        self.scenarios += other.scenarios
        self.violating += other.violating
        for name in _COUNT_TABLES:
            table = getattr(self, name)
            for key, value in getattr(other, name).items():
                table[key] = table.get(key, 0) + value
        for component, rank in other.worst_component_grade.items():
            if rank > self.worst_component_grade.get(component, 0):
                self.worst_component_grade[component] = rank
        # canonical order: once the cap trips, which sets are kept
        # depends on the insertion sequence, so it must not depend on
        # how ``other`` was built or shipped
        for candidate in other.minimal_sets():
            self._insert_minimal(candidate)
        self.minimal_truncated = self.minimal_truncated or other.minimal_truncated
        return self

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[ScenarioOutcome],
        requirements: Sequence[str],
        magnitudes: Mapping[str, str] = (),
        max_minimal_sets: int = DEFAULT_MAX_MINIMAL_SETS,
    ) -> "ScenarioAggregate":
        aggregate = cls(requirements, magnitudes, max_minimal_sets)
        aggregate.extend(outcomes)
        return aggregate

    def copy(self) -> "ScenarioAggregate":
        return ScenarioAggregate.from_state(self.state())

    # ------------------------------------------------------------------
    # queries (the streaming counterparts of EpaReport's)
    # ------------------------------------------------------------------
    @property
    def safe(self) -> int:
        return self.scenarios - self.violating

    def minimal_sets(self) -> List[FrozenSet[FaultRef]]:
        """Minimal violating fault sets in canonical order."""
        return sorted(
            self.minimal_violating,
            key=lambda s: (len(s), tuple(sorted(map(str, s)))),
        )

    def single_points_of_failure(self) -> List[FaultRef]:
        return sorted(
            (next(iter(cut)) for cut in self.minimal_sets() if len(cut) == 1),
            key=str,
        )

    def criticality(self) -> Dict[str, int]:
        """Components ranked by violating-scenario membership."""
        return dict(
            sorted(
                self.component_criticality.items(),
                key=lambda kv: (-kv[1], kv[0]),
            )
        )

    def summary(self) -> str:
        """A compact human-readable block for CLI output."""
        lines = [
            "scenarios analyzed: %d (%d violating, %d safe)"
            % (self.scenarios, self.violating, self.safe),
        ]
        if self.violation_counts:
            lines.append(
                "violations: "
                + ", ".join(
                    "%s=%d" % (name, self.violation_counts.get(name, 0))
                    for name in self.requirements
                )
            )
        if self.risk_cells:
            lines.append(
                "risk cells (LEF/LM): "
                + ", ".join(
                    "%s/%s=%d" % (cell[0], cell[1], count)
                    for cell, count in sorted(self.risk_cells.items())
                )
            )
        spofs = self.single_points_of_failure()
        lines.append(
            "single points of failure: %s"
            % (", ".join(str(f) for f in spofs) or "none")
        )
        if self.component_criticality:
            worst = list(self.criticality().items())[:5]
            lines.append(
                "criticality: "
                + ", ".join("%s=%d" % pair for pair in worst)
            )
        if self.minimal_truncated:
            lines.append(
                "warning: minimal violating sets truncated at %d"
                % self.max_minimal_sets
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """The canonical form: every field as JSON values, every map in
        sorted order, the requirement order kept — equal content, equal
        state, whatever the fold order.  Integer-keyed histograms and
        the risk cells are sorted ``[key..., count]`` rows; a minimal
        violating set is a sorted list of ``component.fault`` names, the
        sets in :meth:`minimal_sets` order."""
        return {
            "requirements": list(self.requirements),
            "magnitudes": dict(sorted(self.magnitudes.items())),
            "max_minimal_sets": self.max_minimal_sets,
            "scenarios": self.scenarios,
            "violating": self.violating,
            "violation_counts": dict(sorted(self.violation_counts.items())),
            "fault_count_hist": sorted(map(list, self.fault_count_hist.items())),
            "severity_hist": sorted(map(list, self.severity_hist.items())),
            "component_criticality": dict(sorted(self.component_criticality.items())),
            "worst_component_grade": dict(sorted(self.worst_component_grade.items())),
            "risk_cells": sorted(
                [*cell, count] for cell, count in self.risk_cells.items()
            ),
            "minimal_violating": [sorted(map(str, cut)) for cut in self.minimal_sets()],
            "minimal_truncated": self.minimal_truncated,
        }

    @classmethod
    def from_state(cls, state: object) -> "ScenarioAggregate":
        """Rebuild an aggregate from its :meth:`state`.  Accepts exactly
        the canonical states: input the rebuilt aggregate does not
        reproduce — a missing or extra field, a value of the wrong type,
        rows out of order — raises :class:`SerializeError`."""
        try:
            aggregate = cls(
                [str(name) for name in state["requirements"]],
                {str(name): str(label) for name, label in state["magnitudes"].items()},
                int(state["max_minimal_sets"]),
            )
            aggregate.scenarios = int(state["scenarios"])
            aggregate.violating = int(state["violating"])
            for name in (
                "violation_counts",
                "component_criticality",
                "worst_component_grade",
            ):
                getattr(aggregate, name).update(
                    (str(key), int(count)) for key, count in state[name].items()
                )
            for name in ("fault_count_hist", "severity_hist"):
                getattr(aggregate, name).update(
                    (int(key), int(count)) for key, count in state[name]
                )
            for frequency, magnitude, count in state["risk_cells"]:
                aggregate.risk_cells[(str(frequency), str(magnitude))] = int(count)
            aggregate.minimal_violating = [
                frozenset(FaultRef.parse(str(ref)) for ref in cut)
                for cut in state["minimal_violating"]
            ]
            aggregate.minimal_truncated = bool(state["minimal_truncated"])
            canonical = _canonical(aggregate.state()) == _canonical(state)
        except _MALFORMED as error:
            raise SerializeError(
                "malformed aggregate state (%s: %s)" % (type(error).__name__, error)
            ) from None
        if not canonical:
            raise SerializeError("not a canonical aggregate state")
        return aggregate

    def dumps(self) -> bytes:
        """:meth:`state` as canonical JSON (sorted keys, no spaces),
        ASCII bytes."""
        return _canonical(self.state())

    @classmethod
    def loads(cls, data: bytes) -> "ScenarioAggregate":
        """Invert :meth:`dumps`; malformed input raises
        :class:`SerializeError`."""
        try:
            state = json.loads(data)
        except ValueError as error:
            raise SerializeError("not a JSON aggregate (%s)" % error) from None
        return cls.from_state(state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioAggregate):
            return NotImplemented
        return self.state() == other.state()

    def __repr__(self) -> str:
        return "ScenarioAggregate(scenarios=%d, violating=%d)" % (
            self.scenarios,
            self.violating,
        )


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointState(NamedTuple):
    """A decoded sweep checkpoint: digest, completed cubes, aggregate."""

    digest: str
    completed: FrozenSet[int]
    aggregate: ScenarioAggregate


def _token(
    digest: str, completed: Iterable[int], aggregate: ScenarioAggregate
) -> bytes:
    """The checkpoint token of these fields, canonical JSON bytes."""
    return _canonical(
        {
            "format": CHECKPOINT_FORMAT,
            "digest": digest,
            "completed": sorted(set(completed)),
            "aggregate": aggregate.state(),
        }
    )


def write_checkpoint(
    path: str,
    digest: str,
    completed: Iterable[int],
    aggregate: ScenarioAggregate,
) -> int:
    """Atomically persist a sweep checkpoint; returns the bytes written.

    The token is one canonical JSON document — ``format``, ``digest``,
    the sorted ``completed`` cube ids and the ``aggregate`` state —
    written to a temporary sibling and renamed into place, so a kill
    mid-write leaves the previous checkpoint intact."""
    data = _token(digest, completed, aggregate)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", dir=directory
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return len(data)


def read_checkpoint(path: str) -> CheckpointState:
    """Decode a checkpoint: exactly the bytes :func:`write_checkpoint`
    writes for the fields it decodes.  Anything else — a torn token, an
    earlier format, a wrong ``format`` tag, a missing field, a
    non-integer cube id, trailing data — raises :class:`SerializeError`
    naming ``path``."""
    with open(path, "rb") as stream:
        data = stream.read()
    try:
        token = json.loads(data)
    except ValueError as error:
        raise SerializeError(
            "%s is a torn checkpoint or no checkpoint at all (%s)" % (path, error)
        ) from None
    try:
        state = CheckpointState(
            str(token["digest"]),
            frozenset(int(cube_id) for cube_id in token["completed"]),
            ScenarioAggregate.from_state(token["aggregate"]),
        )
        if _token(*state) != data:
            raise SerializeError("not a canonical %s token" % CHECKPOINT_FORMAT)
    except (KeyError, TypeError, ValueError) as error:
        raise SerializeError(
            "%s is not a valid checkpoint (%s: %s)"
            % (path, type(error).__name__, error)
        ) from None
    return state


__all__ = [
    "AggregateError",
    "CHECKPOINT_FORMAT",
    "CheckpointState",
    "DEFAULT_MAX_MINIMAL_SETS",
    "ScenarioAggregate",
    "SerializeError",
    "read_checkpoint",
    "write_checkpoint",
]
