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
false), and :meth:`ScenarioAggregate.dumps` writes a canonical binary
form — so a streamed sweep, a cube-sharded parallel sweep merged in any
completion order, and a materialized :class:`EpaReport` folded after the
fact all serialize to byte-identical blobs.  Differential tests pin
this.

The same varints carry sweep *checkpoints*: :func:`write_checkpoint`
atomically persists a compact resume token (RCK1) — the sweep's config
digest, the completed cube ids and the merged partial aggregate — so a
killed million-scenario run restarts where it left off (see
``docs/streaming.md``).  Both forms are plain bytes, never a pickle,
and a blob cut short raises :class:`SerializeError`.

Exports: :class:`ScenarioAggregate`, :class:`CheckpointState`,
:func:`read_checkpoint`, :func:`write_checkpoint`,
:class:`SerializeError`, :data:`DEFAULT_MAX_MINIMAL_SETS`.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from ..observability.metrics import get_registry
from ..risk.assessment import frequency_of_simultaneous, magnitude_of_violations
from .faults import FaultRef
from .results import EpaReport, ScenarioOutcome

AGGREGATE_MAGIC = b"RAG1"
CHECKPOINT_MAGIC = b"RCK1"

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
    """Raised on incompatible merges or malformed aggregate blobs."""


class SerializeError(ValueError):
    """Raised on a checkpoint or aggregate blob that is malformed or
    cut short."""


# ---------------------------------------------------------------------------
# varints (unsigned LEB128) and length-prefixed utf-8 strings


def _write_uint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _write_uint(out, len(data))
    out.extend(data)


class _Reader:
    """Forward-only cursor over an encoded blob; reading past its end
    raises :class:`SerializeError`, never a raw ``IndexError``."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def byte(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise SerializeError("blob cut short at byte %d" % self.pos) from None
        self.pos += 1
        return value

    def uint(self) -> int:
        value = 0
        shift = 0
        try:
            while True:
                byte = self.data[self.pos]
                self.pos += 1
                value |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    return value
                shift += 7
        except IndexError:
            raise SerializeError("blob cut short at byte %d" % self.pos) from None

    def take(self, length: int) -> bytes:
        end = self.pos + length
        if end > len(self.data):
            raise SerializeError("blob cut short at byte %d" % len(self.data))
        value = self.data[self.pos : end]
        self.pos = end
        return value


def _read_str(reader: _Reader) -> str:
    return reader.take(reader.uint()).decode("utf-8")


def _fault_key(fault: FaultRef) -> str:
    return str(fault)


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
        self.violation_counts: Dict[str, int] = {
            name: 0 for name in self.requirements
        }
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
        for name, value in other.violation_counts.items():
            self.violation_counts[name] = (
                self.violation_counts.get(name, 0) + value
            )
        for count, value in other.fault_count_hist.items():
            self.fault_count_hist[count] = (
                self.fault_count_hist.get(count, 0) + value
            )
        for rank, value in other.severity_hist.items():
            self.severity_hist[rank] = self.severity_hist.get(rank, 0) + value
        for component, value in other.component_criticality.items():
            self.component_criticality[component] = (
                self.component_criticality.get(component, 0) + value
            )
        for component, rank in other.worst_component_grade.items():
            if rank > self.worst_component_grade.get(component, 0):
                self.worst_component_grade[component] = rank
        for cell, value in other.risk_cells.items():
            self.risk_cells[cell] = self.risk_cells.get(cell, 0) + value
        for candidate in other.minimal_violating:
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
        for outcome in outcomes:
            aggregate.add(outcome)
        return aggregate

    @classmethod
    def from_report(
        cls,
        report: EpaReport,
        magnitudes: Mapping[str, str] = (),
        max_minimal_sets: int = DEFAULT_MAX_MINIMAL_SETS,
    ) -> "ScenarioAggregate":
        """The materialized-list reference path: fold a full report.
        Differential tests compare its bytes against the streamed
        sweep's."""
        return cls.from_outcomes(
            report.outcomes, report.requirements, magnitudes, max_minimal_sets
        )

    def copy(self) -> "ScenarioAggregate":
        return ScenarioAggregate.loads(self.dumps())

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

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe snapshot (reports, CLI output)."""
        return {
            "scenarios": self.scenarios,
            "violating": self.violating,
            "violation_counts": dict(self.violation_counts),
            "fault_count_hist": {
                str(k): v for k, v in sorted(self.fault_count_hist.items())
            },
            "severity_hist": {
                str(k): v for k, v in sorted(self.severity_hist.items())
            },
            "component_criticality": self.criticality(),
            "worst_component_grade": dict(
                sorted(self.worst_component_grade.items())
            ),
            "risk_cells": {
                "%s/%s" % cell: count
                for cell, count in sorted(self.risk_cells.items())
            },
            "minimal_violating": [
                sorted(map(str, cut)) for cut in self.minimal_sets()
            ],
            "minimal_truncated": self.minimal_truncated,
        }

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
    # canonical binary form
    # ------------------------------------------------------------------
    def dumps(self) -> bytes:
        """Canonical binary serialization (RAG1).

        Every map is written in sorted key order, so two aggregates with
        equal content produce equal bytes regardless of fold order —
        the byte-identity contract of the streaming rebuild.
        """
        out = bytearray(AGGREGATE_MAGIC)
        _write_uint(out, len(self.requirements))
        for name in self.requirements:
            _write_str(out, name)
            _write_str(out, self.magnitudes.get(name, ""))
        extra = sorted(
            name for name in self.magnitudes if name not in self.violation_counts
        )
        _write_uint(out, len(extra))
        for name in extra:
            _write_str(out, name)
            _write_str(out, self.magnitudes[name])
        _write_uint(out, self.max_minimal_sets)
        _write_uint(out, self.scenarios)
        _write_uint(out, self.violating)
        _write_uint(out, len(self.violation_counts))
        for name in sorted(self.violation_counts):
            _write_str(out, name)
            _write_uint(out, self.violation_counts[name])
        for table in (self.fault_count_hist, self.severity_hist):
            _write_uint(out, len(table))
            for key in sorted(table):
                _write_uint(out, key)
                _write_uint(out, table[key])
        for named in (self.component_criticality, self.worst_component_grade):
            _write_uint(out, len(named))
            for component in sorted(named):
                _write_str(out, component)
                _write_uint(out, named[component])
        _write_uint(out, len(self.risk_cells))
        for (frequency, magnitude) in sorted(self.risk_cells):
            _write_str(out, frequency)
            _write_str(out, magnitude)
            _write_uint(out, self.risk_cells[(frequency, magnitude)])
        cuts = self.minimal_sets()
        _write_uint(out, len(cuts))
        for cut in cuts:
            refs = sorted(_fault_key(fault) for fault in cut)
            _write_uint(out, len(refs))
            for ref in refs:
                _write_str(out, ref)
        out.append(1 if self.minimal_truncated else 0)
        return bytes(out)

    @classmethod
    def loads(cls, data: bytes) -> "ScenarioAggregate":
        if data[: len(AGGREGATE_MAGIC)] != AGGREGATE_MAGIC:
            raise AggregateError("not an RAG1 aggregate blob")
        reader = _Reader(data, len(AGGREGATE_MAGIC))
        requirements = []
        magnitudes: Dict[str, str] = {}
        for _ in range(reader.uint()):
            name = _read_str(reader)
            magnitude = _read_str(reader)
            requirements.append(name)
            if magnitude:
                magnitudes[name] = magnitude
        for _ in range(reader.uint()):
            name = _read_str(reader)
            magnitudes[name] = _read_str(reader)
        max_minimal_sets = reader.uint()
        aggregate = cls(requirements, magnitudes, max_minimal_sets)
        aggregate.scenarios = reader.uint()
        aggregate.violating = reader.uint()
        for _ in range(reader.uint()):
            name = _read_str(reader)
            aggregate.violation_counts[name] = reader.uint()
        for table in (aggregate.fault_count_hist, aggregate.severity_hist):
            for _ in range(reader.uint()):
                key = reader.uint()
                table[key] = reader.uint()
        for named in (
            aggregate.component_criticality,
            aggregate.worst_component_grade,
        ):
            for _ in range(reader.uint()):
                component = _read_str(reader)
                named[component] = reader.uint()
        for _ in range(reader.uint()):
            frequency = _read_str(reader)
            magnitude = _read_str(reader)
            aggregate.risk_cells[(frequency, magnitude)] = reader.uint()
        for _ in range(reader.uint()):
            refs = frozenset(
                FaultRef.parse(_read_str(reader)) for _ in range(reader.uint())
            )
            aggregate.minimal_violating.append(refs)
        aggregate.minimal_truncated = bool(reader.byte())
        return aggregate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioAggregate):
            return NotImplemented
        return self.dumps() == other.dumps()

    def __repr__(self) -> str:
        return "ScenarioAggregate(scenarios=%d, violating=%d)" % (
            self.scenarios,
            self.violating,
        )


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointState:
    """A decoded sweep checkpoint: digest, completed cubes, aggregate."""

    __slots__ = ("digest", "completed", "aggregate")

    def __init__(
        self, digest: str, completed: FrozenSet[int], aggregate: bytes
    ):
        self.digest = digest
        self.completed = completed
        self.aggregate = aggregate


def write_checkpoint(
    path: str,
    digest: str,
    completed: Iterable[int],
    aggregate: bytes,
) -> int:
    """Atomically persist a sweep checkpoint; returns the bytes written.

    The blob is written to a temporary sibling and renamed into place,
    so a kill mid-write leaves the previous checkpoint intact — resume
    never sees a torn token.
    """
    out = bytearray(CHECKPOINT_MAGIC)
    _write_str(out, digest)
    ids = sorted(set(completed))
    _write_uint(out, len(ids))
    for cube_id in ids:
        _write_uint(out, cube_id)
    _write_uint(out, len(aggregate))
    out.extend(aggregate)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", dir=directory
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(out)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return len(out)


def read_checkpoint(path: str) -> CheckpointState:
    """Decode a checkpoint written by :func:`write_checkpoint`."""
    with open(path, "rb") as stream:
        data = stream.read()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise SerializeError("%s is not an RCK1 checkpoint" % path)
    reader = _Reader(data, len(CHECKPOINT_MAGIC))
    try:
        digest = _read_str(reader)
        completed = frozenset(reader.uint() for _ in range(reader.uint()))
        aggregate = reader.take(reader.uint())
    except SerializeError as error:
        raise SerializeError(
            "%s is a torn checkpoint (%s)" % (path, error)
        ) from None
    return CheckpointState(digest, completed, aggregate)


__all__ = [
    "AGGREGATE_MAGIC",
    "AggregateError",
    "CHECKPOINT_MAGIC",
    "CheckpointState",
    "DEFAULT_MAX_MINIMAL_SETS",
    "ScenarioAggregate",
    "SerializeError",
    "read_checkpoint",
    "write_checkpoint",
]
