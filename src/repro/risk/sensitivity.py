"""Sensitivity analysis of qualitative risk factors (paper Sec. V-A).

"Sensitivity analysis examines how uncertain factors impact the output
by altering its values."  The paper's worked example: with LEF fixed at
L, if LM may be VL or L the Risk stays VL — *insensitive*; if LM ranges
L..VH the Risk varies — *sensitive*, so "further evaluation is
required".

The same machinery also supports the modeling-phase support of
Sec. II-A: ranking which model parameters the overall result is most
sensitive to, so the analyst knows where estimation errors matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..qualitative.spaces import QuantitySpace
from ..qualitative.values import QualitativeRange

#: a qualitative function of named label factors
LabelFunction = Callable[..., str]


@dataclass(frozen=True)
class SensitivityResult:
    """Outcome of varying one factor while the others stay fixed."""

    factor: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]  # distinct outcomes, in scale order

    @property
    def sensitive(self) -> bool:
        return len(self.outputs) > 1

    @property
    def spread(self) -> int:
        """Number of distinct outcomes minus one (0 = insensitive)."""
        return len(self.outputs) - 1

    def __str__(self) -> str:
        verdict = "sensitive" if self.sensitive else "insensitive"
        return "%s over {%s}: outputs {%s} -> %s" % (
            self.factor,
            ",".join(self.inputs),
            ",".join(self.outputs),
            verdict,
        )


def one_at_a_time(
    function: LabelFunction,
    fixed: Mapping[str, str],
    uncertain: Mapping[str, Iterable[str]],
    outcome_space: QuantitySpace,
) -> List[SensitivityResult]:
    """Vary each uncertain factor separately (the paper's method).

    ``fixed`` holds the point values of the certain factors; each entry
    of ``uncertain`` gives the candidate labels of one uncertain factor.
    Factors in both mappings use the ``fixed`` value as the nominal point
    when varying the *other* factors.
    """
    nominal: Dict[str, str] = dict(fixed)
    for factor, labels in uncertain.items():
        if factor not in nominal:
            candidates = list(labels)
            if not candidates:
                raise ValueError("factor %r has no candidate labels" % factor)
            nominal[factor] = candidates[0]

    results: List[SensitivityResult] = []
    for factor, labels in uncertain.items():
        outputs = set()
        inputs = tuple(labels)
        for label in inputs:
            assignment = dict(nominal)
            assignment[factor] = label
            outputs.add(function(**assignment))
        ordered = tuple(sorted(outputs, key=outcome_space.index))
        results.append(SensitivityResult(factor, inputs, ordered))
    return results


def full_factorial(
    function: LabelFunction,
    fixed: Mapping[str, str],
    uncertain: Mapping[str, Iterable[str]],
    outcome_space: QuantitySpace,
) -> QualitativeRange:
    """The overall outcome range over the full uncertainty product."""
    import itertools

    names = list(uncertain)
    outputs = set()
    for combination in itertools.product(*(uncertain[n] for n in names)):
        assignment = dict(fixed)
        assignment.update(zip(names, combination))
        outputs.add(function(**assignment))
    ranks = sorted(outcome_space.index(label) for label in outputs)
    return QualitativeRange(
        outcome_space,
        outcome_space.labels[ranks[0]],
        outcome_space.labels[ranks[-1]],
    )


def rank_factors(
    results: Sequence[SensitivityResult],
) -> List[SensitivityResult]:
    """Order factors by decreasing spread (tornado-diagram order)."""
    return sorted(results, key=lambda r: (-r.spread, r.factor))


def requires_further_evaluation(
    results: Sequence[SensitivityResult],
) -> List[str]:
    """Factors the paper says need "further evaluation": the sensitive
    ones."""
    return [result.factor for result in rank_factors(results) if result.sensitive]
