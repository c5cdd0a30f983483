"""Cube generation for cube-and-conquer enumeration.

A *cube* is a partial assignment of branch atoms, shipped to a worker
as solver assumptions.  This module turns the branch-atom set of an
enumeration (e.g. the EPA fault-activation atoms) into a deterministic
list of cubes that **partition** the choice space — every assignment
within the bound extends exactly one cube — so sharding an enumeration
over the cubes yields each model exactly once and the merged result
equals the unsharded run.

Two ingredients:

:func:`occurrence_scores` / :func:`order_by_occurrence`
    a static lookahead proxy: atoms are scored by how often they occur
    in ground rule bodies and conditions.  Branching on high-occurrence
    atoms first maximizes the propagation triggered per decision, which
    keeps each worker's per-leaf propagation short.

:func:`balanced_cubes`
    the splitting shape.  Starting from the empty cube, the largest
    cube is split on its next ordered atom into a true half and a false
    half until there are at least ``parts`` cubes and none holds more
    than ``max(total / parts, FLOOR)`` scenarios.  A cube's size is its
    exact count of assignments within the bound on true atoms (the EPA
    ``max_faults``; see :func:`space_size`), so under a bound the split
    follows the mass: the false half of a split keeps most of it, and
    the generator keeps peeling true halves off it until it is small
    enough.  The cubes come back largest first, so a pool dispatching
    them in order runs close to longest-job-first and its lanes finish
    together.

An EPA sweep asks for ``max(2, workers × 4)`` cubes (the engine's
``CUBE_FACTOR``; see ``docs/parallelism.md``): four cubes per worker
let the work-stealing pool even out its lanes at negligible per-cube
setup.

Exports: :func:`occurrence_scores`, :func:`order_by_occurrence`,
:func:`balanced_cubes`, :func:`space_size`, :data:`FLOOR`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .ground import GroundChoice, GroundProgram
from .syntax import Atom

Cube = Tuple[Tuple[Atom, bool], ...]

#: the size bound never drops below this many scenarios: smaller cubes
#: are split only to reach the cube count.  Every cube costs about
#: 0.1 ms of setup and dispatch, so without the floor a
#: ``max_faults=1`` assessment sweep (48 atoms, 49 scenarios) would be
#: cut into one-scenario cubes and run slower, not better balanced
FLOOR = 256


def occurrence_scores(
    program: GroundProgram, candidates: Sequence[Atom]
) -> Dict[Atom, int]:
    """Occurrence count of each candidate atom in the ground program.

    Counts appearances in positive and negative rule bodies, choice
    conditions and aggregate element conditions — every position where
    assigning the atom can trigger unit propagation.  Head occurrences
    are not counted (deciding an atom does not fire its own rule
    backwards any harder).  Atoms never occurring score 0.
    """
    scores: Dict[Atom, int] = {atom: 0 for atom in candidates}
    wanted = set(scores)

    def bump(atom: Atom) -> None:
        if atom in wanted:
            scores[atom] += 1

    for rule in program.rules:
        for atom in rule.pos:
            bump(atom)
        for atom in rule.neg:
            bump(atom)
        if isinstance(rule.head, GroundChoice):
            for _, condition_pos, condition_neg in rule.head.elements:
                for atom in condition_pos:
                    bump(atom)
                for atom in condition_neg:
                    bump(atom)
        for aggregate in rule.aggregates:
            for element in aggregate.elements:
                for atom in element.pos:
                    bump(atom)
                for atom in element.neg:
                    bump(atom)
    for weak in program.weak_constraints:
        for atom in weak.pos:
            bump(atom)
        for atom in weak.neg:
            bump(atom)
    return scores


def order_by_occurrence(
    program: GroundProgram, candidates: Sequence[Atom]
) -> List[Atom]:
    """Candidates reordered by descending occurrence score.

    The sort is stable: atoms with equal scores keep their input order,
    so the result — and therefore every cube built from it — is fully
    deterministic given the program and the candidate order.
    """
    scores = occurrence_scores(program, candidates)
    return sorted(candidates, key=lambda atom: -scores[atom])


def space_size(
    free: int, max_true: Optional[int], pinned_true: int = 0
) -> int:
    """Assignments of ``free`` unpinned atoms within the bound.

    With ``pinned_true`` atoms already pinned true, at most
    ``max_true - pinned_true`` of the free atoms may be true:
    ``Σ_{j ≤ max_true − pinned_true} C(free, j)``.  ``max_true=None``
    is the unbounded space, ``2**free``.
    """
    if max_true is None:
        return 2 ** free
    return sum(
        math.comb(free, count) for count in range(max_true - pinned_true + 1)
    )


def balanced_cubes(
    atoms: Sequence[Atom], parts: int, max_true: Optional[int] = None
) -> Tuple[List[Cube], int]:
    """Cubes partitioning the space, largest first, and the space size.

    Repeatedly splits the largest cube on its next atom (in the given
    order) into a true half and a false half.  It stops once there are
    at least ``parts`` cubes and none holds more than
    ``max(total / parts, FLOOR)`` assignments, or when every cube holds
    one assignment (its atoms are exhausted or its budget of true atoms
    is spent, so it cannot be split).  Sizes count the assignments with
    at most ``max_true`` true atoms (``None`` = unbounded; see
    :func:`space_size`).

    Each split replaces a cube by its two halves, so every assignment
    within the bound extends exactly one cube — the invariant the
    byte-identity of sharded enumeration rests on.  The cubes are
    returned largest first, ties in split order, so the layout is
    deterministic given the atom order.  ``parts <= 1`` or an empty
    atom list yields the single empty cube.  Returns
    ``(cubes, total)``, ``total`` being the size of the whole space.
    """
    total = space_size(len(atoms), max_true)
    bound = max(total / max(parts, 1), FLOOR)
    order = itertools.count()
    # (−size, split order, atoms pinned true, cube)
    heap = [(-total, next(order), 0, ())]
    while True:
        size = -heap[0][0]
        if size <= 1 or (len(heap) >= parts and size <= bound):
            break
        _, _, pinned_true, cube = heapq.heappop(heap)
        branch = atoms[len(cube)]
        free = len(atoms) - len(cube) - 1
        for value, pinned in ((True, pinned_true + 1), (False, pinned_true)):
            heapq.heappush(
                heap,
                (
                    -space_size(free, max_true, pinned),
                    next(order),
                    pinned,
                    cube + ((branch, value),),
                ),
            )
    heap.sort()
    return [entry[3] for entry in heap], total


__all__ = [
    "Cube",
    "FLOOR",
    "balanced_cubes",
    "occurrence_scores",
    "order_by_occurrence",
    "space_size",
]
