"""Cube generation for cube-and-conquer enumeration.

A *cube* is a partial assignment of branch atoms, shipped to a worker
as solver assumptions.  This module turns the branch-atom set of an
enumeration (e.g. the EPA fault-activation atoms) into a deterministic
list of cubes that **partition** the choice space — every total
assignment extends exactly one cube — so sharding an enumeration over
the cubes yields each model exactly once and the merged result equals
the unsharded run.

Two ingredients:

:func:`occurrence_scores` / :func:`order_by_occurrence`
    a static lookahead proxy: atoms are scored by how often they occur
    in ground rule bodies and conditions.  Branching on high-occurrence
    atoms first maximizes the propagation triggered per decision, which
    both balances the cubes (the strongest splitters are pinned in every
    cube) and keeps each worker's per-leaf propagation short.

:func:`linear_cubes`
    the splitting shape.  Instead of the exponential fixed-prefix split
    (``2**k`` cubes over ``k`` atoms), cube ``i`` pins atoms
    ``0..i-1`` false and atom ``i`` true, with one tail cube pinning the
    whole prefix false.  This yields exactly ``m + 1`` cubes over a
    prefix of ``m`` atoms — any target cube count, not just powers of
    two — and under a cardinality bound on true atoms (the usual EPA
    ``max_faults`` shape) the cube sizes taper smoothly, which is what a
    work-stealing pool wants: big cubes first, small cubes to fill the
    tail.

The cube count is ``workers × factor``; the oversubscription *factor*
defaults to :data:`DEFAULT_CUBE_FACTOR` and is configurable per call,
per engine (``cube_factor=``), on the CLI (``--cube-factor``) or via
the ``REPRO_CUBE_FACTOR`` environment variable — the multi-core tuning
knob (see ``docs/parallelism.md``): higher factors smooth stealing on
skewed cubes at the cost of more per-cube setup.

Exports: :func:`occurrence_scores`, :func:`order_by_occurrence`,
:func:`linear_cubes`, :func:`generate_cubes`,
:func:`resolve_cube_factor`, :data:`DEFAULT_CUBE_FACTOR`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from .ground import GroundChoice, GroundProgram
from .syntax import Atom

Cube = Tuple[Tuple[Atom, bool], ...]

#: cubes generated per worker when no explicit factor is configured
DEFAULT_CUBE_FACTOR = 4


def resolve_cube_factor(explicit: Optional[int] = None) -> int:
    """The oversubscription factor: explicit > env > default.

    An explicit argument wins; otherwise the ``REPRO_CUBE_FACTOR``
    environment variable is consulted; otherwise
    :data:`DEFAULT_CUBE_FACTOR`.  Values below 1 (from either source)
    raise ``ValueError`` — a zero factor would generate no cubes.
    """
    if explicit is None:
        raw = os.environ.get("REPRO_CUBE_FACTOR", "").strip()
        if not raw:
            return DEFAULT_CUBE_FACTOR
        try:
            explicit = int(raw)
        except ValueError:
            raise ValueError(
                "REPRO_CUBE_FACTOR must be an integer, got %r" % raw
            )
    if explicit < 1:
        raise ValueError("cube factor must be >= 1, got %d" % explicit)
    return explicit


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


def linear_cubes(atoms: Sequence[Atom], count: int) -> List[Cube]:
    """``min(count, len(atoms) + 1)`` cubes partitioning the space.

    Cube ``i`` (for ``i < m``) assumes atoms ``0..i-1`` false and atom
    ``i`` true; the final tail cube assumes all ``m`` prefix atoms
    false.  Every total assignment of the atoms extends exactly one
    cube (split on the position of its first true prefix atom), so the
    cubes partition the space — the invariant the byte-identity of
    sharded enumeration rests on.  ``count <= 1`` or an empty atom list
    yields the single empty cube.
    """
    if count <= 1 or not atoms:
        return [()]
    prefix_length = min(count - 1, len(atoms))
    cubes: List[Cube] = []
    for position in range(prefix_length):
        cube = tuple(
            (atoms[index], False) for index in range(position)
        ) + ((atoms[position], True),)
        cubes.append(cube)
    cubes.append(tuple((atoms[index], False) for index in range(prefix_length)))
    return cubes


def generate_cubes(
    program: GroundProgram,
    candidates: Sequence[Atom],
    workers: int,
    oversubscribe: Optional[int] = None,
) -> List[Cube]:
    """Score, order and split: the one-call cube generator.

    Produces ``workers * factor`` cubes (capped by the number of
    candidates + 1) over the occurrence-ordered candidates, where the
    factor is ``oversubscribe`` resolved through
    :func:`resolve_cube_factor` (explicit > ``REPRO_CUBE_FACTOR`` >
    :data:`DEFAULT_CUBE_FACTOR`).  Oversubscription is the
    work-stealing lever: with several cubes per worker, a worker whose
    cubes finish early steals queued cubes from a slower sibling
    instead of idling.
    """
    if workers <= 1:
        return [()]
    factor = resolve_cube_factor(oversubscribe)
    ordered = order_by_occurrence(program, candidates)
    return linear_cubes(ordered, max(2, workers * factor))


__all__ = [
    "Cube",
    "DEFAULT_CUBE_FACTOR",
    "generate_cubes",
    "linear_cubes",
    "occurrence_scores",
    "order_by_occurrence",
    "resolve_cube_factor",
]
