"""Tests for occurrence-ordered cube generation.

The load-bearing property is the partition invariant: every assignment
within the bound must extend *exactly one* cube, because the
byte-identity of sharded enumeration rests on it.  The rest pins the
layout contract — the size bound, the cube count, largest-first order,
determinism — and the occurrence ordering.
"""

import itertools
import math

from repro.asp import Control, atom
from repro.asp.cubes import (
    FLOOR,
    balanced_cubes,
    occurrence_scores,
    order_by_occurrence,
)


def ground_of(text):
    return Control(text).ground()


ATOMS = [atom("c", index) for index in range(5)]
#: wide enough that the size bound, not the floor, drives the splits
WIDE = [atom("w", index) for index in range(12)]


def extends(cube, assignment):
    return all(assignment[a] == value for a, value in cube)


def within(atoms, max_true):
    """Every assignment of ``atoms`` with at most ``max_true`` true."""
    for values in itertools.product((False, True), repeat=len(atoms)):
        if max_true is None or sum(values) <= max_true:
            yield dict(zip(atoms, values))


def layouts():
    """(atoms, max_true, parts) over bounded and unbounded spaces."""
    for atoms in (ATOMS, WIDE):
        for max_true in (1, 2, 3, None):
            for parts in (1, 2, 3, 4, 6, 16):
                yield atoms, max_true, parts


def closed_form_size(cube, atom_count, max_true):
    """Assignments within the bound extending ``cube``, counted by
    binomials (an independent restatement of the generator's sizes)."""
    free = atom_count - len(cube)
    budget = max_true - sum(value for _, value in cube)
    return sum(math.comb(free, count) for count in range(budget + 1))


class TestBalancedCubes:
    def test_partition_invariant(self):
        for atoms, max_true, parts in layouts():
            cubes, total = balanced_cubes(atoms, parts, max_true)
            assignments = list(within(atoms, max_true))
            assert total == len(assignments)
            for assignment in assignments:
                matching = [c for c in cubes if extends(c, assignment)]
                assert len(matching) == 1, (max_true, parts, assignment)

    def test_layout_contract(self):
        for atoms, max_true, parts in layouts():
            cubes, total = balanced_cubes(atoms, parts, max_true)
            assignments = list(within(atoms, max_true))
            sizes = [
                sum(1 for a in assignments if extends(cube, a))
                for cube in cubes
            ]
            bound = max(total / parts, FLOOR)
            for cube, size in zip(cubes, sizes):
                spent = max_true is not None and sum(
                    value for _, value in cube
                ) == max_true
                exhausted = len(cube) == len(atoms)
                assert size <= bound or spent or exhausted
            # as many cubes as asked for, unless the space is smaller
            assert len(cubes) >= min(parts, total)
            assert sizes == sorted(sizes, reverse=True)
            assert balanced_cubes(atoms, parts, max_true) == (cubes, total)

    def test_size_bound_splits_a_skewed_tail(self):
        # the fleet-stream sweep: 48 fault atoms, max_faults=3, 2
        # workers x factor 4.  A linear layout of 8 cubes leaves an
        # all-false tail of C(41, <=3) = 11,522 of the 18,473 scenarios
        atoms = [atom("f", index) for index in range(48)]
        cubes, total = balanced_cubes(atoms, 8, 3)
        sizes = [closed_form_size(cube, 48, 3) for cube in cubes]
        assert total == sum(sizes) == 18473
        assert max(sizes) <= 2309  # 18,473 / 8
        assert len(cubes) >= 8
        assert sizes == sorted(sizes, reverse=True)

    def test_small_space_keeps_the_cube_count(self):
        # below the floor only the cube count forces splits
        atoms = [atom("m", index) for index in range(48)]
        cubes, total = balanced_cubes(atoms, 8, 1)
        assert total == 49
        assert len(cubes) == 8

    def test_degenerate_cases(self):
        assert balanced_cubes(ATOMS, 1) == ([()], 32)
        assert balanced_cubes(ATOMS, 0, 2) == ([()], 16)
        assert balanced_cubes([], 8) == ([()], 1)
        # no true atom allowed: one assignment, nothing to split
        assert balanced_cubes(ATOMS, 8, 0) == ([()], 1)

    def test_splits_follow_the_atom_order(self):
        cubes, _ = balanced_cubes(ATOMS[:3], 2)
        assert cubes == [((ATOMS[0], True),), ((ATOMS[0], False),)]


class TestOccurrenceOrdering:
    def test_body_occurrences_counted(self):
        program = ground_of(
            "{ a; b }. x :- a. y :- a. z :- not b. w :- a, not b."
        )
        scores = occurrence_scores(program, [atom("a"), atom("b")])
        assert scores[atom("a")] == 3
        assert scores[atom("b")] == 2

    def test_head_occurrences_not_counted(self):
        program = ground_of("{ a }. a :- b.")
        scores = occurrence_scores(program, [atom("a")])
        assert scores[atom("a")] == 0

    def test_aggregate_conditions_counted(self):
        program = ground_of("{ a }. n :- #count { 1 : a } >= 1.")
        scores = occurrence_scores(program, [atom("a")])
        assert scores[atom("a")] >= 1

    def test_ordering_is_stable_and_descending(self):
        program = ground_of("{ a; b; c }. x :- b. y :- b. z :- c.")
        ordered = order_by_occurrence(
            program, [atom("a"), atom("b"), atom("c")]
        )
        assert ordered == [atom("b"), atom("c"), atom("a")]

    def test_cubes_split_on_the_ordered_atoms(self):
        program = ground_of("{ a; b; c }. p :- b. q :- c, not a.")
        candidates = [atom("a"), atom("b"), atom("c")]
        ordered = order_by_occurrence(program, candidates)
        cubes, _ = balanced_cubes(ordered, 4)
        assert cubes[0][0][0] == ordered[0]
        for values in itertools.product((False, True), repeat=3):
            assignment = dict(zip(candidates, values))
            assert sum(1 for c in cubes if extends(c, assignment)) == 1
