"""Tests for occurrence-ordered cube generation and the bounded
projected enumeration that runs each cube.

The load-bearing property is the partition invariant: every assignment
within the bound must extend *exactly one* cube, because the
byte-identity of sharded enumeration rests on it.  The rest pins the
layout contract — the size bound, the cube count, largest-first order,
determinism — and the occurrence ordering.  The bound itself is
enforced by ``StableModelSolver.project_models(..., max_true=k)``,
checked here against the CDCL models of the same program with the
bound as a ``#count`` constraint.
"""

import itertools
import math
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.asp import Control, atom
from repro.asp.cubes import (
    FLOOR,
    balanced_cubes,
    occurrence_scores,
    order_by_occurrence,
)
from repro.asp.solver import StableModelSolver


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


def chain_program():
    """The EPA scenario program of sensor -> controller -> actuator
    (nine fault modes), unbounded, and its fault-activation atoms."""
    from repro.epa.rules import epa_rule_base, scenario_choice
    from repro.modeling import (
        RelationshipType,
        SystemModel,
        standard_cps_library,
        to_asp_text,
    )

    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    text = "\n".join(
        [
            to_asp_text(model),
            epa_rule_base(),
            scenario_choice(0),
            "violated(rv) :- err(v, K), hazardous_kind(K).",
        ]
    )
    faults = [
        a
        for a in Control(text).ground().possible_atoms
        if a.predicate == "active_fault"
    ]
    return text, sorted(faults, key=str)


def projections(models):
    """Each model's true projection atoms, canonically ordered (a list:
    enumerating a model twice must show)."""
    return sorted(sorted(str(a) for a in model) for model in models)


def bounded_projections(text, project, max_true, cube=()):
    """What ``project_models(..., max_true=max_true)`` finds under the
    cube, as true projection atoms per model."""
    solver = StableModelSolver(Control(text).ground())
    probes = [(a, solver.atom_var(a)) for a in project]
    found = []

    def on_model(assignment):
        found.append(
            [a for a, var in probes if var is not None and assignment[var] > 0]
        )

    count = solver.project_models(
        project, on_model, assumptions=cube, max_true=max_true
    )
    assert count == len(found)
    return projections(found)


def reference_projections(text, project, max_true, cube=()):
    """The CDCL models of the program plus the bound as a constraint
    (and the cube as constraints), projected."""
    elements = "; ".join("%d : %s" % (i, a) for i, a in enumerate(project))
    lines = [text, ":- #count { %s } > %d." % (elements, max_true)]
    for pinned, value in cube:
        lines.append((":- not %s." if value else ":- %s.") % pinned)
    models = Control("\n".join(lines)).solve()
    return projections([a for a in project if a in m.atoms] for m in models)


def assert_bound_oracle(text, project, cube=()):
    for max_true in range(len(project) + 1):
        assert bounded_projections(
            text, project, max_true, cube
        ) == reference_projections(text, project, max_true, cube), max_true


@st.composite
def bounded_choice_programs(draw):
    """A choice over ``p(0..n-1)`` plus random derived atoms,
    constraints and rules that force a ``p`` atom from earlier ones,
    with a random cube over the ``p`` atoms."""
    n = draw(st.integers(min_value=1, max_value=5))
    project = ["p(%d)" % i for i in range(n)]
    lines = ["{ %s }." % "; ".join(project)]
    derived = []
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        kinds = ["derive", "constraint"] + (["force"] if n > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "force":
            forced = draw(st.integers(min_value=1, max_value=n - 1))
            head, pool = project[forced], project[:forced]
        else:
            head = "q(%d)" % index if kind == "derive" else ""
            pool = project + derived
        body = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)
        )
        literals = [
            ("not %s" if draw(st.booleans()) else "%s") % name for name in body
        ]
        lines.append("%s :- %s." % (head, ", ".join(literals)))
        if kind == "derive":
            derived.append(head)
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    cube = [(atom("p", i), draw(st.booleans())) for i in pinned]
    return "\n".join(lines), [atom("p", i) for i in range(n)], cube


class TestBoundedProjection:
    """``project_models(max_true=k)`` ≡ the program plus
    ``:- #count{...} > k.``, for every ``k`` from 0 to n."""

    def test_chain_program(self):
        text, faults = chain_program()
        assert len(faults) == 9
        assert_bound_oracle(text, faults)

    def test_cube_pins_count_toward_the_bound(self):
        text, faults = chain_program()
        cube = [(faults[0], True), (faults[4], True), (faults[7], False)]
        assert_bound_oracle(text, faults, cube)
        # two atoms pinned true already exceed a bound of one
        assert bounded_projections(text, faults, 1, cube) == []
        assert len(bounded_projections(text, faults, 2, cube)) == 1

    def test_propagated_atoms_count_toward_the_bound(self):
        # deciding p(0) propagates p(3): the pair costs two of the bound
        text = "{ p(0); p(1); p(2); p(3) }. p(3) :- p(0)."
        project = [atom("p", i) for i in range(4)]
        assert_bound_oracle(text, project)
        assert ["p(0)"] not in bounded_projections(text, project, 1)
        assert ["p(0)", "p(3)"] in bounded_projections(text, project, 2)

    @settings(max_examples=60, deadline=None)
    @given(bounded_choice_programs())
    def test_random_choice_programs(self, case):
        text, project, cube = case
        assert_bound_oracle(text, project, cube)


class TestConcurrentDepth:
    """The DFS recurses once per free projection atom and raises the
    process-wide recursion limit to fit; engines may sweep on separate
    threads, so a short sweep must never lower the limit under a deep
    one still running."""

    def test_short_sweeps_leave_a_deep_sweep_room(self):
        deep_atoms = [atom("a", i) for i in range(1, 1101)]
        deep = StableModelSolver(ground_of("{ a(1..1100) }."))
        short_atoms = [atom("b", i) for i in range(1, 4)]
        short = StableModelSolver(ground_of("{ b(1..3) }."))
        deep_done = threading.Event()
        finished = []
        errors = []

        def run_deep():
            try:
                count = deep.project_models(
                    deep_atoms, lambda assignment: None, max_true=1
                )
                finished.append(("deep", count))
            except RecursionError as error:
                errors.append(error)
            finally:
                deep_done.set()

        def run_short():
            try:
                while True:
                    count = short.project_models(
                        short_atoms, lambda assignment: None
                    )
                    if deep_done.is_set():
                        break
                finished.append(("short", count))
            except RecursionError as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        limit = sys.getrecursionlimit()
        sys.setswitchinterval(1e-5)  # interleave the two DFS finely
        try:
            threads = [
                threading.Thread(target=run_short, daemon=True),
                threading.Thread(target=run_deep, daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            sys.setrecursionlimit(limit)
        assert errors == []
        # the empty scenario plus one per single true atom
        assert sorted(finished) == [("deep", 1101), ("short", 8)]


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
