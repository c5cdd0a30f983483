"""Unit tests for the CDCL SAT backend."""

import itertools
import random
import sys

import pytest

from repro.asp import sat
from repro.asp.sat import SatError, Solver, WeightedCounter, _luby
from repro.observability import MemoryTraceSink


def keep_every_literal(self, learnt):
    """``Solver._minimize_learnt`` with minimization off."""
    return learnt


#: ``(target, name, value)`` patches the random cross-check runs under:
#: the defaults, the learnt-clause economy driven as hard as it goes
#: (restart after every conflict, reduce at one tracked learnt), and
#: the economy off (reduce-DB never fires, no minimization)
ECONOMY_SETTINGS = {
    "default": (),
    "aggressive": ((sat, "RESTART_BASE", 1), (sat, "REDUCE_BASE", 1)),
    "economy-off": (
        (sat, "REDUCE_BASE", sys.maxsize),
        (Solver, "_minimize_learnt", keep_every_literal),
    ),
}


def pigeonhole(solver, pigeons, holes):
    """Encode pigeons-into-holes; UNSAT when pigeons > holes."""
    grid = [
        [solver.new_var() for _ in range(holes)] for _ in range(pigeons)
    ]
    for p in range(pigeons):
        solver.add_clause(grid[p])
        for h in range(holes):
            for q in range(p + 1, pigeons):
                solver.add_clause([-grid[p][h], -grid[q][h]])


def random_cnf(seed, variables=12, clauses=51):
    """A random 3-CNF near the satisfiability threshold."""
    rng = random.Random(seed)
    return [
        [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, variables + 1), 3)
        ]
        for _ in range(clauses)
    ]


def brute_force_count(cnf, variables=12):
    return sum(
        all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in cnf)
        for bits in itertools.product((False, True), repeat=variables)
    )


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve() is not None

    def test_unit_clause(self):
        solver = Solver()
        v = solver.new_var()
        solver.add_clause([v])
        model = solver.solve()
        assert model[v] is True

    def test_contradictory_units_unsat(self):
        solver = Solver()
        v = solver.new_var()
        assert solver.add_clause([v])
        assert not solver.add_clause([-v])
        assert solver.solve() is None

    def test_zero_literal_rejected(self):
        with pytest.raises(SatError):
            Solver().add_clause([0])

    def test_tautology_ignored(self):
        solver = Solver()
        v = solver.new_var()
        assert solver.add_clause([v, -v])
        assert solver.solve() is not None

    def test_implication_chain(self):
        solver = Solver()
        vs = [solver.new_var() for _ in range(10)]
        solver.add_clause([vs[0]])
        for a, b in zip(vs, vs[1:]):
            solver.add_clause([-a, b])
        model = solver.solve()
        assert all(model[v] for v in vs)


class TestSearch:
    def test_simple_backtracking(self):
        solver = Solver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        solver.add_clause([-b, c])
        model = solver.solve()
        assert model[c] is True

    def test_pigeonhole_3_into_2_unsat(self):
        solver = Solver()
        # pigeon p in hole h: var[p][h]
        var = [[solver.new_var() for _ in range(2)] for _ in range(3)]
        for p in range(3):
            solver.add_clause([var[p][0], var[p][1]])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    solver.add_clause([-var[p1][h], -var[p2][h]])
        assert solver.solve() is None

    def test_random_3sat_satisfiable(self):
        import random

        rng = random.Random(7)
        solver = Solver()
        n = 20
        variables = [solver.new_var() for _ in range(n)]
        hidden = {v: rng.random() < 0.5 for v in variables}
        for _ in range(60):
            clause = []
            chosen = rng.sample(variables, 3)
            for v in chosen:
                clause.append(v if hidden[v] else -v)
            # flip some literals but keep at least one satisfied
            clause[1] = -clause[1] if rng.random() < 0.5 else clause[1]
            clause[2] = -clause[2] if rng.random() < 0.5 else clause[2]
            solver.add_clause(clause)
        assert solver.solve() is not None


class TestAssumptions:
    def test_assumption_fixes_literal(self):
        solver = Solver()
        v = solver.new_var()
        model = solver.solve(assumptions=[-v])
        assert model[v] is False

    def test_unsat_under_assumption_but_sat_globally(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve(assumptions=[-a, -b]) is None
        assert solver.solve() is not None

    def test_conflicting_assumptions(self):
        solver = Solver()
        v = solver.new_var()
        assert solver.solve(assumptions=[v, -v]) is None


class TestIncremental:
    def test_add_clause_after_solve(self):
        solver = Solver()
        a = solver.new_var()
        model = solver.solve()
        assert model is not None
        solver.add_clause([a])
        model = solver.solve()
        assert model[a] is True

    def test_blocking_models_enumerates(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        count = 0
        while True:
            model = solver.solve()
            if model is None:
                break
            count += 1
            solver.add_clause(
                [-v if model[v] else v for v in (a, b)]
            )
        assert count == 4


class TestRandomCrossCheck:
    """Conflict analysis, clause minimization and reduce-DB against
    exhaustive evaluation: enumerating every model through blocking
    clauses must find exactly the satisfying assignments, each one a
    real model, under every economy setting."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("setting", sorted(ECONOMY_SETTINGS))
    def test_model_count_matches_brute_force(self, monkeypatch, setting, seed):
        for target, name, value in ECONOMY_SETTINGS[setting]:
            monkeypatch.setattr(target, name, value)
        cnf = random_cnf(seed)
        solver = Solver()
        variables = [solver.new_var() for _ in range(12)]
        assert variables == list(range(1, 13))
        for clause in cnf:
            solver.add_clause(clause)
        found = set()
        while True:
            model = solver.solve()
            if model is None:
                break
            assignment = tuple(model[v] for v in variables)
            assert assignment not in found
            for clause in cnf:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)
            found.add(assignment)
            solver.add_clause([-v if model[v] else v for v in variables])
        assert len(found) == brute_force_count(cnf)


class TestEncodingHelpers:
    def test_iff_and(self):
        solver = Solver()
        a, b, t = (solver.new_var() for _ in range(3))
        solver.add_iff_and(t, [a, b])
        solver.add_clause([t])
        model = solver.solve()
        assert model[a] and model[b]

    def test_iff_and_reverse(self):
        solver = Solver()
        a, b, t = (solver.new_var() for _ in range(3))
        solver.add_iff_and(t, [a, b])
        solver.add_clause([a])
        solver.add_clause([b])
        model = solver.solve()
        assert model[t]

    def test_iff_or(self):
        solver = Solver()
        a, b, t = (solver.new_var() for _ in range(3))
        solver.add_iff_or(t, [a, b])
        solver.add_clause([-a])
        solver.add_clause([-b])
        model = solver.solve()
        assert not model[t]


class TestWeightedCounter:
    def _count_models(self, n, weights, bound, polarity):
        solver = Solver()
        variables = [solver.new_var() for _ in range(n)]
        counter = WeightedCounter(solver, list(zip(variables, weights)))
        literal = counter.geq(bound)
        solver.add_clause([literal if polarity else -literal])
        count = 0
        while True:
            model = solver.solve()
            if model is None:
                return count
            count += 1
            solver.add_clause([-v if model[v] else v for v in variables])

    def test_geq_counts_subsets(self):
        # 4 unit weights, sum >= 2: C(4,2)+C(4,3)+C(4,4) = 11
        assert self._count_models(4, [1, 1, 1, 1], 2, True) == 11

    def test_negated_threshold(self):
        # sum < 2: C(4,0)+C(4,1) = 5
        assert self._count_models(4, [1, 1, 1, 1], 2, False) == 5

    def test_weighted(self):
        # weights 2,3,4; sum >= 5: {2,3},{2,4},{3,4},{2,3,4},{4}? no 4<5 -> 4 subsets
        assert self._count_models(3, [2, 3, 4], 5, True) == 4

    def test_trivial_bounds(self):
        solver = Solver()
        v = solver.new_var()
        counter = WeightedCounter(solver, [(v, 1)])
        always = counter.geq(0)
        never = counter.geq(2)
        solver.add_clause([always])
        solver.add_clause([-never])
        assert solver.solve() is not None

    def test_nonpositive_weight_rejected(self):
        solver = Solver()
        v = solver.new_var()
        with pytest.raises(SatError):
            WeightedCounter(solver, [(v, 0)])


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_default_base_restarts_and_traces(self):
        """Six pigeons in five holes restart on the Luby schedule at the
        default base of 32 (intervals 32, 32, 64, 32 conflicts), and
        each restart emits one numbered ``sat.restart`` event."""
        sink = MemoryTraceSink()
        solver = Solver(trace=sink)
        pigeonhole(solver, 6, 5)
        assert solver.solve() is None
        stats = solver.statistics
        assert (stats["conflicts"], stats["restarts"]) == (166, 4)
        assert [
            (event.payload["number"], event.payload["conflicts"])
            for event in sink.named("sat.restart")
        ] == [(1, 32), (2, 64), (3, 128), (4, 160)]

    def test_restarts_follow_luby_schedule(self):
        """Seven pigeons in six holes are refuted in one call after 984
        conflicts and 14 restarts, the i-th coming 32 times the i-th
        Luby number of conflicts after the one before."""
        sink = MemoryTraceSink()
        solver = Solver(trace=sink)
        pigeonhole(solver, 7, 6)
        assert solver.solve() is None
        stats = solver.statistics
        assert (stats["conflicts"], stats["restarts"]) == (984, 14)
        assert [
            event.payload["conflicts"] for event in sink.named("sat.restart")
        ] == list(itertools.accumulate(32 * _luby(i) for i in range(1, 15)))
