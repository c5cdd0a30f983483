"""Tests for the learnt-clause economy (LBD-based reduce-DB, conflict
minimization) and the restart cadence.

The economy's whole contract is "same answers, fewer clauses": deleting
high-LBD learnts and shrinking conflict clauses may only ever change how
fast the search runs, never what it returns.  These tests pin that
contract — enumeration stays complete and byte-identical with the
economy on or off, blocking clauses survive every reduce pass, the
``restart_base`` knob leaves the set of answer sets untouched and the
default configuration stays byte-identical to the historical solver —
plus the knob validation and the statistics counters.
"""

import pytest

from repro.asp import Control
from repro.asp.sat import (
    DEFAULT_REDUCE_BASE,
    SatError,
    Solver,
    resolve_reduce_base,
)
from repro.asp.solver import StableModelSolver
from repro.observability import finalize_solver_stats, format_statistics

#: ASP program with enough conflict structure to learn clauses
PROGRAM = """
{ p(1..7) } 4.
q :- p(1), p(2).
r :- p(3), p(4).
:- q, r.
:- p(5), p(6), p(7).
"""

#: heuristics that force the economy to run hard: restart after every
#: conflict, reduce the learnt DB as soon as it holds a single clause
AGGRESSIVE = {"reduce_base": 1, "restart_base": 1}

#: heuristics that switch the economy off entirely
ECONOMY_OFF = {"reduce_base": None, "minimize_learnts": False}


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
    return grid


class TestKnobValidation:
    def test_reduce_base_zero_rejected(self):
        with pytest.raises(SatError, match="reduce_base must be >= 1"):
            Solver(reduce_base=0)

    def test_reduce_base_negative_rejected(self):
        with pytest.raises(SatError, match="reduce_base must be >= 1"):
            Solver(reduce_base=-5)

    def test_reduce_base_none_disables(self):
        assert Solver(reduce_base=None)._reduce_base is None

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_REDUCE_BASE", raising=False)
        assert resolve_reduce_base() == DEFAULT_REDUCE_BASE

    def test_env_zero_disables_reduce(self, monkeypatch):
        monkeypatch.setenv("REPRO_REDUCE_BASE", "0")
        assert resolve_reduce_base() is None

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_REDUCE_BASE", "123")
        assert resolve_reduce_base() == 123


class TestReduceDb:
    def test_reduce_actually_deletes(self):
        solver = Solver(reduce_base=1, restart_base=1)
        pigeonhole(solver, 5, 4)
        assert solver.solve() is None
        stats = solver.statistics
        assert stats["learnt_deleted"] > 0
        assert stats["learnt"] > 0

    def test_verdicts_unchanged_by_economy(self):
        for pigeons, holes, expect_sat in ((4, 4, True), (5, 4, False)):
            on = Solver(**AGGRESSIVE)
            off = Solver(**ECONOMY_OFF)
            pigeonhole(on, pigeons, holes)
            pigeonhole(off, pigeons, holes)
            assert (on.solve() is not None) is expect_sat
            assert (off.solve() is not None) is expect_sat

    def test_blocking_clauses_survive_every_reduce(self):
        """Enumeration via blocking clauses stays complete under the
        most aggressive reduce schedule: were a blocking clause ever
        deleted, an already-seen model would reappear (a duplicate) —
        so equality of the duplicate-free model lists proves blocking
        clauses survive every pass."""

        def enumerate_all(heuristics):
            solver = StableModelSolver(
                Control(PROGRAM).ground(), heuristics=heuristics
            )
            return [frozenset(m.atoms) for m in solver.models()]

        reference = enumerate_all(ECONOMY_OFF)
        aggressive = enumerate_all(AGGRESSIVE)
        assert len(aggressive) == len(set(aggressive))  # no duplicates
        assert set(aggressive) == set(reference)
        # identical knobs replay byte-identically, deletes included
        assert enumerate_all(AGGRESSIVE) == aggressive

    def test_aggressive_enumeration_really_reduced(self):
        solver = StableModelSolver(
            Control(PROGRAM).ground(), heuristics=AGGRESSIVE
        )
        models = list(solver.models())
        assert models
        # proves the blocking-clause test above exercised reduce passes
        assert solver.statistics["solvers"]["restarts"] > 0


class TestHeuristicKnobs:
    """``restart_base`` steers the search, not the semantics."""

    #: small choice program whose answer sets the knob must not change
    KNOB_PROGRAM = """
    { p(1..6) } 3.
    q :- p(1), p(2).
    :- p(5), p(6).
    """

    def model_sets(self, heuristics=None):
        solver = StableModelSolver(
            Control(self.KNOB_PROGRAM).ground(), heuristics=heuristics
        )
        return {frozenset(m.atoms) for m in solver.models()}

    @pytest.mark.parametrize(
        "heuristics",
        [
            {"restart_base": 8},
            {"restart_base": 1},
            {"reduce_base": 1},
            {"reduce_base": None},
            {"minimize_learnts": False},
            {"restart_base": 1, "reduce_base": 1, "minimize_learnts": False},
        ],
    )
    def test_knobs_preserve_answer_sets(self, heuristics):
        assert self.model_sets(heuristics) == self.model_sets()

    def test_invalid_restart_base_rejected(self):
        with pytest.raises(SatError):
            Solver(restart_base=0)

    def test_unknown_knob_rejected(self):
        # a misspelt or retired key fails loudly instead of being ignored
        with pytest.raises(TypeError):
            StableModelSolver(
                Control(self.KNOB_PROGRAM).ground(), heuristics={"seed": 1}
            )

    def test_control_forwards_knobs(self):
        control = Control(self.KNOB_PROGRAM, heuristics=AGGRESSIVE)
        assert {frozenset(m.atoms) for m in control.solve()} == (
            self.model_sets()
        )
        # the aggressive cadence really reached the backend
        solvers = control.statistics.get_path("solving.solvers")
        assert solvers["restarts"] > 0
        assert solvers["learnt_deleted"] > 0

    def test_default_config_enumeration_order_unchanged(self):
        # not just the same set: the same order, byte for byte
        plain = [
            frozenset(m.atoms)
            for m in StableModelSolver(
                Control(self.KNOB_PROGRAM).ground()
            ).models()
        ]
        explicit = [
            frozenset(m.atoms)
            for m in StableModelSolver(
                Control(self.KNOB_PROGRAM).ground(), heuristics={}
            ).models()
        ]
        assert plain == explicit


class TestConflictMinimization:
    def test_minimization_preserves_verdicts(self):
        on = Solver(minimize_learnts=True)
        off = Solver(minimize_learnts=False)
        pigeonhole(on, 5, 4)
        pigeonhole(off, 5, 4)
        assert on.solve() is None
        assert off.solve() is None

    def test_minimization_never_grows_lbd_sum(self):
        # minimized clauses span at most the original decision levels
        on = Solver(minimize_learnts=True)
        off = Solver(minimize_learnts=False)
        pigeonhole(on, 5, 4)
        pigeonhole(off, 5, 4)
        on.solve()
        off.solve()
        assert on.statistics["learnt"] == off.statistics["learnt"]
        assert on.statistics["lbd_sum"] <= off.statistics["lbd_sum"]


class TestEconomyStatistics:
    def test_solver_counters_present(self):
        solver = Solver(**AGGRESSIVE)
        pigeonhole(solver, 5, 4)
        solver.solve()
        stats = solver.statistics
        for key in ("lbd_sum", "learnt_deleted"):
            assert key in stats
        assert stats["lbd_sum"] > 0

    def test_finalize_solver_stats(self):
        solvers = {"learnt": 4, "lbd_sum": 10}
        assert finalize_solver_stats(solvers) == 2.5
        assert solvers["lbd_avg"] == 2.5
        empty = {"learnt": 0, "lbd_sum": 0}
        assert finalize_solver_stats(empty) == 0.0

    def test_format_statistics_renders_economy_lines(self):
        text = format_statistics(
            {
                "solving": {
                    "solvers": {
                        "choices": 10,
                        "conflicts": 5,
                        "learnt": 4,
                        "lbd_sum": 10,
                        "learnt_deleted": 2,
                    }
                }
            }
        )
        assert "LBD" in text
        assert "2.50 avg (deleted: 2)" in text

    def test_control_stats_carry_lbd_average(self):
        control = Control(PROGRAM)
        control.solve()
        solvers = control.statistics.get_path("solving.solvers")
        assert solvers is not None
        assert "lbd_sum" in solvers
        assert "lbd_avg" in solvers

    def test_multishot_deltas_stay_exact(self):
        control = Control(PROGRAM, heuristics=AGGRESSIVE)
        control.solve()
        first = control.statistics.get_path("solving.solvers.lbd_sum")
        control.solve()
        second = control.statistics.get_path("solving.solvers.lbd_sum")
        # summable counter: never shrinks across multishot calls
        assert second >= first >= 0
