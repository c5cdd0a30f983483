"""Tests for the learnt-clause economy (LBD-ranked reduce-DB, conflict
minimization) and the restart cadence.

The economy's whole contract is "same answers, fewer clauses": deleting
high-LBD learnts and shrinking conflict clauses may only ever change how
fast the search runs, never what it returns.  The mechanisms have no
knobs, so these tests steer them by patching the module constants
``RESTART_BASE`` and ``REDUCE_BASE`` (which every solve reads afresh)
and, for "minimization off", ``Solver._minimize_learnt``.  They pin that
enumeration stays complete and byte-identical with the economy forced
on or switched off, that blocking clauses survive every reduce pass,
the constants' schedule (and that no argument or environment variable
reaches it), the default search path, and the statistics counter.
"""

import sys

import pytest

from repro.asp import Control, sat
from repro.asp.sat import Solver
from repro.asp.solver import StableModelSolver
from repro.observability import (
    MemoryTraceSink,
    format_statistics,
    get_registry,
)

#: ASP program with enough conflict structure to learn clauses
PROGRAM = """
{ p(1..7) } 4.
q :- p(1), p(2).
r :- p(3), p(4).
:- q, r.
:- p(5), p(6), p(7).
"""


def keep_every_literal(self, learnt):
    """``Solver._minimize_learnt`` with minimization off."""
    return learnt


#: ``(target, name, value)`` patches that force the economy to run hard:
#: restart after every conflict, reduce the learnt DB as soon as it
#: tracks a single clause
AGGRESSIVE = ((sat, "RESTART_BASE", 1), (sat, "REDUCE_BASE", 1))

#: patches that stop conflict minimization
MINIMIZATION_OFF = ((Solver, "_minimize_learnt", keep_every_literal),)

#: patches that switch the economy off entirely: reduce-DB never fires
ECONOMY_OFF = ((sat, "REDUCE_BASE", sys.maxsize),) + MINIMIZATION_OFF


def force(monkeypatch, patches):
    """Apply ``patches`` through ``monkeypatch`` (a fixture or one of
    its ``context()`` blocks)."""
    for target, name, value in patches:
        monkeypatch.setattr(target, name, value)


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


class TestSearchConstants:
    """The mechanisms' only settings are two module constants, read at
    solve time; no argument or environment variable reaches them."""

    def test_defaults(self):
        assert (sat.RESTART_BASE, sat.REDUCE_BASE, sat.GLUE_LBD) == (
            32,
            2000,
            2,
        )

    def test_constants_read_at_solve_time(self, monkeypatch):
        """A solver follows the constants in force when it solves, not
        those in force when it was built."""
        built_before = Solver()
        pigeonhole(built_before, 5, 4)
        with monkeypatch.context() as patch:
            force(patch, AGGRESSIVE)
            built_during = Solver()
            pigeonhole(built_during, 5, 4)
            # solved while the patch is in force
            assert built_before.solve() is None
        # solved once it is undone
        assert built_during.solve() is None
        forced = built_before.statistics
        assert forced["restarts"] > 0
        assert forced["learnt_deleted"] > 0
        default = built_during.statistics
        assert (default["restarts"], default["learnt_deleted"]) == (0, 0)

    def test_reduce_waits_for_a_restart(self, monkeypatch):
        """Reduce-DB runs only at a restart: five pigeons in four holes
        are refuted after 28 conflicts, before the first restart at 32,
        so even a threshold of one tracked learnt deletes nothing."""
        monkeypatch.setattr(sat, "REDUCE_BASE", 1)
        solver = Solver()
        pigeonhole(solver, 5, 4)
        assert solver.solve() is None
        stats = solver.statistics
        assert (
            stats["conflicts"],
            stats["restarts"],
            stats["learnt_deleted"],
        ) == (28, 0, 0)

    @pytest.mark.parametrize("base", [1, 4])
    def test_reduce_threshold_grows_by_half_per_pass(self, monkeypatch, base):
        """At every restart a reduce-DB pass runs exactly when the
        tracked learnts reach ``REDUCE_BASE`` plus ``max(1, REDUCE_BASE
        // 2)`` for each earlier pass."""
        monkeypatch.setattr(sat, "RESTART_BASE", 1)
        monkeypatch.setattr(sat, "REDUCE_BASE", base)
        #: (passes before the restart, learnts tracked when it decided,
        #: whether a pass ran)
        decisions = []

        class RestartProbe(MemoryTraceSink):
            passes = deleted = 0

            def emit(self, name, **payload):
                super().emit(name, **payload)
                if name == "sat.reduce":
                    self.deleted = payload["deleted"]
                elif name == "sat.restart":
                    tracked = len(solver._learnt_meta) + self.deleted
                    ran = solver._reduce_passes > self.passes
                    decisions.append((self.passes, tracked, ran))
                    self.passes = solver._reduce_passes
                    self.deleted = 0

        solver = Solver(trace=RestartProbe())
        pigeonhole(solver, 5, 4)
        assert solver.solve() is None
        step = max(1, base // 2)
        assert [ran for _, _, ran in decisions] == [
            tracked >= base + passes * step for passes, tracked, _ in decisions
        ]
        assert sum(ran for _, _, ran in decisions) >= 2

    def test_environment_does_not_steer_reduce(self, monkeypatch):
        """The retired ``REPRO_REDUCE_BASE`` variable no longer reaches
        the solver: with restarts forced, pigeonhole 5/4 tracks far
        fewer than 2,000 learnts, so nothing is deleted."""
        monkeypatch.setenv("REPRO_REDUCE_BASE", "1")
        monkeypatch.setattr(sat, "RESTART_BASE", 1)
        solver = Solver()
        pigeonhole(solver, 5, 4)
        assert solver.solve() is None
        assert solver.statistics["restarts"] > 0
        assert solver.statistics["learnt_deleted"] == 0

    @pytest.mark.parametrize(
        "name", ["restart_base", "reduce_base", "minimize_learnts"]
    )
    def test_retired_solver_arguments_rejected(self, name):
        # a retired knob fails loudly instead of being silently ignored
        with pytest.raises(TypeError):
            Solver(**{name: 1})

    def test_retired_heuristics_argument_rejected(self):
        with pytest.raises(TypeError):
            Control(PROGRAM, heuristics={})
        with pytest.raises(TypeError):
            StableModelSolver(Control(PROGRAM).ground(), heuristics={})


class TestReduceDb:
    def test_reduce_actually_deletes(self, monkeypatch):
        force(monkeypatch, AGGRESSIVE)
        solver = Solver()
        pigeonhole(solver, 5, 4)
        assert solver.solve() is None
        stats = solver.statistics
        assert stats["learnt_deleted"] > 0
        assert stats["learnt"] > 0

    def test_verdicts_unchanged_by_economy(self, monkeypatch):
        for pigeons, holes, expect_sat in ((4, 4, True), (5, 4, False)):
            for patches in (AGGRESSIVE, ECONOMY_OFF):
                with monkeypatch.context() as patch:
                    force(patch, patches)
                    solver = Solver()
                    pigeonhole(solver, pigeons, holes)
                    assert (solver.solve() is not None) is expect_sat

    def test_blocking_clauses_survive_every_reduce(self, monkeypatch):
        """Enumeration via blocking clauses stays complete under the
        most aggressive reduce schedule: were a blocking clause ever
        deleted, an already-seen model would reappear (a duplicate) —
        so equality of the duplicate-free model lists proves blocking
        clauses survive every pass."""

        def enumerate_all(patches):
            with monkeypatch.context() as patch:
                force(patch, patches)
                solver = StableModelSolver(Control(PROGRAM).ground())
                return [frozenset(m.atoms) for m in solver.models()]

        reference = enumerate_all(ECONOMY_OFF)
        aggressive = enumerate_all(AGGRESSIVE)
        assert len(aggressive) == len(set(aggressive))  # no duplicates
        assert set(aggressive) == set(reference)
        # identical settings replay byte-identically, deletes included
        assert enumerate_all(AGGRESSIVE) == aggressive

    def test_aggressive_enumeration_really_reduced(self, monkeypatch):
        force(monkeypatch, AGGRESSIVE)
        solver = StableModelSolver(Control(PROGRAM).ground())
        models = list(solver.models())
        assert models
        # proves the blocking-clause test above exercised reduce passes
        assert solver.statistics["solvers"]["restarts"] > 0
        assert solver.statistics["solvers"]["learnt_deleted"] > 0


class TestSearchSettings:
    """Forcing the economy or stopping minimization steers the search,
    not the semantics."""

    #: small choice program whose answer sets no setting may change
    CHOICE_PROGRAM = """
    { p(1..6) } 3.
    q :- p(1), p(2).
    :- p(5), p(6).
    """

    def search(self):
        """The program's answer sets and the search counters."""
        solver = StableModelSolver(Control(self.CHOICE_PROGRAM).ground())
        models = {frozenset(m.atoms) for m in solver.models()}
        return models, solver.statistics["solvers"]

    @pytest.mark.parametrize(
        "patches",
        [
            ((sat, "RESTART_BASE", 1),),
            AGGRESSIVE,
            MINIMIZATION_OFF,
            AGGRESSIVE + MINIMIZATION_OFF,
        ],
        ids=[
            "restart-every-conflict",
            "forced-economy",
            "minimization-off",
            "forced-economy-unminimized",
        ],
    )
    def test_settings_preserve_answer_sets(self, monkeypatch, patches):
        reference, default_counters = self.search()
        force(monkeypatch, patches)
        models, counters = self.search()
        assert models == reference
        # the setting really steered the search
        assert counters != default_counters


class TestConflictMinimization:
    def test_minimization_preserves_verdicts(self, monkeypatch):
        on = Solver()
        pigeonhole(on, 5, 4)
        assert on.solve() is None
        force(monkeypatch, MINIMIZATION_OFF)
        off = Solver()
        pigeonhole(off, 5, 4)
        assert off.solve() is None

    def test_minimization_only_drops_literals(self, monkeypatch):
        """Each minimized clause is the first-UIP clause with some
        literals left out, the asserting literal still first; on
        pigeonhole 5/4 some clauses really shrink."""
        calls = []
        minimize = Solver._minimize_learnt

        def recording(self, learnt):
            kept = minimize(self, learnt)
            calls.append((list(learnt), list(kept)))
            return kept

        monkeypatch.setattr(Solver, "_minimize_learnt", recording)
        solver = Solver()
        pigeonhole(solver, 5, 4)
        assert solver.solve() is None
        assert calls
        for learnt, kept in calls:
            assert kept[0] == learnt[0]
            remaining = iter(learnt)
            assert all(literal in remaining for literal in kept)
        assert any(len(kept) < len(learnt) for learnt, kept in calls)


class TestEconomyStatistics:
    def test_solver_counters_present(self, monkeypatch):
        force(monkeypatch, AGGRESSIVE)
        solver = Solver()
        pigeonhole(solver, 5, 4)
        solver.solve()
        stats = solver.statistics
        # summable leaves only: no derived or per-clause quantities
        assert set(stats) == {
            "choices",
            "conflicts",
            "propagations",
            "restarts",
            "learnt",
            "learnt_deleted",
        }
        assert stats["learnt_deleted"] > 0

    def test_format_statistics_renders_economy_lines(self):
        text = format_statistics(
            {
                "solving": {
                    "solvers": {
                        "choices": 10,
                        "conflicts": 5,
                        "learnt": 4,
                        "learnt_deleted": 2,
                    }
                }
            }
        )
        assert "Learnt       : 4 nogoods (deleted: 2)" in text
        assert "LBD" not in text

    def test_multishot_deltas_stay_exact(self, monkeypatch):
        force(monkeypatch, AGGRESSIVE)
        control = Control(PROGRAM, multishot=True)
        control.solve()
        first = control.statistics.get_path("solving.solvers.learnt_deleted")
        control.solve()
        second = control.statistics.get_path("solving.solvers.learnt_deleted")
        # summable counter: never shrinks across multishot calls
        assert second >= first > 0

    def test_control_stats_carry_economy_counters(self):
        control = Control(PROGRAM)
        control.solve()
        solvers = control.statistics.get_path("solving.solvers")
        # the solver's summable leaves, nothing derived from them
        assert set(solvers) == set(Solver().statistics)
        assert solvers["learnt"] > 0
        # the default constants never restart this enumeration
        assert (solvers["restarts"], solvers["learnt_deleted"]) == (0, 0)

    def test_control_reaches_forced_economy(self, monkeypatch):
        reference = {frozenset(m.atoms) for m in Control(PROGRAM).solve()}
        force(monkeypatch, AGGRESSIVE)
        control = Control(PROGRAM)
        assert {frozenset(m.atoms) for m in control.solve()} == reference
        solvers = control.statistics.get_path("solving.solvers")
        assert solvers["restarts"] > 0
        assert solvers["learnt_deleted"] > 0

    def test_deleted_metric_counts_each_victim_once(self, monkeypatch):
        """``repro_sat_learnt_deleted_total`` grows by the reduce-DB
        victims of each call, with no double count across multishot
        calls on one solver."""
        force(monkeypatch, AGGRESSIVE)
        metric = get_registry().counter("repro_sat_learnt_deleted_total")
        before = metric.value
        control = Control(PROGRAM, multishot=True)
        control.solve()
        control.solve()
        deleted = control.statistics.get_path("solving.solvers.learnt_deleted")
        assert deleted > 0
        assert metric.value - before == deleted


class TestDefaultSearchPath:
    """At the default constants the search takes a pinned path: one
    restart, at the first Luby threshold, and an exact conflict count.
    The count moves with the encoding: literals fixed at level 0 (here
    the ``row/1`` facts) build no auxiliary variable, which reorders
    the decision heap's ties."""

    QUEENS_14 = "\n".join(
        [
            "row(1..14).",
            "1 { queen(R, C) : row(C) } 1 :- row(R).",
            ":- queen(R1, C), queen(R2, C), R1 < R2.",
            ":- queen(R1, C1), queen(R2, C2), R1 < R2, R2 - R1 = C2 - C1.",
            ":- queen(R1, C1), queen(R2, C2), R1 < R2, R2 - R1 = C1 - C2.",
        ]
    )

    def test_first_14_queens_model(self):
        solver = StableModelSolver(Control(self.QUEENS_14).ground())
        model = next(iter(solver.models()))
        queens = [a for a in model.atoms if a.predicate == "queen"]
        assert len(queens) == 14
        counters = solver.statistics["solvers"]
        # one restart, at the 32nd of 35 conflicts
        assert (counters["conflicts"], counters["restarts"]) == (35, 1)
