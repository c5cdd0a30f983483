"""A CDCL SAT solver.

This is the propositional backend of the stable-model solver.  It is a
classic conflict-driven clause-learning solver with:

* two-watched-literal unit propagation;
* first-UIP conflict analysis with clause learning;
* VSIDS-style exponential variable activity with decay;
* phase saving: each variable remembers its last assigned polarity and
  is re-decided that way (initially negative, favouring minimal models),
  so restarts and enumeration re-enter nearby search regions cheaply;
* Luby-sequence restarts: restart i comes :data:`RESTART_BASE` times
  the i-th Luby number conflicts after the one before, counted inside
  one call;
* incremental interface: clauses may be added between ``solve`` calls and
  each call may carry *assumptions* (fixed first decisions), which makes
  the ASP layer's enumeration, brave/cautious reasoning and
  branch-and-bound optimization cheap;
* a glucose-style learnt-clause economy: every learnt clause gets an
  LBD (literal block distance — the number of distinct decision levels
  among its literals) and an activity bumped when it participates in
  conflict analysis; once :data:`REDUCE_BASE` learnts are tracked, a
  reduce-DB pass at the next restart deletes the worst half of the
  deletable learnts (highest LBD first, lowest activity as
  tie-break).  Binaries, glue clauses (LBD <= 2), locked clauses
  (currently a propagation reason) and everything that is not a CDCL
  learnt — problem clauses, solution-recording blocking clauses,
  multishot guard clauses — are never deleted, so enumeration and
  retraction semantics are untouched;
* conflict-clause minimization: recursive self-subsumption over the
  implication graph drops learnt literals whose negation is already
  implied by the rest of the clause, so clauses get shorter before they
  are watched;
* a chronological decision interface (:meth:`Solver.push_level` /
  :meth:`Solver.pop_to_level`) that lets a caller drive its own DFS over
  a chosen variable set with plain unit propagation — no conflict
  analysis, no clause learning, no heap churn — which is how the
  stable-model layer enumerates projected models inside a cube;
* search counters (decisions, propagations, conflicts, restarts, learnt
  nogoods) exposed via :attr:`Solver.statistics` for the observability
  layer — plain integer attributes bumped in the hot loop, snapshotted
  at stage boundaries.

Restarts, reduce-DB and minimization are fixed behaviour: no argument,
option or environment variable tunes them, and none of them changes
which models a search finds.  Tests drive them harder by patching
:data:`RESTART_BASE` and :data:`REDUCE_BASE`, which each solve reads
afresh.

Literal convention follows DIMACS: variables are positive integers, a
literal is ``+v`` or ``-v``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


class SatError(Exception):
    """Raised on malformed solver input (e.g. a zero literal)."""


TRUE = 1
FALSE = -1
UNASSIGNED = 0

#: Luby restart multiplier: conflicts inside one ``solve_raw`` call
#: before its first restart (read at solve time)
RESTART_BASE = 32
#: tracked learnt clauses before the first reduce-DB pass; each pass
#: raises the threshold by half as many (read at solve time)
REDUCE_BASE = 2000
#: LBD at or below which a learnt clause is never deleted
GLUE_LBD = 2


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    x = i - 1  # 0-based position, MiniSat-style computation
    size, sequence = 1, 0
    while size < x + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        sequence -= 1
        x = x % size
    return 1 << sequence


class Solver:
    """Incremental CDCL SAT solver."""

    def __init__(self, trace: Optional[object] = None) -> None:
        from ..observability import NULL_SINK

        self._trace = trace if trace is not None else NULL_SINK
        self._num_vars = 0
        #: clause store; reduce-DB tombstones deleted learnts to ``None``
        #: (indexes are stable: watches and reasons refer to them)
        self._clauses: List[Optional[List[int]]] = []
        self._watches: Dict[int, List[int]] = {}
        #: binary clauses as implication lists:
        #: literal -> [(implied, clause, implied_var, implied_sign)]
        self._binary: Dict[int, List[Tuple[int, int, int, int]]] = {}
        self._assign: List[int] = [UNASSIGNED]  # index 0 unused
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]  # clause index or None
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [FALSE]  # saved polarity per var
        self._activity_inc = 1.0
        self._activity_decay = 0.95
        self._queue_head = 0
        self._conflicts_total = 0
        self._decisions_total = 0
        self._propagations_total = 0
        self._restarts_total = 0
        self._learnt_total = 0
        self._unsat = False  # top-level UNSAT discovered
        #: assumption core of the last UNSAT ``solve_raw`` (None = last
        #: call was SAT or no call happened; [] = globally UNSAT)
        self._last_core: Optional[List[int]] = None
        #: decision-order heap of (-activity, var); entries may be stale
        self._order: List[tuple] = []
        #: True when a lazy backjump skipped heap maintenance; _decide
        #: rebuilds the heap in one pass before its next pop
        self._order_dirty = False
        # -- learnt-clause economy -------------------------------------
        #: clause index -> [lbd, activity] for learnt non-binary clauses
        #: only; problem, binary, blocking and guard clauses never enter
        #: this table, so _reduce_learnts() can never delete them
        self._learnt_meta: Dict[int, List[float]] = {}
        self._clause_inc = 1.0
        self._clause_decay = 0.999
        #: reduce-DB passes so far (each raises the next pass's threshold)
        self._reduce_passes = 0
        self._learnt_deleted_total = 0

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self._num_vars += 1
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(FALSE)
        if not self._order_dirty:
            # a dirty heap is rebuilt from scratch before the next
            # decision anyway — skip the wasted push
            heapq.heappush(self._order, (0.0, self._num_vars))
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def statistics(self) -> Dict[str, int]:
        """Cumulative CDCL search counters (clingo ``solvers`` shape).

        ``choices`` counts decision-heuristic branches (assumption
        decisions excluded), ``propagations`` counts literals dequeued
        by unit propagation, ``learnt`` counts learnt nogoods including
        learnt units, and ``learnt_deleted`` counts reduce-DB victims.
        Counters accumulate across ``solve`` calls.
        """
        return {
            "choices": self._decisions_total,
            "conflicts": self._conflicts_total,
            "propagations": self._propagations_total,
            "restarts": self._restarts_total,
            "learnt": self._learnt_total,
            "learnt_deleted": self._learnt_deleted_total,
        }

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause; returns ``False`` if the formula became UNSAT.

        Duplicated literals are removed and tautologies are ignored.
        Adding while a model is on the trail is allowed: the solver
        backtracks to level 0 first (lazily — the decision heap is
        rebuilt in one pass before the next decision instead of paying
        a ``heappush`` per undone literal).
        """
        if self._trail_lim:
            self._backtrack_lazy(0)
        clause: List[int] = []
        assign = self._assign
        for literal in literals:
            if literal == 0:
                raise SatError("literal 0 is not allowed")
            var = literal if literal > 0 else -literal
            if var >= len(assign):
                self._ensure_var(var)
            # we are at decision level 0, so any assignment is top-level
            value = assign[var]
            if value != UNASSIGNED:
                if (value == TRUE) == (literal > 0):
                    return True  # satisfied at top level
                continue  # falsified at top level: drop literal
            # dedup/tautology scans only need the *kept* literals:
            # dropped duplicates drop again, and a dropped literal's
            # negation is top-level true, caught by the check above
            if -literal in clause:
                return True  # tautology
            if literal in clause:
                continue
            clause.append(literal)
        if not clause:
            self._unsat = True
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._unsat = True
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._unsat = True
                return False
            return True
        index = len(self._clauses)
        self._clauses.append(clause)
        if len(clause) == 2:
            self._watch_binary(clause, index)
        else:
            self._watch(clause[0], index)
            self._watch(clause[1], index)
        return True

    def add_blocking_clause(self, literals: Sequence[int]) -> bool:
        """Block the current total assignment, backjumping minimally.

        Every literal must be false under the current assignment (the
        caller passes the negation of a just-enumerated model).  Unlike
        :meth:`add_clause`, which restarts search from level 0, this
        backjumps only to the deepest level at which the new clause
        becomes assertive and enqueues the flipped literal there, so
        enumeration resumes right next to the previous model
        (clasp-style solution recording).  Returns ``False`` when the
        formula became UNSAT.
        """
        level = self._level
        clause = [
            literal
            for literal in literals
            if level[literal if literal > 0 else -literal] != 0
        ]
        if not clause:
            self._backtrack(0)
            self._unsat = True
            return False
        if len(clause) == 1:
            self._backtrack(0)
            if not self._enqueue(clause[0], None):
                self._unsat = True
                return False
            return True
        # move the two deepest-level literals into the watch slots
        top = 0
        top_level = level[abs(clause[0])]
        for k in range(1, len(clause)):
            lvl = level[abs(clause[k])]
            if lvl > top_level:
                top_level = lvl
                top = k
        clause[0], clause[top] = clause[top], clause[0]
        second = 1
        second_level = level[abs(clause[1])]
        for k in range(2, len(clause)):
            lvl = level[abs(clause[k])]
            if lvl > second_level:
                second_level = lvl
                second = k
        clause[1], clause[second] = clause[second], clause[1]
        index = len(self._clauses)
        self._clauses.append(clause)
        if len(clause) == 2:
            self._watch_binary(clause, index)
        else:
            self._watch(clause[0], index)
            self._watch(clause[1], index)
        if second_level == top_level:
            # both watches sit on the same level: the clause is not
            # assertive there, so undo that whole level and let the
            # watched-literal machinery rediscover it
            self._backtrack(top_level - 1)
        else:
            self._backtrack(second_level)
            self._enqueue(clause[0], index)
        return True

    # ------------------------------------------------------------------
    # assignment helpers
    # ------------------------------------------------------------------
    def _value(self, literal: int) -> int:
        value = self._assign[abs(literal)]
        if value == UNASSIGNED:
            return UNASSIGNED
        return value if literal > 0 else -value

    def _watch(self, literal: int, clause_index: int) -> None:
        self._watches.setdefault(-literal, []).append(clause_index)

    def _watch_binary(self, clause: Sequence[int], clause_index: int) -> None:
        """Register a 2-clause on the direct implication lists.

        Binary clauses skip the two-watched-literal machinery entirely:
        assigning one literal false immediately implies the other, so
        propagation walks a flat list with no clause access and no
        watch moves.  Entries carry the implied literal's variable and
        sign precomputed, so the hot loop does one array read and one
        compare per edge.
        """
        first, second = clause
        self._binary.setdefault(-first, []).append(
            (
                second,
                clause_index,
                second if second > 0 else -second,
                TRUE if second > 0 else FALSE,
            )
        )
        self._binary.setdefault(-second, []).append(
            (
                first,
                clause_index,
                first if first > 0 else -first,
                TRUE if first > 0 else FALSE,
            )
        )

    def fixed_at_top(self, var: int) -> bool:
        """True when ``var`` is permanently assigned at decision level 0."""
        return self._assign[var] != UNASSIGNED and self._level[var] == 0

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        if literal > 0:
            var, sign = literal, TRUE
        else:
            var, sign = -literal, FALSE
        value = self._assign[var]
        if value != UNASSIGNED:
            return value == sign
        self._assign[var] = sign
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(literal)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.

        The hot loop of the solver: attribute lookups are hoisted into
        locals and literal truth values are read straight off the
        assignment array instead of through :meth:`_value`.
        """
        trail = self._trail
        watches = self._watches
        clauses = self._clauses
        assign = self._assign
        binary = self._binary
        level = self._level
        reason = self._reason
        trail_append = trail.append
        current_level = len(self._trail_lim)
        head = self._queue_head
        start = head
        trail_len = len(trail)
        while head < trail_len:
            literal = trail[head]
            head += 1
            implications = binary.get(literal)
            if implications:
                for implied, clause_index, var, sign in implications:
                    value = assign[var]
                    if value == UNASSIGNED:
                        assign[var] = sign
                        level[var] = current_level
                        reason[var] = clause_index
                        trail_append(implied)
                        trail_len += 1
                    elif value != sign:
                        self._queue_head = head
                        self._propagations_total += head - start
                        return clause_index
            watch_list = watches.get(literal)
            if not watch_list:
                continue
            # compact the watch list in place: surviving watches slide to
            # the front, moved watches are dropped, no list is allocated
            write = 0
            read = 0
            count = len(watch_list)
            conflict: Optional[int] = None
            while read < count:
                clause_index = watch_list[read]
                read += 1
                clause = clauses[clause_index]
                # Normalize: watched literals are clause[0] and clause[1].
                false_literal = -literal
                if clause[0] == false_literal:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == TRUE:
                    watch_list[write] = clause_index
                    write += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    other_value = assign[other] if other > 0 else -assign[-other]
                    if other_value != FALSE:
                        clause[1], clause[k] = other, clause[1]
                        watch = watches.get(-other)
                        if watch is None:
                            watches[-other] = [clause_index]
                        else:
                            watch.append(clause_index)
                        moved = True
                        break
                if moved:
                    continue
                watch_list[write] = clause_index
                write += 1
                # unit or conflicting: `value` still holds first's truth
                # (no assignment happened since it was read)
                if value == UNASSIGNED:
                    if first > 0:
                        var = first
                        assign[var] = TRUE
                    else:
                        var = -first
                        assign[var] = FALSE
                    level[var] = current_level
                    reason[var] = clause_index
                    trail_append(first)
                    trail_len += 1
                else:
                    conflict = clause_index
                    break
            if conflict is not None:
                # restore remaining watches and report the conflict
                while read < count:
                    watch_list[write] = watch_list[read]
                    write += 1
                    read += 1
                del watch_list[write:]
                self._queue_head = head
                self._propagations_total += head - start
                return conflict
            del watch_list[write:]
        self._queue_head = head
        self._propagations_total += head - start
        return None

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        phase = self._phase
        reason = self._reason
        activity = self._activity
        order = self._order
        for literal in reversed(self._trail[limit:]):
            var = literal if literal > 0 else -literal
            phase[var] = assign[var]  # phase saving
            assign[var] = UNASSIGNED
            reason[var] = None
            heapq.heappush(order, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)

    # ------------------------------------------------------------------
    # chronological decision interface (caller-driven DFS)
    # ------------------------------------------------------------------
    @property
    def decision_level(self) -> int:
        """The current decision level (0 = no open decisions)."""
        return len(self._trail_lim)

    def assignment_view(self) -> List[int]:
        """The live assignment array (index 0 unused, values ±1/0).

        The same array :meth:`solve_raw` returns: a mutable view the
        solver updates in place.  Callers driving a ``push_level`` DFS
        probe it between pushes instead of copying it per leaf.
        """
        return self._assign

    def trail_view(self) -> List[int]:
        """The live assignment trail (one literal per assigned var).

        ``len(trail_view()) == num_vars`` iff the assignment is total —
        the O(1) completeness probe of the DFS enumeration.
        """
        return self._trail

    def propagate_top(self) -> bool:
        """Run unit propagation at the top level; False on conflict.

        Call once before a :meth:`push_level` DFS so pending top-level
        units (from clauses added since the last solve) are applied.
        """
        if self._unsat:
            return False
        if self._propagate() is not None:
            self._unsat = True
            return False
        return True

    def push_level(self, *literals: int) -> Optional[int]:
        """Open one decision level, assert ``literals``, unit-propagate.

        Every literal is asserted on the new level before a single
        propagation pass runs, so pinning many literals at once (a
        cube's assumptions, or every remaining branch atom false) costs
        one level and one pass, and reaches the same fixpoint — or the
        same conflict — as pushing them one level each.  Returns
        ``None`` on success and a conflict indicator otherwise (a
        conflicting clause index, or ``-1`` when a literal is already
        falsified).  A level is opened even on conflict, so the
        caller's undo discipline is uniform: every ``push_level`` is
        balanced by a :meth:`pop_to_level` regardless of outcome.

        Together with :meth:`pop_to_level` this is the cube-and-conquer
        worker loop: the caller walks its own DFS over a chosen branch
        set with plain propagation — no conflict analysis, no learning,
        no decision-heap maintenance.  Counters still tick (one choice
        per level), so the work shows up in :attr:`statistics`.
        """
        assign = self._assign
        trail = self._trail
        self._trail_lim.append(len(trail))
        self._decisions_total += 1
        level = len(self._trail_lim)
        for literal in literals:
            var = literal if literal > 0 else -literal
            if var > self._num_vars:
                self._ensure_var(var)
            value = assign[var]
            if value != UNASSIGNED:
                if (value == TRUE) != (literal > 0):
                    return -1
                continue
            assign[var] = TRUE if literal > 0 else FALSE
            self._level[var] = level
            self._reason[var] = None
            trail.append(literal)
        conflict = self._propagate()
        if conflict is not None:
            self._conflicts_total += 1
        return conflict

    def pop_to_level(self, level: int) -> None:
        """Undo all decision levels above ``level`` without heap upkeep.

        The cheap counterpart of the internal backjump: assignments,
        phases and the propagation queue are restored, but unassigned
        variables are *not* re-inserted into the decision-order heap —
        the next ``solve``/``solve_raw`` call rebuilds the heap in one
        pass instead of paying a ``heappush`` per undone literal per
        pop.  Only meaningful around :meth:`push_level` loops.
        """
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        phase = self._phase
        reason = self._reason
        for literal in self._trail[limit:]:
            var = literal if literal > 0 else -literal
            phase[var] = assign[var]
            assign[var] = UNASSIGNED
            reason[var] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)
        self._order_dirty = True

    #: lazy backjump used on the internal restart/add-clause paths —
    #: identical to :meth:`pop_to_level`; :meth:`_decide` rebuilds the
    #: heap once instead of a heappush per undone literal
    _backtrack_lazy = pop_to_level

    def _rebuild_order(self) -> None:
        """Rebuild the decision heap after a pop_to_level() sequence."""
        self._order = [
            (-self._activity[v], v)
            for v in range(1, self._num_vars + 1)
            if self._assign[v] == UNASSIGNED
        ]
        heapq.heapify(self._order)
        self._order_dirty = False

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > 1e100:
            for i in range(1, self._num_vars + 1):
                self._activity[i] *= 1e-100
            self._activity_inc *= 1e-100
            self._order = [
                (-self._activity[v], v)
                for v in range(1, self._num_vars + 1)
                if self._assign[v] == UNASSIGNED
            ]
            heapq.heapify(self._order)
            self._order_dirty = False
            return
        if self._assign[var] == UNASSIGNED:
            heapq.heappush(self._order, (-self._activity[var], var))

    def _bump_clause(self, index: int) -> None:
        """Bump the activity of a tracked learnt clause."""
        meta = self._learnt_meta.get(index)
        if meta is not None:
            meta[1] += self._clause_inc
            if meta[1] > 1e20:
                for entry in self._learnt_meta.values():
                    entry[1] *= 1e-20
                self._clause_inc *= 1e-20

    def _analyze(self, conflict_index: int) -> Tuple[List[int], int, int]:
        """First-UIP analysis.

        Returns ``(learnt clause, backjump level, lbd)``.  ``lbd`` is the
        literal block distance (count of distinct decision levels among
        the learnt literals).
        """
        learnt: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal = 0
        self._bump_clause(conflict_index)
        clause = self._clauses[conflict_index]
        index = len(self._trail) - 1
        current_level = len(self._trail_lim)
        first = True
        while True:
            for other in clause:
                # In a reason clause, skip the literal it propagated.
                if first is False and other == -literal:
                    continue
                var = abs(other)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learnt.append(other)
            first = False
            # pick next literal from trail
            while not seen[abs(self._trail[index])]:
                index -= 1
            literal = -self._trail[index]
            var = abs(literal)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = self._reason[var]
            assert reason is not None
            self._bump_clause(reason)
            clause = self._clauses[reason]
        learnt[0] = literal
        if len(learnt) == 1:
            return learnt, 0, 1
        if len(learnt) > 2:
            # a 2-literal learnt can never shrink (its non-asserting
            # literal would need every antecedent at level 0, which
            # propagation would already have applied)
            learnt = self._minimize_learnt(learnt)
        level = self._level
        if len(learnt) == 1:
            return learnt, 0, 1
        # backjump to the second-highest level in the clause
        max_index = 1
        max_level = level[abs(learnt[1])]
        for k in range(2, len(learnt)):
            lvl = level[abs(learnt[k])]
            if lvl > max_level:
                max_level = lvl
                max_index = k
        learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
        lbd = len({level[lit if lit > 0 else -lit] for lit in learnt})
        return learnt, max_level, lbd

    def _minimize_learnt(self, learnt: List[int]) -> List[int]:
        """Recursive conflict-clause minimization (self-subsumption).

        A non-asserting literal is redundant — droppable — when every
        antecedent in its reason clause is at level 0, already a clause
        member, or recursively redundant itself, i.e. the remaining
        literals self-subsume it over the implication graph.  Returns
        the (possibly shorter) clause, keeping the asserting literal in
        slot 0.
        """
        members = {lit if lit > 0 else -lit for lit in learnt}
        cache: Dict[int, bool] = {}
        kept = [learnt[0]]
        reason = self._reason
        for literal in learnt[1:]:
            var = literal if literal > 0 else -literal
            if reason[var] is None or not self._redundant(var, members, cache):
                kept.append(literal)
        return kept

    def _redundant(
        self, root: int, members: Set[int], cache: Dict[int, bool]
    ) -> bool:
        """Iterative DFS deciding whether ``root`` is implied by the
        other clause members (plus level-0 facts) over the reason graph.

        ``cache`` memoizes verdicts across the literals of one learnt
        clause; on failure every open frame is conservatively marked
        non-redundant.  The implication graph is acyclic (antecedents
        sit strictly earlier on the trail), so no cycle check is
        needed.
        """
        known = cache.get(root)
        if known is not None:
            return known
        level = self._level
        reason = self._reason
        clauses = self._clauses
        stack: List[Tuple[int, Iterable[int]]] = [
            (root, iter(clauses[reason[root]]))
        ]
        frame_vars = [root]
        while stack:
            var, antecedents = stack[-1]
            advanced = False
            for other in antecedents:
                o_var = other if other > 0 else -other
                if o_var == var or level[o_var] == 0 or o_var in members:
                    continue
                known = cache.get(o_var)
                if known is True:
                    continue
                o_reason = reason[o_var]
                if known is False or o_reason is None:
                    # a decision (or a proven-irredundant literal)
                    # outside the clause: every open frame fails
                    for failed in frame_vars:
                        cache[failed] = False
                    return False
                stack.append((o_var, iter(clauses[o_reason])))
                frame_vars.append(o_var)
                advanced = True
                break
            if not advanced:
                stack.pop()
                frame_vars.pop()
                cache[var] = True
        return True

    # ------------------------------------------------------------------
    # learnt-clause economy (reduce-DB)
    # ------------------------------------------------------------------
    def _reduce_learnts(self) -> None:
        """Delete the worst half of the tracked learnt clauses.

        Only clauses registered in ``_learnt_meta`` are candidates:
        problem clauses, binaries, blocking and guard clauses never
        enter the table, so enumeration and multishot retraction state
        is untouched.  Glue clauses (LBD <= :data:`GLUE_LBD`) and
        clauses currently acting as the reason of a trail literal are
        protected.  Victims are sorted worst-first by (highest LBD,
        lowest activity) and tombstoned in place — watches and reasons
        hold stable indexes, so the store is never compacted.
        """
        reason = self._reason
        locked = set()
        for literal in self._trail:
            locked.add(reason[literal if literal > 0 else -literal])
        candidates = [
            (meta[0], meta[1], index)
            for index, meta in self._learnt_meta.items()
            if meta[0] > GLUE_LBD and index not in locked
        ]
        if candidates:
            candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
            watches = self._watches
            clauses = self._clauses
            victims = candidates[: (len(candidates) + 1) // 2]
            for _, _, index in victims:
                clause = clauses[index]
                watches[-clause[0]].remove(index)
                watches[-clause[1]].remove(index)
                clauses[index] = None
                del self._learnt_meta[index]
            self._learnt_deleted_total += len(victims)
            self._trace.emit(
                "sat.reduce",
                deleted=len(victims),
                kept=len(self._learnt_meta),
            )
        self._reduce_passes += 1

    # ------------------------------------------------------------------
    # decision heuristic
    # ------------------------------------------------------------------
    def _decide(self) -> int:
        if self._order_dirty:
            self._rebuild_order()
        while self._order:
            negated_activity, var = heapq.heappop(self._order)
            if self._assign[var] != UNASSIGNED:
                continue  # stale entry
            if -negated_activity != self._activity[var]:
                # stale activity: reinsert with the current value
                heapq.heappush(self._order, (-self._activity[var], var))
                continue
            # saved phase (initially negative: favours minimal models)
            return var if self._phase[var] == TRUE else -var
        return 0

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> Optional[Dict[int, bool]]:
        """Search for a model; returns ``{var: bool}`` or ``None`` (UNSAT).

        ``assumptions`` are literals fixed for this call only.  UNSAT under
        assumptions does not mean the formula is globally UNSAT.
        """
        assign = self.solve_raw(assumptions)
        if assign is None:
            return None
        return {var: assign[var] == TRUE for var in range(1, self._num_vars + 1)}

    def solve_raw(
        self, assumptions: Iterable[int] = (), restart: bool = True
    ) -> Optional[List[int]]:
        """Like :meth:`solve` but returns the internal assignment array.

        The returned list is ``self._assign`` itself (index 0 unused,
        values :data:`TRUE`/:data:`FALSE`): read it before the next solver
        call mutates it.  This is the enumeration fast path — the
        stable-model layer probes just the atom variables it cares about
        instead of paying for a full ``{var: bool}`` dict per model.

        With ``restart=False`` the search continues from the current
        trail instead of backtracking to level 0 — paired with
        :meth:`add_blocking_clause` this makes model enumeration resume
        next to the previous model.  This is sound with assumptions too:
        decision levels are created in call order, so the levels a
        backjump preserved are exactly an assumption prefix, and the
        main loop re-asserts whatever assumption suffix was undone
        before branching further.  The caller must pass the *same*
        assumptions as the preceding ``restart=True`` call (the
        enumeration loop of :meth:`StableModelSolver.models` does).
        """
        self._last_core = None
        if self._unsat:
            self._last_core = []
            return None
        assumption_list = list(assumptions)
        if restart:
            self._backtrack_lazy(0)
            conflict = self._propagate()
            if conflict is not None:
                self._unsat = True
                self._last_core = []
                return None
        restarts = 0
        conflicts_since_restart = 0
        restart_limit = RESTART_BASE * _luby(1)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts_total += 1
                conflicts_since_restart += 1
                if len(self._trail_lim) == 0:
                    self._unsat = True
                    self._last_core = []
                    return None
                if len(self._trail_lim) <= len(assumption_list):
                    # conflict inside the assumption prefix: the reasons
                    # of the conflicting clause trace back to the
                    # assumption decisions responsible (analyzeFinal)
                    self._last_core = self._collect_core(
                        self._clauses[conflict]
                    )
                    return None
                learnt, back_level, lbd = self._analyze(conflict)
                back_level = max(back_level, 0)
                self._backtrack(back_level)
                self._learnt_total += 1
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._unsat = True
                        self._last_core = []
                        return None
                else:
                    index = len(self._clauses)
                    self._clauses.append(learnt)
                    if len(learnt) == 2:
                        self._watch_binary(learnt, index)
                    else:
                        self._watch(learnt[0], index)
                        self._watch(learnt[1], index)
                        self._learnt_meta[index] = [lbd, self._clause_inc]
                    self._enqueue(learnt[0], index)
                self._activity_inc /= self._activity_decay
                self._clause_inc /= self._clause_decay
                if conflicts_since_restart >= restart_limit:
                    restarts += 1
                    self._restarts_total += 1
                    conflicts_since_restart = 0
                    restart_limit = RESTART_BASE * _luby(restarts + 1)
                    self._backtrack_lazy(0)
                    if len(self._learnt_meta) >= REDUCE_BASE + (
                        self._reduce_passes * max(1, REDUCE_BASE // 2)
                    ):
                        self._reduce_learnts()
                    self._trace.emit(
                        "sat.restart",
                        number=self._restarts_total,
                        conflicts=self._conflicts_total,
                    )
                continue
            # assumption decisions first
            if len(self._trail_lim) < len(assumption_list):
                literal = assumption_list[len(self._trail_lim)]
                self._ensure_var(abs(literal))
                value = self._value(literal)
                if value == FALSE:
                    # the assumption is already falsified: it conflicts
                    # with whatever forced its negation
                    self._last_core = self._collect_core(
                        [-literal], extra=[literal]
                    )
                    return None
                self._trail_lim.append(len(self._trail))
                if value == UNASSIGNED:
                    self._enqueue(literal, None)
                continue
            if len(self._trail) == self._num_vars:
                # total assignment: O(1) probe saves draining the
                # decision heap of stale (already-assigned) entries
                return self._assign
            literal = self._decide()
            if literal == 0:
                return self._assign
            self._decisions_total += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(literal, None)

    # ------------------------------------------------------------------
    # assumption cores
    # ------------------------------------------------------------------
    def last_core(self) -> Optional[List[int]]:
        """The assumption literals behind the last UNSAT answer.

        ``None`` when the last :meth:`solve_raw` call was satisfiable (or
        none happened yet); an empty list when the formula is UNSAT even
        without assumptions; otherwise a subset of that call's assumption
        literals which is already unsatisfiable together with the
        clauses.  The core is not minimized — see
        :func:`repro.provenance.minimize_core` for the deletion-based
        MUS pass.
        """
        if self._last_core is None:
            return None
        return list(self._last_core)

    def _collect_core(
        self, seeds: Iterable[int], extra: Sequence[int] = ()
    ) -> List[int]:
        """Walk the reason graph from ``seeds`` down to assumption decisions.

        Every decision reached (a var assigned with no reason clause
        above level 0) is an assumption of the current call — the search
        has not branched past the assumption prefix when this runs.
        ``extra`` literals are prepended verbatim (the falsified
        assumption itself in the early-exit case).
        """
        core: List[int] = list(extra)
        seen = set(core)
        visited = set()
        stack = [abs(literal) for literal in seeds]
        while stack:
            var = stack.pop()
            if var in visited:
                continue
            visited.add(var)
            if self._level[var] == 0:
                continue  # forced by the formula alone
            reason = self._reason[var]
            if reason is None:
                literal = var if self._assign[var] == TRUE else -var
                if literal not in seen:
                    seen.add(literal)
                    core.append(literal)
            else:
                stack.extend(abs(other) for other in self._clauses[reason])
        return core

    # ------------------------------------------------------------------
    # encodings
    # ------------------------------------------------------------------
    def add_iff_and(self, target: int, literals: Sequence[int]) -> bool:
        """Add ``target <-> AND(literals)``."""
        ok = True
        for literal in literals:
            ok &= self.add_clause([-target, literal])
        ok &= self.add_clause([target] + [-l for l in literals])
        return ok

    def add_iff_or(self, target: int, literals: Sequence[int]) -> bool:
        """Add ``target <-> OR(literals)``."""
        ok = True
        for literal in literals:
            ok &= self.add_clause([target, -literal])
        ok &= self.add_clause([-target] + list(literals))
        return ok

class WeightedCounter:
    """A reusable weighted-sum circuit over SAT literals.

    Builds variables ``geq(k)`` that are true **iff** the weighted sum of
    the item literals is at least ``k``.  The circuit uses dynamic
    programming over the items (a weighted sequential counter), with full
    equivalences so the threshold variables can appear in either polarity
    (required for aggregate atoms and optimization constraints).
    """

    def __init__(self, solver: Solver, items: Sequence[tuple]):
        """``items`` is a list of ``(literal, weight)`` with weight > 0."""
        for _, weight in items:
            if weight <= 0:
                raise SatError("WeightedCounter weights must be positive")
        self._solver = solver
        self._items = list(items)
        self._max_sum = sum(weight for _, weight in items)
        # layer[j][k] = var true iff sum of first j items >= k (k >= 1)
        self._layers: List[Dict[int, int]] = [dict() for _ in range(len(items) + 1)]
        self._true_var: Optional[int] = None

    def _constant_true(self) -> int:
        if self._true_var is None:
            self._true_var = self._solver.new_var()
            self._solver.add_clause([self._true_var])
        return self._true_var

    def geq(self, bound: int) -> int:
        """Return a literal true iff the weighted sum >= ``bound``."""
        if bound <= 0:
            return self._constant_true()
        if bound > self._max_sum:
            return -self._constant_true()
        return self._node(len(self._items), bound)

    def _node(self, j: int, k: int) -> int:
        """Variable for: sum of first j items >= k (1 <= k <= max)."""
        if k <= 0:
            return self._constant_true()
        if j == 0:
            return -self._constant_true()
        cached = self._layers[j].get(k)
        if cached is not None:
            return cached
        literal_j, weight_j = self._items[j - 1]
        without = self._node(j - 1, k)
        var = self._solver.new_var()
        if k - weight_j <= 0:
            # taking item j alone reaches k
            self._solver.add_iff_or(var, [without, literal_j])
        else:
            with_item = self._node(j - 1, k - weight_j)
            both = self._solver.new_var()
            self._solver.add_iff_and(both, [literal_j, with_item])
            self._solver.add_iff_or(var, [without, both])
        self._layers[j][k] = var
        return var
