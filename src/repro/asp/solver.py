"""Stable-model solver over ground programs.

The solver translates the ground program into CNF through Clark's
completion (plus cardinality/weight circuits for choice bounds and
aggregates) and searches with the CDCL SAT backend.  For *tight*
programs the completion is exact.  For non-tight programs (recursion
through positive bodies) candidate models are checked for unfounded
atoms; when a greatest-unfounded-set is non-empty the corresponding loop
nogoods (Lin-Zhao loop formulas) are added lazily and the search
continues — the ASSAT strategy.

Optimization over weak constraints is lexicographic branch-and-bound on
priority levels, reusing threshold circuits.

Observability: :attr:`StableModelSolver.statistics` snapshots the CDCL
search counters of the SAT backend plus the stable-model layer's own
counts (models enumerated, unfounded-set checks, loop nogoods added,
optimization bound improvements).  Pass ``trace=`` a
:class:`~repro.observability.TraceSink` to stream ``solver.model``,
``solver.loop_nogoods`` and ``solver.bound`` events as the search runs.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .ground import (
    GroundAggregate,
    GroundChoice,
    GroundProgram,
    GroundRule,
)
from .sat import Solver as SatSolver
from .sat import WeightedCounter
from .syntax import Atom
from .terms import Number

#: serializes :meth:`StableModelSolver.project_models`' raises of the
#: process-wide recursion limit
_RECURSION_LIMIT_LOCK = threading.Lock()


class SolverError(Exception):
    """Raised for unsupported ground constructs (e.g. recursive aggregates)."""


class ProjectionIncomplete(SolverError):
    """The propagation-driven projected enumeration cannot run.

    Raised by :meth:`StableModelSolver.project_models` when unit
    propagation does not settle a leaf: variables outside the
    projection stay free, or an open cyclic atom conflicts when it is
    set false.  Callers fall back to the CDCL-based
    :meth:`StableModelSolver.models` path, which is always complete.
    """


@dataclass(frozen=True)
class Model:
    """One answer set."""

    atoms: FrozenSet[Atom]
    cost: Tuple[Tuple[int, int], ...] = ()
    #: cost as ((priority, value), ...) sorted by descending priority
    shown: Tuple[Tuple[str, int], ...] = ()
    optimal: bool = False

    def contains(self, atom: Atom) -> bool:
        return atom in self.atoms

    def symbols(self, shown: bool = True) -> List[Atom]:
        """Atoms of the model, optionally filtered by ``#show`` directives."""
        atoms: Iterable[Atom] = self.atoms
        if shown and self.shown:
            signatures = set(self.shown)
            atoms = (a for a in self.atoms if a.signature in signatures)
        return sorted(atoms, key=_atom_sort_key)

    def __str__(self) -> str:
        return " ".join(str(atom) for atom in self.symbols())


def _atom_sort_key(atom: Atom) -> Tuple:
    return (atom.predicate, tuple(argument.sort_key() for argument in atom.arguments))


class _Support:
    """A potential support of an atom: a SAT literal plus its positive
    body atoms (needed for loop-nogood construction)."""

    __slots__ = ("literal", "pos")

    def __init__(self, literal: int, pos: Tuple[Atom, ...]):
        self.literal = literal
        self.pos = pos


class StableModelSolver:
    """Build the encoding once, then enumerate models.

    The encoding walks the ground rules in order: one variable per
    atom, and an auxiliary variable only for a conjunction (rule body,
    choice or aggregate condition, weak-constraint body) of two or more
    literals not fixed at decision level 0.  A fact's unit clause fixes
    it as soon as it is added, and a fixed literal is implied by the
    formula, so later conjunctions drop it when true and collapse to
    ``-true`` when it is false; a fact after its readers only leaves a
    sound auxiliary in place.  Unbounded choice rules build no
    per-element indicators: only a cardinality counter reads them.

    By default the solver is single-shot: enumeration installs permanent
    blocking clauses and optimization permanently pins the optimum, so a
    second ``models()``/``optimize()`` call would see a mutilated
    formula.  Passing ``retract=True`` to either entry point makes the
    call *retractable*: all call-local clauses (solution-recording
    blocking clauses, branch-and-bound improvement clauses, the optimum
    pin) are guarded by a fresh activation literal that is assumed for
    the duration of the call and permanently falsified when it ends.
    Learnt clauses, saved phases, variable activities and watch lists
    survive into the next call — clingo-style multi-shot solving, driven
    by :class:`~repro.asp.control.Control` in ``multishot`` mode.
    """

    def __init__(
        self,
        program: GroundProgram,
        trace: Optional[object] = None,
    ):
        from ..observability import NULL_SINK

        self._program = program
        self._trace = trace if trace is not None else NULL_SINK
        self._sat = SatSolver(trace=self._trace)
        self._true = self._sat.new_var()
        self._sat.add_clause([self._true])
        self._atom_var: Dict[Atom, int] = {}
        self._supports: Dict[Atom, List[_Support]] = {}
        self._rule_records: List[Tuple[GroundRule, int]] = []  # (rule, body lit)
        self._tight = True
        self._optimize_levels: List[Tuple[int, "_CostLevel"]] = []
        self._models_enumerated = 0
        self._optimal_models = 0
        self._unfounded_checks = 0
        self._loop_nogoods = 0
        self._bound_improvements = 0
        self._block_items: Optional[List[Tuple[Atom, int]]] = None
        #: atom-level assumption core of the last fruitless call (see
        #: :attr:`unsat_core`)
        self._last_core: Optional[List[Tuple[Atom, bool]]] = None
        self._build()

    @property
    def statistics(self) -> Dict[str, object]:
        """Search statistics: SAT backend counters + stable-model counts.

        The ``solvers`` entry follows clingo's shape (choices, conflicts,
        propagations, restarts, learnt); the remaining keys cover the
        ASP-specific work on top of the SAT search.
        """
        return {
            "solvers": self._sat.statistics,
            "variables": self._sat.num_vars,
            "tight": int(self._tight),
            "models": self._models_enumerated,
            "optimal_models": self._optimal_models,
            "unfounded_checks": self._unfounded_checks,
            "loop_nogoods": self._loop_nogoods,
            "bound_improvements": self._bound_improvements,
        }

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def _var(self, atom: Atom) -> int:
        var = self._atom_var.get(atom)
        if var is None:
            var = self._sat.new_var()
            self._atom_var[atom] = var
        return var

    def _body_literal(self, rule: GroundRule) -> int:
        """A literal equivalent to the rule body conjunction."""
        return self._conjunction(
            [self._var(atom) for atom in rule.pos]
            + [-self._var(atom) for atom in rule.neg]
            + [self._aggregate_literal(g) for g in rule.aggregates]
        )

    def _conjunction(self, literals: Sequence[int]) -> int:
        """A literal equivalent to the conjunction of ``literals``, with
        the literals fixed at decision level 0 folded in as constants
        (see the class docstring)."""
        sat = self._sat
        assignment = sat.assignment_view()
        kept: List[int] = []
        for literal in literals:
            var = literal if literal > 0 else -literal
            if sat.fixed_at_top(var):
                if (assignment[var] > 0) != (literal > 0):
                    return -self._true
                continue
            kept.append(literal)
        if not kept:
            return self._true
        if len(kept) == 1:
            return kept[0]
        aux = sat.new_var()
        sat.add_iff_and(aux, kept)
        return aux

    def _disjunction(self, literals: Sequence[int]) -> int:
        if any(l == self._true for l in literals):
            return self._true
        if not literals:
            return -self._true
        if len(literals) == 1:
            return literals[0]
        aux = self._sat.new_var()
        self._sat.add_iff_or(aux, literals)
        return aux

    def _aggregate_literal(self, aggregate: GroundAggregate) -> int:
        # Group elements by term tuple (ASP set semantics).
        tuple_conditions: Dict[Tuple, List[int]] = {}
        tuple_order: List[Tuple] = []
        for element in aggregate.elements:
            condition = self._conjunction(
                [self._var(a) for a in element.pos]
                + [-self._var(a) for a in element.neg]
            )
            key = element.terms
            if key not in tuple_conditions:
                tuple_conditions[key] = []
                tuple_order.append(key)
            tuple_conditions[key].append(condition)
        tuple_vars: Dict[Tuple, int] = {
            key: self._disjunction(conditions)
            for key, conditions in tuple_conditions.items()
        }
        if aggregate.function in ("#count", "#sum"):
            literal = self._count_sum_literal(aggregate, tuple_order, tuple_vars)
        elif aggregate.function in ("#min", "#max"):
            literal = self._min_max_literal(aggregate, tuple_order, tuple_vars)
        else:
            raise SolverError("unsupported aggregate %s" % aggregate.function)
        return -literal if aggregate.negated else literal

    def _count_sum_literal(
        self,
        aggregate: GroundAggregate,
        tuple_order: List[Tuple],
        tuple_vars: Dict[Tuple, int],
    ) -> int:
        items: List[Tuple[int, int]] = []
        offset = 0
        for key in tuple_order:
            if aggregate.function == "#count":
                weight = 1
            else:
                weight = _element_weight(key, aggregate)
            if weight == 0:
                continue
            if weight > 0:
                items.append((tuple_vars[key], weight))
            else:
                # w*t == |w|*(1-t) - |w|
                items.append((-tuple_vars[key], -weight))
                offset += weight  # negative
        counter = WeightedCounter(self._sat, items)
        parts: List[int] = []
        if aggregate.lower is not None:
            parts.append(counter.geq(aggregate.lower - offset))
        if aggregate.upper is not None:
            parts.append(-counter.geq(aggregate.upper - offset + 1))
        return self._conjunction(parts)

    def _min_max_literal(
        self,
        aggregate: GroundAggregate,
        tuple_order: List[Tuple],
        tuple_vars: Dict[Tuple, int],
    ) -> int:
        values: Dict[Tuple, int] = {
            key: _element_weight(key, aggregate) for key in tuple_order
        }
        parts: List[int] = []
        if aggregate.function == "#min":
            if aggregate.lower is not None:
                below = [
                    tuple_vars[k] for k in tuple_order if values[k] < aggregate.lower
                ]
                parts.append(-self._disjunction(below))
            if aggregate.upper is not None:
                at_most = [
                    tuple_vars[k] for k in tuple_order if values[k] <= aggregate.upper
                ]
                parts.append(self._disjunction(at_most))
        else:  # #max
            if aggregate.lower is not None:
                at_least = [
                    tuple_vars[k] for k in tuple_order if values[k] >= aggregate.lower
                ]
                parts.append(self._disjunction(at_least))
            if aggregate.upper is not None:
                above = [
                    tuple_vars[k] for k in tuple_order if values[k] > aggregate.upper
                ]
                parts.append(-self._disjunction(above))
        return self._conjunction(parts)

    def _build(self) -> None:
        for atom in self._program.possible_atoms:
            self._var(atom)
        for rule in self._program.rules:
            body = self._body_literal(rule)
            if rule.head is None:
                self._sat.add_clause([-body])
                continue
            if isinstance(rule.head, Atom):
                head_var = self._var(rule.head)
                self._sat.add_clause([-body, head_var])
                self._supports.setdefault(rule.head, []).append(
                    _Support(body, rule.pos)
                )
                self._rule_records.append((rule, body))
                continue
            choice = rule.head
            bounded = choice.lower is not None or choice.upper is not None
            indicator_items: List[Tuple[int, int]] = []
            for atom, condition_pos, condition_neg in choice.elements:
                condition = self._conjunction(
                    [self._var(a) for a in condition_pos]
                    + [-self._var(a) for a in condition_neg]
                )
                support = self._conjunction([body, condition])
                self._supports.setdefault(atom, []).append(
                    _Support(support, rule.pos + condition_pos)
                )
                if bounded:
                    # only the cardinality counter reads the indicators
                    chosen = self._conjunction([self._var(atom), condition])
                    indicator_items.append((chosen, 1))
            if bounded:
                counter = WeightedCounter(self._sat, indicator_items)
                if choice.lower is not None and choice.lower > 0:
                    self._sat.add_clause([-body, counter.geq(choice.lower)])
                if choice.upper is not None:
                    self._sat.add_clause([-body, -counter.geq(choice.upper + 1)])
            self._rule_records.append((rule, body))
        self._build_optimization()
        # Completion: an atom needs at least one support.  This runs
        # last so that atoms first referenced by aggregates or weak
        # constraints (which may mention underivable atoms) still get
        # their support clause — an unsupported atom is forced false.
        for atom, var in self._atom_var.items():
            supports = self._supports.get(atom, [])
            self._sat.add_clause([-var] + [s.literal for s in supports])
        self._analyze_tightness()

    def _analyze_tightness(self) -> None:
        """Tight iff the positive dependency graph is acyclic."""
        graph: Dict[Atom, Set[Atom]] = {}
        for rule, _ in self._rule_records:
            heads: List[Tuple[Atom, Tuple[Atom, ...]]] = []
            if isinstance(rule.head, Atom):
                heads.append((rule.head, rule.pos))
            elif isinstance(rule.head, GroundChoice):
                for atom, condition_pos, _ in rule.head.elements:
                    heads.append((atom, rule.pos + condition_pos))
            aggregate_atoms: List[Atom] = []
            for aggregate in rule.aggregates:
                for element in aggregate.elements:
                    aggregate_atoms.extend(element.pos)
                    aggregate_atoms.extend(element.neg)
            for head, pos in heads:
                edges = graph.setdefault(head, set())
                for body_atom in pos:
                    edges.add(body_atom)
                # aggregates are treated as external by the foundedness
                # check, so recursion through them must be ruled out —
                # count them as dependencies for the SCC analysis
                for body_atom in aggregate_atoms:
                    edges.add(body_atom)
        self._scc_of: Dict[Atom, int] = {}
        self._cyclic_atoms: Set[Atom] = set()
        index = 0
        for component in _tarjan_scc(graph):
            for atom in component:
                self._scc_of[atom] = index
            if len(component) > 1 or component[0] in graph.get(
                component[0], set()
            ):
                self._tight = False
                self._cyclic_atoms.update(component)
            index += 1
        self._check_no_recursive_aggregates()
        self._index_supports()

    def _index_supports(self) -> None:
        """Index the supports the unfounded-set check walks.

        In a supported model only atoms inside non-trivial SCCs of the
        positive dependency graph can be unfounded (Lin-Zhao), so the
        check needs just their supports.  The cyclic atoms get bits in
        atom order, and each of their supports becomes ``(head bit,
        support literal, mask of its cyclic positive body atoms)``: the
        completion defines the literal as the whole body, aggregates
        included, so only the cyclic part is left to derive.
        """
        order = sorted(self._cyclic_atoms, key=_atom_sort_key)
        bits = {atom: 1 << i for i, atom in enumerate(order)}
        entries: List[Tuple[int, int, int]] = []
        for atom in order:
            for support in self._supports.get(atom, ()):
                mask = 0
                for body_atom in support.pos:
                    mask |= bits.get(body_atom, 0)
                entries.append((bits[atom], support.literal, mask))
        self._cyclic_vars = [self._atom_var[atom] for atom in order]
        self._founded_index = entries

    def _check_no_recursive_aggregates(self) -> None:
        for rule, _ in self._rule_records:
            head_sccs: Set[int] = set()
            if isinstance(rule.head, Atom):
                head_sccs.add(self._scc_of.get(rule.head, -1))
            elif isinstance(rule.head, GroundChoice):
                for atom, _, _ in rule.head.elements:
                    head_sccs.add(self._scc_of.get(atom, -1))
            for aggregate in rule.aggregates:
                for element in aggregate.elements:
                    for atom in element.pos:
                        if self._scc_of.get(atom, -2) in head_sccs:
                            raise SolverError(
                                "recursive aggregates are not supported"
                            )

    def _build_optimization(self) -> None:
        if not self._program.weak_constraints:
            return
        # Set semantics: instances sharing (weight, priority, terms) count once.
        by_level: Dict[int, Dict[Tuple, List[int]]] = {}
        for weak in self._program.weak_constraints:
            body = self._conjunction(
                [self._var(a) for a in weak.pos]
                + [-self._var(a) for a in weak.neg]
            )
            key = (weak.weight, weak.terms)
            by_level.setdefault(weak.priority, {}).setdefault(key, []).append(body)
        for priority in sorted(by_level, reverse=True):
            level_items: List[Tuple[int, int]] = []
            offset = 0
            for (weight, _terms), bodies in by_level[priority].items():
                indicator = self._disjunction(bodies)
                if weight == 0:
                    continue
                if weight > 0:
                    level_items.append((indicator, weight))
                else:
                    level_items.append((-indicator, -weight))
                    offset += weight
            self._optimize_levels.append(
                (priority, _CostLevel(self._sat, level_items, offset))
            )

    # ------------------------------------------------------------------
    # stability check (unfounded sets)
    # ------------------------------------------------------------------
    def _unfounded(self, assignment: Sequence[int]) -> int:
        """The unfounded atoms of a total assignment, as a bitmask.

        Bit i stands for the i-th cyclic atom in atom order; 0 means
        the candidate is stable.  A support fires when its literal is
        true, and the fixpoint founds a true cyclic atom once one of its
        fired supports has all its cyclic positive body atoms founded.
        Atoms outside non-trivial SCCs are founded in every supported
        model, so the cost scales with the recursive part of the
        program, and no atom set is built.
        """
        true_mask = 0
        bit = 1
        for var in self._cyclic_vars:
            if assignment[var] > 0:
                true_mask |= bit
            bit <<= 1
        if not true_mask:
            return 0
        founded = 0
        live = []
        for head_bit, literal, cyclic_mask in self._founded_index:
            if not true_mask & head_bit or founded & head_bit:
                continue
            if literal > 0:
                if assignment[literal] <= 0:
                    continue
            elif assignment[-literal] >= 0:
                continue
            if cyclic_mask:
                live.append((head_bit, cyclic_mask))
            else:
                founded |= head_bit
        changed = founded != 0
        while changed and founded != true_mask:
            changed = False
            for head_bit, cyclic_mask in live:
                if not founded & head_bit and not cyclic_mask & ~founded:
                    founded |= head_bit
                    changed = True
        return true_mask & ~founded

    def _add_loop_nogoods(self, unfounded: int) -> None:
        """One loop nogood per unfounded atom, in atom order: the atom
        needs a support from outside the unfounded set."""
        external = list(
            dict.fromkeys(
                literal
                for head_bit, literal, cyclic_mask in self._founded_index
                if head_bit & unfounded and not cyclic_mask & unfounded
            )
        )
        added = 0
        for var in self._cyclic_vars:
            if unfounded & 1:
                self._sat.add_clause([-var] + external)
                added += 1
            unfounded >>= 1
        self._loop_nogoods += added
        self._trace.emit("solver.loop_nogoods", unfounded=added)

    # ------------------------------------------------------------------
    # propagation-driven projected enumeration (cube-and-conquer leaves)
    # ------------------------------------------------------------------
    def atom_var(self, atom: Atom) -> Optional[int]:
        """The SAT variable of ``atom`` (None if it cannot be true).

        The companion of the raw-assignment interfaces
        (:meth:`~repro.asp.sat.Solver.solve_raw`,
        :meth:`project_models`): callers probe ``assignment[var] > 0``
        instead of materializing atom sets.
        """
        return self._atom_var.get(atom)

    def project_models(
        self,
        project: Sequence[Atom],
        on_model,
        assumptions: Sequence[Tuple[Atom, bool]] = (),
        max_true: Optional[int] = None,
    ) -> int:
        """Enumerate stable models by propagation DFS over ``project``.

        The cube-and-conquer worker loop: ``assumptions`` (a cube plus
        whatever else the caller pins, e.g. external truth values) are
        asserted on one decision level, then the solver walks a
        chronological DFS over the free projection atoms (false branch
        first), deriving everything else by unit propagation.  At each
        consistent leaf the candidate is checked for unfounded sets and,
        if stable, ``on_model`` is called with the **transient** raw
        assignment array (index 0 unused, values +1/-1; probe it via
        :meth:`atom_var` before returning — the next DFS step mutates it
        in place).  Returns the number of stable models found.

        ``max_true`` bounds the true projection atoms — pinned, decided
        or propagated alike — exactly as ``:- #count{...} > max_true.``
        would (``None`` = unbounded): a node over the bound is
        rejected, and once the bound is spent the true branch is
        skipped and every remaining free projection atom is asserted
        false on one level with one propagation pass.

        Requirements, checked at runtime: the projection atoms must
        functionally determine every answer set (same contract as
        ``models(project=...)``), and unit propagation must complete the
        assignment at every leaf.  When a leaf remains incomplete —
        free atoms outside the projection — or undetermined cyclic atoms
        cannot be settled to false, :class:`ProjectionIncomplete` is
        raised; callers must then discard whatever ``on_model`` reported
        and restart on the complete CDCL path (:meth:`models`), which
        is always safe because this method leaves no clauses behind.
        Unlike :meth:`models`, no blocking clauses
        are recorded and nothing about the solver state changes: the
        formula is exactly as reusable afterwards as before.
        """
        sat = self._sat
        cyc_vars = self._cyclic_vars
        # unwind any stale trail a previous solve left behind (solve_raw
        # does the same via its restart)
        sat.pop_to_level(0)
        base_level = 0
        if not sat.propagate_top():
            return 0
        literals = self._assumption_literals(assumptions)
        atom_vars = self._atom_var
        branch_vars = [
            atom_vars[atom] for atom in project if atom in atom_vars
        ]
        assignment = sat.assignment_view()
        num_vars = sat.num_vars
        trail = sat.trail_view()
        count = 0

        def leaf() -> int:
            nonlocal count
            level = sat.decision_level
            # settle cyclic atoms propagation left open: in a stable
            # model an atom with no forced support is false
            for var in cyc_vars:
                if assignment[var] == 0 and sat.push_level(-var) is not None:
                    sat.pop_to_level(level)
                    raise ProjectionIncomplete(
                        "settling an open cyclic atom to false conflicts"
                    )
            try:
                if len(trail) != num_vars:
                    # free variables outside the projection: the premise
                    # that the projection determines the model is wrong
                    raise ProjectionIncomplete(
                        "%d variables undetermined at a projection leaf"
                        % (num_vars - len(trail))
                    )
                if cyc_vars:
                    self._unfounded_checks += 1
                    if self._unfounded(assignment):
                        return 0
                self._models_enumerated += 1
                count += 1
                on_model(assignment)
                return 1
            finally:
                sat.pop_to_level(level)

        # the bound counts true projection atoms: positive trail
        # literals are the true variables, so a set intersection with
        # the trail (or the slice one push added) counts them.
        # Unbounded, the count can only reach the bound at the all-true
        # leaf, so the spent-bound tail never runs
        projected = frozenset(branch_vars)
        bound = len(branch_vars) if max_true is None else max_true

        def walk(position: int, spent: int) -> int:
            while position < len(branch_vars) and assignment[branch_vars[position]] != 0:
                position += 1
            if position == len(branch_vars):
                return leaf()
            level = sat.decision_level
            found = 0
            if spent == bound:
                # the bound is spent: the one remaining scenario has
                # every free projection atom false
                tail = [-v for v in branch_vars[position:] if assignment[v] == 0]
                if sat.push_level(*tail) is None:
                    found = leaf()
                sat.pop_to_level(level)
                return found
            var = branch_vars[position]
            for literal in (-var, var):
                start = len(trail)
                if sat.push_level(literal) is None:
                    now = spent + len(projected.intersection(trail[start:]))
                    if now <= bound:
                        found += walk(position + 1, now)
                sat.pop_to_level(level)
            return found

        # DFS depth equals the number of free projection atoms.  The
        # limit is process-wide and another thread's DFS may be deep, so
        # it is only ever raised, under a lock so that no stale reading
        # can lower it again
        with _RECURSION_LIMIT_LOCK:
            if sys.getrecursionlimit() < len(branch_vars) + 1000:
                sys.setrecursionlimit(len(branch_vars) + 1000)
        try:
            if sat.push_level(*literals) is None:
                spent = len(projected.intersection(trail))
                if spent <= bound:
                    walk(0, spent)
        finally:
            sat.pop_to_level(base_level)
        return count

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _next_stable(
        self, assumptions: Sequence[int], restart: bool = True
    ) -> Optional[FrozenSet[Atom]]:
        """The atoms of the next stable model, or None.

        The model's assignment stays live until the next solver call,
        so callers read its cost (:meth:`_model_cost`) right away.
        """
        while True:
            # raw assignment array (index 0 unused, values +1/-1): read
            # immediately, the next solver call mutates it in place
            assignment = self._sat.solve_raw(assumptions, restart=restart)
            if assignment is None:
                return None
            if not self._tight:
                self._unfounded_checks += 1
                unfounded = self._unfounded(assignment)
                if unfounded:
                    self._add_loop_nogoods(unfounded)
                    continue
            return frozenset(
                atom for atom, var in self._atom_var.items() if assignment[var] > 0
            )

    def _block(
        self,
        true_atoms: FrozenSet[Atom],
        guard: Optional[int] = None,
        project: Optional[List[Tuple[Atom, int]]] = None,
    ) -> None:
        # Atom variables fixed at level 0 (facts, learnt units) can never
        # flip between models, so blocking clauses range only over the
        # free atoms, computed once at the first block.  With a
        # projection the clause ranges over the (non-fixed) projected
        # atoms only — sound when they functionally determine the model.
        if project is not None:
            items = [
                (atom, var)
                for atom, var in project
                if not self._sat.fixed_at_top(var)
            ]
        else:
            items = self._block_items
            if items is None:
                items = [
                    (atom, var)
                    for atom, var in self._atom_var.items()
                    if not self._sat.fixed_at_top(var)
                ]
                self._block_items = items
        clause = [
            -var if atom in true_atoms else var for atom, var in items
        ]
        if guard is not None:
            # retractable: the clause only bites while the guard is
            # assumed true; -guard is false under the current assignment
            # (the guard is the first assumption), preserving the
            # add_blocking_clause contract
            clause.append(-guard)
        # every literal is false under the model still on the trail, so
        # the solver can backjump to the asserting level instead of
        # restarting the search from scratch
        self._sat.add_blocking_clause(clause)

    def _model_cost(self) -> Tuple[Tuple[int, int], ...]:
        """The cost of the model :meth:`_next_stable` just returned."""
        assignment = self._sat.assignment_view()
        return tuple(
            (priority, level.cost(assignment))
            for priority, level in self._optimize_levels
        )

    def models(
        self,
        limit: Optional[int] = None,
        assumptions: Sequence[Tuple[Atom, bool]] = (),
        retract: bool = False,
        project: Optional[Sequence[Atom]] = None,
    ) -> Iterator[Model]:
        """Enumerate answer sets (ignores weak constraints).

        With ``retract=True`` the blocking clauses recorded between
        models are disabled once the generator finishes (or is closed),
        so the solver can serve further solve calls.  No clause follows
        the last model ``limit`` allows, so a ``limit=1`` call takes no
        guard variable and leaves the formula as it found it.

        ``project`` restricts the solution-recording blocking clauses to
        the given atoms.  The caller asserts that these atoms
        *functionally determine* every answer set (e.g. the atoms of the
        program's only choice rule); enumeration then yields the same
        model set with much shorter blocking clauses.  Projecting onto
        atoms that do not determine the model silently drops answer
        sets — this is an enumeration accelerator, not clingo's
        ``#project``.
        """
        guard = self._sat.new_var() if retract and limit != 1 else None
        self._last_core = None
        literal_atoms = self._literal_atoms(assumptions)
        literals = self._assumption_literals(assumptions)
        if guard is not None:
            literals = [guard] + literals
        project_items: Optional[List[Tuple[Atom, int]]] = None
        if project is not None:
            # atoms absent from the encoding are false in every model
            # and cannot distinguish two of them: skip their entries
            project_items = [
                (atom, self._atom_var[atom])
                for atom in project
                if atom in self._atom_var
            ]
        count = 0
        shown = tuple(self._program.shows)
        try:
            while limit is None or count < limit:
                # after the first model the blocking clause has already
                # backjumped to its asserting level: continue from there
                true_atoms = self._next_stable(literals, restart=(count == 0))
                if true_atoms is None:
                    if count == 0:
                        self._last_core = self._core_from_sat(
                            literal_atoms, guard
                        )
                    return
                self._models_enumerated += 1
                self._trace.emit(
                    "solver.model",
                    number=self._models_enumerated,
                    atoms=len(true_atoms),
                )
                yield Model(true_atoms, self._model_cost(), shown)
                count += 1
                if count == limit:
                    return
                self._block(true_atoms, guard, project_items)
        finally:
            if guard is not None:
                # permanently falsify the guard: every clause it guards
                # becomes satisfied at the top level and stops biting
                self._sat.add_clause([-guard])

    def _assumption_literals(
        self, assumptions: Sequence[Tuple[Atom, bool]]
    ) -> List[int]:
        literals: List[int] = []
        for atom, positive in assumptions:
            var = self._atom_var.get(atom)
            if var is None:
                if positive:
                    # assuming truth of an underivable atom: unsatisfiable
                    literals.append(-self._true)
                continue
            literals.append(var if positive else -var)
        return literals

    @property
    def unsat_core(self) -> Optional[List[Tuple[Atom, bool]]]:
        """The assumptions behind the last model-free call, as atoms.

        ``None`` unless the most recent ``models``/``optimize`` call
        produced no model at all; an empty list when the program has no
        stable model even without assumptions; otherwise a subset of
        that call's ``(atom, truth)`` assumptions already sufficient for
        unsatisfiability (not minimized).
        """
        if self._last_core is None:
            return None
        return list(self._last_core)

    def _literal_atoms(
        self, assumptions: Sequence[Tuple[Atom, bool]]
    ) -> Dict[int, List[Tuple[Atom, bool]]]:
        """Reverse map of :meth:`_assumption_literals` for core reporting.

        Several underivable positive assumptions share the single
        ``-true`` literal, hence the list values.
        """
        mapping: Dict[int, List[Tuple[Atom, bool]]] = {}
        for atom, positive in assumptions:
            var = self._atom_var.get(atom)
            if var is None:
                if positive:
                    mapping.setdefault(-self._true, []).append((atom, True))
                continue
            literal = var if positive else -var
            mapping.setdefault(literal, []).append((atom, positive))
        return mapping

    def _core_from_sat(
        self,
        literal_atoms: Dict[int, List[Tuple[Atom, bool]]],
        guard: Optional[int],
    ) -> Optional[List[Tuple[Atom, bool]]]:
        """Translate the SAT backend's literal core to atom assumptions.

        Guard/activation literals and auxiliary encoding variables carry
        no atom and are dropped.
        """
        raw = self._sat.last_core()
        if raw is None:
            return None
        core: List[Tuple[Atom, bool]] = []
        seen: Set[Tuple[Atom, bool]] = set()
        for literal in raw:
            if guard is not None and abs(literal) == guard:
                continue
            for entry in literal_atoms.get(literal, ()):
                if entry not in seen:
                    seen.add(entry)
                    core.append(entry)
        return core

    def optimize(
        self,
        assumptions: Sequence[Tuple[Atom, bool]] = (),
        enumerate_optimal: bool = False,
        limit: Optional[int] = None,
        retract: bool = False,
    ) -> List[Model]:
        """Find (one or all) optimal models under the weak constraints.

        Lexicographic branch-and-bound over descending priority levels.
        Returns an empty list when unsatisfiable.  Without weak
        constraints this degrades to plain enumeration of one model.
        With ``retract=True`` the improvement clauses, the optimum pin
        and any enumeration blocking clauses are disabled when the call
        returns, so the solver stays reusable.
        """
        guard = self._sat.new_var() if retract else None
        self._last_core = None
        literal_atoms = self._literal_atoms(assumptions)
        literals = self._assumption_literals(assumptions)
        if guard is not None:
            literals = [guard] + literals
        shown = tuple(self._program.shows)
        activations: List[int] = []
        try:
            best_atoms = self._next_stable(literals)
            if best_atoms is None:
                self._last_core = self._core_from_sat(literal_atoms, guard)
                return []
            self._models_enumerated += 1
            if not self._optimize_levels:
                self._optimal_models += 1
                model = Model(best_atoms, (), shown, optimal=True)
                return [model]
            best_cost = self._model_cost()
            self._trace.emit("solver.bound", cost=list(_cost_key(best_cost)))
            while True:
                activations.append(self._add_improvement_clause(best_cost))
                candidate = self._next_stable(literals + activations)
                if candidate is None:
                    break
                candidate_cost = self._model_cost()
                assert _cost_key(candidate_cost) < _cost_key(best_cost)
                best_atoms, best_cost = candidate, candidate_cost
                self._models_enumerated += 1
                self._bound_improvements += 1
                self._trace.emit("solver.bound", cost=list(_cost_key(best_cost)))
            # pin the optimum and enumerate models achieving it
            for (priority, level), (_, value) in zip(self._optimize_levels, best_cost):
                pin = [level.leq(value)]
                if guard is not None:
                    pin.insert(0, -guard)
                self._sat.add_clause(pin)
            results: List[Model] = []
            if not enumerate_optimal:
                self._optimal_models += 1
                return [Model(best_atoms, best_cost, shown, optimal=True)]
            while limit is None or len(results) < limit:
                atoms = self._next_stable(literals)
                if atoms is None:
                    break
                self._models_enumerated += 1
                self._optimal_models += 1
                results.append(Model(atoms, self._model_cost(), shown, optimal=True))
                self._block(atoms, guard)
            return results
        finally:
            if guard is not None:
                # retract everything this call installed: the guard kills
                # the optimum pin and the blocking clauses, the
                # activation units kill the improvement clauses
                self._sat.add_clause([-guard])
                for activation in activations:
                    self._sat.add_clause([-activation])

    def _add_improvement_clause(
        self, best_cost: Tuple[Tuple[int, int], ...]
    ) -> int:
        """Require lexicographically cheaper models while the returned
        activation literal is assumed (so the bound can be relaxed later
        when enumerating the optimum)."""
        strict_options: List[int] = []
        prefix_equal: List[int] = []
        for (priority, level), (_, value) in zip(self._optimize_levels, best_cost):
            strict = self._conjunction(prefix_equal + [level.leq(value - 1)])
            strict_options.append(strict)
            prefix_equal.append(level.leq(value))
        activation = self._sat.new_var()
        self._sat.add_clause([-activation] + strict_options)
        return activation


class _CostLevel:
    """Threshold circuit over one priority level's cost items.

    An item is the indicator of one ``(weight, terms)`` tuple (set
    semantics), negated for a negative weight; the level's cost is the
    offset plus the weights of its true items.
    """

    def __init__(self, sat: SatSolver, items: List[Tuple[int, int]], offset: int):
        self._items = items
        self._counter = WeightedCounter(sat, items)
        self._offset = offset  # real_sum = counter_sum + offset

    def leq(self, bound: int) -> int:
        """Literal true iff the real weighted sum <= bound."""
        return -self._counter.geq(bound - self._offset + 1)

    def cost(self, assignment: Sequence[int]) -> int:
        """The level's cost in a total assignment."""
        total = self._offset
        for literal, weight in self._items:
            if (assignment[literal] if literal > 0 else -assignment[-literal]) > 0:
                total += weight
        return total


def _element_weight(terms: Tuple, aggregate: GroundAggregate) -> int:
    if not terms or not isinstance(terms[0], Number):
        raise SolverError(
            "%s elements must lead with an integer term" % aggregate.function
        )
    return terms[0].value


def _cost_key(cost: Tuple[Tuple[int, int], ...]) -> Tuple[int, ...]:
    return tuple(value for _, value in cost)


def _tarjan_scc(graph: Dict[Atom, Set[Atom]]) -> List[List[Atom]]:
    """Iterative Tarjan strongly-connected components."""
    index_counter = itertools.count()
    index: Dict[Atom, int] = {}
    lowlink: Dict[Atom, int] = {}
    on_stack: Set[Atom] = set()
    stack: List[Atom] = []
    components: List[List[Atom]] = []
    nodes: Set[Atom] = set(graph)
    for edges in graph.values():
        nodes.update(edges)

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[Atom, Iterator[Atom]]] = [(root, iter(graph.get(root, ())))]
        index[root] = lowlink[root] = next(index_counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = next(index_counter)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[Atom] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components
