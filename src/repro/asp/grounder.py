"""Grounder: instantiate a non-ground program into a ground program.

The grounder performs a semi-naive bottom-up fixpoint over the *possible
atom* set (atoms derivable when default negation and aggregates are
ignored), instantiating each rule's variables by joining its positive
body literals against that set.  A round joins a rule only through
pivots whose predicate gained atoms in the previous round, each probed
through a per-round argument index, and plain ground facts bypass the
join altogether (see ``docs/performance.md``).  Constraints, weak
constraints and ``#minimize`` statements do not derive atoms, so they
are instantiated in a final pass over the complete atom set; aggregate
elements are likewise grounded at the end so no late-arriving elements
are missed.

Standard ASP safety is enforced: every variable of a rule must occur in a
positive body literal (or be bound through an ``=`` comparison against a
bindable term).

Observability: after :meth:`Grounder.ground` returns, the
:attr:`Grounder.statistics` mapping holds the grounding counts (ground
rules, possible atoms, rule instantiations, semi-naive rounds, weak
constraints).  Pass ``trace=`` a
:class:`~repro.observability.TraceSink` to stream one
``grounder.round`` event per fixpoint round plus a final
``grounder.done`` summary.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import syntax
from .ground import (
    GroundAggregate,
    GroundAggregateElement,
    GroundChoice,
    GroundProgram,
    GroundRule,
    GroundWeakConstraint,
    RuleOrigin,
)
from .syntax import (
    Aggregate,
    Atom,
    Choice,
    Comparison,
    Literal,
    Program,
    Rule,
)
from .terms import (
    BinaryOperation,
    Function,
    Interval,
    Number,
    String,
    Symbol,
    Term,
    TermError,
    UnaryMinus,
    Variable,
    compare,
    evaluate,
    match_inplace,
)


class GroundingError(Exception):
    """Raised for unsafe rules or non-integer guards."""


Binding = Dict[Variable, Term]


def _substitute_consts(
    term: Term,
    consts: Dict[str, Term],
    construct: str,
    expands: bool = False,
    parent: Optional[object] = None,
) -> Term:
    """``term`` with each ``#const`` name replaced by its value.

    An interval value stands only where a written interval expands: as
    the whole of ``term`` when ``expands`` (an argument of a head or
    choice-element atom, a comparison side).  Anywhere else it raises a
    :class:`GroundingError` that names the constant, the term around it
    (``parent``) and ``construct``, as the parser does for a written
    interval.
    """
    if isinstance(term, Symbol) and term.name in consts:
        value = consts[term.name]
        if isinstance(value, Interval) and not expands:
            nested = "" if parent is None else " nested in %s" % parent
            raise GroundingError(
                "interval #const %s = %s%s in %s does not expand; bind a "
                "variable instead, as in X = %s"
                % (term.name, value, nested, construct, term.name)
            )
        return value
    if isinstance(term, Function) and term.arguments:
        return Function(
            term.name,
            tuple(
                _substitute_consts(a, consts, construct, parent=term)
                for a in term.arguments
            ),
        )
    if isinstance(term, BinaryOperation):
        return BinaryOperation(
            term.operator,
            _substitute_consts(term.left, consts, construct, parent=term),
            _substitute_consts(term.right, consts, construct, parent=term),
        )
    if isinstance(term, UnaryMinus):
        return UnaryMinus(
            _substitute_consts(term.operand, consts, construct, parent=term)
        )
    if isinstance(term, Interval):
        return Interval(
            _substitute_consts(term.low, consts, construct, parent=term),
            _substitute_consts(term.high, consts, construct, parent=term),
        )
    return term


def _resolve_consts(written: Dict[str, Term]) -> Dict[str, Term]:
    """Every ``#const`` value with the constants it names substituted,
    whatever the definition order: ``#const m = n+1. #const n = 2.``
    gives ``m = 2+1``.  A cycle raises :class:`GroundingError` naming
    its constants."""
    resolved: Dict[str, Term] = {}
    open_names: List[str] = []

    class Values(dict):
        # _substitute_consts reads a value through [], so each value is
        # resolved the first time it is read, depth first
        def __getitem__(self, name: str) -> Term:
            if name in open_names:
                cycle = open_names[open_names.index(name):] + [name]
                raise GroundingError(
                    "cyclic #const definitions: %s" % " -> ".join(cycle)
                )
            if name not in resolved:
                open_names.append(name)
                resolved[name] = _substitute_consts(
                    written[name], self, "#const %s" % name, expands=True
                )
                open_names.pop()
            return resolved[name]

    values = Values(written)
    for name in written:
        values[name]
    return resolved


def _expand_ground_args(arguments: Sequence[Term]) -> Iterator[Tuple[Term, ...]]:
    """Evaluate argument terms, expanding intervals into alternatives."""
    choices: List[List[Term]] = []
    for argument in arguments:
        if isinstance(argument, Interval):
            choices.append(list(argument.expand()))
        else:
            choices.append([evaluate(argument)])
    yield from itertools.product(*choices)


class _PredicateExtension:
    """All derived atoms of one predicate signature, four ways at once.

    ``atoms`` is the full extension in derivation order; ``rounds[r]`` is
    the semi-naive delta — exactly the atoms first derived in round ``r``;
    ``index`` maps ``(argument position, ground term)`` to the atoms
    carrying that term there, so a join candidate lookup with any bound
    pattern argument touches only the matching bucket instead of the
    whole extension; ``delta_index[r]`` is the same index over
    ``rounds[r]``, so a semi-naive pivot with a bound argument touches
    only its bucket of the delta.  Every bucket keeps derivation order.
    A round joins only the previous round's delta, so the grounder drops
    the older ones as rounds advance (:meth:`Grounder._next_round`).
    """

    __slots__ = ("atoms", "rounds", "index", "delta_index")

    def __init__(self) -> None:
        self.atoms: List[Atom] = []
        self.rounds: Dict[int, List[Atom]] = {}
        self.index: Dict[Tuple[int, Term], List[Atom]] = {}
        self.delta_index: Dict[int, Dict[Tuple[int, Term], List[Atom]]] = {}

    def add(self, atom: Atom, round_number: int) -> None:
        self.atoms.append(atom)
        delta = self.rounds.get(round_number)
        if delta is None:
            delta = self.rounds[round_number] = []
            self.delta_index[round_number] = {}
        delta.append(atom)
        for index in (self.index, self.delta_index[round_number]):
            for position, argument in enumerate(atom.arguments):
                key = (position, argument)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [atom]
                else:
                    bucket.append(atom)


class Grounder:
    """Grounds one :class:`Program` into a :class:`GroundProgram`.

    ``indexing=False`` selects the naive reference join — first-ready
    literal order, full extension and delta scans, every pivot joined in
    every round and facts instantiated like any rule — kept as the
    differential baseline for the indexed fast path (see
    ``tests/asp/test_grounder_differential.py``).  Both modes produce the
    same ground program up to rule order.
    """

    def __init__(
        self,
        program: Program,
        trace: Optional[object] = None,
        indexing: bool = True,
        provenance: bool = False,
    ):
        from ..observability import NULL_SINK, Tracer

        self._program = program
        #: None when provenance is off — the recording sites then cost
        #: one identity check per instance, mirroring the spans fast path
        self._origins: Optional[List[RuleOrigin]] = [] if provenance else None
        self._consts = _resolve_consts(program.consts)
        self._extensions: Dict[Tuple[str, int], _PredicateExtension] = {}
        self._atom_set: Set[Atom] = set()
        self._certain: Set[Atom] = set()
        self._round = 0
        self._indexing = indexing
        self._index_hits = 0
        self._index_scans = 0
        self._index_delta_hits = 0
        self._trace = trace if trace is not None else NULL_SINK
        self._tracer = Tracer(self._trace)
        #: grounding counts, populated by :meth:`ground`
        self.statistics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def ground(self) -> GroundProgram:
        """Ground the program inside a ``grounder.ground`` span."""
        with self._tracer.span("grounder.ground") as span:
            ground = self._ground()
            span.update(
                rules=self.statistics.get("rules", 0),
                rounds=self.statistics.get("rounds", 0),
            )
        return ground

    def _ground(self) -> GroundProgram:
        derivation_rules = []
        final_rules = []  # constraints: no head, derive nothing
        for rule in self._program.rules:
            rule = self._apply_consts(rule)
            _check_safety(rule)
            if rule.head is None:
                final_rules.append(rule)
            else:
                derivation_rules.append(rule)

        # Keyed ground instances: (rule_index, frozen binding) -> instance.
        # A plain fact's binding is None: it has nothing to bind or lower.
        instances: Dict[Tuple[int, Tuple], Tuple[Rule, Optional[Binding]]] = {}
        # the semi-naive pivots of each rule: (body position, signature)
        pivots = [
            [
                (position, element.atom.signature)
                for position, element in enumerate(rule.body)
                if isinstance(element, Literal) and not element.negated
            ]
            for rule in derivation_rules
        ]

        self._round = 0
        new_atoms: List[Atom] = []
        # round 0: instantiate every derivation rule against the empty set
        for index, rule in enumerate(derivation_rules):
            if self._indexing and _is_plain_fact(rule):
                # its head is its only ground instance, certain and in
                # lowered form already; it never pivots a later round
                instances[(index, ())] = (rule, None)
                new_atoms.extend(self._add_atom(rule.head))
                self._certain.add(rule.head)
                continue
            for binding in self._solve_body(rule.body, pivot=None):
                key = self._instance_key(index, rule, binding)
                if key not in instances:
                    instances[key] = (rule, binding)
                    new_atoms.extend(self._register_heads(rule, binding))
        while True:
            while new_atoms:
                self._next_round()
                previous_round = self._round - 1
                # a pivot can only match atoms its predicate gained in the
                # previous round: the indexed mode skips the others unjoined
                fresh = {atom.signature for atom in new_atoms}
                round_new: List[Atom] = []
                for index, rule in enumerate(derivation_rules):
                    seen_bindings: Set[Tuple] = set()
                    for pivot, signature in pivots[index]:
                        if self._indexing and signature not in fresh:
                            continue
                        for binding in self._solve_body(
                            rule.body, pivot=pivot, pivot_round=previous_round
                        ):
                            key = self._instance_key(index, rule, binding)
                            if key in instances or key[1] in seen_bindings:
                                continue
                            seen_bindings.add(key[1])
                            instances[key] = (rule, binding)
                            round_new.extend(
                                self._register_heads(rule, binding)
                            )
                self._trace.emit(
                    "grounder.round",
                    round=self._round,
                    new_atoms=len(round_new),
                    instances=len(instances),
                )
                new_atoms = round_new
            # Choice-element conditions are joined inside the head, so a
            # new condition atom never pivots the semi-naive loop above.
            # Re-register every choice instance against the now-complete
            # atom set; resume the fixpoint if that surfaced new atoms.
            self._next_round()
            reregistered: List[Atom] = []
            for rule, binding in instances.values():
                if isinstance(rule.head, Choice):
                    reregistered.extend(self._register_heads(rule, binding))
            if not reregistered:
                break
            new_atoms = reregistered

        ground = GroundProgram()
        ground.shows = [(s.predicate, s.arity) for s in self._program.shows]
        origins = self._origins
        # Lower every recorded instance now that the atom set is complete.
        for rule, binding in instances.values():
            if binding is None:
                ground.rules.append(GroundRule(rule.head))
                if origins is not None:
                    origins.append(RuleOrigin(rule, ()))
                continue
            lowered = self._lower_rule(rule, binding)
            ground.rules.extend(lowered)
            if origins is not None and lowered:
                origins.extend([_origin_of(rule, binding)] * len(lowered))
        # Constraints over the final atom set.
        for rule in final_rules:
            for binding in self._solve_body(rule.body, pivot=None):
                lowered = self._lower_rule(rule, binding)
                ground.rules.extend(lowered)
                if origins is not None and lowered:
                    origins.extend([_origin_of(rule, binding)] * len(lowered))
        # Weak constraints and #minimize statements.
        for weak in self._program.weak_constraints:
            weak = self._apply_consts_weak(weak)
            _check_safety(weak)
            for binding in self._solve_body(weak.body, pivot=None):
                lowered = self._lower_weak(weak, binding)
                if lowered is not None:
                    ground.weak_constraints.append(lowered)
        for statement in self._program.minimize:
            for element in statement.elements:
                element = self._apply_consts_minimize(element)
                _check_safety(element)
                for binding in self._solve_body(element.condition, pivot=None):
                    lowered = self._lower_minimize(element, binding)
                    if lowered is not None:
                        ground.weak_constraints.append(lowered)
        ground.possible_atoms = sorted(
            self._atom_set, key=lambda atom: (atom.predicate, _atom_key(atom))
        )
        rules_before_simplify = len(ground.rules)
        ground.rules, ground.origins = self._simplify(ground.rules, origins)
        self.statistics = {
            "rules_nonground": len(self._program.rules),
            "rules": len(ground.rules),
            "rules_simplified_away": rules_before_simplify - len(ground.rules),
            "atoms": len(self._atom_set),
            "certain_atoms": len(self._certain),
            "instantiations": len(instances),
            "rounds": self._round,
            "weak_constraints": len(ground.weak_constraints),
            "index": {
                "hits": self._index_hits,
                "scans": self._index_scans,
                "delta_hits": self._index_delta_hits,
            },
        }
        if ground.origins is not None:
            self.statistics["provenance_rules"] = len(ground.origins)
        self._trace.emit("grounder.done", **self.statistics)
        return ground

    # ------------------------------------------------------------------
    # const substitution
    # ------------------------------------------------------------------
    def _apply_consts(self, rule: Rule) -> Rule:
        if not self._consts:
            return rule
        head = rule.head
        if isinstance(head, Atom):
            head = self._const_atom(head, "a rule head", expands=True)
        elif isinstance(head, Choice):
            head = Choice(
                tuple(
                    syntax.ChoiceElement(
                        self._const_atom(
                            element.atom, "a choice element", expands=True
                        ),
                        tuple(
                            self._const_literal(l, "a choice condition")
                            for l in element.condition
                        ),
                    )
                    for element in head.elements
                ),
                self._const(head.lower, "a choice bound"),
                self._const(head.upper, "a choice bound"),
            )
        body = tuple(self._const_body_element(e) for e in rule.body)
        return Rule(head, body)

    def _const(
        self, term: Optional[Term], construct: str, expands: bool = False
    ) -> Optional[Term]:
        """``term`` (or None) with the ``#const`` values substituted."""
        if term is None:
            return None
        return _substitute_consts(term, self._consts, construct, expands)

    def _const_atom(self, atom: Atom, construct: str, expands: bool = False) -> Atom:
        return Atom(
            atom.predicate,
            tuple(
                _substitute_consts(a, self._consts, construct, expands, atom)
                for a in atom.arguments
            ),
        )

    def _const_literal(self, literal: Literal, construct: str) -> Literal:
        return Literal(self._const_atom(literal.atom, construct), literal.negated)

    def _const_body_element(self, element: object) -> object:
        if isinstance(element, Literal):
            return self._const_literal(element, "a body literal")
        if isinstance(element, Comparison):
            return Comparison(
                element.operator,
                self._const(element.left, "a comparison", expands=True),
                self._const(element.right, "a comparison", expands=True),
            )
        if isinstance(element, Aggregate):
            return replace(
                element,
                elements=tuple(
                    syntax.AggregateElement(
                        tuple(self._const(t, "an aggregate element") for t in e.terms),
                        tuple(
                            self._const_literal(l, "an aggregate element")
                            for l in e.condition
                        ),
                    )
                    for e in element.elements
                ),
                lower=self._const(element.lower, "an aggregate guard"),
                upper=self._const(element.upper, "an aggregate guard"),
            )
        return element

    def _apply_consts_weak(self, weak: syntax.WeakConstraint) -> syntax.WeakConstraint:
        if not self._consts:
            return weak
        return syntax.WeakConstraint(
            tuple(self._const_body_element(e) for e in weak.body),
            self._const(weak.weight, "a weak constraint"),
            self._const(weak.priority, "a weak constraint"),
            tuple(self._const(t, "a weak constraint") for t in weak.terms),
        )

    def _apply_consts_minimize(
        self, element: syntax.MinimizeElement
    ) -> syntax.MinimizeElement:
        if not self._consts:
            return element
        return syntax.MinimizeElement(
            self._const(element.weight, "#minimize"),
            self._const(element.priority, "#minimize"),
            tuple(self._const(t, "#minimize") for t in element.terms),
            tuple(self._const_body_element(e) for e in element.condition),
        )

    # ------------------------------------------------------------------
    # body solving (the join)
    # ------------------------------------------------------------------
    def _solve_body(
        self,
        body: Sequence[object],
        pivot: Optional[int],
        pivot_round: Optional[int] = None,
    ) -> Iterator[Binding]:
        """Yield every binding satisfying the instantiable body parts.

        Negated literals and aggregates are *not* decided here: they are
        carried into the ground rule.  ``pivot`` restricts one positive
        literal to atoms first derived in ``pivot_round`` (semi-naive).
        """
        elements = list(enumerate(body))
        yield from self._join(elements, {}, pivot, pivot_round)

    def _join(
        self,
        elements: List[Tuple[int, object]],
        binding: Binding,
        pivot: Optional[int],
        pivot_round: Optional[int],
    ) -> Iterator[Binding]:
        if not elements:
            yield binding
            return
        choice = self._select_element(elements, binding, pivot, pivot_round)
        if choice is None:
            deferred = [e for _, e in elements if self._is_deferred(e, binding)]
            if len(deferred) == len(elements):
                # everything left is negation/aggregates with bound vars
                yield binding
                return
            raise GroundingError(
                "unsafe rule: cannot bind variables in %s"
                % ", ".join(str(e) for _, e in elements)
            )
        index, pattern, candidates = choice
        _, element = elements[index]
        rest = elements[:index] + elements[index + 1 :]
        if pattern is not None:
            pattern_args = pattern.arguments
            for atom in candidates:
                extended = dict(binding)
                atom_args = atom.arguments
                matched = True
                for argument_index, pattern_arg in enumerate(pattern_args):
                    if not match_inplace(
                        pattern_arg, atom_args[argument_index], extended
                    ):
                        matched = False
                        break
                if matched:
                    yield from self._join(rest, extended, pivot, pivot_round)
            return
        if isinstance(element, Comparison):
            yield from self._solve_comparison(
                element, rest, binding, pivot, pivot_round
            )
            return
        raise GroundingError("unexpected body element %r" % (element,))

    def _is_deferred(self, element: object, binding: Binding) -> bool:
        if isinstance(element, Literal) and element.negated:
            substituted = element.atom.substitute(binding)
            if not substituted.is_ground():
                raise GroundingError(
                    "unsafe rule: unbound variable in negated literal %s"
                    % element
                )
            return True
        if isinstance(element, Aggregate):
            for variable in element.variables():
                if variable not in binding:
                    raise GroundingError(
                        "unsafe rule: unbound guard variable in aggregate %s"
                        % element
                    )
            return True
        return False

    def _select_element(
        self,
        elements: List[Tuple[int, object]],
        binding: Binding,
        pivot: Optional[int],
        pivot_round: Optional[int],
    ) -> Optional[Tuple[int, Optional[Atom], Sequence[Atom]]]:
        """Pick the next body element to instantiate.

        Returns ``(element index, substituted pattern, candidate atoms)``
        for a positive literal, ``(element index, None, ())`` for a
        comparison, or ``None`` when nothing is ready.

        Indexed mode is selectivity-aware: fully ground comparisons go
        first (free pruning, zero branching), then the ready positive
        literal with the *smallest* candidate extension (looked up via
        the argument index), then binding ``=`` comparisons.  The pivot
        is ranked by its whole delta and narrowed through the delta
        index only once it is picked, so the narrowing never reorders
        the join: the bindings and their order stay those of a scan of
        the whole delta.  Naive mode keeps the historical first-ready
        order as the reference.
        """
        if not self._indexing:
            for index, (position, element) in enumerate(elements):
                if (
                    isinstance(element, Literal)
                    and not element.negated
                    and self._literal_ready(element, binding)
                ):
                    pattern = element.atom.substitute(binding)
                    restrict = pivot_round if position == pivot else None
                    return (index, pattern, self._candidate_atoms(pattern, restrict))
            for index, (_, element) in enumerate(elements):
                if isinstance(element, Comparison) and self._comparison_ready(
                    element, binding
                ):
                    return (index, None, ())
            return None
        best: Optional[Tuple[int, int, Atom, Optional[Sequence[Atom]]]] = None
        binder: Optional[int] = None
        for index, (position, element) in enumerate(elements):
            if isinstance(element, Literal):
                if element.negated or not self._literal_ready(element, binding):
                    continue
                pattern = element.atom.substitute(binding)
                candidates: Optional[Sequence[Atom]]
                if position == pivot:
                    candidates = None  # narrowed below if picked
                    size = len(self._delta(pattern, pivot_round))
                else:
                    candidates = self._candidate_atoms(pattern, None)
                    size = len(candidates)
                if best is None or size < best[0]:
                    best = (size, index, pattern, candidates)
                    if size == 0:
                        break
            elif isinstance(element, Comparison):
                left = element.left.substitute(binding)
                right = element.right.substitute(binding)
                if left.is_ground() and right.is_ground():
                    # a pure filter: always take it before branching
                    return (index, None, ())
                if binder is None and element.operator == "=":
                    if (isinstance(left, Variable) and right.is_ground()) or (
                        isinstance(right, Variable) and left.is_ground()
                    ):
                        binder = index
        if best is not None:
            _, index, pattern, candidates = best
            if candidates is None:
                candidates = self._candidate_atoms(pattern, pivot_round)
            return (index, pattern, candidates)
        if binder is not None:
            return (binder, None, ())
        return None

    def _literal_ready(self, literal: Literal, binding: Binding) -> bool:
        """A positive literal can be joined once any arithmetic inside it
        no longer contains unbound variables (plain variables are fine —
        they bind during the match)."""
        for argument in literal.atom.arguments:
            if not _arithmetic_bound(argument.substitute(binding)):
                return False
        return True

    def _comparison_ready(self, comparison: Comparison, binding: Binding) -> bool:
        left = comparison.left.substitute(binding)
        right = comparison.right.substitute(binding)
        if left.is_ground() and right.is_ground():
            return True
        if comparison.operator == "=":
            if isinstance(left, Variable) and right.is_ground():
                return True
            if isinstance(right, Variable) and left.is_ground():
                return True
        return False

    def _solve_comparison(
        self,
        comparison: Comparison,
        rest: List[Tuple[int, object]],
        binding: Binding,
        pivot: Optional[int],
        pivot_round: Optional[int],
    ) -> Iterator[Binding]:
        left = comparison.left.substitute(binding)
        right = comparison.right.substitute(binding)
        if left.is_ground() and right.is_ground():
            if self._test_comparison(comparison.operator, left, right):
                yield from self._join(rest, binding, pivot, pivot_round)
            return
        # binding assignment through `=`
        if comparison.operator == "=":
            variable: Optional[Variable] = None
            value_term: Optional[Term] = None
            if isinstance(left, Variable) and right.is_ground():
                variable, value_term = left, right
            elif isinstance(right, Variable) and left.is_ground():
                variable, value_term = right, left
            if variable is not None and value_term is not None:
                values: Iterable[Term]
                if isinstance(value_term, Interval):
                    values = value_term.expand()
                else:
                    values = (evaluate(value_term),)
                for value in values:
                    extended = dict(binding)
                    extended[variable] = value
                    yield from self._join(rest, extended, pivot, pivot_round)
                return
        raise GroundingError("cannot solve comparison %s" % comparison)

    def _test_comparison(self, operator: str, left: Term, right: Term) -> bool:
        if isinstance(left, Interval) or isinstance(right, Interval):
            if operator == "=" and isinstance(right, Interval):
                left_value = evaluate(left)
                return any(left_value == value for value in right.expand())
            raise GroundingError("interval in unsupported comparison position")
        try:
            relation = compare(left, right)
        except TermError as error:
            raise GroundingError(str(error)) from None
        if operator == "=":
            return relation == 0
        if operator == "!=":
            return relation != 0
        if operator == "<":
            return relation < 0
        if operator == "<=":
            return relation <= 0
        if operator == ">":
            return relation > 0
        if operator == ">=":
            return relation >= 0
        raise GroundingError("unknown comparison operator %r" % operator)

    def _next_round(self) -> None:
        """Start the next round.  It joins only the previous round's
        delta, so every extension drops the deltas older than that."""
        self._round += 1
        for extension in self._extensions.values():
            extension.rounds.pop(self._round - 2, None)
            extension.delta_index.pop(self._round - 2, None)

    def _delta(self, pattern: Atom, round_number: int) -> Sequence[Atom]:
        """The atoms of ``pattern``'s predicate first derived in
        ``round_number`` (the semi-naive delta)."""
        extension = self._extensions.get(pattern.signature)
        if extension is None:
            return ()
        return extension.rounds.get(round_number, ())

    def _candidate_atoms(
        self, pattern: Atom, restrict_round: Optional[int]
    ) -> Sequence[Atom]:
        """Candidate atoms for a (partially bound) pattern, without copying.

        The returned sequence is owned by the extension and must not be
        mutated.  The argument index narrows the scan to the smallest
        bucket keyed by a ground pattern argument: of the whole extension,
        or with a round restriction of that round's delta.  The naive
        reference mode always scans the whole extension or delta.
        """
        extension = self._extensions.get(pattern.signature)
        if extension is None:
            return ()
        if restrict_round is not None:
            self._index_delta_hits += 1
            delta = self._delta(pattern, restrict_round)
            if not (self._indexing and delta):
                return delta
            bucket = _narrowest(pattern, extension.delta_index[restrict_round])
            return delta if bucket is None else bucket
        if self._indexing and pattern.arguments and not pattern.is_ground():
            bucket = _narrowest(pattern, extension.index)
            if bucket is not None:
                self._index_hits += 1
                return bucket
        elif self._indexing and pattern.is_ground() and pattern.arguments:
            # fully bound pattern: a membership probe, no scan at all
            try:
                probe = Atom(
                    pattern.predicate,
                    tuple(evaluate(a) for a in pattern.arguments),
                )
            except TermError:
                probe = None
            if probe is not None:
                self._index_hits += 1
                return (probe,) if probe in self._atom_set else ()
        self._index_scans += 1
        return extension.atoms

    # ------------------------------------------------------------------
    # head registration (possible atoms)
    # ------------------------------------------------------------------
    def _register_heads(self, rule: Rule, binding: Binding) -> List[Atom]:
        new_atoms: List[Atom] = []
        head = rule.head
        if isinstance(head, Atom):
            substituted = head.substitute(binding)
            if not substituted.is_ground():
                raise GroundingError("unsafe rule: unbound head %s" % head)
            for arguments in _expand_ground_args(substituted.arguments):
                new_atoms.extend(self._add_atom(Atom(head.predicate, arguments)))
            # certain-atom tracking for definite rules
            if not any(
                (isinstance(e, Literal) and e.negated) or isinstance(e, Aggregate)
                for e in rule.body
            ):
                body_certain = all(
                    e.atom.substitute(binding) in self._certain
                    for e in rule.body
                    if isinstance(e, Literal) and not e.negated
                )
                if body_certain:
                    for arguments in _expand_ground_args(substituted.arguments):
                        self._certain.add(Atom(head.predicate, arguments))
        elif isinstance(head, Choice):
            for element in head.elements:
                for condition_binding in self._join(
                    list(enumerate(element.condition)), dict(binding), None, None
                ):
                    substituted = element.atom.substitute(condition_binding)
                    if not substituted.is_ground():
                        raise GroundingError(
                            "unsafe choice element %s" % element.atom
                        )
                    for arguments in _expand_ground_args(substituted.arguments):
                        new_atoms.extend(
                            self._add_atom(Atom(element.atom.predicate, arguments))
                        )
        return new_atoms

    def _add_atom(self, atom: Atom) -> List[Atom]:
        if atom in self._atom_set:
            return []
        self._atom_set.add(atom)
        extension = self._extensions.get(atom.signature)
        if extension is None:
            extension = _PredicateExtension()
            self._extensions[atom.signature] = extension
        extension.add(atom, self._round)
        return [atom]

    # ------------------------------------------------------------------
    # lowering instances to ground rules
    # ------------------------------------------------------------------
    def _lower_rule(self, rule: Rule, binding: Binding) -> List[GroundRule]:
        pos, neg, aggregates = self._lower_body(rule.body, binding)
        if pos is None:
            return []
        head = rule.head
        if head is None:
            return [GroundRule(None, pos, neg, aggregates)]
        if isinstance(head, Atom):
            substituted = head.substitute(binding)
            rules = []
            for arguments in _expand_ground_args(substituted.arguments):
                rules.append(
                    GroundRule(Atom(head.predicate, arguments), pos, neg, aggregates)
                )
            return rules
        if isinstance(head, Choice):
            elements: List[Tuple[Atom, Tuple[Atom, ...], Tuple[Atom, ...]]] = []
            seen: Set[Tuple] = set()
            for element in head.elements:
                for condition_binding in self._join(
                    list(enumerate(element.condition)), dict(binding), None, None
                ):
                    condition_pos, condition_neg, _ = self._lower_body(
                        element.condition, condition_binding
                    )
                    if condition_pos is None:
                        continue
                    substituted = element.atom.substitute(condition_binding)
                    for arguments in _expand_ground_args(substituted.arguments):
                        entry = (
                            Atom(element.atom.predicate, arguments),
                            condition_pos,
                            condition_neg,
                        )
                        key = (entry[0], condition_pos, condition_neg)
                        if key not in seen:
                            seen.add(key)
                            elements.append(entry)
            lower = self._bound_value(head.lower, binding)
            upper = self._bound_value(head.upper, binding)
            choice = GroundChoice(tuple(elements), lower, upper)
            return [GroundRule(choice, pos, neg, aggregates)]
        raise GroundingError("unknown head type %r" % (head,))

    def _bound_value(self, bound: Optional[Term], binding: Binding) -> Optional[int]:
        if bound is None:
            return None
        value = evaluate(bound.substitute(binding))
        if not isinstance(value, Number):
            raise GroundingError("bound %s is not an integer" % value)
        return value.value

    def _lower_body(
        self, body: Sequence[object], binding: Binding
    ) -> Tuple[Optional[Tuple[Atom, ...]], Tuple[Atom, ...], Tuple[GroundAggregate, ...]]:
        """Lower a body under a complete binding.

        Returns ``(None, (), ())`` when the body is statically false
        (e.g. a failed comparison).
        """
        pos: List[Atom] = []
        neg: List[Atom] = []
        aggregates: List[GroundAggregate] = []
        for element in body:
            if isinstance(element, Literal):
                atom = element.atom.substitute(binding)
                arguments = tuple(evaluate(a) for a in atom.arguments)
                ground_atom = Atom(atom.predicate, arguments)
                if element.negated:
                    neg.append(ground_atom)
                else:
                    pos.append(ground_atom)
            elif isinstance(element, Comparison):
                left = element.left.substitute(binding)
                right = element.right.substitute(binding)
                if not self._test_comparison(element.operator, left, right):
                    return None, (), ()
            elif isinstance(element, Aggregate):
                aggregates.append(self._lower_aggregate(element, binding))
            else:
                raise GroundingError("unexpected body element %r" % (element,))
        return tuple(pos), tuple(neg), tuple(aggregates)

    def _lower_aggregate(
        self, aggregate: Aggregate, binding: Binding
    ) -> GroundAggregate:
        elements: List[GroundAggregateElement] = []
        seen: Set[Tuple] = set()
        for element in aggregate.elements:
            for condition_binding in self._join(
                list(enumerate(element.condition)), dict(binding), None, None
            ):
                condition_pos, condition_neg, _ = self._lower_body(
                    element.condition, condition_binding
                )
                if condition_pos is None:
                    continue
                terms = tuple(
                    evaluate(t.substitute(condition_binding)) for t in element.terms
                )
                key = (terms, condition_pos, condition_neg)
                if key in seen:
                    continue
                seen.add(key)
                elements.append(
                    GroundAggregateElement(terms, condition_pos, condition_neg)
                )
        lower = self._bound_value(aggregate.lower, binding)
        upper = self._bound_value(aggregate.upper, binding)
        return GroundAggregate(
            aggregate.function, tuple(elements), lower, upper, aggregate.negated
        )

    def _lower_weak(
        self, weak: syntax.WeakConstraint, binding: Binding
    ) -> Optional[GroundWeakConstraint]:
        pos, neg, aggregates = self._lower_body(weak.body, binding)
        if pos is None:
            return None
        if aggregates:
            raise GroundingError("aggregates in weak constraints are unsupported")
        weight = evaluate(weak.weight.substitute(binding))
        priority = evaluate(weak.priority.substitute(binding))
        if not isinstance(weight, Number) or not isinstance(priority, Number):
            raise GroundingError("weak constraint weight/priority must be integers")
        terms = tuple(evaluate(t.substitute(binding)) for t in weak.terms)
        return GroundWeakConstraint(pos, neg, weight.value, priority.value, terms)

    def _lower_minimize(
        self, element: syntax.MinimizeElement, binding: Binding
    ) -> Optional[GroundWeakConstraint]:
        pos, neg, aggregates = self._lower_body(element.condition, binding)
        if pos is None:
            return None
        if aggregates:
            raise GroundingError("aggregates in #minimize are unsupported")
        weight = evaluate(element.weight.substitute(binding))
        priority = evaluate(element.priority.substitute(binding))
        if not isinstance(weight, Number) or not isinstance(priority, Number):
            raise GroundingError("#minimize weight/priority must be integers")
        terms = tuple(evaluate(t.substitute(binding)) for t in element.terms)
        return GroundWeakConstraint(pos, neg, weight.value, priority.value, terms)

    # ------------------------------------------------------------------
    # final simplification
    # ------------------------------------------------------------------
    def _simplify(
        self,
        rules: List[GroundRule],
        origins: Optional[List[RuleOrigin]] = None,
    ) -> Tuple[List[GroundRule], Optional[List[RuleOrigin]]]:
        simplified: List[GroundRule] = []
        kept: Optional[List[RuleOrigin]] = None if origins is None else []
        for index, rule in enumerate(rules):
            # `not a` where a can never hold is trivially true: drop literal
            neg = tuple(a for a in rule.neg if a in self._atom_set)
            # `not a` where a is certainly true: body is false, drop rule
            if any(a in self._certain for a in neg):
                continue
            # positive literal on an impossible atom: body false, drop rule
            if any(a not in self._atom_set for a in rule.pos):
                continue
            simplified.append(
                GroundRule(rule.head, rule.pos, neg, rule.aggregates)
            )
            if kept is not None:
                kept.append(origins[index])
        return simplified, kept

    def _instance_key(self, index: int, rule: Rule, binding: Binding) -> Tuple:
        items = tuple(
            sorted(
                ((var.name, value) for var, value in binding.items()),
                key=lambda pair: pair[0],
            )
        )
        return (index, items)


def _origin_of(rule: Rule, binding: Binding) -> RuleOrigin:
    """Freeze one instantiation into a structural :class:`RuleOrigin`."""
    items = tuple(
        sorted(
            ((var.name, value) for var, value in binding.items()),
            key=lambda pair: pair[0],
        )
    )
    return RuleOrigin(rule, items)


def _narrowest(
    pattern: Atom, index: Dict[Tuple[int, Term], List[Atom]]
) -> Optional[Sequence[Atom]]:
    """The smallest ``index`` bucket keyed by a ground argument of
    ``pattern``: ``()`` when one such key has no bucket, ``None`` when no
    argument can serve as a key."""
    best: Optional[List[Atom]] = None
    for position, argument in enumerate(pattern.arguments):
        if not argument.is_ground():
            continue
        try:
            key_term = evaluate(argument)
        except TermError:
            # intervals and the like: matched positionally later
            continue
        bucket = index.get((position, key_term))
        if bucket is None:
            return ()
        if best is None or len(bucket) < len(best):
            best = bucket
    return best


def _is_plain_fact(rule: Rule) -> bool:
    """True for a bodiless rule whose head is already a ground atom in
    evaluated form: no variable, no arithmetic and no interval."""
    return (
        not rule.body
        and isinstance(rule.head, Atom)
        and all(_is_value(argument) for argument in rule.head.arguments)
    )


def _is_value(term: Term) -> bool:
    """True when ``term`` evaluates to itself."""
    if isinstance(term, (Number, Symbol, String)):
        return True
    if isinstance(term, Function):
        return all(_is_value(argument) for argument in term.arguments)
    return False


def _arithmetic_bound(term: Term) -> bool:
    """True when no arithmetic subterm of ``term`` contains a variable."""
    if isinstance(term, (BinaryOperation, UnaryMinus, Interval)):
        return term.is_ground()
    if isinstance(term, Function):
        return all(_arithmetic_bound(argument) for argument in term.arguments)
    return True


def _binding_vars(term: Term) -> Set[Variable]:
    """Variables a term can *bind* when matched (not under arithmetic)."""
    if isinstance(term, Variable):
        return {term}
    if isinstance(term, Function):
        bound: Set[Variable] = set()
        for argument in term.arguments:
            bound |= _binding_vars(argument)
        return bound
    return set()


def _check_safety(
    rule: Rule | syntax.WeakConstraint | syntax.MinimizeElement,
) -> None:
    """Static ASP safety: every rule variable must be bindable.

    A variable is bindable if it occurs (outside arithmetic) in a positive
    body literal, or on one side of an ``=`` comparison whose other side
    only uses bindable variables (computed to fixpoint).  The weight,
    priority and terms of a weak constraint or ``#minimize`` element take
    the place of a head, and a ``#minimize`` element's condition that of
    a body.  An ``=`` aggregate guard binds nothing: clingo's aggregate
    assignment is not supported, and is refused by name.
    """
    minimize = isinstance(rule, syntax.MinimizeElement)
    body = rule.condition if minimize else rule.body
    bound: Set[Variable] = set()
    for element in body:
        if isinstance(element, Literal) and not element.negated:
            for argument in element.atom.arguments:
                bound |= _binding_vars(argument)
    assignments = [e for e in body if isinstance(e, Comparison) and e.operator == "="]
    changed = True
    while changed:
        changed = False
        for comparison in assignments:
            left_vars = set(comparison.left.variables())
            right_vars = set(comparison.right.variables())
            if right_vars <= bound:
                new = _binding_vars(comparison.left) - bound
                if new:
                    bound |= new
                    changed = True
            if left_vars <= bound:
                new = _binding_vars(comparison.right) - bound
                if new:
                    bound |= new
                    changed = True
    required: Set[Variable] = set()
    if isinstance(rule, (syntax.WeakConstraint, syntax.MinimizeElement)):
        for term in (rule.weight, rule.priority) + rule.terms:
            required |= set(term.variables())
    elif isinstance(rule.head, Atom):
        required |= set(rule.head.variables())
    elif isinstance(rule.head, Choice):
        # choice element conditions may bind local variables
        for element in rule.head.elements:
            local = set(bound)
            for literal in element.condition:
                if not literal.negated:
                    for argument in literal.atom.arguments:
                        local |= _binding_vars(argument)
            missing = set(element.atom.variables()) - local
            if missing:
                raise GroundingError(
                    "unsafe choice element %s: unbound %s"
                    % (element.atom, ", ".join(sorted(v.name for v in missing)))
                )
        if rule.head.lower is not None:
            required |= set(rule.head.lower.variables())
        if rule.head.upper is not None:
            required |= set(rule.head.upper.variables())
    for element in body:
        if isinstance(element, Literal) and element.negated:
            required |= set(element.atom.variables())
        elif isinstance(element, Comparison) and element.operator != "=":
            required |= set(element.variables())
        elif isinstance(element, Aggregate):
            unbound = set(element.variables()) - bound
            if unbound and element.equality and not element.negated:
                raise GroundingError(
                    "aggregate assignment is unsupported: %s does not bind "
                    "%s; bind it in a positive body literal first"
                    % (element, ", ".join(sorted(v.name for v in unbound)))
                )
            required |= set(element.variables())
    missing = required - bound
    if missing:
        raise GroundingError(
            "unsafe %s: unbound %s"
            % (
                "#minimize { %s }" % rule if minimize else "rule %s" % rule,
                ", ".join(sorted(v.name for v in missing)),
            )
        )


def _atom_key(atom: Atom) -> Tuple:
    return tuple(argument.sort_key() for argument in atom.arguments)


def ground_program(program: Program) -> GroundProgram:
    """Convenience wrapper: ground a parsed program."""
    return Grounder(program).ground()
