"""Telingo-style temporal ASP programs.

Telingo [Cabalar et al. 2019] extends ASP with linear temporal operators
by splitting a program into ``initial``, ``dynamic``, ``always`` and
``final`` parts and solving over a bounded horizon.  This module
reproduces that workflow on top of :mod:`repro.asp`:

* temporal rules are written in plain ASP; an atom ``p(args)`` refers to
  the current step, and ``prev_p(args)`` to the previous step — exactly
  the convention of the paper's Listing 2
  (``component_state(C,X) :- prev_component_state(C,X), ...``);
* the program is *unrolled*: every temporal atom receives an extra time
  argument and rules are guarded by step facts;
* LTLf requirements (:mod:`repro.temporal.ltl`) are compiled into
  satisfaction rules, so each answer set reports which requirements its
  trace violates — the EPA engine reads these ``__req_violated`` atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..asp import Control, parse_program
from ..asp import syntax
from ..asp.solver import Model
from ..asp.syntax import Aggregate, Atom, Choice, Comparison, Literal, Program, Rule
from ..asp.terms import BinaryOperation, Number, Symbol, Term, Variable
from .ltl import (
    And,
    Eventually,
    Formula,
    Globally,
    LtlError,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
    WeakNext,
    parse_ltl,
)

PREV_PREFIX = "prev_"
STEP_PREDICATE = "__step"
SAT_PREDICATE = "__sat"
REQ_SAT = "__req_sat"
REQ_VIOLATED = "__req_violated"

_TIME = Variable("__T")


class TemporalError(Exception):
    """Raised for malformed temporal programs."""


@dataclass(frozen=True)
class Requirement:
    """A named LTLf requirement attached to a temporal program."""

    name: str
    formula: Formula
    enforce: bool = False
    #: when ``enforce`` is set, traces violating the requirement are
    #: excluded from the answer sets instead of merely being flagged.


@dataclass
class TemporalModel:
    """An answer set of an unrolled temporal program, viewed as a trace."""

    model: Model
    horizon: int
    trace: List[Set[Atom]]
    requirement_status: Dict[str, bool]
    #: requirement name -> True when *violated*

    @property
    def violated_requirements(self) -> List[str]:
        return sorted(
            name for name, violated in self.requirement_status.items() if violated
        )

    def state(self, step: int) -> Set[Atom]:
        return self.trace[step]

    def holds(self, atom: Atom, step: int) -> bool:
        return atom in self.trace[step]

    def __str__(self) -> str:
        parts = []
        for step, state in enumerate(self.trace):
            atoms = " ".join(sorted(str(a) for a in state))
            parts.append("%d: %s" % (step, atoms))
        return "\n".join(parts)


class TemporalProgram:
    """Accumulate temporal rule parts, then unroll and solve."""

    def __init__(self) -> None:
        self._initial: List[str] = []
        self._dynamic: List[str] = []
        self._always: List[str] = []
        self._final: List[str] = []
        self._static: List[str] = []
        self._static_predicates: Set[str] = set()
        self._requirements: List[Requirement] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "TemporalProgram":
        """Parse a Telingo-style sectioned program.

        Sections are introduced by ``#program initial.``,
        ``#program dynamic.``, ``#program always.``, ``#program final.``
        or ``#program static.`` lines; text before the first marker is
        static.  This mirrors Telingo's input convention so a temporal
        model can live in one file.
        """
        program = cls()
        adders = {
            "initial": program.add_initial,
            "dynamic": program.add_dynamic,
            "always": program.add_always,
            "final": program.add_final,
            "static": program.add_static,
        }
        current = "static"
        buffer: List[str] = []

        def flush() -> None:
            chunk = "\n".join(buffer).strip()
            if chunk:
                adders[current](chunk)
            buffer.clear()

        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("#program"):
                name = (
                    stripped[len("#program"):].strip().rstrip(".").strip()
                )
                if name not in adders:
                    raise TemporalError(
                        "unknown #program section %r (expected one of %s)"
                        % (name, ", ".join(sorted(adders)))
                    )
                flush()
                current = name
                continue
            buffer.append(line)
        flush()
        return program

    def add_initial(self, text: str) -> None:
        """Rules holding only at step 0."""
        self._initial.append(text)

    def add_dynamic(self, text: str) -> None:
        """Rules holding at steps >= 1 (may reference ``prev_*`` atoms)."""
        self._dynamic.append(text)

    def add_always(self, text: str) -> None:
        """Rules holding at every step."""
        self._always.append(text)

    def add_final(self, text: str) -> None:
        """Rules holding only at the last step."""
        self._final.append(text)

    def add_static(self, text: str) -> None:
        """Non-temporal rules/facts (topology, libraries, costs...)."""
        self._static.append(text)
        for rule in parse_program(text).rules:
            if isinstance(rule.head, Atom):
                self._static_predicates.add(rule.head.predicate)
            elif isinstance(rule.head, Choice):
                for element in rule.head.elements:
                    self._static_predicates.add(element.atom.predicate)

    def declare_static(self, *predicates: str) -> None:
        """Mark predicates as time-independent in temporal parts."""
        self._static_predicates.update(predicates)

    def add_requirement(
        self,
        name: str,
        formula: Union[str, Formula],
        enforce: bool = False,
    ) -> None:
        """Attach a named LTLf requirement (textual or AST form)."""
        if isinstance(formula, str):
            formula = parse_ltl(formula)
        if any(req.name == name for req in self._requirements):
            raise TemporalError("duplicate requirement name %r" % name)
        self._requirements.append(Requirement(name, formula, enforce))

    @property
    def requirements(self) -> Tuple[Requirement, ...]:
        return tuple(self._requirements)

    # ------------------------------------------------------------------
    # unrolling
    # ------------------------------------------------------------------
    def unroll(self, horizon: int) -> Program:
        """Produce the plain ASP program for the given horizon."""
        if horizon < 0:
            raise TemporalError("horizon must be non-negative")
        unrolled = Program()
        for step in range(horizon + 1):
            unrolled.rules.append(
                Rule(Atom(STEP_PREDICATE, (Number(step),)), ())
            )
        for text in self._static:
            unrolled.extend(parse_program(text))
        temporal_predicates = self._collect_temporal_predicates()
        for text in self._initial:
            for rule in parse_program(text).rules:
                unrolled.rules.append(
                    self._transform_rule(rule, temporal_predicates, fixed=0)
                )
        for text in self._final:
            for rule in parse_program(text).rules:
                unrolled.rules.append(
                    self._transform_rule(rule, temporal_predicates, fixed=horizon)
                )
        for text in self._always:
            for rule in parse_program(text).rules:
                unrolled.rules.append(
                    self._transform_rule(rule, temporal_predicates, fixed=None)
                )
        for text in self._dynamic:
            for rule in parse_program(text).rules:
                unrolled.rules.append(
                    self._transform_rule(
                        rule, temporal_predicates, fixed=None, minimum=1
                    )
                )
        for index, requirement in enumerate(self._requirements):
            self._compile_requirement(
                unrolled, requirement, index, horizon, temporal_predicates
            )
        return unrolled

    def _collect_temporal_predicates(self) -> Set[str]:
        predicates: Set[str] = set()
        for text in self._initial + self._dynamic + self._always + self._final:
            program = parse_program(text)
            for rule in program.rules:
                for atom in _rule_atoms(rule):
                    name = atom.predicate
                    if name.startswith(PREV_PREFIX):
                        name = name[len(PREV_PREFIX):]
                    if name not in self._static_predicates:
                        predicates.add(name)
        return predicates

    def _time_term(self, fixed: Optional[int]) -> Term:
        return Number(fixed) if fixed is not None else _TIME

    def _transform_atom(
        self, atom: Atom, temporal: Set[str], time: Term, offset: int = 0
    ) -> Atom:
        predicate = atom.predicate
        if predicate.startswith(PREV_PREFIX):
            base = predicate[len(PREV_PREFIX):]
            if base in self._static_predicates:
                raise TemporalError(
                    "prev_ used on static predicate %r" % base
                )
            return self._transform_atom(
                Atom(base, atom.arguments), temporal, time, offset - 1
            )
        if predicate not in temporal:
            return atom
        if offset == 0:
            stamped: Term = time
        elif isinstance(time, Number):
            stamped = Number(time.value + offset)
        else:
            stamped = BinaryOperation("+", time, Number(offset))
        return Atom(predicate, atom.arguments + (stamped,))

    def _transform_literal(
        self, literal: Literal, temporal: Set[str], time: Term
    ) -> Literal:
        return Literal(
            self._transform_atom(literal.atom, temporal, time), literal.negated
        )

    def _transform_rule(
        self,
        rule: Rule,
        temporal: Set[str],
        fixed: Optional[int],
        minimum: int = 0,
    ) -> Rule:
        time = self._time_term(fixed)
        head = rule.head
        if isinstance(head, Atom):
            head = self._transform_atom(head, temporal, time)
        elif isinstance(head, Choice):
            head = Choice(
                tuple(
                    syntax.ChoiceElement(
                        self._transform_atom(element.atom, temporal, time),
                        tuple(
                            self._transform_literal(l, temporal, time)
                            for l in element.condition
                        ),
                    )
                    for element in head.elements
                ),
                head.lower,
                head.upper,
            )
        body: List[object] = []
        for element in rule.body:
            if isinstance(element, Literal):
                body.append(self._transform_literal(element, temporal, time))
            elif isinstance(element, Comparison):
                body.append(element)
            elif isinstance(element, Aggregate):
                body.append(
                    replace(
                        element,
                        elements=tuple(
                            syntax.AggregateElement(
                                e.terms,
                                tuple(
                                    self._transform_literal(l, temporal, time)
                                    for l in e.condition
                                ),
                            )
                            for e in element.elements
                        ),
                    )
                )
            else:
                raise TemporalError("unsupported body element %r" % (element,))
        if fixed is None:
            body.append(Literal(Atom(STEP_PREDICATE, (time,)), False))
            if minimum:
                body.append(Comparison(">=", time, Number(minimum)))
        return Rule(head, tuple(body))

    # ------------------------------------------------------------------
    # LTLf compilation
    # ------------------------------------------------------------------
    def _compile_requirement(
        self,
        program: Program,
        requirement: Requirement,
        req_index: int,
        horizon: int,
        temporal: Set[str],
    ) -> None:
        """Emit satisfaction rules so ``__req_violated(name)`` is derived
        exactly when the trace falsifies the requirement at step 0."""
        name_term = Symbol(_safe_name(requirement.name))
        indexed: Dict[Formula, int] = {}
        for subformula in requirement.formula.subformulas():
            if subformula not in indexed:
                indexed[subformula] = len(indexed)

        def sat(formula: Formula, time: Term) -> Atom:
            return Atom(SAT_PREDICATE, (name_term, Number(indexed[formula]), time))

        step_literal = Literal(Atom(STEP_PREDICATE, (_TIME,)), False)
        next_time = BinaryOperation("+", _TIME, Number(1))
        rules: List[Rule] = []
        for formula in indexed:
            head = sat(formula, _TIME)
            if isinstance(formula, Prop):
                atom = formula.atom
                if atom.predicate in temporal:
                    body: Tuple[object, ...] = (
                        Literal(Atom(atom.predicate, atom.arguments + (_TIME,))),
                        step_literal,
                    )
                else:
                    body = (Literal(atom), step_literal)
                rules.append(Rule(head, body))
            elif isinstance(formula, Not):
                rules.append(
                    Rule(
                        head,
                        (step_literal, Literal(sat(formula.operand, _TIME), True)),
                    )
                )
            elif isinstance(formula, And):
                rules.append(
                    Rule(
                        head,
                        (
                            Literal(sat(formula.left, _TIME)),
                            Literal(sat(formula.right, _TIME)),
                        ),
                    )
                )
            elif isinstance(formula, Or):
                rules.append(Rule(head, (Literal(sat(formula.left, _TIME)),)))
                rules.append(Rule(head, (Literal(sat(formula.right, _TIME)),)))
            elif isinstance(formula, Next):
                rules.append(
                    Rule(
                        head,
                        (step_literal, Literal(sat(formula.operand, next_time))),
                    )
                )
            elif isinstance(formula, WeakNext):
                rules.append(
                    Rule(
                        head,
                        (step_literal, Literal(sat(formula.operand, next_time))),
                    )
                )
                rules.append(Rule(sat(formula, Number(horizon)), ()))
            elif isinstance(formula, Eventually):
                rules.append(Rule(head, (Literal(sat(formula.operand, _TIME)),)))
                rules.append(
                    Rule(head, (step_literal, Literal(sat(formula, next_time))))
                )
            elif isinstance(formula, Globally):
                rules.append(
                    Rule(
                        sat(formula, Number(horizon)),
                        (Literal(sat(formula.operand, Number(horizon))),),
                    )
                )
                rules.append(
                    Rule(
                        head,
                        (
                            Literal(sat(formula.operand, _TIME)),
                            Literal(sat(formula, next_time)),
                        ),
                    )
                )
            elif isinstance(formula, Until):
                rules.append(Rule(head, (Literal(sat(formula.right, _TIME)),)))
                rules.append(
                    Rule(
                        head,
                        (
                            Literal(sat(formula.left, _TIME)),
                            Literal(sat(formula, next_time)),
                        ),
                    )
                )
            elif isinstance(formula, Release):
                rules.append(
                    Rule(
                        sat(formula, Number(horizon)),
                        (Literal(sat(formula.right, Number(horizon))),),
                    )
                )
                rules.append(
                    Rule(
                        head,
                        (
                            Literal(sat(formula.right, _TIME)),
                            Literal(sat(formula.left, _TIME)),
                        ),
                    )
                )
                rules.append(
                    Rule(
                        head,
                        (
                            Literal(sat(formula.right, _TIME)),
                            Literal(sat(formula, next_time)),
                        ),
                    )
                )
            else:
                raise TemporalError(
                    "cannot compile formula type %s" % type(formula).__name__
                )
        root = requirement.formula
        rules.append(
            Rule(
                Atom(REQ_SAT, (name_term,)),
                (Literal(sat(root, Number(0))),),
            )
        )
        rules.append(
            Rule(
                Atom(REQ_VIOLATED, (name_term,)),
                (Literal(Atom(REQ_SAT, (name_term,)), True),),
            )
        )
        if requirement.enforce:
            rules.append(
                Rule(None, (Literal(Atom(REQ_VIOLATED, (name_term,))),))
            )
        program.rules.extend(rules)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        horizon: int,
        limit: Optional[int] = None,
        extra: str = "",
    ) -> List[TemporalModel]:
        """Unroll, solve, and lift answer sets back into traces."""
        control = self.control(horizon, extra)
        temporal = self._collect_temporal_predicates()
        models = control.solve(limit=limit)
        return [self._lift(model, horizon, temporal) for model in models]

    def control(self, horizon: int, extra: str = "") -> Control:
        """The unrolled program wrapped in a :class:`Control` (for custom
        queries, optimization or assumptions)."""
        control = Control()
        control._program.extend(self.unroll(horizon))  # internal splice
        if extra:
            control.add(extra)
        return control

    def lift(self, model: Model, horizon: int) -> TemporalModel:
        """Public wrapper to lift a model from :meth:`control` solving."""
        return self._lift(model, horizon, self._collect_temporal_predicates())

    def _lift(
        self, model: Model, horizon: int, temporal: Set[str]
    ) -> TemporalModel:
        trace: List[Set[Atom]] = [set() for _ in range(horizon + 1)]
        static_atoms: Set[Atom] = set()
        for atom in model.atoms:
            if atom.predicate.startswith("__"):
                continue
            if atom.predicate in temporal and atom.arguments:
                last = atom.arguments[-1]
                if isinstance(last, Number) and 0 <= last.value <= horizon:
                    trace[last.value].add(Atom(atom.predicate, atom.arguments[:-1]))
                    continue
            static_atoms.add(atom)
        for state in trace:
            state.update(static_atoms)
        status: Dict[str, bool] = {}
        for requirement in self._requirements:
            violated_atom = Atom(
                REQ_VIOLATED, (Symbol(_safe_name(requirement.name)),)
            )
            status[requirement.name] = model.contains(violated_atom)
        return TemporalModel(model, horizon, trace, status)


def _rule_atoms(rule: Rule) -> Iterable[Atom]:
    if isinstance(rule.head, Atom):
        yield rule.head
    elif isinstance(rule.head, Choice):
        for element in rule.head.elements:
            yield element.atom
            for literal in element.condition:
                yield literal.atom
    for element in rule.body:
        if isinstance(element, Literal):
            yield element.atom
        elif isinstance(element, Aggregate):
            for aggregate_element in element.elements:
                for literal in aggregate_element.condition:
                    yield literal.atom


def _safe_name(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not cleaned or not cleaned[0].islower():
        cleaned = "r_" + cleaned
    return cleaned
