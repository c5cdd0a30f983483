"""Abstract syntax tree of ASP programs.

A program is a list of statements: rules (with normal, choice or empty
heads), weak constraints, and directives (``#show``, ``#const``,
``#minimize``/``#maximize``).  The parser in :mod:`repro.asp.parser`
produces these nodes; the grounder consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .terms import Function, Term, Variable


#: intern table (predicate, arguments) -> canonical Atom
_ATOMS: Dict[Tuple, "Atom"] = {}


class Atom:
    """A predicate atom ``p(t1, ..., tn)``.

    Atoms are interned like terms (see :mod:`repro.asp.terms`): one
    canonical instance per (predicate, arguments), with the hash, the
    signature and the ground flag computed once at construction.  The
    grounder's join loop compares and hashes atoms millions of times, so
    identity short-circuits matter here.
    """

    __slots__ = ("predicate", "arguments", "signature", "_hash", "_ground")

    def __new__(cls, predicate: str, arguments: Tuple[Term, ...] = ()) -> "Atom":
        if type(arguments) is not tuple:
            arguments = tuple(arguments)
        key = (predicate, arguments)
        self = _ATOMS.get(key)
        if self is None:
            self = object.__new__(cls)
            self.predicate = predicate
            self.arguments = arguments
            self.signature = (predicate, len(arguments))
            self._hash = hash(key)
            self._ground = all(argument.is_ground() for argument in arguments)
            _ATOMS[key] = self
        return self

    def __reduce__(self):
        return (Atom, (self.predicate, self.arguments))

    def __setattr__(self, name: str, value: object) -> None:
        if name in self.__slots__ and hasattr(self, "_ground"):
            raise AttributeError("Atom is immutable")
        object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(other) is Atom
            and other.predicate == self.predicate
            and other.arguments == self.arguments
        )

    def is_ground(self) -> bool:
        return self._ground

    def substitute(self, binding: Dict[Variable, Term]) -> "Atom":
        if self._ground or not self.arguments:
            return self
        arguments = tuple(
            argument.substitute(binding) for argument in self.arguments
        )
        if arguments == self.arguments:
            return self
        return Atom(self.predicate, arguments)

    def variables(self) -> Iterable[Variable]:
        for argument in self.arguments:
            yield from argument.variables()

    def to_term(self) -> Function:
        return Function(self.predicate, self.arguments)

    def __repr__(self) -> str:
        return "Atom(predicate=%r, arguments=%r)" % (self.predicate, self.arguments)

    def __str__(self) -> str:
        if not self.arguments:
            return self.predicate
        return "%s(%s)" % (
            self.predicate,
            ",".join(str(argument) for argument in self.arguments),
        )


def clear_atom_intern_cache() -> None:
    """Drop every interned atom (companion to ``terms.clear_intern_caches``)."""
    _ATOMS.clear()


@dataclass(frozen=True)
class Literal:
    """A body literal: an atom, possibly default-negated (``not a``)."""

    atom: Atom
    negated: bool = False

    def substitute(self, binding: Dict[Variable, Term]) -> "Literal":
        atom = self.atom.substitute(binding)
        if atom is self.atom:
            return self
        return Literal(atom, self.negated)

    def variables(self) -> Iterable[Variable]:
        return self.atom.variables()

    def __str__(self) -> str:
        return ("not " if self.negated else "") + str(self.atom)


#: Comparison operators usable in rule bodies.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """A builtin comparison literal such as ``X < Y`` or ``X = Y+1``."""

    operator: str
    left: Term
    right: Term

    def substitute(self, binding: Dict[Variable, Term]) -> "Comparison":
        return Comparison(
            self.operator,
            self.left.substitute(binding),
            self.right.substitute(binding),
        )

    def variables(self) -> Iterable[Variable]:
        yield from self.left.variables()
        yield from self.right.variables()

    def __str__(self) -> str:
        return "%s %s %s" % (self.left, self.operator, self.right)


@dataclass(frozen=True)
class AggregateElement:
    """One element ``t1,...,tm : l1,...,ln`` of an aggregate."""

    terms: Tuple[Term, ...]
    condition: Tuple[Literal, ...] = ()

    def variables(self) -> Iterable[Variable]:
        for term in self.terms:
            yield from term.variables()
        for literal in self.condition:
            yield from literal.variables()

    def __str__(self) -> str:
        rendered = ",".join(str(term) for term in self.terms)
        if self.condition:
            rendered += " : " + ",".join(str(lit) for lit in self.condition)
        return rendered


AGGREGATE_FUNCTIONS = ("#count", "#sum", "#min", "#max")


@dataclass(frozen=True)
class Aggregate:
    """An aggregate body literal, e.g. ``2 <= #count { X : p(X) } <= 4``.

    ``lower``/``upper`` are optional guard terms; ``negated`` applies
    default negation to the whole aggregate.  An ``=`` guard bounds
    both sides, and ``equality`` records the side it was written on
    (``"left"`` for ``N = #count {...}``, ``"right"`` for
    ``#count {...} = N``) so the aggregate renders as written.
    """

    function: str
    elements: Tuple[AggregateElement, ...]
    lower: Optional[Term] = None
    upper: Optional[Term] = None
    negated: bool = False
    equality: str = ""

    def variables(self) -> Iterable[Variable]:
        # Only guard variables are global; element variables are local.
        if self.lower is not None:
            yield from self.lower.variables()
        if self.upper is not None:
            yield from self.upper.variables()

    def __str__(self) -> str:
        body = "; ".join(str(element) for element in self.elements)
        rendered = "%s { %s }" % (self.function, body)
        if self.equality == "left":
            rendered = "%s = %s" % (self.lower, rendered)
        elif self.equality == "right":
            rendered = "%s = %s" % (rendered, self.upper)
        else:
            if self.lower is not None:
                rendered = "%s <= %s" % (self.lower, rendered)
            if self.upper is not None:
                rendered = "%s <= %s" % (rendered, self.upper)
        if self.negated:
            rendered = "not " + rendered
        return rendered


BodyLiteral = object  # Literal | Comparison | Aggregate


@dataclass(frozen=True)
class ChoiceElement:
    """One element ``a : l1,...,ln`` of a choice head."""

    atom: Atom
    condition: Tuple[Literal, ...] = ()

    def __str__(self) -> str:
        if self.condition:
            return "%s : %s" % (
                self.atom,
                ",".join(str(lit) for lit in self.condition),
            )
        return str(self.atom)


@dataclass(frozen=True)
class Choice:
    """A choice head ``lo { e1; ...; en } hi`` with optional bounds."""

    elements: Tuple[ChoiceElement, ...]
    lower: Optional[Term] = None
    upper: Optional[Term] = None

    def __str__(self) -> str:
        inner = "; ".join(str(element) for element in self.elements)
        rendered = "{ %s }" % inner
        if self.lower is not None:
            rendered = "%s %s" % (self.lower, rendered)
        if self.upper is not None:
            rendered = "%s %s" % (rendered, self.upper)
        return rendered


@dataclass(frozen=True)
class Rule:
    """A rule ``head :- body``.

    ``head`` is an :class:`Atom`, a :class:`Choice`, or ``None`` for an
    integrity constraint.  ``body`` mixes literals, comparisons and
    aggregates.
    """

    head: Optional[object]
    body: Tuple[object, ...] = ()

    def is_fact(self) -> bool:
        return isinstance(self.head, Atom) and not self.body

    def is_constraint(self) -> bool:
        return self.head is None

    def __str__(self) -> str:
        head = "" if self.head is None else str(self.head)
        if not self.body:
            return "%s." % head
        body = ", ".join(str(part) for part in self.body)
        return "%s :- %s." % (head, body)


@dataclass(frozen=True)
class WeakConstraint:
    """A weak constraint ``:~ body. [weight@priority, t1, ..., tn]``."""

    body: Tuple[object, ...]
    weight: Term
    priority: Term
    terms: Tuple[Term, ...] = ()

    def __str__(self) -> str:
        body = ", ".join(str(part) for part in self.body)
        tail = "".join(",%s" % term for term in self.terms)
        return ":~ %s. [%s@%s%s]" % (body, self.weight, self.priority, tail)


@dataclass(frozen=True)
class ShowSignature:
    """A ``#show p/n.`` directive."""

    predicate: str
    arity: int

    def __str__(self) -> str:
        return "#show %s/%d." % (self.predicate, self.arity)


@dataclass(frozen=True)
class ConstDefinition:
    """A ``#const name = term.`` directive."""

    name: str
    value: Term

    def __str__(self) -> str:
        return "#const %s = %s." % (self.name, self.value)


@dataclass(frozen=True)
class MinimizeStatement:
    """A ``#minimize { w@p,t : body; ... }.`` directive.

    ``#maximize`` is normalized to minimize with negated weights by the
    parser.
    """

    elements: Tuple["MinimizeElement", ...]

    def __str__(self) -> str:
        inner = "; ".join(str(element) for element in self.elements)
        return "#minimize { %s }." % inner


@dataclass(frozen=True)
class MinimizeElement:
    weight: Term
    priority: Term
    terms: Tuple[Term, ...]
    condition: Tuple[object, ...] = ()

    def __str__(self) -> str:
        rendered = "%s@%s" % (self.weight, self.priority)
        if self.terms:
            rendered += "," + ",".join(str(term) for term in self.terms)
        if self.condition:
            rendered += " : " + ",".join(str(lit) for lit in self.condition)
        return rendered


@dataclass
class Program:
    """A parsed (non-ground) ASP program."""

    rules: List[Rule] = field(default_factory=list)
    weak_constraints: List[WeakConstraint] = field(default_factory=list)
    shows: List[ShowSignature] = field(default_factory=list)
    consts: Dict[str, Term] = field(default_factory=dict)
    minimize: List[MinimizeStatement] = field(default_factory=list)

    def extend(self, other: "Program") -> None:
        self.rules.extend(other.rules)
        self.weak_constraints.extend(other.weak_constraints)
        self.shows.extend(other.shows)
        self.consts.update(other.consts)
        self.minimize.extend(other.minimize)

    def __str__(self) -> str:
        parts: List[str] = []
        for name, value in self.consts.items():
            parts.append("#const %s = %s." % (name, value))
        parts.extend(str(rule) for rule in self.rules)
        parts.extend(str(weak) for weak in self.weak_constraints)
        parts.extend(str(stmt) for stmt in self.minimize)
        parts.extend(str(show) for show in self.shows)
        return "\n".join(parts)
