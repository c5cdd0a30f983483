"""Parser for the core ASP input language.

Supports the subset of the clingo language used throughout the framework
(and sufficient to parse the paper's Listings 1-2 verbatim):

* facts, normal rules, integrity constraints;
* default negation (``not``);
* choice rules with optional cardinality bounds ``1 { a; b : cond } 2``;
* builtin comparisons (``= != < <= > >=``) and integer arithmetic
  (``+ - * / \\``) with interval terms ``lo..hi``;
* aggregates ``#count/#sum/#min/#max`` with guards;
* weak constraints ``:~ body. [w@p, terms]`` and ``#minimize/#maximize``;
* ``#show p/n.`` and ``#const name = value.`` directives;
* ``%`` line comments and ``%* ... *%`` block comments.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from . import syntax
from .terms import (
    BinaryOperation,
    Function,
    Interval,
    Number,
    String,
    Symbol,
    Term,
    UnaryMinus,
    Variable,
)


class ParseError(Exception):
    """Raised on malformed program text, with line/column context."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (at line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


_TOKEN_SPEC = [
    ("BLOCK_COMMENT", r"%\*.*?\*%"),
    ("COMMENT", r"%[^\n]*"),
    ("WS", r"\s+"),
    ("NUMBER", r"\d+"),
    ("STRING", r'"(?:\\.|[^"\\])*"'),
    ("DIRECTIVE", r"#[a-z]+"),
    ("IDENT", r"[a-z][A-Za-z0-9_']*"),
    ("VARIABLE", r"[_A-Z][A-Za-z0-9_']*"),
    ("DOTS", r"\.\."),
    ("IMPLIES", r":-"),
    ("WEAK", r":~"),
    ("NEQ", r"!=|<>"),
    ("LEQ", r"<="),
    ("GEQ", r">="),
    ("OP", r"[+\-*/\\@=<>.,;:(){}\[\]|]"),
]

_TOKEN_RE = re.compile(
    "|".join("(?P<%s>%s)" % pair for pair in _TOKEN_SPEC), re.DOTALL
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Token(%s, %r)" % (self.kind, self.text)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                "unexpected character %r" % text[position],
                line,
                position - line_start + 1,
            )
        kind = match.lastgroup or ""
        value = match.group()
        if kind not in ("WS", "COMMENT", "BLOCK_COMMENT"):
            tokens.append(_Token(kind, value, line, match.start() - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + value.rfind("\n") + 1
        position = match.end()
    tokens.append(_Token("EOF", "", line, position - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._index = 0
        self._anon_counter = 0

    # ------------------------------------------------------------------
    # token stream helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> _Token:
        token = self._peek()
        if not self._check(kind, text):
            wanted = text if text is not None else kind
            raise ParseError(
                "expected %r but found %r" % (wanted, token.text or "end of input"),
                token.line,
                token.column,
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # ------------------------------------------------------------------
    # program / statements
    # ------------------------------------------------------------------
    def parse_program(self) -> syntax.Program:
        program = syntax.Program()
        while not self._check("EOF"):
            self._parse_statement(program)
        return program

    def _parse_statement(self, program: syntax.Program) -> None:
        if self._check("DIRECTIVE"):
            directive = self._peek().text
            if directive == "#show":
                program.shows.append(self._parse_show())
                return
            if directive == "#const":
                const = self._parse_const()
                program.consts[const.name] = const.value
                return
            if directive in ("#minimize", "#maximize"):
                program.minimize.append(self._parse_minimize())
                return
            if directive in syntax.AGGREGATE_FUNCTIONS:
                raise self._error("aggregate cannot start a statement")
            raise self._error("unknown directive %r" % directive)
        if self._accept("WEAK"):
            program.weak_constraints.append(self._parse_weak_body())
            return
        program.rules.append(self._parse_rule())

    def _parse_show(self) -> syntax.ShowSignature:
        self._expect("DIRECTIVE", "#show")
        name = self._expect("IDENT").text
        self._expect("OP", "/")
        arity = int(self._expect("NUMBER").text)
        self._expect("OP", ".")
        return syntax.ShowSignature(name, arity)

    def _parse_const(self) -> syntax.ConstDefinition:
        self._expect("DIRECTIVE", "#const")
        name = self._expect("IDENT").text
        self._expect("OP", "=")
        value = self._parse_term()
        self._expect("OP", ".")
        return syntax.ConstDefinition(name, value)

    def _parse_minimize(self) -> syntax.MinimizeStatement:
        directive = self._advance().text
        maximize = directive == "#maximize"
        self._expect("OP", "{")
        elements: List[syntax.MinimizeElement] = []
        while True:
            weight = self._parse_term()
            priority: Term = Number(0)
            if self._accept("OP", "@"):
                priority = self._parse_term()
            terms: List[Term] = []
            while self._accept("OP", ","):
                terms.append(self._parse_term())
            condition: Tuple[object, ...] = ()
            if self._accept("OP", ":"):
                condition = tuple(self._parse_condition_literals())
            if maximize:
                weight = UnaryMinus(weight)
            elements.append(
                syntax.MinimizeElement(weight, priority, tuple(terms), condition)
            )
            if not self._accept("OP", ";"):
                break
        self._expect("OP", "}")
        self._expect("OP", ".")
        return syntax.MinimizeStatement(tuple(elements))

    def _parse_weak_body(self) -> syntax.WeakConstraint:
        body = self._parse_body()
        self._expect("OP", ".")
        self._expect("OP", "[")
        weight = self._parse_term()
        priority: Term = Number(0)
        if self._accept("OP", "@"):
            priority = self._parse_term()
        terms: List[Term] = []
        while self._accept("OP", ","):
            terms.append(self._parse_term())
        self._expect("OP", "]")
        return syntax.WeakConstraint(tuple(body), weight, priority, tuple(terms))

    def _parse_rule(self) -> syntax.Rule:
        head: Optional[object] = None
        if not self._check("IMPLIES"):
            head = self._parse_head()
        body: Tuple[object, ...] = ()
        if self._accept("IMPLIES"):
            if not self._check("OP", "."):
                body = tuple(self._parse_body())
        self._expect("OP", ".")
        return syntax.Rule(head, body)

    def _parse_head(self) -> object:
        if self._check("OP", "{"):
            return self._parse_choice(lower=None)
        # Could be a plain atom or the lower bound of a choice.
        checkpoint = self._index
        term = self._parse_term()
        if self._check("OP", "{"):
            return self._parse_choice(lower=term)
        # Not a choice: re-interpret the parsed term as an atom.
        atom = self._term_to_atom(term)
        if atom is None:
            self._index = checkpoint
            raise self._error("rule head must be an atom or a choice")
        return atom

    def _term_to_atom(self, term: Term) -> Optional[syntax.Atom]:
        if isinstance(term, Symbol):
            return syntax.Atom(term.name, ())
        if isinstance(term, Function) and term.name:
            return syntax.Atom(term.name, term.arguments)
        return None

    def _parse_choice(self, lower: Optional[Term]) -> syntax.Choice:
        self._expect("OP", "{")
        elements: List[syntax.ChoiceElement] = []
        if not self._check("OP", "}"):
            while True:
                atom = self._parse_atom()
                condition: Tuple[syntax.Literal, ...] = ()
                if self._accept("OP", ":"):
                    condition = self._parse_plain_condition("choice")
                elements.append(syntax.ChoiceElement(atom, condition))
                if not self._accept("OP", ";"):
                    break
        self._expect("OP", "}")
        upper: Optional[Term] = None
        if self._check("NUMBER") or self._check("VARIABLE") or self._check("IDENT"):
            upper = self._parse_term()
        # `{ ... } = n` bounds both sides, so no other bound may join it
        if self._check("OP", "="):
            token = self._advance()
            for bound, side in ((upper, "upper"), (lower, "lower")):
                if bound is not None:
                    raise ParseError(
                        "choice has two %s bounds" % side, token.line, token.column
                    )
            lower = upper = self._parse_term()
        return syntax.Choice(tuple(elements), lower, upper)

    def _parse_condition_literals(self) -> List[object]:
        literals: List[object] = [self._parse_body_literal()]
        while self._accept("OP", ","):
            literals.append(self._parse_body_literal())
        return literals

    def _parse_plain_condition(self, construct: str) -> Tuple[syntax.Literal, ...]:
        """A condition of plain literals only; ``construct`` names the
        element kind in the error raised at the first other element."""
        literals: List[syntax.Literal] = []
        while True:
            token = self._peek()
            literal = self._parse_body_literal()
            if not isinstance(literal, syntax.Literal):
                raise ParseError(
                    "%s conditions must be plain literals" % construct,
                    token.line,
                    token.column,
                )
            literals.append(literal)
            if not self._accept("OP", ","):
                return tuple(literals)

    # ------------------------------------------------------------------
    # bodies
    # ------------------------------------------------------------------
    def _parse_body(self) -> List[object]:
        body: List[object] = [self._parse_body_literal()]
        while self._accept("OP", ",") or self._accept("OP", ";"):
            body.append(self._parse_body_literal())
        return body

    def _parse_body_literal(self) -> object:
        negated = False
        if self._check("IDENT", "not") and not self._looks_like_atom_named_not():
            self._advance()
            negated = True
            if self._check("IDENT", "not") and not self._looks_like_atom_named_not():
                # double negation: `not not a` — treat as positive test.
                self._advance()
                inner = self._parse_body_literal()
                return inner
        if self._check("DIRECTIVE"):
            return self._parse_aggregate(left_guard=None, negated=negated)
        start = self._peek()
        term = self._parse_term()
        if self._check_comparison_op():
            token = self._peek()
            operator = self._read_comparison_op()
            if self._check("DIRECTIVE"):
                # `t OP #agg{...}` guards the aggregate as `#agg{...} OP' t`
                return self._parse_aggregate(
                    left_guard=(_MIRRORED.get(operator, operator), term, token),
                    negated=negated,
                )
            right = self._parse_term()
            comparison = syntax.Comparison(operator, term, right)
            if negated:
                comparison = syntax.Comparison(
                    _NEGATED_COMPARISON[operator], term, right
                )
            return comparison
        atom = self._term_to_atom(term)
        if atom is None:
            raise self._error("expected an atom, comparison or aggregate in body")
        if any(_has_interval(argument) for argument in atom.arguments):
            # the grounder matches body literals, it does not expand them
            raise ParseError(
                "interval in body literal %s; bind a variable instead, "
                "as in p(X), X = 1..2" % atom,
                start.line,
                start.column,
            )
        return syntax.Literal(atom, negated)

    def _looks_like_atom_named_not(self) -> bool:
        """Disambiguate the keyword ``not`` from an atom called ``not(...)``."""
        nxt = self._peek(1)
        return nxt.kind == "OP" and nxt.text == "("

    def _check_comparison_op(self) -> bool:
        token = self._peek()
        if token.kind in ("NEQ", "LEQ", "GEQ"):
            return True
        return token.kind == "OP" and token.text in ("=", "<", ">")

    def _read_comparison_op(self) -> str:
        token = self._advance()
        if token.kind == "NEQ":
            return "!="
        if token.kind == "LEQ":
            return "<="
        if token.kind == "GEQ":
            return ">="
        return token.text

    def _parse_aggregate(
        self,
        left_guard: Optional[Tuple[str, Term, _Token]],
        negated: bool,
    ) -> syntax.Aggregate:
        """Parse ``#agg{...}`` and its right guard, if any.

        ``left_guard`` is a left guard already read and mirrored into
        right-guard form: ``(operator, term, operator token)``.  Each
        guard bounds one side of the aggregate's value (``=`` both), and
        a side bounded twice is an error.
        """
        function = self._expect("DIRECTIVE").text
        if function not in syntax.AGGREGATE_FUNCTIONS:
            raise self._error("unknown aggregate function %r" % function)
        self._expect("OP", "{")
        elements: List[syntax.AggregateElement] = []
        if not self._check("OP", "}"):
            while True:
                terms: List[Term] = [self._parse_term()]
                while self._accept("OP", ","):
                    terms.append(self._parse_term())
                condition: Tuple[syntax.Literal, ...] = ()
                if self._accept("OP", ":"):
                    condition = self._parse_plain_condition("aggregate")
                elements.append(syntax.AggregateElement(tuple(terms), condition))
                if not self._accept("OP", ";"):
                    break
        self._expect("OP", "}")
        guards = [] if left_guard is None else [left_guard]
        if self._check_comparison_op():
            token = self._peek()
            operator = self._read_comparison_op()
            guards.append((operator, self._parse_term(), token))
        lower: Optional[Term] = None
        upper: Optional[Term] = None
        for operator, bound, token in guards:
            if operator in ("<=", "<", "=") and upper is not None:
                raise ParseError(
                    "aggregate has two upper bounds", token.line, token.column
                )
            if operator in (">=", ">", "=") and lower is not None:
                raise ParseError(
                    "aggregate has two lower bounds", token.line, token.column
                )
            if operator == "<=":
                upper = bound
            elif operator == "<":
                upper = BinaryOperation("-", bound, Number(1))
            elif operator == ">=":
                lower = bound
            elif operator == ">":
                lower = BinaryOperation("+", bound, Number(1))
            elif operator == "=":
                lower = upper = bound
            else:
                raise ParseError(
                    "unsupported aggregate guard %r" % operator,
                    token.line,
                    token.column,
                )
        return syntax.Aggregate(function, tuple(elements), lower, upper, negated)

    # ------------------------------------------------------------------
    # terms
    # ------------------------------------------------------------------
    def _parse_term(self) -> Term:
        term = self._parse_additive()
        if self._accept("DOTS"):
            high = self._parse_additive()
            return Interval(term, high)
        return term

    def _parse_additive(self) -> Term:
        left = self._parse_multiplicative()
        while True:
            if self._accept("OP", "+"):
                left = BinaryOperation("+", left, self._parse_multiplicative())
            elif self._accept("OP", "-"):
                left = BinaryOperation("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Term:
        left = self._parse_unary()
        while True:
            if self._accept("OP", "*"):
                left = BinaryOperation("*", left, self._parse_unary())
            elif self._accept("OP", "/"):
                left = BinaryOperation("/", left, self._parse_unary())
            elif self._accept("OP", "\\"):
                left = BinaryOperation("\\", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Term:
        if self._accept("OP", "-"):
            return UnaryMinus(self._parse_unary())
        if self._accept("OP", "|"):
            inner = self._parse_term()
            self._expect("OP", "|")
            return _make_abs(inner)
        return self._parse_primary()

    def _parse_primary(self) -> Term:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Number(int(token.text))
        if token.kind == "STRING":
            self._advance()
            raw = token.text[1:-1]
            return String(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if token.kind == "VARIABLE":
            self._advance()
            if token.text == "_":
                self._anon_counter += 1
                return Variable("_Anon%d" % self._anon_counter)
            return Variable(token.text)
        if token.kind == "IDENT":
            self._advance()
            if self._accept("OP", "("):
                arguments: List[Term] = []
                if not self._check("OP", ")"):
                    arguments.append(self._parse_term())
                    while self._accept("OP", ","):
                        arguments.append(self._parse_term())
                self._expect("OP", ")")
                return Function(token.text, tuple(arguments))
            return Symbol(token.text)
        if token.kind == "OP" and token.text == "(":
            self._advance()
            items: List[Term] = []
            if not self._check("OP", ")"):
                items.append(self._parse_term())
                while self._accept("OP", ","):
                    items.append(self._parse_term())
            self._expect("OP", ")")
            if len(items) == 1:
                return items[0]
            return Function("", tuple(items))
        raise self._error("expected a term, found %r" % (token.text or "end of input"))

    def _parse_atom(self) -> syntax.Atom:
        term = self._parse_term()
        atom = self._term_to_atom(term)
        if atom is None:
            raise self._error("expected an atom")
        return atom


_NEGATED_COMPARISON = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

#: a left guard ``t OP #agg{...}`` read as the right guard ``#agg{...} OP' t``
_MIRRORED = {
    "=": "=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


def _has_interval(term: Term) -> bool:
    if isinstance(term, Interval):
        return True
    if isinstance(term, Function):
        return any(_has_interval(argument) for argument in term.arguments)
    if isinstance(term, BinaryOperation):
        return _has_interval(term.left) or _has_interval(term.right)
    if isinstance(term, UnaryMinus):
        return _has_interval(term.operand)
    return False


def _make_abs(inner: Term) -> Term:
    """Absolute value via max(t, -t) folding; only used on ground eval."""
    return Function("abs", (inner,))


def parse_program(text: str) -> syntax.Program:
    """Parse a complete ASP program from text."""
    return _Parser(text).parse_program()


def parse_term(text: str) -> Term:
    """Parse a single term from text (convenience for tests and APIs)."""
    parser = _Parser(text)
    term = parser._parse_term()
    if not parser._check("EOF"):
        raise parser._error("trailing input after term")
    return term
