"""Unit tests for the ASP parser."""

import pytest

from repro.asp import Control, parse_program, parse_term
from repro.asp.parser import ParseError
from repro.asp.syntax import (
    Aggregate,
    Atom,
    Choice,
    Comparison,
    Literal,
)
from repro.asp.terms import (
    BinaryOperation,
    Function,
    Interval,
    Number,
    String,
    Symbol,
    Variable,
)


class TestFactsAndRules:
    def test_simple_fact(self):
        program = parse_program("component(tank).")
        assert len(program.rules) == 1
        rule = program.rules[0]
        assert rule.is_fact()
        assert rule.head == Atom("component", (Symbol("tank"),))

    def test_zero_arity_fact(self):
        program = parse_program("alarm.")
        assert program.rules[0].head == Atom("alarm", ())

    def test_rule_with_body(self):
        program = parse_program("a(X) :- b(X), not c(X).")
        rule = program.rules[0]
        assert rule.head == Atom("a", (Variable("X"),))
        assert rule.body == (
            Literal(Atom("b", (Variable("X"),)), False),
            Literal(Atom("c", (Variable("X"),)), True),
        )

    def test_constraint(self):
        program = parse_program(":- a, b.")
        rule = program.rules[0]
        assert rule.head is None
        assert len(rule.body) == 2

    def test_multiple_statements(self):
        program = parse_program("a. b. c :- a, b.")
        assert len(program.rules) == 3

    def test_paper_listing_1_parses_verbatim(self):
        """Listing 1 (Fault Activation) from the paper."""
        text = """
        potential_fault(C, F) :-
            component(C), fault(F),
            mitigation(F, M),
            not active_mitigation(C, M).
        """
        program = parse_program(text)
        rule = program.rules[0]
        assert rule.head.predicate == "potential_fault"
        assert [type(b) for b in rule.body] == [Literal] * 4
        assert rule.body[3].negated

    def test_paper_listing_2_parses_verbatim(self):
        """Listing 2 (Fault Model) from the paper — note spaces before '('."""
        text = """
        component_state (C, X) :-
            prev_component_state (C, X),
            active_fault (C, stuck_at_x).
        """
        program = parse_program(text)
        rule = program.rules[0]
        assert rule.head == Atom("component_state", (Variable("C"), Variable("X")))
        assert rule.body[1].atom.arguments[1] == Symbol("stuck_at_x")


class TestTerms:
    def test_nested_function(self):
        term = parse_term("f(g(X), 3, a)")
        assert term == Function(
            "f", (Function("g", (Variable("X"),)), Number(3), Symbol("a"))
        )

    def test_string_term(self):
        assert parse_term('"hello world"') == String("hello world")

    def test_arithmetic_precedence(self):
        term = parse_term("1+2*3")
        assert term == BinaryOperation(
            "+", Number(1), BinaryOperation("*", Number(2), Number(3))
        )

    def test_interval(self):
        assert parse_term("1..5") == Interval(Number(1), Number(5))

    def test_negative_number(self):
        from repro.asp.terms import UnaryMinus, evaluate

        assert evaluate(parse_term("-3")) == Number(-3)

    def test_tuple_term(self):
        assert parse_term("(a, b)") == Function("", (Symbol("a"), Symbol("b")))

    def test_parenthesized_singleton_is_inner_term(self):
        assert parse_term("(a)") == Symbol("a")

    def test_anonymous_variables_are_distinct(self):
        program = parse_program("p(X) :- q(_, _), r(X).")
        q_literal = program.rules[0].body[0]
        first, second = q_literal.atom.arguments
        assert isinstance(first, Variable) and isinstance(second, Variable)
        assert first != second


class TestComparisons:
    def test_comparison_in_body(self):
        program = parse_program("p(X) :- q(X), X < 3.")
        comparison = program.rules[0].body[1]
        assert comparison == Comparison("<", Variable("X"), Number(3))

    def test_all_comparison_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            program = parse_program("p :- q(X), X %s 1." % op)
            assert program.rules[0].body[1].operator == op

    def test_negated_comparison_flips_operator(self):
        program = parse_program("p :- q(X), not X < 3.")
        assert program.rules[0].body[1] == Comparison(">=", Variable("X"), Number(3))

    def test_assignment_with_arithmetic(self):
        program = parse_program("p(Y) :- q(X), Y = X + 1.")
        comparison = program.rules[0].body[1]
        assert comparison.operator == "="
        assert comparison.right == BinaryOperation("+", Variable("X"), Number(1))


class TestChoices:
    def test_bare_choice(self):
        program = parse_program("{ a; b }.")
        choice = program.rules[0].head
        assert isinstance(choice, Choice)
        assert [e.atom.predicate for e in choice.elements] == ["a", "b"]
        assert choice.lower is None and choice.upper is None

    def test_bounded_choice(self):
        program = parse_program("1 { sel(X) : item(X) } 2.")
        choice = program.rules[0].head
        assert choice.lower == Number(1)
        assert choice.upper == Number(2)
        assert choice.elements[0].condition[0].atom.predicate == "item"

    def test_exact_choice_via_equals(self):
        program = parse_program("{ sel(X) : item(X) } = 1.")
        choice = program.rules[0].head
        assert choice.lower == Number(1) and choice.upper == Number(1)

    def test_choice_with_body(self):
        program = parse_program("{ a } :- b.")
        rule = program.rules[0]
        assert isinstance(rule.head, Choice)
        assert rule.body[0].atom.predicate == "b"

    @pytest.mark.parametrize(
        "text, column",
        [
            # would have 16 models with the comparison dropped, 4 with it
            ("q(1..4). { p(X) : q(X), X > 2 }.", 25),
            # would have 4 models with the comparison dropped, 3 with it
            ("q(1..4). 1 { p(X) : q(X), X != 1 } 1.", 27),
        ],
    )
    def test_comparison_in_condition_rejected(self, text, column):
        with pytest.raises(ParseError, match="choice conditions must be plain"):
            parse_program(text)
        with pytest.raises(ParseError) as excinfo:
            parse_program(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    @pytest.mark.parametrize(
        "text, message, column",
        [
            # 3 models if the `3` were dropped, 1 ({a, b}) if the `1` were
            ("3 { a; b; c } = 2.", "choice has two lower bounds", 15),
            ("{ a; b } 1 = 2.", "choice has two upper bounds", 12),
            ("1 { a; b } 2 = 2.", "choice has two upper bounds", 14),
        ],
    )
    def test_second_bound_on_a_bounded_side_rejected(self, text, message, column):
        with pytest.raises(ParseError, match=message) as excinfo:
            parse_program(text)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)


class TestAggregates:
    def test_count_with_upper_guard(self):
        program = parse_program("p :- #count { X : q(X) } <= 3.")
        aggregate = program.rules[0].body[0]
        assert isinstance(aggregate, Aggregate)
        assert aggregate.function == "#count"
        assert aggregate.upper == Number(3)

    def test_count_with_lower_guard_on_left(self):
        program = parse_program("p :- 2 <= #count { X : q(X) }.")
        aggregate = program.rules[0].body[0]
        assert aggregate.lower == Number(2)

    def test_strict_guards_normalized(self):
        program = parse_program("p :- #count { X : q(X) } < 3.")
        aggregate = program.rules[0].body[0]
        # < 3 becomes <= 3-1
        assert aggregate.upper == BinaryOperation("-", Number(3), Number(1))

    def test_sum_with_weighted_elements(self):
        program = parse_program("p :- #sum { W,X : sel(X), cost(X,W) } >= 5.")
        aggregate = program.rules[0].body[0]
        assert aggregate.function == "#sum"
        assert aggregate.lower == Number(5)
        assert len(aggregate.elements[0].terms) == 2
        assert len(aggregate.elements[0].condition) == 2

    def test_negated_aggregate(self):
        program = parse_program("p :- not #count { X : q(X) } >= 1.")
        aggregate = program.rules[0].body[0]
        assert aggregate.negated


def _models(text):
    return sorted(
        sorted(str(atom) for atom in model.atoms) for model in Control(text).solve()
    )


P3 = ["p(1)", "p(2)", "p(3)"]


class TestAggregateGuards:
    """Every guard form against ``p(1..3)``, whose count is 3."""

    @pytest.mark.parametrize(
        "guarded, holds",
        [
            ("3 = #count { X : p(X) }", True),
            ("2 = #count { X : p(X) }", False),
            ("2 < #count { X : p(X) }", True),
            ("3 < #count { X : p(X) }", False),
            ("3 <= #count { X : p(X) }", True),
            ("4 <= #count { X : p(X) }", False),
            ("4 > #count { X : p(X) }", True),
            ("3 > #count { X : p(X) }", False),
            ("3 >= #count { X : p(X) }", True),
            ("2 >= #count { X : p(X) }", False),
            ("#count { X : p(X) } = 3", True),
            ("#count { X : p(X) } = 2", False),
            ("#count { X : p(X) } < 4", True),
            ("#count { X : p(X) } < 3", False),
            ("#count { X : p(X) } <= 3", True),
            ("#count { X : p(X) } <= 2", False),
            ("#count { X : p(X) } > 2", True),
            ("#count { X : p(X) } > 3", False),
            ("#count { X : p(X) } >= 3", True),
            ("#count { X : p(X) } >= 4", False),
            ("1 < #count { X : p(X) } < 4", True),
            ("3 < #count { X : p(X) } < 5", False),
            ("3 >= #count { X : p(X) } >= 3", True),
            ("2 >= #count { X : p(X) } >= 1", False),
        ],
    )
    def test_guard(self, guarded, holds):
        expected = [P3 + ["q"]] if holds else [P3]
        assert _models("p(1..3). q :- %s." % guarded) == expected

    def test_left_equality_guard_in_a_constraint(self):
        # read as `2 <= #count`, the constraint would kill the only model
        assert _models("p(1..4). :- 2 = #count { X : p(X) }.") == [
            ["p(1)", "p(2)", "p(3)", "p(4)"]
        ]

    def test_left_equality_bounds_both_sides(self):
        aggregate = parse_program("q :- 2 = #count { X : p(X) }.").rules[0].body[0]
        assert aggregate.lower == Number(2) and aggregate.upper == Number(2)

    @pytest.mark.parametrize(
        "guarded, message, column",
        [
            ("5 <= #count { X : p(X) } > 2", "two lower bounds", 40),
            ("1 < #count { X : p(X) } > 2", "two lower bounds", 39),
            ("2 = #count { X : p(X) } <= 3", "two upper bounds", 39),
            ("4 > #count { X : p(X) } < 2", "two upper bounds", 39),
            ("1 <= #count { X : p(X) } = 2", "two lower bounds", 40),
            ("2 != #count { X : p(X) }", "unsupported aggregate guard", 17),
            ("#count { X : p(X) } != 2", "unsupported aggregate guard", 35),
        ],
    )
    def test_second_guard_on_a_bounded_side_rejected(self, guarded, message, column):
        with pytest.raises(ParseError, match=message) as excinfo:
            parse_program("p(1..3). q :- %s." % guarded)
        assert (excinfo.value.line, excinfo.value.column) == (1, column)


class TestDirectives:
    def test_show(self):
        program = parse_program("#show risk/2.")
        assert program.shows[0].predicate == "risk"
        assert program.shows[0].arity == 2

    def test_const(self):
        program = parse_program("#const horizon = 5.")
        assert program.consts["horizon"] == Number(5)

    def test_minimize(self):
        program = parse_program("#minimize { W@1,X : sel(X), cost(X,W) }.")
        element = program.minimize[0].elements[0]
        assert element.weight == Variable("W")
        assert element.priority == Number(1)

    def test_maximize_negates_weights(self):
        from repro.asp.terms import UnaryMinus

        program = parse_program("#maximize { W@1,X : sel(X), cost(X,W) }.")
        element = program.minimize[0].elements[0]
        assert element.weight == UnaryMinus(Variable("W"))


class TestWeakConstraints:
    def test_weak_constraint(self):
        program = parse_program(":~ sel(X), cost(X, W). [W@1, X]")
        weak = program.weak_constraints[0]
        assert weak.weight == Variable("W")
        assert weak.priority == Number(1)
        assert weak.terms == (Variable("X"),)

    def test_default_priority_zero(self):
        program = parse_program(":~ a. [2]")
        assert program.weak_constraints[0].priority == Number(0)


class TestComments:
    def test_line_comment(self):
        program = parse_program("a. % this is a comment\nb.")
        assert len(program.rules) == 2

    def test_block_comment(self):
        program = parse_program("a. %* multi\nline *% b.")
        assert len(program.rules) == 2


class TestBodyIntervals:
    @pytest.mark.parametrize(
        "text, column",
        [
            # would derive no `q`: the interval never matches a fact
            ("p(1..3). q :- p(1..2).", 15),
            # would escape the grounder as a raw TermError
            ("p(1..3). q :- not p(5..6).", 19),
            ("p(1..3).\n:- not q(f(1..2)), p(1).", 8),
            ("p(1..3). :~ p(2..3). [1@1]", 13),
            ("p(1..3). { r(X) : p(X), s(X, 1..2) }.", 25),
            ("p(1..3). q :- #count { X : p(X), s(X, 1..2) } > 1.", 34),
        ],
    )
    def test_interval_in_a_body_literal_rejected(self, text, column):
        message = r"interval in body literal .*as in p\(X\), X = 1\.\.2"
        with pytest.raises(ParseError, match=message) as excinfo:
            parse_program(text)
        line = text.count("\n") + 1
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_the_suggested_rewrite_holds(self):
        assert _models("p(1..3). q :- p(X), X = 1..2.") == [P3 + ["q"]]
        assert _models("p(1..3). q :- not p(X), X = 5..6.") == [P3 + ["q"]]

    def test_heads_and_comparisons_keep_their_intervals(self):
        assert _models("p(1..3). { r(1..2) }. s(X) :- X = 2..3.") == [
            P3 + ["r(1)", "r(2)", "s(2)", "s(3)"],
            P3 + ["r(1)", "s(2)", "s(3)"],
            P3 + ["r(2)", "s(2)", "s(3)"],
            P3 + ["s(2)", "s(3)"],
        ]


class TestErrors:
    def test_unterminated_rule(self):
        with pytest.raises(ParseError):
            parse_program("a :- b")

    def test_garbage_character(self):
        with pytest.raises(ParseError):
            parse_program("a ? b.")

    def test_error_reports_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("a.\nb ::- c.")
        assert excinfo.value.line == 2

    def test_number_as_rule_head_rejected(self):
        with pytest.raises(ParseError):
            parse_program("42 :- a.")
