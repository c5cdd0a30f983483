"""Property-based validation of the CDCL stable-model solver.

Random small normal logic programs (with negation, choices and positive
recursion) are solved both by the CDCL-based solver and the brute-force
reduct checker; the answer-set *sets* must be identical.  This guards the
completion + loop-nogood machinery, the most subtle part of the engine.
"""

from hypothesis import given, settings, strategies as st

from repro.asp import Control, parse_program
from repro.asp.grounder import ground_program
from repro.asp.naive import is_stable_model, stable_models
from repro.asp.solver import StableModelSolver

ATOMS = ["a", "b", "c", "d"]
#: atoms only ever declared as facts, each at a drawn position: before
#: or after the rules that read them, or not at all
FACTS = ["f", "g"]


def _literal(draw, names):
    return ("not " if draw(st.booleans()) else "") + draw(st.sampled_from(names))


@st.composite
def random_programs(draw):
    """Random propositional normal programs over a tiny alphabet.

    Bodies, constraints and choice conditions read the fact atoms too.
    A fact is declared as ``f.`` or as ``f :- not u.`` (``u`` never
    derivable): the grounder keeps positive facts in bodies but drops
    rules reading ``not f`` for a plain fact, while the second form
    reaches the solver as a fact the grounder does not know, so both
    paths see every fact position and polarity.
    """
    lines = []
    n_rules = draw(st.integers(min_value=1, max_value=7))
    for _ in range(n_rules):
        kind = draw(st.sampled_from(["rule", "rule", "rule", "choice", "constraint"]))
        body_size = draw(st.integers(min_value=0, max_value=3))
        body = [_literal(draw, ATOMS + FACTS) for _ in range(body_size)]
        body_text = ", ".join(body)
        if kind == "constraint":
            if body:
                lines.append(":- %s." % body_text)
        elif kind == "choice":
            elements = []
            for _ in range(draw(st.integers(min_value=1, max_value=2))):
                element = draw(st.sampled_from(ATOMS))
                if draw(st.booleans()):
                    element += " : " + _literal(draw, FACTS + ATOMS)
                elements.append(element)
            lower, upper = draw(
                st.sampled_from([("", ""), ("1 ", ""), ("", " 1"), ("1 ", " 1")])
            )
            lines.append(
                "%s{ %s }%s%s."
                % (
                    lower,
                    "; ".join(elements),
                    upper,
                    (" :- " + body_text) if body else "",
                )
            )
        else:
            head = draw(st.sampled_from(ATOMS))
            if body:
                lines.append("%s :- %s." % (head, body_text))
            else:
                lines.append("%s." % head)
    for fact in FACTS:
        declaration = draw(st.sampled_from([None, "%s.", "%s :- not u."]))
        if declaration is not None:
            position = draw(st.integers(min_value=0, max_value=len(lines)))
            lines.insert(position, declaration % fact)
    return "\n".join(lines)


def _solve_both(text):
    program = ground_program(parse_program(text))
    cdcl = {
        frozenset(model.atoms)
        for model in StableModelSolver(program).models()
    }
    brute = set(stable_models(program))
    return cdcl, brute


@settings(max_examples=120, deadline=None)
@given(random_programs())
def test_cdcl_matches_bruteforce(text):
    cdcl, brute = _solve_both(text)
    assert cdcl == brute, "program:\n%s\ncdcl=%s brute=%s" % (text, cdcl, brute)


@settings(max_examples=60, deadline=None)
@given(random_programs())
def test_every_cdcl_model_is_stable(text):
    program = ground_program(parse_program(text))
    for model in StableModelSolver(program).models():
        assert is_stable_model(program, set(model.atoms))


@st.composite
def recursive_programs(draw):
    """Programs biased toward positive recursion (non-tight)."""
    lines = ["{ seed }."]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(ATOMS), st.sampled_from(ATOMS)),
            min_size=1,
            max_size=6,
        )
    )
    for head, body in edges:
        lines.append("%s :- %s." % (head, body))
    anchor = draw(st.sampled_from(ATOMS))
    lines.append("%s :- seed." % anchor)
    return "\n".join(lines)


@settings(max_examples=80, deadline=None)
@given(recursive_programs())
def test_nontight_programs_match_bruteforce(text):
    cdcl, brute = _solve_both(text)
    assert cdcl == brute, "program:\n%s" % text


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_sum_aggregate_matches_semantics(weights, bound, fact_weight, fact_first):
    """#sum >= bound models equal direct subset enumeration; one
    element is conditioned on a fact, so it always counts.  Declared
    first, the fact is fixed before the aggregate is encoded; declared
    last, it grounds after the aggregate rule."""
    atoms = ["x%d" % i for i in range(len(weights))]
    choice = "{ %s }." % "; ".join(atoms)
    elements = "; ".join(
        "%d,%s : %s" % (w, a, a) for w, a in zip(weights, atoms)
    )
    text = "%s ok :- #sum { %s; %d,f : f } >= %d. :- not ok." % (
        choice,
        elements,
        fact_weight,
        bound,
    )
    text = "f. " + text if fact_first else text + " f."
    models = Control(text).solve()
    expected = 0
    for mask in range(2 ** len(weights)):
        total = sum(w for i, w in enumerate(weights) if mask >> i & 1)
        if total + fact_weight >= bound:
            expected += 1
    assert len(models) == expected
