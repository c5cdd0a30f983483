"""Answer Set Programming engine.

A self-contained ASP system: parser for a clingo-compatible core
language, semi-naive grounder, CDCL SAT backend, stable-model search with
lazy loop nogoods, aggregates, choice rules and weak-constraint
optimization.  This substrate replaces clingo/Telingo, which the paper
uses as its hidden formal method — the paper's Listings 1 and 2 run
verbatim through it (Sec. III "hidden formal methods"; Listing 1 is the
fault-activation rule the whole EPA of Sec. IV rides on).

Exports
-------
``Control``
    clingo-style facade: accumulate text/facts, ``ground()``,
    ``solve()``/``optimize()``, brave/cautious consequences; carries a
    clingo-compatible ``statistics`` tree and accepts a ``trace=`` sink
    (see :mod:`repro.observability`);
``Grounder`` / ``ground_program``
    semi-naive instantiation of a parsed :class:`Program`;
``StableModelSolver`` / ``Model``
    stable-model enumeration and weak-constraint optimization over a
    ground program;
``parse_program`` / ``parse_term`` / ``ParseError``
    the core-language parser;
``Atom``, ``Term``, ``Number``, ``String``, ``Symbol``, ``Function``,
``Variable``, ``atom``, ``to_term``
    the term/atom vocabulary and Python-value conversion helpers;
``clear_intern_caches``
    reset the process-wide term/atom intern tables (memory hygiene for
    long-lived services); ``clear_ground_cache`` is a no-op kept for
    callers of the former ground-program cache (a control keeps its
    own grounding and shares it with no other);
``GroundingError`` / ``SolverError``
    the failure modes of the two stages.

Quick example::

    from repro.asp import Control

    ctl = Control('''
        component(tank). fault(leak).
        potential_fault(C, F) :- component(C), fault(F).
    ''')
    for model in ctl.solve():
        print(model)
    print(ctl.statistics["summary"]["models"]["enumerated"])
"""

from .control import Control, atom, clear_ground_cache, to_term
from .grounder import Grounder, GroundingError, ground_program
from .parser import ParseError, parse_program, parse_term
from .solver import Model, SolverError, StableModelSolver
from .syntax import Atom, Program
from .terms import (
    Function,
    Number,
    String,
    Symbol,
    Term,
    Variable,
    clear_intern_caches,
)

__all__ = [
    "Atom",
    "Control",
    "Function",
    "Grounder",
    "GroundingError",
    "Model",
    "Number",
    "ParseError",
    "Program",
    "SolverError",
    "StableModelSolver",
    "String",
    "Symbol",
    "Term",
    "Variable",
    "atom",
    "clear_ground_cache",
    "clear_intern_caches",
    "ground_program",
    "parse_program",
    "parse_term",
    "to_term",
]
