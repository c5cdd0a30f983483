"""Tests for the binary ground-program serializer.

The contract: ``loads_ground(dumps_ground(p))`` reproduces every field
of the program structurally, and the encoding is meaningfully smaller
than a pickle of the same program.
"""

import pickle

import pytest

from repro.asp import Control
from repro.asp.grounder import Grounder
from repro.asp.parser import parse_program
from repro.asp.serialize import SerializeError, dumps_ground, loads_ground

RICH_PROGRAM = """
item(1..3). weight(1, 4). weight(2, -2). weight(3, 7).
{ pick(I) : item(I) } 2.
named(f(a, g(1, "x"))).
heavy :- #sum { W, I : pick(I), weight(I, W) } >= 5.
:- #count { I : pick(I) } > 2.
covered :- pick(I), item(I).
:~ pick(I), weight(I, W). [W@1, I]
#show pick/1.
#show heavy/0.
"""


def rich_ground():
    return Control(RICH_PROGRAM).ground()


class TestRoundTrip:
    def test_all_fields_survive(self):
        program = rich_ground()
        back = loads_ground(dumps_ground(program))
        assert back.rules == program.rules
        assert back.weak_constraints == program.weak_constraints
        assert back.shows == program.shows
        assert back.possible_atoms == program.possible_atoms
        assert back.origins is None

    def test_atoms_reintern(self):
        # decoded atoms must be interchangeable with freshly built ones
        program = rich_ground()
        back = loads_ground(dumps_ground(program))
        assert set(back.possible_atoms) == set(program.possible_atoms)

    def test_solving_the_decoded_program_matches(self):
        from repro.asp.solver import StableModelSolver

        program = rich_ground()
        reference = {
            frozenset(m.atoms) for m in StableModelSolver(program).models()
        }
        decoded = loads_ground(dumps_ground(program))
        roundtrip = {
            frozenset(m.atoms) for m in StableModelSolver(decoded).models()
        }
        assert roundtrip == reference

    def test_empty_program(self):
        program = Control("").ground()
        back = loads_ground(dumps_ground(program))
        assert back.rules == program.rules
        assert back.possible_atoms == program.possible_atoms


class TestCompactness:
    def test_smaller_than_pickle(self):
        program = rich_ground()
        blob = dumps_ground(program)
        pickled = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < len(pickled)


class TestRejections:
    def test_bad_magic(self):
        with pytest.raises(SerializeError):
            loads_ground(b"NOPE" + b"\x00" * 16)

    def test_provenance_programs_refused(self):
        grounder = Grounder(parse_program("a. b :- a."), provenance=True)
        program = grounder.ground()
        assert program.origins is not None
        with pytest.raises(SerializeError):
            dumps_ground(program)

