"""Tests for ground-program shipping.

The contract: ``loads_ground(dumps_ground(p))`` reproduces every field
of the program structurally, and its atoms are the interned instances
the receiving process grounds itself.
"""

from repro.asp import Control
from repro.asp.serialize import dumps_ground, loads_ground

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
        # decoded atoms are the interned instances, not equal copies
        program = rich_ground()
        back = loads_ground(dumps_ground(program))
        assert len(back.possible_atoms) == len(program.possible_atoms)
        for decoded, interned in zip(back.possible_atoms, program.possible_atoms):
            assert decoded is interned

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
