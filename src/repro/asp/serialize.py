"""Ground-program shipping for spawn-started sweep workers.

A sweep's template (:mod:`repro.epa.engine`) crosses to a spawn-started
worker as its ground program, through :func:`dumps_ground` and
:func:`loads_ground` — plain :mod:`pickle` at the highest protocol.
Terms and atoms reduce through their interning constructors, so a
decoded program's atoms are the receiving process's canonical
instances.  Fork-started workers inherit the program and ship nothing.

Exports: :func:`dumps_ground`, :func:`loads_ground`.
"""

from __future__ import annotations

import pickle

from .ground import GroundProgram


def dumps_ground(program: GroundProgram) -> bytes:
    """Pickle ``program`` for a worker process."""
    return pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)


def loads_ground(blob: bytes) -> GroundProgram:
    """Rebuild a program pickled by :func:`dumps_ground`."""
    return pickle.loads(blob)


__all__ = ["dumps_ground", "loads_ground"]
