"""Differential tests for the learnt-clause economy across the EPA
engine and the cube pool.

Two contracts.  First, forcing the economy (a restart after every
conflict and a reduce-DB pass at every restart, by patching
``RESTART_BASE`` and ``REDUCE_BASE``) must leave every CDCL enumeration
byte-identical — the economy changes how fast enumeration runs, never
what it enumerates.  At the default constants these enumerations never
restart, so they never reduce either.  The projected cube sweep learns
no clauses, so these checks run on ``analyze_stream``, the CDCL path.
Second, cubes that fall back to the CDCL enumerator inside pool workers
ship their search counters back to the parent's statistics.
"""

from repro.asp import sat
from repro.asp.solver import ProjectionIncomplete, StableModelSolver
from repro.epa import EpaEngine, EpaReport, StaticRequirement
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from tests.cdcl_reference import cdcl_outcomes

REQ = [
    StaticRequirement("rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"),
]


def chain_model():
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


def _pairs(report):
    return [
        (
            o.key(),
            tuple(sorted(o.violated)),
            o.severity_rank,
            tuple(sorted(o.detected_at)),
            tuple(sorted((c, tuple(sorted(k))) for c, k in o.erroneous.items())),
        )
        for o in report.outcomes
    ]


class TestEconomyDifferential:
    """CDCL enumeration output is the same with the economy forced on
    as at the default constants, where it never fires."""

    def _analyze(self, monkeypatch, forced, **kwargs):
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(sat, "RESTART_BASE", 1)
                patch.setattr(sat, "REDUCE_BASE", 1)
            engine = EpaEngine(chain_model(), REQ)
            outcomes = list(engine.analyze_stream(**kwargs))
        solvers = engine.statistics.get_path("solving.solvers")
        # the comparison is only meaningful if the search learnt
        # something and only the forced side deleted any of it
        assert solvers["learnt"] > 0
        assert (solvers["learnt_deleted"] > 0) is forced
        return EpaReport(outcomes, [r.name for r in REQ])

    def test_sweep_identical_economy_on_off(self, monkeypatch):
        off = self._analyze(monkeypatch, False, max_faults=2)
        on = self._analyze(monkeypatch, True, max_faults=2)
        assert _pairs(on) == _pairs(off)

    def test_with_paths_identical_economy_on_off(self, monkeypatch):
        off = self._analyze(monkeypatch, False, max_faults=2, with_paths=True)
        on = self._analyze(monkeypatch, True, max_faults=2, with_paths=True)
        assert _pairs(on) == _pairs(off)
        assert [o.paths for o in on.outcomes] == [o.paths for o in off.outcomes]

    def test_restricted_sweep_identical_economy_on_off(self, monkeypatch):
        probe = EpaEngine(chain_model(), REQ).analyze(max_faults=2)
        restrict = [
            next(iter(o.active_faults))
            for o in probe.outcomes
            if o.fault_count == 1
        ][:4]
        off = self._analyze(
            monkeypatch, False, max_faults=2, restrict_faults=restrict
        )
        on = self._analyze(
            monkeypatch, True, max_faults=2, restrict_faults=restrict
        )
        assert _pairs(on) == _pairs(off)


class TestFallbackCubes:
    """Force every cube onto the CDCL fallback, inside pool workers."""

    def _force_fallback(self, monkeypatch):
        def raiser(self, project, on_model, assumptions=(), max_true=None):
            raise ProjectionIncomplete("forced by test")

        monkeypatch.setattr(StableModelSolver, "project_models", raiser)

    def test_fallback_ships_economy_counters(self, monkeypatch):
        reference = cdcl_outcomes(EpaEngine(chain_model(), REQ), max_faults=2)
        self._force_fallback(monkeypatch)
        engine = EpaEngine(chain_model(), REQ, workers=2)
        report = engine.analyze(max_faults=2)
        assert report.outcomes == reference
        solvers = engine.statistics.get_path("solving.solvers")
        assert solvers is not None
        assert solvers["learnt"] > 0
        assert "learnt_deleted" in solvers
