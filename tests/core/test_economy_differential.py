"""Differential tests for the learnt-clause economy across the EPA
engine and the cube pool.

Two contracts.  First, the economy knobs (reduce-DB cadence via
``REPRO_REDUCE_BASE``, conflict minimization) must leave every CDCL
enumeration byte-identical — the economy changes how fast enumeration
runs, never what it enumerates.  The projected cube sweep learns no
clauses, so these checks run on ``analyze_stream``, the CDCL path.
Second, cubes that fall back to the CDCL enumerator inside pool workers
ship their economy counters back to the parent's statistics.
"""

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
    """CDCL enumeration output is invariant under the economy's on/off
    switch."""

    def _analyze(self, monkeypatch, reduce_base, **kwargs):
        monkeypatch.setenv("REPRO_REDUCE_BASE", reduce_base)
        engine = EpaEngine(chain_model(), REQ)
        outcomes = list(engine.analyze_stream(**kwargs))
        # the switch is only meaningful if the search learnt something
        assert engine.statistics.get_path("solving.solvers.learnt") > 0
        return EpaReport(outcomes, [r.name for r in REQ])

    def test_sweep_identical_economy_on_off(self, monkeypatch):
        off = self._analyze(monkeypatch, "0", max_faults=2)
        on = self._analyze(monkeypatch, "1", max_faults=2)
        assert _pairs(on) == _pairs(off)

    def test_with_paths_identical_economy_on_off(self, monkeypatch):
        off = self._analyze(monkeypatch, "0", max_faults=2, with_paths=True)
        on = self._analyze(monkeypatch, "1", max_faults=2, with_paths=True)
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
            monkeypatch, "0", max_faults=2, restrict_faults=restrict
        )
        on = self._analyze(
            monkeypatch, "1", max_faults=2, restrict_faults=restrict
        )
        assert _pairs(on) == _pairs(off)


class TestFallbackCubes:
    """Force every cube onto the CDCL fallback, inside pool workers."""

    def _force_fallback(self, monkeypatch):
        def raiser(self, project, on_model, assumptions=()):
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
        for key in ("learnt", "lbd_sum"):
            assert key in solvers
        assert "lbd_avg" in solvers
