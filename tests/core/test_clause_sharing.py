"""Differential tests for the learnt-clause economy across the EPA
engine and the cube pool.

Three contracts.  First, the economy knobs (reduce-DB cadence via
``REPRO_REDUCE_BASE``, conflict minimization) must leave every CDCL
enumeration byte-identical — the economy changes how fast enumeration
runs, never what it enumerates.  The projected cube sweep learns no
clauses, so these checks run on ``analyze_stream``, the CDCL path.
Second, the pool's dispatch-time ``decorate`` hook rewrites items
without disturbing result order or crash recovery.  Third, cube-level
glue sharing (exercised by forcing every cube onto the CDCL fallback
path) leaves the merged report identical to the CDCL reference with
sharing on or off.
"""

import pytest

from repro.asp.solver import ProjectionIncomplete, StableModelSolver
from repro.epa import EpaEngine, EpaReport, StaticRequirement
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.parallel import WorkStealingPool
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


def _identity(item):  # must be module-level: pool workers pickle it
    return item


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


class TestDecorateHook:
    def test_inprocess_decorate_rewrites_items(self):
        pool = WorkStealingPool(1)
        out = pool.map(
            _identity,
            [{"a": 1}, {"a": 2}],
            decorate=lambda index, item: dict(item, extra=index),
        )
        assert out == [{"a": 1, "extra": 0}, {"a": 2, "extra": 1}]

    def test_pool_decorate_runs_in_parent(self):
        # the hook itself is a closure (unpicklable): it must run at
        # dispatch time in the parent, only its output crossing to the
        # workers
        seen = []

        def decorate(index, item):
            seen.append(index)
            return dict(item, extra=index)

        pool = WorkStealingPool(2)
        out = pool.map(
            _identity, [{"a": i} for i in range(4)], decorate=decorate
        )
        assert out == [{"a": i, "extra": i} for i in range(4)]
        assert sorted(seen) == [0, 1, 2, 3]

    def test_decorate_absent_leaves_items_untouched(self):
        pool = WorkStealingPool(1)
        items = [{"a": 1}]
        assert pool.map(_identity, items) == items


class TestCubeGlueSharing:
    """Force every cube onto the CDCL fallback (where glue is exported
    and imported) and pin the merged report against the serial one."""

    def _force_fallback(self, monkeypatch):
        def raiser(self, project, on_model, assumptions=()):
            raise ProjectionIncomplete("forced by test")

        monkeypatch.setattr(StableModelSolver, "project_models", raiser)

    def test_fallback_report_identical_with_and_without_sharing(
        self, monkeypatch
    ):
        reference = cdcl_outcomes(EpaEngine(chain_model(), REQ), max_faults=2)
        self._force_fallback(monkeypatch)
        shared = EpaEngine(chain_model(), REQ, workers=2).analyze(
            max_faults=2
        )
        unshared = EpaEngine(
            chain_model(), REQ, workers=2, share_clauses=False
        ).analyze(max_faults=2)
        assert shared.outcomes == reference
        assert unshared.outcomes == reference

    def test_fallback_ships_economy_counters(self, monkeypatch):
        self._force_fallback(monkeypatch)
        engine = EpaEngine(chain_model(), REQ, workers=2)
        engine.analyze(max_faults=2)
        solvers = engine.statistics.get_path("solving.solvers")
        assert solvers is not None
        for key in ("learnt", "lbd_sum", "shared_exported", "shared_imported"):
            assert key in solvers
        assert "lbd_avg" in solvers
