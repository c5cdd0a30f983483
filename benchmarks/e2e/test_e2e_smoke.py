"""Smoke test of the end-to-end benchmark at a tiny scale.

Runs every workload in-process with tracing on and checks that the
metric names and units match ``BENCHMARK.json``, that every oracle
passes, and that the oracles do catch a wrong answer.  Run with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

import json
from dataclasses import replace

import pytest

from benchmarks.e2e import layers, run, workloads
from repro.epa import EpaReport

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.E2E_METRICS
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == layers.LAYER_METRICS


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_at_tiny_scale(name):
    result = workloads.measure(
        workloads.build(name, tiny=True), seed=1, seconds=0.01, trace=True
    )
    result["peak_rss_mb"] = 1.0
    _rows, metrics, attempted, failed = run.summarize(result, layers)
    failures = [line for rep in result["reps"] for line in rep["failures"]]
    assert failed == 0, failures
    assert attempted > 0
    assert {name: metric["unit"] for name, metric in metrics.items()} == dict(
        run.E2E_METRICS
    )
    assert all(metric["value"] > 0 for metric in metrics.values())
    per_layer = layers.summarize(result["reps"])
    assert {name for name, _unit, _better in layers.LAYER_METRICS} <= set(per_layer)
    assert per_layer["epa.engine.scenarios"] > 0
    assert result["trace"]["traceEvents"]


def test_sweep_oracle_catches_a_missing_scenario():
    workload = workloads.build("tank-sweep", tiny=True)
    state = workload.setup(0)
    record = workloads.Rep(traced=False)
    workload.run(state, record)
    workload.check(state, record)
    assert record.failures == []
    state.report = EpaReport(state.report.outcomes[:-1], state.report.requirements)
    workload.check(state, record)
    assert len(record.failures) == 1


def test_whatif_oracle_catches_a_wrong_verdict():
    workload = workloads.build("whatif-session", tiny=True)
    state = workload.setup(0)
    record = workloads.Rep(traced=False)
    workload.run(state, record)
    workload.check(state, record)
    assert record.failures == []
    position = next(
        index for index, query in enumerate(state.queries) if query[0] == "point"
    )
    answer = state.answers[position]
    state.answers[position] = replace(answer, violated=answer.violated ^ {"bogus"})
    workload.check(state, record)
    assert len(record.failures) == 1
