"""Tests for the command-line interface."""

import pytest

from repro.casestudy import build_system_model
from repro.cli import _parse_requirement, build_parser, main
from repro.modeling import to_xml


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.xml"
    path.write_text(to_xml(build_system_model()), encoding="utf-8")
    return str(path)


class TestRequirementParsing:
    def test_simple(self):
        requirement = _parse_requirement("r1=err(valve, value)")
        assert requirement.name == "r1"
        assert requirement.condition == "err(valve, value)"
        assert requirement.magnitude == "H"

    def test_focus_and_magnitude(self):
        requirement = _parse_requirement("r1=err(v, value)@v!VH")
        assert requirement.focus == "v"
        assert requirement.magnitude == "VH"

    def test_missing_equals_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_requirement("just_a_name")


class TestCommands:
    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "O-RA risk matrix" in out
        assert "VH" in out

    def test_casestudy(self, capsys):
        assert main(["casestudy", "--horizon", "3"]) == 0
        out = capsys.readouterr().out
        assert "Analysis Results (Table II)" in out
        assert "Risk register" in out
        assert out.count("Violated") >= 6

    def test_validate_ok(self, capsys, model_file):
        assert main(["validate", model_file]) == 0
        out = capsys.readouterr().out
        assert "water_tank_system" in out

    def test_validate_bad_model(self, capsys, tmp_path):
        from repro.modeling import ElementType, RelationshipType, SystemModel

        model = SystemModel("bad")
        model.add_element("a", "A", ElementType.NODE)
        model.add_element("b", "B", ElementType.NODE)
        model.add_relationship(
            "a", "b", RelationshipType.PHYSICAL_CONNECTION, check=False
        )
        path = tmp_path / "bad.xml"
        path.write_text(to_xml(model), encoding="utf-8")
        assert main(["validate", str(path)]) == 1

    def test_analyze(self, capsys, model_file):
        code = main(
            [
                "analyze",
                model_file,
                "-r",
                "r1=err(water_tank, K), hazardous_kind(K)@water_tank!VH",
                "--max-faults",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenarios analyzed" in out
        assert "single points of failure" in out

    def test_analyze_without_requirements_fails(self, capsys, model_file):
        assert main(["analyze", model_file]) == 2

    def test_analyze_stats(self, capsys, model_file):
        code = main(
            [
                "analyze",
                model_file,
                "-r",
                "r1=err(water_tank, K), hazardous_kind(K)@water_tank!VH",
                "--max-faults",
                "1",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Models" in out
        assert "Choices" in out
        assert "Time" in out
        assert "Grounding" in out

    def test_analyze_trace_file(self, capsys, tmp_path, model_file):
        import json

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "analyze",
                model_file,
                "-r",
                "r1=err(water_tank, K), hazardous_kind(K)@water_tank!VH",
                "--max-faults",
                "1",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        assert records
        names = {record["event"] for record in records}
        assert "grounder.done" in names
        # the search shows up as one event per enumerated cube
        cubes = [r for r in records if r["event"] == "epa.cube"]
        analyzed = [
            r for r in records if r["event"] == "epa.analyze" and r["span"] == "E"
        ]
        assert sum(r["models"] for r in cubes) == analyzed[0]["scenarios"] > 0

    def test_assess(self, capsys, model_file):
        code = main(["assess", model_file, "--max-faults", "1", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ASSESSMENT REPORT" in out
        assert "Mitigation" in out
        # --stats appends the clingo-style summary block
        assert "Models" in out
        assert "Conflicts" in out

    def test_assess_workers_output_matches_serial(self, capsys, model_file):
        assert main(["assess", model_file, "--max-faults", "1"]) == 0
        serial = capsys.readouterr().out
        code = main(
            ["assess", model_file, "--max-faults", "1", "--workers", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out == serial

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


REQUIREMENT = "r1=err(water_tank, K), hazardous_kind(K)@water_tank!VH"


class TestObservabilityFlags:
    def _analyze(self, model_file, *extra):
        return main(
            ["analyze", model_file, "-r", REQUIREMENT, "--max-faults", "1"]
            + list(extra)
        )

    def test_workers_and_trace_compose(self, capsys, tmp_path, model_file):
        """--workers N --trace FILE emits worker-tagged events from all
        workers and the analysis output stays identical to serial."""
        import json

        assert self._analyze(model_file) == 0
        serial_out = capsys.readouterr().out
        trace_path = tmp_path / "trace.jsonl"
        code = self._analyze(
            model_file, "--workers", "2", "--trace", str(trace_path)
        )
        assert code == 0
        assert capsys.readouterr().out == serial_out
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        workers = {r["worker"] for r in records if "worker" in r}
        assert workers == {0, 1}
        # replayed worker streams carry the per-cube enumeration spans
        tagged_names = {r["event"] for r in records if "worker" in r}
        assert "epa.cube" in tagged_names

    def test_trace_format_chrome(self, tmp_path, model_file):
        import json

        trace_path = tmp_path / "trace.json"
        code = self._analyze(
            model_file,
            "--trace",
            str(trace_path),
            "--trace-format",
            "chrome",
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        names = {e["name"] for e in doc["traceEvents"]}
        assert "epa.analyze" in names
        assert "control.ground" in names
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete and all(e["dur"] >= 0 for e in complete)

    def test_metrics_file(self, tmp_path, model_file):
        metrics_path = tmp_path / "metrics.prom"
        assert self._analyze(model_file, "--metrics", str(metrics_path)) == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_models_total counter" in text
        assert "repro_solve_calls_total" in text
        assert 'repro_stage_seconds_bucket{stage="solve",le="+Inf"}' in text

    def test_metrics_dash_goes_to_stdout(self, capsys, model_file):
        assert self._analyze(model_file, "--metrics", "-") == 0
        assert "repro_models_total" in capsys.readouterr().out

    def test_metrics_reset_per_run(self, tmp_path, model_file):
        """Each solving command starts from a zeroed registry, so two
        identical runs report identical counter totals."""
        first = tmp_path / "first.prom"
        second = tmp_path / "second.prom"
        assert self._analyze(model_file, "--metrics", str(first)) == 0
        assert self._analyze(model_file, "--metrics", str(second)) == 0
        models = [
            line
            for line in first.read_text().splitlines()
            if line.startswith("repro_models_total ")
        ]
        assert models
        assert models == [
            line
            for line in second.read_text().splitlines()
            if line.startswith("repro_models_total ")
        ]

    def test_profile_dump(self, tmp_path, model_file):
        import pstats

        profile_path = tmp_path / "run.pstats"
        assert self._analyze(model_file, "--profile", str(profile_path)) == 0
        stats = pstats.Stats(str(profile_path))
        assert stats.stats  # non-empty profile

    def test_assess_takes_the_same_flags(self, capsys, tmp_path, model_file):
        import json

        trace_path = tmp_path / "assess.json"
        metrics_path = tmp_path / "assess.prom"
        code = main(
            [
                "assess",
                model_file,
                "--max-faults",
                "1",
                "--trace",
                str(trace_path),
                "--trace-format",
                "chrome",
                "--metrics",
                str(metrics_path),
            ]
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "pipeline.run" in names
        assert "pipeline.phase" in names
        assert "repro_stage_seconds" in metrics_path.read_text()

    def test_reduce_base_flag_is_gone(self, capsys, model_file):
        # the SAT search has no CLI knob: the retired flag is an error
        with pytest.raises(SystemExit) as exit_info:
            self._analyze(model_file, "--reduce-base", "1")
        assert exit_info.value.code == 2
        assert "--reduce-base" in capsys.readouterr().err

    def test_workers_help_mentions_composition(self):
        parser = build_parser()
        help_text = parser.format_help()
        # the old carve-out ("ignored while --trace is active") is gone
        sub_help = [
            a for a in parser._subparsers._group_actions[0].choices.items()
        ]
        analyze_help = dict(sub_help)["analyze"].format_help()
        assert "ignored while --trace" not in analyze_help
        assert "worker" in analyze_help


class TestRunLedgerCli:
    def _analyze(self, model_file, *extra):
        return main(
            ["analyze", model_file, "-r", REQUIREMENT, "--max-faults", "1"]
            + list(extra)
        )

    def test_round_trip_diffs_to_zero_deltas(
        self, capsys, tmp_path, model_file
    ):
        """Two identical runs share a config digest and diff clean."""
        root = str(tmp_path / "runs")
        assert self._analyze(model_file, "--runs-root", root) == 0
        assert self._analyze(model_file, "--runs-root", root) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "config: match" in out
        assert "result: match" in out
        assert "zero deltas" in out

    def test_runs_list_and_show(self, capsys, tmp_path, model_file):
        root = str(tmp_path / "runs")
        assert self._analyze(model_file, "--runs-root", root) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--root", root]) == 0
        row = capsys.readouterr().out.strip()
        assert "complete" in row
        assert "analyze" in row
        assert "scenarios=" in row
        assert main(["runs", "show", "--root", root]) == 0
        import json

        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "analyze"
        assert manifest["status"] == "complete"
        assert "result_digest" in manifest
        assert manifest["config"]["max_faults"] == 1

    def test_runs_gc_drops_old_runs(self, capsys, tmp_path, model_file):
        root = str(tmp_path / "runs")
        for _ in range(3):
            assert self._analyze(model_file, "--runs-root", root) == 0
        capsys.readouterr()
        assert main(["runs", "gc", "--keep", "1", "--root", root]) == 0
        assert "removed 2 run(s)" in capsys.readouterr().out
        assert main(["runs", "list", "--root", root]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 1

    def test_runs_list_empty_root(self, capsys, tmp_path):
        root = str(tmp_path / "empty")
        assert main(["runs", "list", "--root", root]) == 0
        assert "no recorded runs" in capsys.readouterr().out

    def test_runs_diff_without_baseline_fails_cleanly(
        self, capsys, tmp_path, model_file
    ):
        root = str(tmp_path / "runs")
        assert self._analyze(model_file, "--runs-root", root) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "--root", root]) == 1
        assert "config digest" in capsys.readouterr().err

    def test_manifest_flag_writes_oneshot_manifest(
        self, tmp_path, model_file
    ):
        import json

        path = tmp_path / "manifest.json"
        assert self._analyze(model_file, "--manifest", str(path)) == 0
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "analyze"
        assert manifest["status"] == "complete"
        assert manifest["config_digest"]
        assert manifest["result_digest"]
        assert manifest["summary"]["scenarios"] > 0

    def test_progress_renders_live_line_on_stderr(self, capsys, model_file):
        assert self._analyze(model_file, "--progress") == 0
        captured = capsys.readouterr()
        assert "scenarios" in captured.err
        assert captured.err.endswith("\n")
        # the report on stdout stays clean
        assert "scenarios analyzed" in captured.out

    def test_stream_run_records_matching_digests(
        self, capsys, tmp_path, model_file
    ):
        """Streamed runs round-trip through the ledger too."""
        root = str(tmp_path / "runs")
        args = ("--stream", "--runs-root", root)
        assert self._analyze(model_file, *args) == 0
        assert self._analyze(model_file, *args) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "--root", root]) == 0
        assert "zero deltas" in capsys.readouterr().out


class TestStreamingCli:
    def test_analyze_stream(self, capsys, model_file):
        code = main(
            [
                "analyze",
                model_file,
                "-r",
                REQUIREMENT,
                "--max-faults",
                "1",
                "--stream",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenarios analyzed" in out
        assert "single points of failure" in out

    def test_stream_matches_materialized_counts(self, capsys, model_file):
        args = ["analyze", model_file, "-r", REQUIREMENT, "--max-faults", "2"]
        assert main(args) == 0
        materialized = capsys.readouterr().out
        assert main(args + ["--stream"]) == 0
        streamed = capsys.readouterr().out
        # "N scenarios analyzed, M violating" vs
        # "scenarios analyzed: N (M violating, ...)"
        import re

        counts = re.search(
            r"(\d+) scenarios analyzed, (\d+) violating", materialized
        )
        header = re.search(
            r"scenarios analyzed: (\d+) \((\d+) violating", streamed
        )
        assert counts.groups() == header.groups()

    def test_checkpoint_implies_stream(self, capsys, tmp_path, model_file):
        token = tmp_path / "sweep.ckpt"
        code = main(
            [
                "analyze",
                model_file,
                "-r",
                REQUIREMENT,
                "--max-faults",
                "1",
                "--checkpoint",
                str(token),
            ]
        )
        assert code == 0
        assert token.exists()
        assert "scenarios analyzed" in capsys.readouterr().out
        # resume from the completed token reproduces the run
        assert (
            main(
                [
                    "analyze",
                    model_file,
                    "-r",
                    REQUIREMENT,
                    "--max-faults",
                    "1",
                    "--checkpoint",
                    str(token),
                ]
            )
            == 0
        )

    def test_cube_factor_flag_is_gone(self, capsys, model_file):
        # a sweep cuts a fixed 4 cubes per worker: the retired flag is
        # an error
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "analyze",
                    model_file,
                    "-r",
                    REQUIREMENT,
                    "--max-faults",
                    "1",
                    "--stream",
                    "--workers",
                    "2",
                    "--cube-factor",
                    "2",
                ]
            )
        assert exit_info.value.code == 2
        assert "--cube-factor" in capsys.readouterr().err

    def test_fleet_generates_model(self, capsys, tmp_path):
        out_path = tmp_path / "fleet.xml"
        code = main(
            [
                "fleet",
                "--tiers",
                "3",
                "--components",
                "3",
                "--fault-modes",
                "2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "18 fault pairs" in out
        assert "exact scenario count at max-faults=2: 172" in out
        assert "analyze with:" in out
        from repro.modeling import from_xml

        model = from_xml(out_path.read_text(encoding="utf-8"))
        assert len(model.elements) == 9

    def test_fleet_count_only(self, capsys):
        assert main(["fleet", "--tiers", "2", "--components", "2"]) == 0
        out = capsys.readouterr().out
        assert "8 fault pairs" in out
        assert "analyze with:" not in out
