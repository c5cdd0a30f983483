"""Command-line interface.

The paper describes a *tool* for analysts "of average skills"; this CLI
is the terminal face of it:

``python -m repro matrix``
    print the O-RA risk matrix (Table I);
``python -m repro casestudy``
    reproduce the water-tank analysis (Table II) and its risk register;
``python -m repro validate model.xml``
    check an ArchiMate-exchange model file;
``python -m repro analyze model.xml -r "r1=err(valve, K), hazardous_kind(K)"``
    exhaustive EPA over a model file with inline requirements;
``python -m repro explain model.xml -r "..." --why "err(v, value)"``
    proof-backed explanations: re-solve one scenario with provenance
    tracking and print the derivation DAG of each queried atom
    (``--dot``/``--provenance`` export DOT/JSON, see
    ``docs/explainability.md``);
``python -m repro assess model.xml [--refined refined.xml] [--budget N]``
    the full 7-phase pipeline with the built-in security catalog;
``python -m repro fleet --tiers 3 --components 6 --out fleet.xml``
    generate a seeded synthetic fleet model (see
    :mod:`repro.security.fleet`) and print its exact scenario count —
    the workload generator for million-scenario streaming sweeps.

The solving commands (``analyze``, ``assess``) share one observability
flag set: ``--stats`` appends a clingo-style statistics summary block
(grounding sizes, CDCL counters, per-stage times); ``--trace FILE``
streams solver span/event traffic to ``FILE`` (``-`` for
human-readable lines on stderr), with ``--trace-format chrome``
switching from JSON lines to Chrome trace-event JSON loadable in
Perfetto; ``--metrics FILE`` dumps the process-wide metrics registry
in Prometheus text exposition format (``-`` for stdout); ``--profile
FILE`` wraps the run in :mod:`cProfile` and dumps the stats file.  See
``docs/observability.md``.  They also take ``--workers N`` to shard
the scenario sweeps over a process pool — results are identical to a
sequential run, and worker trace events/metrics are folded back tagged
``worker=<i>`` (see ``docs/performance.md``).  ``analyze --stream``
switches to the bounded-memory streaming sweep (``--checkpoint FILE``
makes it resumable; see ``docs/streaming.md``).

The same commands take ``--progress`` (a live scenarios/sec + cubes +
ETA line on stderr, also exported as ``repro_progress_*`` gauges),
``--ledger`` / ``--runs-root DIR`` (record the run — manifest, metrics
snapshot, stats digest, result digest — into a content-addressed run
directory and the append-only run ledger), and ``--manifest FILE`` (a
one-shot provenance manifest without the ledger).  ``python -m repro
runs list|show|diff|gc`` browses the ledger; ``runs diff`` compares a
run against another (default: its most recent same-config baseline)
and flags result changes and duration regressions.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .casestudy import analysis_table, static_requirements
from .core import AssessmentPipeline
from .epa import EpaEngine, EpaError, StaticRequirement
from .epa.aggregate import SerializeError
from .modeling import from_xml, validate
from .observability import (
    ProgressRenderer,
    ProgressTracker,
    format_statistics,
    open_trace,
    run_manifest,
    write_metrics,
)
from .observability.ledger import (
    LedgerError,
    RunRecorder,
    config_digest,
    diff_runs,
    file_digest,
    gc_runs,
    list_runs,
    load_manifest,
    resolve_run,
)
from .observability.metrics import get_registry
from .parallel import ParallelError
from .reporting import (
    analysis_results_report,
    assessment_report,
    epa_report_table,
    risk_matrix_report,
    risk_register_report,
)
from .risk import RiskRegister, frequency_of_simultaneous, magnitude_of_violations, ora_risk_matrix
from .security import builtin_catalog


def _parse_requirement(text: str) -> StaticRequirement:
    """Parse ``name=condition[@focus][!magnitude]`` CLI syntax."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            "requirement must look like name=condition[@focus][!magnitude]"
        )
    name, rest = text.split("=", 1)
    magnitude = "H"
    focus = ""
    if "!" in rest:
        rest, magnitude = rest.rsplit("!", 1)
    if "@" in rest:
        rest, focus = rest.rsplit("@", 1)
    return StaticRequirement(
        name.strip(), rest.strip(), focus.strip(), magnitude.strip()
    )


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return from_xml(handle.read())


def _cmd_matrix(args: argparse.Namespace) -> int:
    print(risk_matrix_report(ora_risk_matrix()))
    return 0


def _cmd_casestudy(args: argparse.Namespace) -> int:
    rows = analysis_table(horizon=args.horizon)
    print(analysis_results_report(rows))
    register = RiskRegister()
    magnitudes = {r.name: r.magnitude for r in static_requirements()}
    for row in rows:
        violated = [
            name
            for name, flag in (("r1", row.r1_violated), ("r2", row.r2_violated))
            if flag
        ]
        if violated:
            register.add(
                row.scenario,
                frequency_of_simultaneous(len(row.faults) or 1),
                magnitude_of_violations(violated, magnitudes),
                violated_requirements=violated,
            )
    print()
    print(risk_register_report(register))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    report = validate(model)
    print(
        "%s: %d elements, %d relationships"
        % (model.name, len(model.elements), len(model.relationships))
    )
    print(report)
    return 0 if report.ok else 1


class _SolvingRun:
    """Observability state shared between a solving command's prologue
    and epilogue: the optional profiler, run recorder and progress
    tracker/renderer, plus the result fields the command body fills in
    as it goes (statistics tree, canonical result digest, summary
    counts, the error if one escaped)."""

    def __init__(self, command: str, digest: str):
        self.command = command
        self.config_digest = digest
        self.profiler: Optional[cProfile.Profile] = None
        self.recorder: Optional[RunRecorder] = None
        self.tracker: Optional[ProgressTracker] = None
        self.renderer: Optional[ProgressRenderer] = None
        self.stats: Optional[object] = None
        self.result_digest: Optional[str] = None
        self.summary: Dict[str, Any] = {}
        self.error: Optional[BaseException] = None


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(report) -> str:
    """Canonical result digest of a materialized EPA report.

    A sorted vector of (faults, violated requirements, severity) per
    scenario — stable across worker counts, cube layouts and outcome
    ordering, which is exactly what makes two same-config runs
    comparable in ``repro runs diff``.
    """
    vector = sorted(
        (
            sorted(str(fault) for fault in outcome.active_faults),
            sorted(outcome.violated),
            outcome.severity_rank,
        )
        for outcome in report.outcomes
    )
    return _digest_bytes(
        json.dumps(vector, sort_keys=True, default=str).encode("utf-8")
    )


def _requirement_config(
    requirements: Sequence[StaticRequirement],
) -> List[List[str]]:
    return [
        [r.name, r.condition, r.focus, r.magnitude]
        for r in requirements or ()
    ]


def _start_solving_command(
    args: argparse.Namespace,
    command: str,
    config: Mapping[str, Any],
) -> _SolvingRun:
    """Shared prologue of the solving commands: a clean metrics slate
    for this run, the run recorder / progress tracker when requested,
    and an optional profiler around the solve.

    ``config`` is the command's *result-determining* configuration —
    model content digest, requirements, bounds — deliberately excluding
    the worker count, a performance setting: runs that share a config
    digest are supposed to produce the same numbers.
    """
    get_registry().reset()
    run = _SolvingRun(command, config_digest(config))
    if getattr(args, "ledger", False) or getattr(args, "runs_root", None):
        run.recorder = RunRecorder(
            command, config, root=getattr(args, "runs_root", None)
        )
    if getattr(args, "progress", False):
        run.renderer = ProgressRenderer()
        run.tracker = ProgressTracker(on_update=run.renderer.update)
    if getattr(args, "profile", None):
        run.profiler = cProfile.Profile()
        run.profiler.enable()
    return run


def _finish_solving_command(
    args: argparse.Namespace, run: _SolvingRun
) -> None:
    """Shared epilogue: final progress line, profile dump, metrics
    snapshot, one-shot manifest, and the run recorder's closing entry
    (``error`` status when an exception escaped the command body)."""
    if run.renderer is not None:
        run.renderer.close()
    if run.profiler is not None:
        run.profiler.disable()
        run.profiler.dump_stats(args.profile)
    if getattr(args, "metrics", None):
        write_metrics(get_registry(), args.metrics)
    trace = getattr(args, "trace", None)
    trace_file = trace if trace and trace != "-" else None
    if getattr(args, "manifest", None):
        _write_oneshot_manifest(args.manifest, run)
    if run.recorder is not None:
        if run.error is not None:
            run.recorder.fail(
                run.error, stats=run.stats, trace_file=trace_file
            )
        else:
            if run.summary:
                run.recorder.note(**run.summary)
            run.recorder.finish(
                stats=run.stats,
                result_digest=run.result_digest,
                trace_file=trace_file,
            )


def _write_oneshot_manifest(path: str, run: _SolvingRun) -> None:
    """``--manifest FILE``: provenance without the ledger."""
    extra: Dict[str, Any] = {
        "command": run.command,
        "config_digest": run.config_digest,
        "status": "error" if run.error is not None else "complete",
    }
    if run.result_digest is not None:
        extra["result_digest"] = run.result_digest
    if run.summary:
        extra["summary"] = dict(run.summary)
    manifest = run_manifest(stats=run.stats, extra=extra)
    payload = json.dumps(manifest, indent=2, sort_keys=True, default=str)
    if path == "-":
        print(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _analyze_config(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "command": "analyze",
        "model_sha256": file_digest(args.model),
        "requirements": _requirement_config(args.requirement),
        "max_faults": args.max_faults,
        "stream": bool(args.stream or args.checkpoint),
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if not args.requirement:
        print("at least one --requirement is needed", file=sys.stderr)
        return 2
    run = _start_solving_command(args, "analyze", _analyze_config(args))
    try:
        with open_trace(args.trace, format=args.trace_format) as sink:
            engine = EpaEngine(
                model,
                args.requirement,
                trace=sink,
                workers=args.workers,
                progress=run.tracker,
            )
            if args.stream or args.checkpoint:
                try:
                    aggregate = engine.aggregate(
                        max_faults=args.max_faults,
                        checkpoint=args.checkpoint,
                    )
                except (EpaError, SerializeError) as error:
                    # a refused token; a sweep failed in the pool raises
                    if isinstance(error.__cause__, ParallelError):
                        raise
                    run.error = error
                    print("error: %s" % error, file=sys.stderr)
                    return 2
                run.result_digest = _digest_bytes(aggregate.dumps())
                run.summary = {
                    "scenarios": aggregate.scenarios,
                    "violating": aggregate.violating,
                }
                print(aggregate.summary())
            else:
                report = engine.analyze(max_faults=args.max_faults)
                run.result_digest = _report_digest(report)
                run.summary = {
                    "scenarios": len(report),
                    "violating": len(report.violating()),
                }
                print(epa_report_table(report, max_rows=args.rows))
                print()
                print(
                    "%d scenarios analyzed, %d violating; "
                    "single points of failure: %s"
                    % (
                        len(report),
                        len(report.violating()),
                        ", ".join(
                            str(f)
                            for f in report.single_points_of_failure()
                        )
                        or "none",
                    )
                )
            run.stats = engine.statistics
            if args.stats:
                print()
                print(format_statistics(engine.statistics))
    except BaseException as error:
        run.error = error
        raise
    finally:
        _finish_solving_command(args, run)
    return 0


def _parse_faults(text: str) -> List["FaultRef"]:
    from .epa import FaultRef

    return [
        FaultRef.parse(part.strip())
        for part in text.split(",")
        if part.strip()
    ]


def _parse_deployment(text: str) -> dict:
    deployment: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise argparse.ArgumentTypeError(
                "deployment entries look like component:mitigation"
            )
        component, mitigation = part.split(":", 1)
        deployment.setdefault(component.strip(), []).append(mitigation.strip())
    return deployment


def _cmd_explain(args: argparse.Namespace) -> int:
    from .observability import proof_to_dot, proof_to_json
    from .provenance import ProvenanceError
    from .reporting import proof_report

    model = _load_model(args.model)
    if not args.requirement:
        print("at least one --requirement is needed", file=sys.stderr)
        return 2
    deployment = _parse_deployment(args.mitigate) if args.mitigate else {}
    run = _start_solving_command(
        args,
        "explain",
        {
            "command": "explain",
            "model_sha256": file_digest(args.model),
            "requirements": _requirement_config(args.requirement),
            "max_faults": args.max_faults,
            "scenario": args.scenario or "",
            "mitigate": args.mitigate or "",
            "why": list(args.why or ()),
            "why_not": list(args.why_not or ()),
        },
    )
    try:
        with open_trace(args.trace, format=args.trace_format) as sink:
            engine = EpaEngine(
                model, args.requirement, trace=sink, progress=run.tracker
            )
            if args.scenario:
                faults = _parse_faults(args.scenario)
            else:
                # default to the first violating scenario of a bounded
                # sweep — the natural "explain the problem" entry point
                report = engine.analyze(
                    max_faults=args.max_faults,
                    active_mitigations=deployment,
                )
                violating = report.violating()
                if not violating:
                    print(
                        "no violating scenario at max-faults=%d; "
                        "pass --scenario to pick one explicitly"
                        % args.max_faults
                    )
                    return 0
                faults = sorted(violating[0].active_faults, key=str)
            proof = engine.prove_scenario(faults, deployment)
            print(
                "scenario [%s]%s"
                % (
                    ", ".join(str(f) for f in faults) or "nominal",
                    " with %s" % deployment if deployment else "",
                )
            )
            targets = list(args.why or [])
            if not targets and not args.why_not:
                targets = [str(a) for a in proof.violations()]
                if not targets:
                    print("scenario violates nothing; nothing to prove")
                    return 0
            first_root = None
            for query in targets:
                try:
                    root = proof.why(query)
                except ProvenanceError as error:
                    print("why %s: %s" % (query, error), file=sys.stderr)
                    return 1
                if first_root is None:
                    first_root = root
                print()
                print(proof_report(root))
            for query in args.why_not or []:
                try:
                    text = proof.why_not_text(query)
                except ProvenanceError as error:
                    print("why-not %s: %s" % (query, error), file=sys.stderr)
                    return 1
                print()
                print(text)
            if first_root is not None and args.dot:
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(proof_to_dot(first_root))
            if first_root is not None and args.provenance:
                with open(args.provenance, "w", encoding="utf-8") as handle:
                    handle.write(proof_to_json(first_root))
            run.stats = engine.statistics
            if args.stats:
                print()
                print(format_statistics(engine.statistics))
    except BaseException as error:
        run.error = error
        raise
    finally:
        _finish_solving_command(args, run)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .modeling import to_xml
    from .security.fleet import FleetSpec, build_fleet_model

    spec = FleetSpec(
        name=args.name,
        seed=args.seed,
        tiers=args.tiers,
        components_per_tier=args.components,
        connectivity=args.connectivity,
        fault_modes_per_component=args.fault_modes,
        max_faults=args.max_faults,
        requirements=args.requirements,
    )
    model = build_fleet_model(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(to_xml(model))
    print(
        "%s: %d tiers x %d components, %d fault pairs"
        % (
            model.name,
            spec.tiers,
            spec.components_per_tier,
            spec.fault_pairs,
        )
    )
    print(
        "exact scenario count at max-faults=%d: %d"
        % (spec.max_faults, spec.scenario_count())
    )
    if args.out:
        focus = "t%d_c0" % (spec.tiers - 1)
        print(
            "analyze with: repro analyze %s --stream --max-faults %d "
            '-r "req0=err(%s, K), hazardous_kind(K)@%s"'
            % (args.out, spec.max_faults, focus, focus)
        )
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    refined = _load_model(args.refined) if args.refined else None
    requirements = args.requirement or static_requirements()
    run = _start_solving_command(
        args,
        "assess",
        {
            "command": "assess",
            "model_sha256": file_digest(args.model),
            "refined_sha256": (
                file_digest(args.refined) if args.refined else None
            ),
            "requirements": _requirement_config(requirements),
            "max_faults": args.max_faults,
            "budget": args.budget,
        },
    )
    try:
        with open_trace(args.trace, format=args.trace_format) as sink:
            pipeline = AssessmentPipeline(
                requirements,
                builtin_catalog(),
                max_faults=args.max_faults,
                budget=args.budget,
                trace=sink,
                workers=args.workers,
                progress=run.tracker,
            )
            result = pipeline.run(model, refined_model=refined)
            # the report digest plus the chosen plan: the full verdict
            run.result_digest = _digest_bytes(
                (_report_digest(result.report) + str(result.plan)).encode(
                    "utf-8"
                )
            )
            run.summary = {
                "scenarios": len(result.report),
                "violating": len(result.report.violating()),
            }
            run.stats = result.statistics
            print(assessment_report(result))
            if args.stats:
                print()
                print(format_statistics(result.statistics))
    except BaseException as error:
        run.error = error
        raise
    finally:
        _finish_solving_command(args, run)
    return 0


def _format_run_row(entry: Mapping[str, Any]) -> str:
    duration = entry.get("duration_s")
    parts = [
        entry["run_id"],
        entry.get("status", "partial"),
        entry.get("command", "?"),
        "%.2fs" % duration if duration is not None else "-",
    ]
    if "scenarios" in entry:
        parts.append("scenarios=%s" % entry["scenarios"])
    if "violating" in entry:
        parts.append("violating=%s" % entry["violating"])
    return "  ".join(str(part) for part in parts)


def _print_diff(diff: Mapping[str, Any]) -> None:
    print("a: %s" % diff["a"])
    print("b: %s" % diff["b"])
    print("config: %s" % ("match" if diff["config_match"] else "differ"))
    result_match = diff["result_match"]
    print(
        "result: %s"
        % (
            "unknown"
            if result_match is None
            else "match" if result_match else "differ"
        )
    )
    for key in ("scenarios", "violating"):
        delta = diff["%s_delta" % key]
        print(
            "%s delta: %s" % (key, "unknown" if delta is None else delta)
        )
    duration_a, duration_b = diff["duration_a"], diff["duration_b"]
    ratio = diff["duration_ratio"]
    if duration_a is not None and duration_b is not None:
        print(
            "duration: %.2fs vs %.2fs%s"
            % (
                duration_a,
                duration_b,
                " (ratio %.2f)" % ratio if ratio is not None else "",
            )
        )
    print("stats digest: %s" % ("match" if diff["stats_match"] else "differ"))
    if diff["zero_deltas"]:
        print("zero deltas")
    if diff["regression"]:
        if result_match is False:
            print("REGRESSION: result changed under the same config")
        else:
            print(
                "REGRESSION: duration ratio %.2f exceeds %.2f"
                % (ratio, 1.25)
            )


def _cmd_runs(args: argparse.Namespace) -> int:
    root = getattr(args, "root", None)
    try:
        if args.runs_command == "list":
            entries = list_runs(root)
            if not entries:
                print("no recorded runs")
                return 0
            for entry in entries:
                print(_format_run_row(entry))
        elif args.runs_command == "show":
            run_id = resolve_run(args.run, root)
            manifest = load_manifest(run_id, root)
            print(
                json.dumps(manifest, indent=2, sort_keys=True, default=str)
            )
        elif args.runs_command == "diff":
            _print_diff(diff_runs(args.run_a, args.run_b, root))
        else:  # gc
            removed = gc_runs(args.keep, root)
            if removed:
                print("removed %d run(s):" % len(removed))
                for run_id in removed:
                    print("  %s" % run_id)
            else:
                print("nothing to remove")
    except LedgerError as error:
        print(str(error), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Preliminary risk and mitigation assessment for "
        "cyber-physical systems (DSN 2023 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # shared observability flags for the commands that solve
    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "--stats",
        action="store_true",
        help="append a clingo-style solver statistics summary",
    )
    observability.add_argument(
        "--trace",
        metavar="FILE",
        help="stream solver trace events to FILE "
        "('-' for human-readable lines on stderr)",
    )
    observability.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: JSON lines (default) or Chrome "
        "trace-event JSON for Perfetto / chrome://tracing",
    )
    observability.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the run's metrics registry in Prometheus text "
        "exposition format to FILE ('-' for stdout)",
    )
    observability.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the run with cProfile and dump the stats to FILE "
        "(inspect with python -m pstats)",
    )
    observability.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard scenario sweeps over N worker processes "
        "(results are identical to a sequential run; worker trace "
        "events and metrics fold back tagged worker=<i>)",
    )
    observability.add_argument(
        "--progress",
        action="store_true",
        help="live progress line on stderr (scenarios/sec, cubes "
        "done/total, ETA), also exported as repro_progress_* gauges",
    )
    observability.add_argument(
        "--ledger",
        action="store_true",
        help="record this run into the run ledger: a content-addressed "
        "run directory (manifest, metrics, stats digest, trace copy) "
        "plus an append-only JSONL index; browse with 'repro runs'",
    )
    observability.add_argument(
        "--runs-root",
        metavar="DIR",
        help="where recorded runs live (implies --ledger; default "
        ".repro/runs, or env REPRO_RUNS_DIR)",
    )
    observability.add_argument(
        "--manifest",
        metavar="FILE",
        help="write a one-shot JSON run manifest (argv, git rev, config "
        "and result digests, summary counts) to FILE ('-' for stdout) "
        "without recording to the ledger",
    )

    subparsers.add_parser("matrix", help="print the O-RA risk matrix (Table I)")

    casestudy = subparsers.add_parser(
        "casestudy", help="reproduce the water-tank analysis (Table II)"
    )
    casestudy.add_argument("--horizon", type=int, default=4)

    validate_cmd = subparsers.add_parser(
        "validate", help="validate an ArchiMate-exchange model file"
    )
    validate_cmd.add_argument("model")

    analyze = subparsers.add_parser(
        "analyze",
        help="exhaustive EPA over a model file",
        parents=[observability],
    )
    analyze.add_argument("model")
    analyze.add_argument(
        "-r",
        "--requirement",
        action="append",
        type=_parse_requirement,
        help="name=condition[@focus][!magnitude]; repeatable",
    )
    analyze.add_argument("--max-faults", type=int, default=2)
    analyze.add_argument("--rows", type=int, default=30)
    analyze.add_argument(
        "--stream",
        action="store_true",
        help="bounded-memory streaming sweep: fold scenarios into a "
        "running aggregate instead of materializing the report "
        "(see docs/streaming.md)",
    )
    analyze.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="make the streamed sweep resumable: periodically write a "
        "JSON resume token to FILE (implies --stream)",
    )

    explain = subparsers.add_parser(
        "explain",
        help="proof-backed scenario explanations (derivation DAGs)",
        parents=[observability],
    )
    explain.add_argument("model")
    explain.add_argument(
        "-r",
        "--requirement",
        action="append",
        type=_parse_requirement,
        help="name=condition[@focus][!magnitude]; repeatable",
    )
    explain.add_argument(
        "--scenario",
        metavar="REFS",
        help="comma-separated component.fault refs to pin active "
        "(default: the first violating scenario found)",
    )
    explain.add_argument(
        "--mitigate",
        metavar="DEPLOY",
        help="comma-separated component:mitigation deployment",
    )
    explain.add_argument("--max-faults", type=int, default=2)
    explain.add_argument(
        "--why",
        action="append",
        metavar="ATOM",
        help="prove this atom of the scenario model; repeatable "
        "(default: every violated(R) atom)",
    )
    explain.add_argument(
        "--why-not",
        action="append",
        metavar="ATOM",
        help="explain why this atom is absent; repeatable",
    )
    explain.add_argument(
        "--dot",
        metavar="FILE",
        help="write the first proof DAG as Graphviz DOT",
    )
    explain.add_argument(
        "--provenance",
        metavar="FILE",
        help="write the first proof DAG as JSON",
    )

    assess = subparsers.add_parser(
        "assess",
        help="the full 7-phase assessment pipeline",
        parents=[observability],
    )
    assess.add_argument("model")
    assess.add_argument("--refined", help="refined model file (CEGAR oracle)")
    assess.add_argument(
        "-r", "--requirement", action="append", type=_parse_requirement
    )
    assess.add_argument("--max-faults", type=int, default=1)
    assess.add_argument("--budget", type=int, default=None)

    fleet = subparsers.add_parser(
        "fleet",
        help="generate a seeded synthetic fleet model "
        "(workloads for streaming sweeps)",
    )
    fleet.add_argument("--name", default="fleet")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--tiers", type=int, default=3)
    fleet.add_argument(
        "--components",
        type=int,
        default=4,
        metavar="N",
        help="components per tier",
    )
    fleet.add_argument(
        "--connectivity",
        type=int,
        default=2,
        metavar="N",
        help="flow edges from each component into the next tier",
    )
    fleet.add_argument(
        "--fault-modes",
        type=int,
        default=2,
        metavar="N",
        help="synthetic fault modes per component",
    )
    fleet.add_argument(
        "--max-faults",
        type=int,
        default=2,
        help="sweep bound the spec is sized for (0 = unbounded)",
    )
    fleet.add_argument(
        "--requirements",
        type=int,
        default=2,
        metavar="N",
        help="generated safety requirements on the physical tier",
    )
    fleet.add_argument(
        "--out",
        metavar="FILE",
        help="write the model as ArchiMate-exchange XML to FILE",
    )

    runs = subparsers.add_parser(
        "runs",
        help="browse the run ledger: list, show, diff, gc",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="every recorded run, newest first"
    )
    runs_show = runs_sub.add_parser(
        "show", help="print one run's manifest"
    )
    runs_show.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run id, unique prefix, or 'latest' (default)",
    )
    runs_diff = runs_sub.add_parser(
        "diff",
        help="compare two runs' results, counts and durations "
        "(default: the latest run against its most recent "
        "same-config baseline)",
    )
    runs_diff.add_argument(
        "run_a", nargs="?", default="latest", help="run id or prefix"
    )
    runs_diff.add_argument(
        "run_b",
        nargs="?",
        default=None,
        help="baseline run (default: newest earlier completed run "
        "with the same config digest)",
    )
    runs_gc = runs_sub.add_parser(
        "gc", help="drop all but the newest runs and compact the ledger"
    )
    runs_gc.add_argument(
        "--keep", type=int, default=20, metavar="N",
        help="runs to keep (default 20)",
    )
    for sub in (runs_list, runs_show, runs_diff, runs_gc):
        sub.add_argument(
            "--root",
            metavar="DIR",
            help="runs root (default .repro/runs, or env REPRO_RUNS_DIR)",
        )
    return parser


_COMMANDS = {
    "matrix": _cmd_matrix,
    "casestudy": _cmd_casestudy,
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "explain": _cmd_explain,
    "assess": _cmd_assess,
    "fleet": _cmd_fleet,
    "runs": _cmd_runs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
