#!/usr/bin/env python
"""Run the ASP benchmark suite and write ``BENCH_asp.json``.

Drives the pytest-benchmark files that characterize the embedded ASP
substrate (classic solver workloads, the Fig. 4 model build, the
grounding stressors), extracts per-bench medians, compares them against
the recorded pre-optimization baselines, and snapshots the solver /
grounder statistics of two representative workloads so regressions in
the fast path (argument indexing, enumeration backjumping) show up as
counter drift, not just time drift.

Also covered: the multi-shot mitigation sweeps, whose baselines are the
recorded fresh-control medians, so their speedup columns quantify
solver reuse rather than single-solve micro-optimizations, and the EPA
cube sweeps, whose sharded speedups are measured against the
in-process sweep of the same run (``RELATIVE_BASELINES``), so they
quantify parallelism alone.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [output.json]
    PYTHONPATH=src python benchmarks/run_bench.py --smoke [--record]
    PYTHONPATH=src python benchmarks/run_bench.py --record
    PYTHONPATH=src python benchmarks/run_bench.py --check

``--smoke`` runs every ``benchmarks/test_bench_*.py`` file once with
timing disabled (a CI sanity gate: the workloads still build, solve,
and agree with their embedded correctness assertions) and writes no
JSON output; ``BENCH_FILES`` is the set full runs and ``--check`` time.

``--record`` appends one ``{"bench", "seconds", "rev", "date"}`` row
per benchmark to ``BENCH_history.jsonl`` — per-bench medians on a full
run, per-file wall-clock times on a ``--smoke`` run (prefixed
``smoke:``) — giving the repository a greppable performance timeline
keyed by git revision.  Each bench file runs in its own pytest child
reaped with :func:`os.wait4`, so every row also carries the file's
peak child RSS as ``max_rss_kb`` (the memory timeline of the streaming
work, see ``docs/streaming.md``).

``--check`` reruns the suite and exits 1 if any benchmark's median
regressed more than 25% against the medians recorded in
``BENCH_asp.json`` — except the benches in ``STRICT_TOLERANCE``
(the provenance-off enumeration is gated at 3%: the off path is
contractually free).  Memory is gated the same way: a bench whose
``max_rss_kb`` grew more than 50% over the recorded value fails, and
the benches in ``MEMORY_CEILINGS_KB`` additionally carry absolute
caps — the streamed fleet sweep must stay bounded no matter what the
snapshot says.

``--big`` runs the full-scale fleet sweep (~210k scenarios) alone,
under a wall-clock limit and the absolute memory ceiling, printing
pydecbench-style resource accounting — the nightly/`workflow_dispatch`
big-bench CI job, kept off the PR path (see ``docs/streaming.md``).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"

#: tolerated slowdown vs the recorded medians before --check fails
REGRESSION_TOLERANCE = 1.25

#: benches gated tighter than the global tolerance; the provenance-off
#: enumeration must stay within 3% of its recorded median, because the
#: whole point of the off path is that it costs nothing
STRICT_TOLERANCE = {
    "test_bench_epa_enumerate_provenance_off": 1.03,
}

#: minimum speedup vs the baseline a bench must keep under ``--check``:
#: the multi-shot budget sweep must hold the gains of the solver-core
#: work (lazy heap maintenance, binary-implication fast path — see
#: docs/performance.md) over its fresh-control baseline, and the 2-worker fleet sweep must stay 1.5x
#: faster than the serial sweep of the same run (the balanced cube
#: layout, see docs/parallelism.md; 2 cores)
SPEEDUP_FLOORS = {
    "test_bench_budget_sweep_multishot": 2.2,
    "test_bench_fleet_sweep_2_workers": 1.5,
}

#: tolerated peak-RSS growth vs the recorded ``max_rss_kb`` before
#: ``--check`` fails (memory is noisier than time, hence the wider gate)
MEMORY_REGRESSION_TOLERANCE = 1.5

#: absolute peak-RSS caps (KB) enforced under ``--check`` regardless of
#: the recorded snapshot; the streamed fleet sweep is the bounded-memory
#: contract of docs/streaming.md — it must never scale with the
#: scenario count
MEMORY_CEILINGS_KB = {
    "test_bench_fleet_stream_aggregate": 512 * 1024,
}

#: wall-clock limit (seconds) for the nightly big bench (``--big``);
#: override with ``REPRO_BIG_BENCH_TIMEOUT_S``.  The CI job carries a
#: hard ``timeout-minutes`` kill on top.
BIG_BENCH_TIMEOUT_S = int(os.environ.get("REPRO_BIG_BENCH_TIMEOUT_S", "1800"))

#: the bench file ``--big`` runs at full scale
BIG_BENCH_FILE = "benchmarks/test_bench_fleet_stream.py"

BENCH_FILES = [
    "benchmarks/test_bench_asp_classic.py",
    "benchmarks/test_bench_fig4_refinement.py",
    "benchmarks/test_bench_fleet_stream.py",
    "benchmarks/test_bench_grounding.py",
    "benchmarks/test_bench_multishot.py",
    "benchmarks/test_bench_parallel.py",
    "benchmarks/test_bench_provenance.py",
]

#: medians (seconds) measured immediately before the grounding/solving
#: fast-path work landed — the denominators of the speedup column
BASELINES_S = {
    "test_bench_nqueens_enumeration[5-10]": 0.0247,
    "test_bench_nqueens_enumeration[6-4]": 0.0534,
    "test_bench_cycle_coloring": 0.0386,
    "test_bench_hamiltonian_first_solution": 0.0148,
    "test_bench_fig4_refinement": 0.0001334,
    # fresh-control-per-query medians of the same sweeps (the multi-shot
    # baselines)
    "test_bench_attack_cost_sweep_multishot": 0.6006,
    "test_bench_budget_sweep_multishot": 2.0191,
}

#: benches whose speedup is taken against another bench's median from
#: the same run instead of a recorded constant: the sharded cube sweeps
#: against the in-process sweep of the same scenarios, so the column
#: reports parallelism alone (the 1,794-scenario water tank reads about
#: 1x on a 2-core host; the 18,473-scenario fleet is the scaling row)
RELATIVE_BASELINES = {
    "test_bench_parallel_analyze_4_workers": "test_bench_serial_analyze",
    "test_bench_fleet_sweep_2_workers": "test_bench_fleet_sweep_serial",
}


def _run_with_rusage(command, cwd, env=None):
    """Run a child and return ``(returncode, max_rss_kb)``.

    The child is reaped with :func:`os.wait4` so its own resource usage
    (not the accumulated ``RUSAGE_CHILDREN`` maximum) is what lands in
    ``max_rss_kb``; platforms without ``wait4`` fall back to a plain
    wait and report ``None``.
    """
    process = subprocess.Popen(command, cwd=cwd, env=env)
    if not hasattr(os, "wait4"):
        return process.wait(), None
    _, status, rusage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    max_rss_kb = int(rusage.ru_maxrss)
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        max_rss_kb //= 1024
    return process.returncode, max_rss_kb


def run_benchmarks(json_dir):
    """One pytest child per bench file, merged into one result set.

    Per-file children are what makes ``max_rss_kb`` meaningful: the
    peak RSS of the child that ran a file is attributed to every bench
    in that file.  Returns the merged pytest-benchmark payload.
    """
    merged = {"benchmarks": []}
    for bench_file in BENCH_FILES:
        json_path = pathlib.Path(json_dir) / (
            pathlib.Path(bench_file).stem + ".json"
        )
        command = [
            sys.executable,
            "-m",
            "pytest",
            bench_file,
            "-q",
            "--benchmark-json=%s" % json_path,
        ]
        returncode, max_rss_kb = _run_with_rusage(command, REPO_ROOT)
        if returncode:
            raise subprocess.CalledProcessError(returncode, command)
        with open(json_path) as handle:
            raw = json.load(handle)
        merged.setdefault("machine_info", raw.get("machine_info", {}))
        for entry in raw["benchmarks"]:
            entry["max_rss_kb"] = max_rss_kb
            merged["benchmarks"].append(entry)
    return merged


def collect_solver_stats():
    """Statistics snapshots for two representative workloads."""
    from repro.asp import Control

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from test_bench_asp_classic import queens_program
    from test_bench_grounding import transitive_closure_program

    from repro.mitigation import sweep_budgets
    from repro.observability import SolveStats
    from test_bench_multishot import synthetic_problem

    queens = Control(queens_program(6))
    queens.solve()
    closure = Control(transitive_closure_program(30))
    closure.solve()
    # a multi-shot budget sweep: one grounding, eight reused solves
    sweep = SolveStats()
    sweep_budgets(
        synthetic_problem(), [10, 20, 30, 40, 60, 80, 120, 160], stats=sweep
    )
    return {
        "multishot_budget_sweep": {
            "solving": {
                "multishot": sweep.get_path("solving.multishot").to_dict()
            }
        },
        "nqueens_6": queens.statistics.to_dict(),
        "transitive_closure_30": closure.statistics.to_dict(),
    }


def _git_rev():
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def append_history(timings, history_path=HISTORY_PATH, rss=None):
    """Append one history row per bench to ``BENCH_history.jsonl``.

    ``timings`` maps bench name -> seconds; ``rss`` (optional) maps
    bench name -> peak child RSS in KB, recorded as ``max_rss_kb``.
    Rows share one revision and timestamp (they describe one run).
    """
    rev = _git_rev()
    date = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    with open(history_path, "a", encoding="utf-8") as handle:
        for bench, seconds in sorted(timings.items()):
            row = {
                "bench": bench,
                "seconds": round(seconds, 6),
                "rev": rev,
                "date": date,
            }
            max_rss_kb = (rss or {}).get(bench)
            if max_rss_kb:
                row["max_rss_kb"] = max_rss_kb
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print("recorded %d rows in %s" % (len(timings), history_path))


def _record_run_ledger(kind, summary, suite=BENCH_FILES):
    """Best-effort: land this bench run in the repo's run ledger.

    Bench runs share the observability surface of the solving commands
    (``repro runs list`` shows them next to analyze/assess runs), but a
    missing or read-only runs root must never fail the bench driver —
    any error is reported and swallowed.
    """
    try:
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.observability.ledger import RunRecorder

        root = os.environ.get("REPRO_RUNS_DIR") or str(
            REPO_ROOT / ".repro" / "runs"
        )
        recorder = RunRecorder(
            "bench-%s" % kind,
            {"command": "bench-%s" % kind, "suite": suite},
            root=root,
        )
        recorder.note(**summary)
        recorder.finish()
        print("ledger: recorded run %s" % recorder.run_id)
    except Exception as error:  # pragma: no cover - best effort only
        print("ledger: not recorded (%s)" % error, file=sys.stderr)


def check_regressions(benches, baseline_path=None):
    """Exit-code check: any median > tolerance x its recorded median?

    Compares against the ``median_s`` values in ``BENCH_asp.json`` (the
    committed result snapshot); benches without a recorded median are
    skipped.  Returns the list of regression messages (empty = pass).
    """
    path = pathlib.Path(baseline_path or REPO_ROOT / "BENCH_asp.json")
    recorded = json.loads(path.read_text())["benchmarks"]
    failures = []
    for name, record in sorted(benches.items()):
        baseline = recorded.get(name, {}).get("median_s")
        if not baseline:
            continue
        tolerance = STRICT_TOLERANCE.get(name, REGRESSION_TOLERANCE)
        if record["median_s"] > baseline * tolerance:
            failures.append(
                "%s regressed: %.4fs vs recorded %.4fs (>%d%%)"
                % (
                    name,
                    record["median_s"],
                    baseline,
                    round((tolerance - 1) * 100),
                )
            )
    for name, floor in sorted(SPEEDUP_FLOORS.items()):
        record = benches.get(name)
        if record is None:
            continue
        speedup = record.get("speedup")
        if speedup is not None and speedup < floor:
            failures.append(
                "%s speedup fell below the %.1fx floor: %.2fx "
                "(median %.4fs vs baseline %.4fs)"
                % (
                    name,
                    floor,
                    speedup,
                    record["median_s"],
                    record["baseline_median_s"],
                )
            )
    for name, record in sorted(benches.items()):
        measured = record.get("max_rss_kb")
        if not measured:
            continue
        baseline = recorded.get(name, {}).get("max_rss_kb")
        if baseline and measured > baseline * MEMORY_REGRESSION_TOLERANCE:
            failures.append(
                "%s memory regressed: %d KB vs recorded %d KB (>%d%%)"
                % (
                    name,
                    measured,
                    baseline,
                    round((MEMORY_REGRESSION_TOLERANCE - 1) * 100),
                )
            )
        ceiling = MEMORY_CEILINGS_KB.get(name)
        if ceiling and measured > ceiling:
            failures.append(
                "%s breached the %d KB absolute memory ceiling: %d KB"
                % (name, ceiling, measured)
            )
    return failures


def run_smoke(record=False):
    """One timing-disabled pass over every ``test_bench_*.py`` (CI gate).

    With ``record=True`` each file's wall-clock time and peak child RSS
    land in the bench history as ``smoke:<file>`` — coarse, but tracked
    on every CI run.  The fleet sweep runs at its smoke scale unless the
    caller pinned ``REPRO_BENCH_FLEET_SCALE`` (the full 210k-scenario
    sweep belongs to the nightly big-bench job, not the sanity gate).
    """
    timings = {}
    rss = {}
    returncode = 0
    env = dict(os.environ)
    env.setdefault("REPRO_BENCH_FLEET_SCALE", "smoke")
    bench_files = sorted(
        path.relative_to(REPO_ROOT).as_posix()
        for path in (REPO_ROOT / "benchmarks").glob("test_bench_*.py")
    )
    for bench_file in bench_files:
        command = [
            sys.executable,
            "-m",
            "pytest",
            bench_file,
            "-q",
            "--benchmark-disable",
        ]
        started = time.perf_counter()
        child_code, max_rss_kb = _run_with_rusage(command, REPO_ROOT, env=env)
        name = "smoke:%s" % pathlib.Path(bench_file).stem
        timings[name] = time.perf_counter() - started
        if max_rss_kb:
            rss[name] = max_rss_kb
        returncode = returncode or child_code
    if record and returncode == 0:
        append_history(timings, rss=rss)
        _record_run_ledger(
            "smoke",
            {
                "files": len(bench_files),
                "total_seconds": round(sum(timings.values()), 3),
            },
            suite=bench_files,
        )
    return returncode


def run_big(record=False):
    """The nightly big bench: the full-scale fleet sweep, gated.

    Runs the streamed fleet sweep at its full ~210k-scenario scale
    (``REPRO_BENCH_FLEET_SCALE=full``) in its own pytest child with
    pydecbench-style resource accounting: wall-clock, user/system CPU
    and peak RSS are read from the reaped child's rusage and printed as
    one summary block.  Exits 1 when the sweep exceeds
    ``BIG_BENCH_TIMEOUT_S`` wall-clock seconds or breaches the absolute
    ``MEMORY_CEILINGS_KB`` cap — the bounded-memory contract gates even
    when no recorded snapshot exists.  With ``record=True`` the
    accounting lands in the bench history prefixed ``big:``.
    """
    env = dict(os.environ)
    env["REPRO_BENCH_FLEET_SCALE"] = "full"
    command = [
        sys.executable,
        "-m",
        "pytest",
        BIG_BENCH_FILE,
        "-q",
        "--benchmark-disable",
    ]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=REPO_ROOT, env=env)
    if hasattr(os, "wait4"):
        _, status, rusage = os.wait4(process.pid, 0)
        returncode = os.waitstatus_to_exitcode(status)
        max_rss_kb = int(rusage.ru_maxrss)
        if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
            max_rss_kb //= 1024
        cpu_user, cpu_system = rusage.ru_utime, rusage.ru_stime
    else:
        returncode = process.wait()
        max_rss_kb = cpu_user = cpu_system = None
    elapsed = time.perf_counter() - started
    ceiling = MEMORY_CEILINGS_KB.get("test_bench_fleet_stream_aggregate")
    print()
    print("big bench resource accounting (%s)" % BIG_BENCH_FILE)
    print(
        "  wall-clock : %.2f s (limit %d s)" % (elapsed, BIG_BENCH_TIMEOUT_S)
    )
    if cpu_user is not None:
        print(
            "  cpu        : %.2f s user, %.2f s system"
            % (cpu_user, cpu_system)
        )
    if max_rss_kb is not None:
        print("  peak rss   : %d KB (ceiling %d KB)" % (max_rss_kb, ceiling))
    failures = []
    if returncode:
        failures.append("bench child exited %d" % returncode)
    if elapsed > BIG_BENCH_TIMEOUT_S:
        failures.append(
            "wall-clock %.1f s exceeded the %d s limit"
            % (elapsed, BIG_BENCH_TIMEOUT_S)
        )
    if max_rss_kb is not None and ceiling and max_rss_kb > ceiling:
        failures.append(
            "peak RSS %d KB breached the %d KB absolute ceiling"
            % (max_rss_kb, ceiling)
        )
    for failure in failures:
        print("BIG BENCH FAILURE: %s" % failure)
    if record and not failures:
        name = "big:%s" % pathlib.Path(BIG_BENCH_FILE).stem
        append_history(
            {name: elapsed},
            rss={name: max_rss_kb} if max_rss_kb else None,
        )
        _record_run_ledger(
            "big",
            {
                "wall_seconds": round(elapsed, 3),
                "max_rss_kb": max_rss_kb,
            },
        )
    return 1 if failures else 0


def run_full(output, record=False, check=False):
    with tempfile.TemporaryDirectory() as json_dir:
        raw = run_benchmarks(json_dir)
    benches = {}
    medians = {entry["name"]: entry["stats"]["median"] for entry in raw["benchmarks"]}
    for entry in raw["benchmarks"]:
        name = entry["name"]
        median = medians[name]
        record_entry = {"median_s": round(median, 6)}
        if entry.get("max_rss_kb"):
            record_entry["max_rss_kb"] = entry["max_rss_kb"]
        baseline = BASELINES_S.get(name)
        if name in RELATIVE_BASELINES:
            baseline = medians.get(RELATIVE_BASELINES[name])
        if baseline is not None:
            record_entry["baseline_median_s"] = round(baseline, 6)
            record_entry["speedup"] = round(baseline / median, 2)
        benches[name] = record_entry
    if check:
        failures = check_regressions(benches)
        for failure in failures:
            print("REGRESSION: %s" % failure, file=sys.stderr)
        if failures:
            return 1
        print("no regressions beyond %.0f%%" % ((REGRESSION_TOLERANCE - 1) * 100))
    else:
        payload = {
            "suite": BENCH_FILES,
            "machine": raw.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
            "python": raw.get("machine_info", {}).get("python_version"),
            "benchmarks": benches,
            "solver_stats": collect_solver_stats(),
        }
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print("wrote %s" % output)
    for name, entry in sorted(benches.items()):
        speedup = entry.get("speedup")
        print(
            "  %-42s %10.3f ms%s"
            % (
                name,
                entry["median_s"] * 1e3,
                "  (%.2fx)" % speedup if speedup else "",
            )
        )
    if record:
        append_history(
            {name: entry["median_s"] for name, entry in benches.items()},
            rss={
                name: entry["max_rss_kb"]
                for name, entry in benches.items()
                if entry.get("max_rss_kb")
            },
        )
        _record_run_ledger(
            "full",
            {
                "benches": len(benches),
                "total_median_seconds": round(
                    sum(e["median_s"] for e in benches.values()), 3
                ),
            },
        )
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output",
        nargs="?",
        default=str(REPO_ROOT / "BENCH_asp.json"),
        help="result snapshot path (default: BENCH_asp.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every bench file once with timing disabled",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="append per-bench timings to BENCH_history.jsonl",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on >25%% median regression vs BENCH_asp.json",
    )
    parser.add_argument(
        "--big",
        action="store_true",
        help="run the full-scale fleet sweep under time/memory limits "
        "(the nightly big-bench job; see docs/streaming.md)",
    )
    args = parser.parse_args(argv[1:])
    if args.big:
        return run_big(record=args.record)
    if args.smoke:
        return run_smoke(record=args.record)
    return run_full(
        pathlib.Path(args.output), record=args.record, check=args.check
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
