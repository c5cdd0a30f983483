#!/usr/bin/env python3
"""End-to-end benchmark of the assessment engine: four workloads, one script.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                     # all four workloads
    python3 benchmarks/e2e/run.py --workload tank-sweep --seed 3
    python3 benchmarks/e2e/run.py --workload fleet-stream --trace
    python3 benchmarks/e2e/run.py --sets 2            # repeatability check

Each workload runs in its own child process, reaped with ``os.wait4``
for its peak RSS.  The script prints every metric with its unit,
median, quartiles and sample count, checks each workload's outputs
against an independent reference, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace`` the JSON carries the per-layer metrics instead of the
end-to-end ones and a Chrome trace lands in ``benchmarks/e2e/out/``.
The exit status is 1 when any operation failed or gave a wrong answer,
and 2 when the program cannot be imported (no full checkout).  Metric
definitions and the reasons behind each workload: ``README.md``.
"""

import argparse
import json
import os
import pathlib
import sys
from statistics import median, quantiles

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

#: ``(name, unit)`` of the end-to-end metrics, as in ``BENCHMARK.json``
E2E_METRICS = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("query_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_program():
    """Put the checkout on ``sys.path``; ``None`` when it is incomplete."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from benchmarks.run_bench import _run_with_rusage
        from benchmarks.e2e import layers, workloads
    except ImportError as error:
        print(
            "e2e benchmark: cannot import the program (%s); "
            "run it from a full checkout" % error,
            file=sys.stderr,
        )
        return None
    return _run_with_rusage, layers, workloads


def child(args):
    """Measure one workload in this process and write the raw result."""
    _, _, workloads = import_program()
    result = workloads.measure(
        workloads.build(args.workload), args.seed, args.seconds, trace=args.trace
    )
    chrome = result.pop("trace")
    if chrome is not None:
        path = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w") as handle:
            json.dump(chrome, handle)
        result["trace_file"] = str(path.relative_to(ROOT))
    with open(args.child, "w") as handle:
        json.dump(result, handle)
    return 0


def run_child(run_with_rusage, name, seed, seconds, trace):
    """One workload in a child process; the raw result plus peak RSS."""
    OUT.mkdir(exist_ok=True)
    path = OUT / ("result-%s-%d-%d.json" % (name, seed, os.getpid()))
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        str(path),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code, max_rss_kb = run_with_rusage(command, ROOT, env=env)
    try:
        with open(path) as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        result = {"reps": []}
    finally:
        if path.exists():
            path.unlink()
    if code != 0:
        result.setdefault("reps", []).append(
            {"traced": False, "attempted": 1, "failures": ["child exited %d" % code]}
        )
    result["peak_rss_mb"] = (max_rss_kb or 0) / 1024.0
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = quantiles(values, n=4)
    return first, third


def summarize(result, layers):
    """Rows ``(name, unit, value, q1, q3, n)`` and the JSON metrics.

    End-to-end times are scaled by each repetition's host speed, which
    reports them at reference host speed; ``host_speed`` is printed.
    """
    reps = [rep for rep in result["reps"] if "run_s" in rep]
    plain = [rep for rep in reps if not rep["traced"]]
    samples = {
        "setup_s": [rep["setup_s"] * rep["speed"] for rep in plain],
        "run_s": [rep["run_s"] * rep["speed"] for rep in plain],
        "query_ms_p50": [
            ms * rep["speed"] for rep in plain for _, ms in rep["queries"]
        ],
        "peak_rss_mb": [result["peak_rss_mb"]],
        "scenarios_per_s": [
            rep["scenarios"] / (rep["run_s"] * rep["speed"])
            for rep in plain
            if rep["scenarios"]
        ],
        "host_speed": [rep["speed"] for rep in plain],
    }
    by_kind = {}
    for rep in plain:
        for kind, ms in rep["queries"]:
            by_kind.setdefault(kind, []).append(ms * rep["speed"])
    rows = []
    extras = [("scenarios_per_s", "1/s"), ("host_speed", "x")]
    for name, unit in E2E_METRICS + extras:
        values = samples[name]
        if values:
            rows.append((name, unit, median(values)) + _quartiles(values) + (len(values),))
    for kind, name, fraction in (
        ("point", "point_ms_p50", 0.5),
        ("point", "point_ms_p90", 0.9),
        ("reanalyze", "reanalyze_ms_p50", 0.5),
        ("core", "core_ms_p50", 0.5),
    ):
        values = by_kind.get(kind)
        if values:
            q1, q3 = _quartiles(values)
            rows.append((name, "ms", layers.percentile(values, fraction), q1, q3, len(values)))
    attempted = sum(rep.get("attempted", 0) for rep in result["reps"])
    failed = sum(len(rep.get("failures", [])) for rep in result["reps"])
    rows.append(("failed_frac", "frac", failed / max(1, attempted), 0.0, 0.0, attempted))
    metrics = {
        name: {"value": row[2], "unit": unit}
        for name, unit in E2E_METRICS
        for row in rows
        if row[0] == name
    }
    return rows, metrics, attempted, failed


def print_rows(title, rows):
    print("== %s" % title)
    print("%-36s %-6s %14s %14s %14s %6s" % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, unit, value, q1, q3, count in rows:
        print("%-36s %-6s %14.6g %14.6g %14.6g %6d" % (name, unit, value, q1, q3, count))


def report(name, seed, result, trace, layers):
    """Print one workload's tables; returns the final-line payload."""
    rows, metrics, attempted, failed = summarize(result, layers)
    print_rows("%s (seed %d)" % (name, seed), rows)
    for rep in result["reps"]:
        for failure in rep.get("failures", []):
            print("FAILED: %s" % failure.strip(), file=sys.stderr)
    if trace:
        per_layer = layers.summarize(result["reps"])
        print("== %s per layer (traced run, %s)" % (name, result.get("trace_file")))
        for metric, unit, _better in layers.LAYER_METRICS:
            print("%-36s %-6s %14.6g" % (metric, unit, per_layer[metric]))
        untraced = per_layer["untraced_run_s"]
        if untraced:
            print(
                "additive layers sum to %.4f s; untraced run_s %.4f s as "
                "measured (%+.1f%%)"
                % (
                    per_layer["layer_sum_s"],
                    untraced,
                    100.0 * (per_layer["layer_sum_s"] / untraced - 1.0),
                )
            )
        metrics = {
            metric: {"value": per_layer[metric], "unit": unit}
            for metric, unit, _better in layers.LAYER_METRICS
        }
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }


def repeatability(name, seed, sets, bounds):
    """Print each end-to-end metric's median per set against its bound."""
    print("== %s (seed %d): medians of %d sets" % (name, seed, len(sets)))
    over = False
    for metric, unit in E2E_METRICS:
        medians = [payload["metrics"][metric]["value"] for payload in sets]
        spread = (max(medians) - min(medians)) / min(medians)
        bound = bounds[metric]
        over = over or spread > bound
        print(
            "%-14s %-3s %s  diff %5.1f%%  bound %4.1f%%  %s"
            % (
                metric,
                unit,
                "  ".join("%12.6g" % value for value in medians),
                100.0 * spread,
                100.0 * bound,
                "over" if spread > bound else "ok",
            )
        )
    return over


def main(argv=None):
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end assessment benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        help="set-up plus run time one workload run measures (default: "
        "run_seconds from BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="traced run: per-layer metrics and a Chrome trace",
    )
    parser.add_argument(
        "--sets", type=int, default=1, help="runs per workload; >1 compares medians"
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    program = import_program()
    if program is None:
        return 2
    run_with_rusage, layers, _ = program
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    payloads = []
    over = False
    for name in [args.workload] if args.workload else names:
        sets = []
        for _ in range(max(1, args.sets)):
            result = run_child(run_with_rusage, name, args.seed, seconds, args.trace)
            sets.append(report(name, args.seed, result, args.trace, layers))
        if len(sets) > 1 and not args.trace and all(p["correct"] for p in sets):
            over = repeatability(name, args.seed, sets, bounds) or over
        payloads.extend(sets)
    final = payloads[-1] if len(payloads) == 1 else {
        "correct": all(payload["correct"] for payload in payloads),
        "attempted": sum(payload["attempted"] for payload in payloads),
        "failed": sum(payload["failed"] for payload in payloads),
        "metrics": {},
    }
    print(json.dumps(final))
    if not final["correct"]:
        return 1
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
