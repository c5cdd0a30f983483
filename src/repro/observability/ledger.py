"""The run ledger: durable, content-addressed per-run artifacts.

``run_manifest``/``stats_digest`` (:mod:`repro.observability.export`)
pin which code produced which numbers, but nothing persisted them —
every ``repro analyze`` was one-shot stdout.  This module is the
durable substrate the ROADMAP's analysis-as-a-service item serves
later: every recorded run owns a directory

    ``.repro/runs/<run_id>/``
        ``manifest.json``   argv, git rev, platform, config digest,
                            result digest, status, duration, counts
        ``metrics.prom``    the run's metrics registry (Prometheus text)
        ``stats.json``      the solver statistics tree + its digest
        ``trace.json``      the run's trace file, when one was written

and appends to one append-only JSONL index (``ledger.jsonl``): a
``started`` line when the run opens and a ``finished`` line when it
closes.  A killed run simply never writes its second line — the ledger
stays valid and the run lists as ``partial``, which is exactly the
crash evidence an operator wants.

Two digests, deliberately distinct:

*config digest*
    SHA-256 over the *result-determining* configuration only — command,
    model file content, requirements, ``max_faults``, stream mode —
    excluding the worker count, a performance setting.
    Runs sharing a config digest are supposed to produce the same
    numbers, so they are comparable: ``repro runs diff`` baselines a
    run against the most recent earlier completed run with the same
    config digest and flags duration regressions.
*result digest*
    SHA-256 over a canonical encoding of what the run computed (the
    streamed :class:`~repro.epa.aggregate.ScenarioAggregate` bytes, or
    a sorted outcome vector).  Two runs of the same config must match
    byte for byte — ``diff`` reporting "zero deltas" is the round-trip
    stability contract.  The *stats* digest, by contrast, covers wall
    times and never matches across runs; diff shows it for forensics
    but does not count it as a delta.

Run ids are content-addressed and human-sortable:
``<UTC timestamp>-<command>-<config digest prefix>`` (a numeric suffix
disambiguates same-second same-config runs).  The runs root resolves
explicit argument > ``REPRO_RUNS_DIR`` > ``.repro/runs``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Any, Dict, List, Mapping, Optional

from .export import prometheus_exposition, run_manifest, stats_digest
from .metrics import MetricsRegistry, get_registry

RUNS_DIR_ENV = "REPRO_RUNS_DIR"
DEFAULT_RUNS_ROOT = os.path.join(".repro", "runs")
LEDGER_NAME = "ledger.jsonl"
MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.prom"
STATS_NAME = "stats.json"

#: duration growth vs the baseline run before ``diff``/``list`` flag a
#: regression (mirrors the bench driver's 25% gate)
DURATION_REGRESSION_RATIO = 1.25


class LedgerError(Exception):
    """Raised on unknown runs, ambiguous prefixes, malformed ledgers."""


def resolve_runs_root(explicit: Optional[str] = None) -> str:
    """Resolve the runs root: explicit > ``REPRO_RUNS_DIR`` > default."""
    return explicit or os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_ROOT


def config_digest(config: Mapping[str, Any]) -> str:
    """A stable SHA-256 over a JSON-able configuration mapping."""
    encoded = json.dumps(
        dict(config), sort_keys=True, default=str
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def file_digest(path: str) -> str:
    """SHA-256 of a file's content (the model half of a config digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_json(path: str, payload: Mapping[str, Any]) -> None:
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    os.replace(tmp, path)


class RunRecorder:
    """Records one run: directory, manifest, metrics, ledger lines.

    Open it at the start of a run (the directory is created and the
    ``started`` ledger line appended immediately, so a kill at any
    later point leaves a valid partial entry) and call :meth:`finish`
    — or :meth:`fail` — exactly once at the end.
    """

    def __init__(
        self,
        command: str,
        config: Mapping[str, Any],
        root: Optional[str] = None,
        argv: Optional[List[str]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.command = command
        self.config_digest = config_digest(config)
        self.root = resolve_runs_root(root)
        self._argv = list(argv) if argv is not None else None
        self._registry = registry
        self._summary: Dict[str, Any] = {}
        self._started = time.perf_counter()
        self._finished = False
        os.makedirs(self.root, exist_ok=True)
        self.run_id = self._allocate_run_id()
        self.path = os.path.join(self.root, self.run_id)
        os.makedirs(self.path)
        manifest = run_manifest(
            argv=self._argv,
            extra={
                "run_id": self.run_id,
                "command": command,
                "config_digest": self.config_digest,
                "config": {
                    key: config[key] for key in sorted(dict(config))
                },
                "status": "running",
            },
        )
        _atomic_write_json(os.path.join(self.path, MANIFEST_NAME), manifest)
        self._manifest = manifest
        self._append_ledger(
            {
                "event": "started",
                "run_id": self.run_id,
                "command": command,
                "config_digest": self.config_digest,
                "date": manifest["date"],
            }
        )

    def _allocate_run_id(self) -> str:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        base = "%s-%s-%s" % (stamp, self.command, self.config_digest[:8])
        run_id = base
        suffix = 1
        while os.path.exists(os.path.join(self.root, run_id)):
            suffix += 1
            run_id = "%s-%d" % (base, suffix)
        return run_id

    def _append_ledger(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with open(
            os.path.join(self.root, LEDGER_NAME), "a", encoding="utf-8"
        ) as handle:
            handle.write(line + "\n")

    def note(self, **fields: Any) -> None:
        """Attach summary fields (scenario counts, bench medians, ...)."""
        self._summary.update(fields)

    def finish(
        self,
        status: str = "complete",
        stats: Optional[Mapping[str, Any]] = None,
        result_digest: Optional[str] = None,
        trace_file: Optional[str] = None,
    ) -> str:
        """Close the run: artifacts, final manifest, ``finished`` line.

        ``stats`` (a :class:`~repro.observability.SolveStats` tree or
        mapping) lands in ``stats.json`` with its digest;
        ``result_digest`` is the canonical result fingerprint;
        ``trace_file`` (when it exists) is copied into the run
        directory.  Returns the run id.  Idempotent-guarded: a second
        call raises.
        """
        if self._finished:
            raise LedgerError("run %s already finished" % self.run_id)
        self._finished = True
        duration = time.perf_counter() - self._started
        # explicit None check: an empty MetricsRegistry is falsy
        registry = (
            self._registry if self._registry is not None else get_registry()
        )
        with open(
            os.path.join(self.path, METRICS_NAME), "w", encoding="utf-8"
        ) as handle:
            handle.write(prometheus_exposition(registry))
        digest = None
        if stats is not None:
            digest = stats_digest(stats)
            to_dict = getattr(stats, "to_dict", None)
            tree = to_dict() if callable(to_dict) else dict(stats)
            _atomic_write_json(
                os.path.join(self.path, STATS_NAME),
                {"digest": digest, "tree": tree},
            )
        if trace_file and os.path.isfile(trace_file):
            shutil.copy(
                trace_file,
                os.path.join(self.path, os.path.basename(trace_file)),
            )
        manifest = dict(self._manifest)
        manifest["status"] = status
        manifest["duration_s"] = round(duration, 6)
        if digest is not None:
            manifest["stats_digest"] = digest
        if result_digest is not None:
            manifest["result_digest"] = result_digest
        if self._summary:
            manifest["summary"] = dict(self._summary)
        _atomic_write_json(os.path.join(self.path, MANIFEST_NAME), manifest)
        self._manifest = manifest
        record = {
            "event": "finished",
            "run_id": self.run_id,
            "command": self.command,
            "config_digest": self.config_digest,
            "status": status,
            "duration_s": round(duration, 6),
            "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        if result_digest is not None:
            record["result_digest"] = result_digest
        for key in ("scenarios", "violating"):
            if key in self._summary:
                record[key] = self._summary[key]
        self._append_ledger(record)
        return self.run_id

    def fail(self, error: object, **kwargs: Any) -> str:
        """Close the run as errored (the exception repr in the summary)."""
        self.note(error=repr(error))
        return self.finish(status="error", **kwargs)


# ----------------------------------------------------------------------
# reading the ledger
# ----------------------------------------------------------------------
def read_ledger(root: Optional[str] = None) -> List[Dict[str, Any]]:
    """Every ledger line, in append order (missing ledger = no runs)."""
    path = os.path.join(resolve_runs_root(root), LEDGER_NAME)
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                raise LedgerError(
                    "malformed ledger line %d in %s" % (number, path)
                )
    return records


def list_runs(root: Optional[str] = None) -> List[Dict[str, Any]]:
    """One merged entry per run, newest first.

    A run with only its ``started`` line — killed mid-sweep, or still
    running — gets ``status="partial"``; finished runs carry their
    recorded status, duration and counts.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for record in read_ledger(root):
        run_id = record.get("run_id")
        if not run_id:
            continue
        if run_id not in merged:
            merged[run_id] = {"run_id": run_id, "status": "partial"}
            order.append(run_id)
        entry = merged[run_id]
        if record.get("event") == "started":
            entry.setdefault("command", record.get("command"))
            entry.setdefault("config_digest", record.get("config_digest"))
            entry["started"] = record.get("date")
        else:
            entry["status"] = record.get("status", "complete")
            for key in (
                "duration_s",
                "result_digest",
                "scenarios",
                "violating",
            ):
                if key in record:
                    entry[key] = record[key]
    return [merged[run_id] for run_id in reversed(order)]


def resolve_run(ref: str, root: Optional[str] = None) -> str:
    """Resolve ``latest``, a full run id, or a unique prefix."""
    runs = list_runs(root)
    if not runs:
        raise LedgerError(
            "no recorded runs under %s" % resolve_runs_root(root)
        )
    if ref in ("latest", "@latest", ""):
        return runs[0]["run_id"]
    matches = [
        run["run_id"] for run in runs if run["run_id"].startswith(ref)
    ]
    if not matches:
        raise LedgerError("no run matches %r" % ref)
    if len(matches) > 1 and ref not in matches:
        raise LedgerError(
            "ambiguous run ref %r (matches %s)" % (ref, ", ".join(matches))
        )
    return ref if ref in matches else matches[0]


def load_manifest(
    run_id: str, root: Optional[str] = None
) -> Dict[str, Any]:
    path = os.path.join(resolve_runs_root(root), run_id, MANIFEST_NAME)
    if not os.path.exists(path):
        raise LedgerError("run %s has no manifest (%s)" % (run_id, path))
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def baseline_for(
    run_id: str, root: Optional[str] = None
) -> Optional[str]:
    """The most recent earlier completed run with the same config digest."""
    runs = list_runs(root)
    by_id = {run["run_id"]: run for run in runs}
    target = by_id.get(run_id)
    if target is None:
        return None
    digest = target.get("config_digest")
    ids = [run["run_id"] for run in runs]  # newest first
    try:
        position = ids.index(run_id)
    except ValueError:
        return None
    for candidate in runs[position + 1:]:
        if (
            candidate.get("config_digest") == digest
            and candidate.get("status") == "complete"
        ):
            return candidate["run_id"]
    return None


def diff_runs(
    ref_a: str,
    ref_b: Optional[str] = None,
    root: Optional[str] = None,
) -> Dict[str, Any]:
    """Compare run ``a`` against run ``b`` (default: its baseline).

    Returns a structured report: config/result/stats digest equality,
    scenario and violating-count deltas, durations and their ratio,
    ``zero_deltas`` (result digests match and counts are equal) and
    ``regression`` (same config but the result changed, or the duration
    grew past :data:`DURATION_REGRESSION_RATIO`).
    """
    run_a = resolve_run(ref_a, root)
    if ref_b is not None:
        run_b = resolve_run(ref_b, root)
    else:
        run_b = baseline_for(run_a, root)
        if run_b is None:
            raise LedgerError(
                "no earlier completed run shares %s's config digest" % run_a
            )
    entries = {run["run_id"]: run for run in list_runs(root)}
    a, b = entries.get(run_a, {}), entries.get(run_b, {})
    manifest_a = load_manifest(run_a, root)
    manifest_b = load_manifest(run_b, root)

    def _field(entry, manifest, key):
        return entry.get(key, manifest.get(key))

    result = {
        "a": run_a,
        "b": run_b,
        "config_match": (
            manifest_a.get("config_digest") == manifest_b.get("config_digest")
        ),
        "result_digest_a": _field(a, manifest_a, "result_digest"),
        "result_digest_b": _field(b, manifest_b, "result_digest"),
        "stats_match": (
            manifest_a.get("stats_digest") is not None
            and manifest_a.get("stats_digest")
            == manifest_b.get("stats_digest")
        ),
        "duration_a": _field(a, manifest_a, "duration_s"),
        "duration_b": _field(b, manifest_b, "duration_s"),
    }
    digest_a, digest_b = result["result_digest_a"], result["result_digest_b"]
    result["result_match"] = (
        None
        if digest_a is None or digest_b is None
        else digest_a == digest_b
    )
    for key in ("scenarios", "violating"):
        value_a = _summary_count(a, manifest_a, key)
        value_b = _summary_count(b, manifest_b, key)
        result["%s_delta" % key] = (
            None
            if value_a is None or value_b is None
            else value_a - value_b
        )
    ratio = None
    if result["duration_a"] and result["duration_b"]:
        ratio = result["duration_a"] / result["duration_b"]
    result["duration_ratio"] = ratio
    result["zero_deltas"] = (
        result["result_match"] is True
        and not result["scenarios_delta"]
        and not result["violating_delta"]
    )
    result["regression"] = result["config_match"] and (
        result["result_match"] is False
        or (ratio is not None and ratio > DURATION_REGRESSION_RATIO)
    )
    return result


def _summary_count(entry, manifest, key):
    if key in entry:
        return entry[key]
    return manifest.get("summary", {}).get(key)


def gc_runs(
    keep: int = 20, root: Optional[str] = None
) -> List[str]:
    """Drop all but the ``keep`` newest runs; compact the ledger.

    Removes the run directories and rewrites ``ledger.jsonl`` keeping
    only surviving runs' lines (atomic replace).  Returns the removed
    run ids, oldest first.
    """
    if keep < 0:
        raise LedgerError("keep must be >= 0")
    resolved = resolve_runs_root(root)
    runs = list_runs(root)  # newest first
    doomed = [run["run_id"] for run in runs[keep:]]
    if not doomed:
        return []
    doomed_set = set(doomed)
    for run_id in doomed:
        shutil.rmtree(os.path.join(resolved, run_id), ignore_errors=True)
    survivors = [
        record
        for record in read_ledger(root)
        if record.get("run_id") not in doomed_set
    ]
    ledger_path = os.path.join(resolved, LEDGER_NAME)
    tmp = "%s.tmp.%d" % (ledger_path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as handle:
        for record in survivors:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    os.replace(tmp, ledger_path)
    return list(reversed(doomed))


__all__ = [
    "DEFAULT_RUNS_ROOT",
    "DURATION_REGRESSION_RATIO",
    "LEDGER_NAME",
    "LedgerError",
    "MANIFEST_NAME",
    "METRICS_NAME",
    "RunRecorder",
    "RUNS_DIR_ENV",
    "STATS_NAME",
    "baseline_for",
    "config_digest",
    "diff_runs",
    "file_digest",
    "gc_runs",
    "list_runs",
    "load_manifest",
    "read_ledger",
    "resolve_run",
    "resolve_runs_root",
]
