"""Solver observability: statistics trees, spans, metrics, trace hooks
and standard-format exporters.

The ASP engine and every analysis built on it (EPA, CEGAR refinement,
mitigation optimization, the pipeline driver) report into this package
instead of being a black box:

* :class:`SolveStats` — a nested, clingo-``statistics``-compatible tree
  with ``grounding`` / ``solving`` / ``summary`` sections, dotted-path
  accessors, recursive merge and JSON serialization;
* :class:`Timer` / :class:`Counter` — low-overhead stage timing;
* :class:`TraceSink` and friends — a pluggable event stream (no-op
  default, JSON-lines, human-readable, in-memory, Chrome trace);
* :class:`Tracer` / :class:`Span` — hierarchical spans with
  context-var parent propagation, closing into begin/end event pairs
  on any sink;
* :class:`MetricsRegistry` — process-wide counters, gauges and
  histograms (:func:`get_registry`), foldable across worker processes;
* :mod:`~repro.observability.export` — Chrome trace-event JSON
  (Perfetto), Prometheus text exposition, JSON run manifests, and
  Graphviz DOT / JSON renderings of provenance proof DAGs
  (:func:`proof_to_dot`, :func:`proof_to_json`);
* :func:`format_statistics` — the clingo-style terminal summary block
  printed by ``repro --stats``;
* :class:`RunRecorder` and the run ledger
  (:mod:`~repro.observability.ledger`) — content-addressed per-run
  directories plus an append-only JSONL index, browsed and diffed by
  ``repro runs``;
* :class:`ProgressTracker` / :class:`ProgressRenderer` — live
  scenarios/sec, cube counts and ETA for long sweeps (CLI
  ``--progress``, ``repro_progress_*`` gauges);
* :class:`WorkerHealth` — heartbeat-based stall detection for the
  work-stealing pool (``repro_worker_stalled_total``,
  ``repro_worker_heartbeat_age_seconds``).

Entry points: ``repro.asp.Control(trace=...)`` and its ``.statistics``
property; ``EpaEngine.statistics``; the CLI's ``--stats`` / ``--trace``
/ ``--trace-format`` / ``--metrics`` / ``--profile`` flags.  See
``docs/observability.md`` for the schema and worked examples.
"""

from .export import (
    ChromeTraceSink,
    git_revision,
    prometheus_exposition,
    proof_to_dot,
    proof_to_json,
    run_manifest,
    stats_digest,
    to_chrome_trace,
    write_metrics,
)
from .health import (
    DEFAULT_STALL_TIMEOUT_S,
    HealthError,
    WorkerHealth,
    default_on_stall,
    resolve_stall_timeout,
)
from .ledger import (
    LedgerError,
    RunRecorder,
    baseline_for,
    config_digest,
    diff_runs,
    gc_runs,
    list_runs,
    load_manifest,
    read_ledger,
    resolve_run,
    resolve_runs_root,
)
from .metrics import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    get_registry,
)
from .progress import (
    ProgressRenderer,
    ProgressSnapshot,
    ProgressTracker,
)
from .spans import NOOP_SPAN, Span, Tracer, current_span
from .stats import (
    SolveStats,
    StatsError,
    format_statistics,
)
from .timing import Counter, Timer
from .trace import (
    NULL_SINK,
    HumanTraceSink,
    JsonLinesTraceSink,
    MemoryTraceSink,
    NullTraceSink,
    TraceEvent,
    TraceSink,
    open_trace,
)

__all__ = [
    "ChromeTraceSink",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_STALL_TIMEOUT_S",
    "Gauge",
    "HealthError",
    "Histogram",
    "HumanTraceSink",
    "JsonLinesTraceSink",
    "LedgerError",
    "MemoryTraceSink",
    "MetricsError",
    "MetricsRegistry",
    "NOOP_SPAN",
    "NULL_SINK",
    "NullTraceSink",
    "ProgressRenderer",
    "ProgressSnapshot",
    "ProgressTracker",
    "RunRecorder",
    "SIZE_BUCKETS",
    "SolveStats",
    "Span",
    "StatsError",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "Timer",
    "WorkerHealth",
    "baseline_for",
    "config_digest",
    "current_span",
    "default_on_stall",
    "diff_runs",
    "format_statistics",
    "gc_runs",
    "get_registry",
    "git_revision",
    "list_runs",
    "load_manifest",
    "open_trace",
    "prometheus_exposition",
    "proof_to_dot",
    "proof_to_json",
    "read_ledger",
    "resolve_run",
    "resolve_runs_root",
    "resolve_stall_timeout",
    "run_manifest",
    "stats_digest",
    "to_chrome_trace",
    "write_metrics",
]
