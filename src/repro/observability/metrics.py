"""A process-wide registry of counters, gauges and histograms.

Statistics trees (:mod:`repro.observability.stats`) are *per engine
instance* and mirror clingo's shape; metrics are *per process* and
mirror the Prometheus data model, so one scrape (or one
``--metrics FILE`` dump) summarizes everything the process solved —
across controls, engines, pipeline phases and (folded back from the
per-task snapshots :mod:`repro.parallel` workers ship with each result)
child processes.

Three instrument kinds, all label-aware:

:class:`Counter`
    a monotonically increasing total (``repro_models_total``);
:class:`Gauge`
    a settable point-in-time value (``repro_workers``);
:class:`Histogram`
    cumulative-bucket latency/size distribution with ``sum`` and
    ``count`` (``repro_stage_seconds{stage="solve"}``).

The process-wide default registry is :func:`get_registry`; layers cache
metric handles at import time, which stays correct because
:meth:`MetricsRegistry.reset` *zeroes values in place* instead of
dropping the instruments.  :meth:`MetricsRegistry.to_dict` /
:meth:`MetricsRegistry.merge` serialize and fold registries
deterministically — merging the same parts in any order yields the
same totals (counters and histogram buckets sum; gauges take the
incoming value), which is what makes cross-worker aggregation
reproducible.

Rendering to Prometheus text exposition lives in
:mod:`repro.observability.export`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: default latency buckets (seconds) — Prometheus-style, sub-ms to 10s
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: size buckets for count-valued histograms (core sizes, proof depths)
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    1000.0,
)

#: label values as a canonical, hashable key
LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(Exception):
    """Raised on kind collisions or malformed merges."""


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise MetricsError("counter %r cannot decrease" % self.name)
        self.value += amount

    def _zero(self) -> None:
        self.value = 0.0

    def _state(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _fold(self, state: Mapping[str, Any]) -> None:
        self.value += state.get("value", 0.0)


class Gauge:
    """A value that can go up and down (last write wins on merge)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _zero(self) -> None:
        self.value = 0.0

    def _state(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _fold(self, state: Mapping[str, Any]) -> None:
        self.value = state.get("value", 0.0)


class Histogram:
    """A cumulative-bucket distribution (Prometheus semantics).

    ``buckets`` are ascending upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  ``bucket_counts[i]`` counts observations ``<=
    buckets[i]`` *for that bucket alone* internally — the cumulative
    rollup happens at exposition time — plus running ``sum``/``count``.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricsError(
                "histogram %r buckets must be strictly ascending" % name
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Counts ``<= bound`` per bucket, ending with the total."""
        rollup: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            rollup.append(running)
        return rollup

    def _zero(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def _state(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }

    def _fold(self, state: Mapping[str, Any]) -> None:
        if tuple(state.get("buckets", ())) != self.buckets:
            raise MetricsError(
                "histogram %r bucket layout mismatch on merge" % self.name
            )
        for index, count in enumerate(state.get("bucket_counts", ())):
            self.bucket_counts[index] += count
        self.sum += state.get("sum", 0.0)
        self.count += state.get("count", 0)


class MetricsRegistry:
    """All instruments of one process (or one pool task's snapshot).

    Accessors are get-or-create and idempotent: asking for the same
    (name, labels) twice returns the same object, so handles can be
    cached.  Asking for an existing name with a different kind raises
    :class:`MetricsError`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # instrument accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._get_or_create(Counter, name, help, _label_key(labels))

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, help, _label_key(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            self._register_help(name, help)
            metric = Histogram(name, key[1], buckets=buckets)
            self._check_kind(name, Histogram)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise MetricsError(
                "metric %r is a %s, not a histogram" % (name, metric.kind)  # type: ignore[attr-defined]
            )
        return metric

    def _get_or_create(self, cls: type, name: str, help: str, labels: LabelKey):
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            self._register_help(name, help)
            self._check_kind(name, cls)
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise MetricsError(
                "metric %r is a %s, not a %s"
                % (name, metric.kind, cls.kind)  # type: ignore[attr-defined]
            )
        return metric

    def _check_kind(self, name: str, cls: type) -> None:
        for (existing_name, _), metric in self._metrics.items():
            if existing_name == name and not isinstance(metric, cls):
                raise MetricsError(
                    "metric %r already registered as a %s"
                    % (name, metric.kind)  # type: ignore[attr-defined]
                )

    def _register_help(self, name: str, help: str) -> None:
        if help and name not in self._help:
            self._help[name] = help

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    # ------------------------------------------------------------------
    # collection / serialization / merge
    # ------------------------------------------------------------------
    def collect(self) -> Iterator[object]:
        """Instruments in canonical (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def to_dict(self) -> Dict[str, Any]:
        """A deterministic, JSON-safe snapshot (what a pool worker ships
        per task).

        Shape: ``{name: {"kind": ..., "help": ..., "series": [{"labels":
        {...}, ...state}]}}`` with names and label sets sorted.
        """
        result: Dict[str, Any] = {}
        for metric in self.collect():
            entry = result.setdefault(
                metric.name,  # type: ignore[attr-defined]
                {
                    "kind": metric.kind,  # type: ignore[attr-defined]
                    "help": self.help_for(metric.name),  # type: ignore[attr-defined]
                    "series": [],
                },
            )
            state = metric._state()  # type: ignore[attr-defined]
            state["labels"] = dict(metric.labels)  # type: ignore[attr-defined]
            entry["series"].append(state)
        return result

    def merge(self, other: Mapping[str, Any]) -> "MetricsRegistry":
        """Fold a :meth:`to_dict` snapshot into this registry, in place.

        Counters and histograms sum; gauges take the incoming value.
        Order-independent for counters/histograms, so folding worker
        snapshots in any order produces identical totals.
        """
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for name in sorted(other):
            entry = other[name]
            cls = kinds.get(entry.get("kind", ""))
            if cls is None:
                raise MetricsError(
                    "unknown metric kind %r for %r" % (entry.get("kind"), name)
                )
            if entry.get("help"):
                self._register_help(name, entry["help"])
            for state in entry.get("series", ()):
                labels = _label_key(state.get("labels", {}))
                if cls is Histogram:
                    metric = self._get_histogram_series(name, labels, state)
                else:
                    metric = self._get_or_create(cls, name, "", labels)
                metric._fold(state)  # type: ignore[attr-defined]
        return self

    def _get_histogram_series(
        self, name: str, labels: LabelKey, state: Mapping[str, Any]
    ) -> Histogram:
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(
                name, labels, buckets=state.get("buckets", DEFAULT_BUCKETS)
            )
            self._check_kind(name, Histogram)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise MetricsError("metric %r is not a histogram" % name)
        return metric

    def reset(self) -> None:
        """Zero every instrument *in place* (cached handles stay live)."""
        for metric in self._metrics.values():
            metric._zero()  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self._metrics)


#: the process-wide default registry every instrumented layer reports to
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY


def record_peak_rss(registry: Optional[MetricsRegistry] = None) -> Optional[int]:
    """Record this process's peak RSS as ``repro_peak_rss_bytes``.

    Reads ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` (kilobytes on
    Linux, bytes on macOS), sets the gauge on ``registry`` (default: the
    process-wide registry) and returns the value in bytes — the memory
    half of the streaming-sweep acceptance story (``docs/streaming.md``).
    Returns ``None`` on platforms without the :mod:`resource` module;
    the gauge is then left untouched.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    peak = int(maxrss) * scale
    (registry or REGISTRY).gauge(
        "repro_peak_rss_bytes", "peak resident set size of the process"
    ).set(peak)
    return peak


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "REGISTRY",
    "SIZE_BUCKETS",
    "get_registry",
    "record_peak_rss",
]
