"""Live progress for long sweeps: scenarios/sec, cubes done, ETA.

A fleet-scale sweep (``docs/streaming.md``) is silent until it
finishes; this module is the progress surface the ROADMAP's
analysis-as-a-service item needs.  :class:`ProgressTracker` is a cheap
parent-side accumulator the EPA engine feeds from the streaming hooks
it already has — the work-stealing pool's partial channel
(``on_partial``/``on_result``) on sharded sweeps, the per-model fold on
sequential ones — and periodically converts into a
:class:`ProgressSnapshot`: scenarios folded so far, throughput, cubes
done/total, an ETA extrapolated from the scenarios folded so far (or
from completed cubes when the scenario total is unknown), all
published as ``repro_progress_*`` gauges so a scrape mid-sweep sees
the same numbers the terminal does.

:class:`ProgressRenderer` is the terminal face (CLI ``--progress``): a
throttled, carriage-return live line on stderr that never interleaves
with the report the command prints on stdout.

Everything here runs in the parent process, on the thread driving the
sweep — the pool delivers ``on_partial`` callbacks there — so there is
no locking and no overhead in the workers.  Counter updates are O(1)
attribute arithmetic; the time check and gauge export happen at most
every ``min_interval`` seconds, which is what keeps the
``SPEEDUP_FLOORS`` benches indifferent to progress being on.

Crash-retried cubes roll their buffered counts back via negative
:meth:`ProgressTracker.add_scenarios` deltas, mirroring the engine's
buffer-discard bookkeeping, so the live line never over-reports.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, IO, Optional

from .metrics import MetricsRegistry, get_registry

#: seconds between gauge exports / render callbacks (the throttle that
#: keeps progress overhead out of the hot fold loop)
DEFAULT_UPDATE_INTERVAL_S = 0.5


@dataclass(frozen=True)
class ProgressSnapshot:
    """One point-in-time reading of a sweep's progress.

    ``eta_seconds`` is ``None`` until there is fresh work to
    extrapolate from: scenarios when the layout declared the sweep's
    scenario total, else completed cubes (sequential sweeps without
    cube totals never estimate);
    ``rate`` counts only scenarios folded *this run* — cubes resumed
    from a checkpoint are excluded, their wall-clock was spent in an
    earlier process.
    """

    scenarios: int
    rate: float
    cubes_done: int
    cubes_total: int
    elapsed: float
    eta_seconds: Optional[float]

    def render(self) -> str:
        parts = ["%d scenarios" % self.scenarios]
        parts.append("%.0f/s" % self.rate)
        if self.cubes_total:
            parts.append("cubes %d/%d" % (self.cubes_done, self.cubes_total))
        if self.eta_seconds is not None:
            minutes, seconds = divmod(int(round(self.eta_seconds)), 60)
            parts.append("ETA %d:%02d" % (minutes, seconds))
        parts.append("%.1fs elapsed" % self.elapsed)
        return " | ".join(parts)


class ProgressTracker:
    """Accumulates sweep progress and publishes it as gauges.

    Feed it from the streaming hooks (:meth:`add_scenarios` per folded
    model or partial aggregate, :meth:`cube_done` per completed cube);
    it throttles itself: at most every ``min_interval`` seconds the
    ``repro_progress_*`` gauges are refreshed and ``on_update`` (the
    renderer, a service push, a test probe) receives a fresh
    :class:`ProgressSnapshot`.  ``clock`` is injectable for
    deterministic tests.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        on_update: Optional[Callable[[ProgressSnapshot], None]] = None,
        min_interval: float = DEFAULT_UPDATE_INTERVAL_S,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._registry = registry
        self.on_update = on_update
        self._min_interval = min_interval
        self._clock = clock
        self._epoch = clock()
        self._last_update = self._epoch
        self.scenarios = 0
        self.cubes_done = 0
        self.cubes_total = 0
        #: the current sweep's fresh work, for the scenario ETA: the
        #: scenarios it still had to sweep when its layout was declared
        #: (0 = unknown), and the clock reading and scenario count at
        #: that point — a tracker can follow several sweeps
        self._sweep_todo = 0
        self._sweep_epoch = self._epoch
        self._sweep_base = 0
        #: cubes (and their scenarios) restored from a checkpoint —
        #: counted as done, excluded from rate/ETA extrapolation
        self._preseeded_cubes = 0
        self._preseeded_scenarios = 0

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def set_total_cubes(
        self, total: int, done: int = 0, scenarios: Optional[int] = None
    ) -> None:
        """Declare the cube layout; ``done`` cubes were resumed.

        ``scenarios`` is the sweep's exact scenario count, resumed ones
        included: with it the ETA extrapolates the scenarios swept since
        this call rather than completed cubes, which stays right when
        cube sizes differ.
        """
        self.cubes_total = int(total)
        self.cubes_done = int(done)
        self._preseeded_cubes = int(done)
        self._sweep_todo = int(scenarios or 0)
        self._sweep_epoch = self._clock()
        self._sweep_base = self.scenarios

    def preseed_scenarios(self, count: int) -> None:
        """Count scenarios restored from a checkpoint (shown, not rated)."""
        self._preseeded_scenarios = int(count)
        self.scenarios += int(count)
        self._sweep_base += int(count)
        if self._sweep_todo:
            self._sweep_todo -= int(count)

    def add_scenarios(self, count: int = 1) -> None:
        """Fold ``count`` scenarios (negative = crash-retry rollback)."""
        self.scenarios = max(0, self.scenarios + int(count))
        self._maybe_update()

    def cube_done(self, count: int = 1) -> None:
        self.cubes_done += int(count)
        self._maybe_update()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> ProgressSnapshot:
        now = self._clock()
        elapsed = max(now - self._epoch, 1e-9)
        rate = (self.scenarios - self._preseeded_scenarios) / elapsed
        eta = None
        fresh_done = self.cubes_done - self._preseeded_cubes
        fresh_total = self.cubes_total - self._preseeded_cubes
        swept = self.scenarios - self._sweep_base
        if self.cubes_total and fresh_done >= fresh_total:
            eta = 0.0
        elif self._sweep_todo > 0 and swept > 0:
            remaining = max(0, self._sweep_todo - swept)
            eta = (now - self._sweep_epoch) * remaining / swept
        elif fresh_done > 0 and fresh_total > fresh_done:
            eta = elapsed * (fresh_total - fresh_done) / fresh_done
        return ProgressSnapshot(
            scenarios=self.scenarios,
            rate=rate,
            cubes_done=self.cubes_done,
            cubes_total=self.cubes_total,
            elapsed=elapsed,
            eta_seconds=eta,
        )

    def export(self, snapshot: Optional[ProgressSnapshot] = None) -> None:
        """Publish the snapshot as ``repro_progress_*`` gauges."""
        snap = snapshot or self.snapshot()
        # explicit None check: an empty MetricsRegistry is falsy
        registry = (
            self._registry if self._registry is not None else get_registry()
        )
        registry.gauge(
            "repro_progress_scenarios", "scenarios folded so far"
        ).set(snap.scenarios)
        registry.gauge(
            "repro_progress_scenarios_per_second",
            "current sweep throughput (this run's scenarios only)",
        ).set(snap.rate)
        registry.gauge(
            "repro_progress_cubes_done", "cubes completed (incl. resumed)"
        ).set(snap.cubes_done)
        registry.gauge(
            "repro_progress_cubes_total", "cubes in the sweep layout"
        ).set(snap.cubes_total)
        registry.gauge(
            "repro_progress_eta_seconds",
            "estimated seconds to completion (-1 = unknown)",
        ).set(-1.0 if snap.eta_seconds is None else snap.eta_seconds)
        registry.gauge(
            "repro_progress_elapsed_seconds", "seconds since the sweep began"
        ).set(snap.elapsed)

    def finish(self) -> ProgressSnapshot:
        """Final forced export + update (call when the sweep completes)."""
        snap = self.snapshot()
        self.export(snap)
        if self.on_update is not None:
            self.on_update(snap)
        return snap

    def _maybe_update(self) -> None:
        now = self._clock()
        if now - self._last_update < self._min_interval:
            return
        self._last_update = now
        snap = self.snapshot()
        self.export(snap)
        if self.on_update is not None:
            self.on_update(snap)


class ProgressRenderer:
    """A carriage-return live progress line (CLI ``--progress``).

    Wire :meth:`update` as a tracker's ``on_update``; call
    :meth:`close` when the command finishes to freeze the final line
    with a newline.  Writes to stderr by default so the live line never
    corrupts report output on stdout; nothing is written after close.
    """

    def __init__(self, stream: Optional[IO[str]] = None, prefix: str = "repro"):
        self._stream = stream if stream is not None else sys.stderr
        self._prefix = prefix
        self._width = 0
        self._closed = False
        self._rendered = False

    def update(self, snapshot: ProgressSnapshot) -> None:
        if self._closed:
            return
        line = "%s: %s" % (self._prefix, snapshot.render())
        padding = " " * max(0, self._width - len(line))
        try:
            self._stream.write("\r" + line + padding)
            self._stream.flush()
        except (OSError, ValueError):  # closed/broken stream: go silent
            self._closed = True
            return
        self._width = len(line)
        self._rendered = True

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._rendered:
            try:
                self._stream.write("\n")
                self._stream.flush()
            except (OSError, ValueError):
                pass


__all__ = [
    "DEFAULT_UPDATE_INTERVAL_S",
    "ProgressRenderer",
    "ProgressSnapshot",
    "ProgressTracker",
]
