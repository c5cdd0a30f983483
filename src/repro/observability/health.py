"""Worker health telemetry: heartbeats, stall detection, warnings.

The work-stealing pool (:mod:`repro.parallel`) already has precise
parent-side bookkeeping — it knows which task every worker holds — but
until now the only health signal was binary: a worker was alive or its
process had exited.  :class:`WorkerHealth` adds the in-between state
the respawn path cannot see: a worker that is *alive but silent*
(stuck solve, livelock, swapping) while holding a task.

Heartbeats piggyback on the pool's result channel — every message a
worker ships (``done``/``error``, one per task) refreshes its
:meth:`~WorkerHealth.beat` timestamp, so there is no extra IPC and no
worker-side code at all.  A worker therefore beats once per finished
cube, so the stall timeout must outlast the longest cube; it does by
far (the largest cube of the 210,043-scenario fleet sweep, 52,463
scenarios, took 5.4 s; see ``docs/observability.md``).  The pool's
idle loop calls
:meth:`~WorkerHealth.check`; a worker silent longer than the stall
timeout while holding a task triggers a warning (once per task
attempt) through ``on_stall`` and increments
``repro_worker_stalled_total``.  A worker found *dead* mid-task goes
through :meth:`~WorkerHealth.dead` — same counter, ``reason="died"`` —
immediately before the pool's existing retry/respawn machinery kicks
in, so the stall telemetry always precedes the respawn it explains.

Per-worker silence is also exported as
``repro_worker_heartbeat_age_seconds{worker=<i>}`` gauges, refreshed on
every check, giving scrapes a live straggler profile of the pool.

The stall timeout resolves explicit > ``REPRO_STALL_TIMEOUT_S`` >
:data:`DEFAULT_STALL_TIMEOUT_S` (30s — generous, because a "stall"
warning on a merely slow cube is noise; the respawn path still handles
actual deaths immediately regardless of the timeout).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, Mapping, Optional, Set, Tuple

from .metrics import MetricsRegistry, get_registry

#: default seconds of silence (while holding a task) before a stall
#: warning; override with ``REPRO_STALL_TIMEOUT_S`` or the explicit
#: ``stall_timeout`` argument of :class:`WorkerHealth`
DEFAULT_STALL_TIMEOUT_S = 30.0

STALL_TIMEOUT_ENV = "REPRO_STALL_TIMEOUT_S"

#: ``on_stall(worker_index, task_index, silent_seconds, reason)``;
#: ``reason`` is ``"silent"`` (alive but quiet past the timeout) or
#: ``"died"`` (process exited mid-task, about to be respawned)
StallCallback = Callable[[int, int, float, str], None]


class HealthError(ValueError):
    """Raised on an invalid stall-timeout configuration."""


def resolve_stall_timeout(explicit: Optional[float] = None) -> float:
    """Resolve the stall timeout: explicit > env > default (seconds)."""
    if explicit is not None:
        timeout = float(explicit)
    else:
        raw = os.environ.get(STALL_TIMEOUT_ENV)
        if raw is None:
            return DEFAULT_STALL_TIMEOUT_S
        try:
            timeout = float(raw)
        except ValueError:
            raise HealthError(
                "%s must be a positive number of seconds, not %r"
                % (STALL_TIMEOUT_ENV, raw)
            )
    if timeout <= 0:
        raise HealthError(
            "stall timeout must be positive, not %r" % (timeout,)
        )
    return timeout


def default_on_stall(
    worker_index: int, task_index: int, silent_s: float, reason: str
) -> None:
    """The default stall warning: one line on stderr."""
    if reason == "died":
        message = (
            "repro: warning: worker %d died holding task %d "
            "(silent %.1fs); re-queueing and respawning"
            % (worker_index, task_index, silent_s)
        )
    else:
        message = (
            "repro: warning: worker %d stalled on task %d "
            "(silent %.1fs)" % (worker_index, task_index, silent_s)
        )
    try:
        sys.stderr.write(message + "\n")
    except (OSError, ValueError):  # pragma: no cover - broken stderr
        pass


class WorkerHealth:
    """Parent-side stall detector over the pool's message traffic.

    The pool drives it: :meth:`beat` on every spawn/dispatch/message,
    :meth:`check` from the idle loop, :meth:`dead` when a worker
    process is found exited mid-task.  Warnings fire at most once per
    ``(worker, task, attempt)`` — a retried task gets a fresh warning
    budget on its new attempt, a long stall does not spam.
    """

    def __init__(
        self,
        stall_timeout: Optional[float] = None,
        on_stall: Optional[StallCallback] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.stall_timeout = resolve_stall_timeout(stall_timeout)
        self._on_stall = on_stall if on_stall is not None else default_on_stall
        # explicit None check: an empty MetricsRegistry is falsy
        self._registry = registry if registry is not None else get_registry()
        self._clock = clock
        self._last_seen: Dict[int, float] = {}
        self._warned: Set[Tuple[int, int, int]] = set()
        self._stalled_total = self._registry.counter(
            "repro_worker_stalled_total",
            "pool workers detected stalled (silent past the timeout) or "
            "dead while holding a task",
        )
        self._age_gauges: Dict[int, object] = {}

    @property
    def stalls(self) -> int:
        """Stall warnings issued by this detector instance."""
        return len(self._warned)

    def beat(self, worker_index: int) -> None:
        """Refresh a worker's heartbeat (any message counts as life)."""
        self._last_seen[worker_index] = self._clock()

    def silence(self, worker_index: int) -> float:
        """Seconds since the worker was last heard from."""
        last = self._last_seen.get(worker_index)
        if last is None:
            return 0.0
        return max(0.0, self._clock() - last)

    def check(
        self,
        in_flight: Mapping[int, Optional[int]],
        attempts: Mapping[int, int],
    ) -> int:
        """Scan busy workers for silence past the timeout.

        ``in_flight`` maps worker -> task currently held (``None`` =
        idle); ``attempts`` maps task -> current attempt number.
        Refreshes the per-worker heartbeat-age gauges and returns the
        number of *new* stall warnings issued.
        """
        warned = 0
        for worker_index, task_index in in_flight.items():
            silent = self.silence(worker_index)
            self._age_gauge(worker_index).set(silent)
            if task_index is None:
                continue
            if silent < self.stall_timeout:
                continue
            if self._warn(worker_index, task_index, attempts, silent, "silent"):
                warned += 1
        return warned

    def dead(
        self,
        worker_index: int,
        task_index: int,
        attempts: Mapping[int, int],
    ) -> None:
        """A worker process exited while holding ``task_index``.

        Called by the pool *before* it re-queues the task and respawns
        the worker, so the warning and the counter increment always
        precede the respawn they explain.
        """
        self._warn(
            worker_index, task_index, attempts, self.silence(worker_index),
            "died",
        )

    def _warn(
        self,
        worker_index: int,
        task_index: int,
        attempts: Mapping[int, int],
        silent: float,
        reason: str,
    ) -> bool:
        key = (worker_index, task_index, attempts.get(task_index, 0))
        if key in self._warned:
            return False
        self._warned.add(key)
        self._stalled_total.inc()
        self._on_stall(worker_index, task_index, silent, reason)
        return True

    def _age_gauge(self, worker_index: int):
        gauge = self._age_gauges.get(worker_index)
        if gauge is None:
            gauge = self._registry.gauge(
                "repro_worker_heartbeat_age_seconds",
                "seconds since each pool worker was last heard from",
                worker=worker_index,
            )
            self._age_gauges[worker_index] = gauge
        return gauge


__all__ = [
    "DEFAULT_STALL_TIMEOUT_S",
    "STALL_TIMEOUT_ENV",
    "HealthError",
    "StallCallback",
    "WorkerHealth",
    "default_on_stall",
    "resolve_stall_timeout",
]
