"""Worker pool for sharded enumeration.

The paper's workflow (Fig. 1) checks every candidate scenario
exhaustively; :class:`WorkStealingPool` shards that check across
processes for cube-and-conquer (see :mod:`repro.asp.cubes` and
``docs/parallelism.md``).  The parent holds the pending-task deque and
feeds each worker one task at a time, preferring tasks whose *home* tag
matches the worker; a worker that drains its home partition is handed
tasks homed elsewhere — work stealing with exact parent-side
bookkeeping, which is what makes crash recovery precise: when a worker
process dies, the parent knows exactly which task it held, re-queues it
(bounded attempts), and respawns the worker.  Per-task busy seconds,
steal counts and cube counts are published to the metrics registry as
``repro_parallel_worker_busy_seconds``, ``repro_parallel_steals_total``
and ``repro_parallel_cubes_total``.  With one worker (or one item) the
pool runs in-process, so serial evaluation is simply the one-worker
case.

**Tasks and their state.**  :meth:`WorkStealingPool.map` calls each
task as ``function(item, emit)``.  State shared by every task of one
call travels with ``function`` itself — bind it with
:func:`functools.partial`: fork-started workers inherit it through the
``Process`` arguments (respawned workers included), spawn-started
workers unpickle it once per process, and the in-process case just
calls the function.  Nothing crosses through module globals, so maps
driven from separate threads do not see each other's state (forking a
pool from several threads at once is still unsupported).

**Streaming result channel.**  ``emit(value)`` ships an intermediate
result any number of times before the task returns: from a pool worker
the value is pickled and sent on the worker's result pipe immediately;
in-process it reaches the callback synchronously.  Either way the
parent invokes the ``on_partial(task_index, value)`` callback passed to
:meth:`WorkStealingPool.map` — the mechanism behind bounded-memory
streaming sweeps, where workers ship models (or pre-folded partial
aggregates) as they are found instead of one pickled batch per cube.
``emit`` is a no-op when the caller passed no ``on_partial``.  Two
companion callbacks keep crash recovery honest: ``on_retry(task_index)``
fires when a worker died mid-task and the task is re-queued, so the
caller discards the partials the dead attempt already shipped;
``on_result(task_index, value)`` fires when a task finishes, marking
its partials final.

**Metrics ride the result channel.**  A pool worker zeroes its metrics
registry before each task and ships a
:meth:`~repro.observability.MetricsRegistry.to_dict` snapshot with the
task's result; the parent folds it into the process-wide registry, so
every metric a task records reaches the parent's registry exactly once
(in-process tasks record straight into it) and ``--metrics`` composes
with ``--workers N``.

Pool-level failures — a worker killed by the OS, unpicklable payloads —
surface as :class:`ParallelError` instead of a hang, with the
worker-side traceback attached as :attr:`ParallelError.worker_traceback`
when one was captured; exceptions *raised by* the task function
propagate unchanged (chained to a :class:`ParallelError` carrying the
worker traceback when they crossed a process boundary).
"""

from __future__ import annotations

import functools
import gc
import multiprocessing
import pickle
import time
import traceback as traceback_module
from collections import deque
from multiprocessing.connection import wait as wait_readable
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    TypeVar,
)

from .observability.health import WorkerHealth
from .observability.metrics import get_registry

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: how many times a task is retried after its worker died mid-execution
MAX_TASK_ATTEMPTS = 3


def _discard(_value) -> None:
    """``emit`` for a :meth:`WorkStealingPool.map` without ``on_partial``."""


def _ship_partial(results, task_index, worker_index, attempt, value) -> None:
    """``emit`` inside a pool worker: one attempt-tagged partial message."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    results.send(("partial", task_index, worker_index, attempt, payload))


class ParallelError(RuntimeError):
    """A worker pool failed (crashed worker, unpicklable payload).

    When the failure happened on the worker side of a process boundary
    the formatted worker traceback is attached as
    :attr:`worker_traceback` (and appended to the message), so the
    actual failing frame is never swallowed by the pool machinery.
    """

    def __init__(self, message: str, worker_traceback: Optional[str] = None):
        if worker_traceback:
            message = "%s\n--- worker traceback ---\n%s" % (
                message,
                worker_traceback.rstrip(),
            )
        super().__init__(message)
        self.worker_traceback = worker_traceback


def _pool_worker(index, function, tasks, results, streaming):
    """Worker-process loop: one task at a time, results pre-pickled.

    Pre-pickling the result in the worker turns an unpicklable return
    value into an explicit error message instead of a lost result.
    Exceptions raised by ``function`` are shipped with their formatted
    traceback so the parent can re-raise without losing the failing
    frame.  The metrics registry is zeroed before each task (a
    fork-started worker inherits the parent's counts) and its snapshot
    rides the ``done`` message, so each message carries exactly that
    task's metrics.  ``streaming`` says whether the parent listens for
    partials; without it ``emit`` discards them.

    ``results`` is this worker's own pipe, written synchronously: a
    worker that dies mid-message leaves a truncated message in its own
    pipe only, which the parent reads as end-of-file.  (A queue shared
    by all workers is written by a background thread under a
    cross-process lock; a worker killed while that thread held the lock
    would silence every other worker for good.)

    The cyclic garbage collector is frozen on entry: fork-started
    workers inherit the parent heap copy-on-write, and a collection
    sweeping those inherited objects would unshare their pages (and
    burn CPU) for garbage the short-lived worker never produced.
    Task-local garbage is still reclaimed by reference counting.
    """
    gc.freeze()
    gc.disable()
    registry = get_registry()
    while True:
        message = tasks.get()
        if message is None:
            return
        task_index, attempt, item = message
        emit = (
            functools.partial(_ship_partial, results, task_index, index, attempt)
            if streaming
            else _discard
        )
        registry.reset()
        start = time.perf_counter()
        try:
            value = function(item, emit)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as error:  # ship SystemExit/KeyboardInterrupt too
            trace = traceback_module.format_exc()
            try:
                error_payload = pickle.dumps(
                    error, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                error_payload = None
                trace += "\n(exception %r was not picklable)" % (error,)
            results.send(("error", task_index, index, error_payload, trace))
            return
        busy = time.perf_counter() - start
        results.send(
            ("done", task_index, index, busy, payload, registry.to_dict())
        )


class WorkStealingPool:
    """A crash-tolerant, work-stealing process pool for sharded solves.

    The parent owns the pending deque and hands each worker exactly one
    task at a time.  Tasks are tagged with a *home* worker
    (``index % workers``); dispatch prefers a worker's home tasks and
    falls back to stealing the oldest pending task homed elsewhere, so
    a worker whose cubes finish early drains the slow workers' backlog
    instead of idling.  Because the parent always knows which task each
    worker holds, a worker that dies mid-task (OOM kill, signal) is
    respawned and its task re-queued — up to :data:`MAX_TASK_ATTEMPTS`
    attempts, after which the run fails with :class:`ParallelError`.
    Exceptions raised *by* the task function fail fast: the original
    exception is re-raised in the parent, chained to a
    :class:`ParallelError` carrying the worker-side traceback.
    """

    def __init__(
        self,
        workers: int,
        context: Optional[str] = None,
        stall_timeout: Optional[float] = None,
        on_stall: Optional[Callable[[int, int, float, str], None]] = None,
    ):
        """``stall_timeout`` (seconds; default ``REPRO_STALL_TIMEOUT_S``
        or 30) bounds how long a worker may hold a task silently before
        a stall warning fires — ``on_stall(worker, task, silent_s,
        reason)`` overrides the default stderr warning (see
        :mod:`repro.observability.health`).  Stall telemetry always
        precedes the retry/respawn it explains."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.stall_timeout = stall_timeout
        self.on_stall = on_stall
        method = context or (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._context = multiprocessing.get_context(method)
        #: item index -> worker lane of the most recent :meth:`map` call
        self.last_assignments: Dict[int, int] = {}

    def map(
        self,
        function: Callable[[_Item, Callable[[object], None]], _Result],
        items: Iterable[_Item],
        on_partial: Optional[Callable[[int, object], None]] = None,
        on_retry: Optional[Callable[[int], None]] = None,
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> List[_Result]:
        """Evaluate ``function(item, emit)`` over ``items``; results in
        input order.

        After the call, :attr:`last_assignments` maps each item index to
        the worker lane that executed it (all ``0`` for the in-process
        degenerate case) — callers use it to tag per-item telemetry with
        the lane it actually ran in.

        ``on_partial(task_index, value)`` receives every value a task
        passes to ``emit`` before finishing; ``on_retry(task_index)``
        fires when a crashed worker's task is re-queued (discard that
        task's partials); ``on_result`` fires on task completion, before
        the pool moves on.  All three run in the parent process, on the
        thread driving :meth:`map`.
        """
        batch = list(items)
        if self.workers <= 1 or len(batch) <= 1:
            self.last_assignments = {index: 0 for index in range(len(batch))}
            collected = []
            for index, item in enumerate(batch):
                emit = (
                    _discard
                    if on_partial is None
                    else functools.partial(on_partial, index)
                )
                value = function(item, emit)
                if on_result is not None:
                    on_result(index, value)
                collected.append(value)
            return collected
        results, assignments = _run_pool(
            self._context,
            self.workers,
            function,
            batch,
            on_partial=on_partial,
            on_retry=on_retry,
            on_result=on_result,
            stall_timeout=self.stall_timeout,
            on_stall=self.on_stall,
        )
        self.last_assignments = assignments
        return results


def _run_pool(
    context,
    workers,
    function,
    batch,
    on_partial=None,
    on_retry=None,
    on_result=None,
    stall_timeout=None,
    on_stall=None,
):
    registry = get_registry()
    health = WorkerHealth(stall_timeout=stall_timeout, on_stall=on_stall)
    cubes_total = registry.counter(
        "repro_parallel_cubes_total",
        "tasks (cubes) completed by the work-stealing pool",
    )
    steals_total = registry.counter(
        "repro_parallel_steals_total",
        "tasks executed by a worker other than their home worker",
    )
    respawns_total = registry.counter(
        "repro_parallel_respawns_total",
        "worker processes respawned after dying mid-task",
    )

    worker_count = min(workers, len(batch))
    pending = deque(range(len(batch)))
    homes = {index: index % worker_count for index in range(len(batch))}
    attempts = {index: 0 for index in range(len(batch))}
    results: Dict[int, object] = {}
    assignments: Dict[int, int] = {}

    # read ends of the live workers' result pipes
    readers = []
    inbox: deque = deque()
    task_queues = []
    processes = []
    in_flight: Dict[int, Optional[int]] = {}

    def spawn(worker_index):
        task_queue = context.Queue()
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(
            target=_pool_worker,
            args=(
                worker_index, function, task_queue, writer, on_partial is not None
            ),
            daemon=True,
        )
        process.start()
        # the worker now holds the only write end, so its exit shows up
        # as end-of-file on the read end
        writer.close()
        readers.append(reader)
        if worker_index < len(task_queues):
            task_queues[worker_index] = task_queue
            processes[worker_index] = process
        else:
            task_queues.append(task_queue)
            processes.append(process)
        in_flight[worker_index] = None
        health.beat(worker_index)

    def dispatch(worker_index):
        """Feed one task to an idle worker, preferring its home tasks."""
        if not pending:
            return
        task_index = None
        for candidate in pending:
            if homes[candidate] == worker_index:
                task_index = candidate
                break
        if task_index is None:
            task_index = pending[0]
            steals_total.inc()
        pending.remove(task_index)
        attempts[task_index] += 1
        in_flight[worker_index] = task_index
        task_queues[worker_index].put(
            (task_index, attempts[task_index], batch[task_index])
        )

    def receive():
        """The next worker message, or ``None`` after 50 ms of silence."""
        if not inbox:
            for reader in wait_readable(readers, timeout=0.05):
                try:
                    inbox.append(reader.recv())
                except (EOFError, OSError):
                    # the worker exited; the liveness check re-queues
                    # whatever task it held
                    readers.remove(reader)
                    reader.close()
        return inbox.popleft() if inbox else None

    def shutdown():
        for worker_index, process in enumerate(processes):
            if process.is_alive():
                try:
                    task_queues[worker_index].put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + 2.0
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for reader in readers:
            reader.close()
        for task_queue in task_queues:
            task_queue.close()

    try:
        for worker_index in range(worker_count):
            spawn(worker_index)
            dispatch(worker_index)

        while len(results) < len(batch):
            message = receive()
            if message is None:
                # No result: check for dead workers holding a task.
                for worker_index, process in enumerate(processes):
                    if process.is_alive():
                        continue
                    task_index = in_flight.get(worker_index)
                    if task_index is not None and task_index not in results:
                        # stall telemetry (warning + counter) fires
                        # before the retry/respawn path it explains
                        health.dead(worker_index, task_index, attempts)
                        if attempts[task_index] >= MAX_TASK_ATTEMPTS:
                            raise ParallelError(
                                "worker %d died evaluating item %d "
                                "(%d attempts); giving up"
                                % (
                                    worker_index,
                                    task_index,
                                    attempts[task_index],
                                )
                            )
                        if on_retry is not None:
                            on_retry(task_index)
                        pending.appendleft(task_index)
                    in_flight[worker_index] = None
                    if pending or len(results) < len(batch):
                        respawns_total.inc()
                        spawn(worker_index)
                        dispatch(worker_index)
                # live workers holding a task silently past the stall
                # timeout get a (once-per-attempt) straggler warning
                health.check(in_flight, attempts)
                continue
            kind = message[0]
            # every message a worker ships is a heartbeat
            health.beat(message[2])
            if kind == "partial":
                _, task_index, worker_index, attempt, payload = message
                # Partials are attempt-tagged and only honoured while
                # their attempt is the one currently in flight on the
                # emitting worker; anything else is a stale straggler
                # from a crashed (or already completed) attempt.
                if (
                    task_index not in results
                    and attempt == attempts[task_index]
                    and in_flight.get(worker_index) == task_index
                ):
                    on_partial(task_index, pickle.loads(payload))
                continue
            if kind == "done":
                _, task_index, worker_index, busy, payload, metrics = message
                registry.merge(metrics)
                results[task_index] = pickle.loads(payload)
                assignments[task_index] = worker_index
                in_flight[worker_index] = None
                if on_result is not None:
                    on_result(task_index, results[task_index])
                cubes_total.inc()
                registry.counter(
                    "repro_parallel_worker_busy_seconds",
                    "seconds each pool worker spent executing tasks",
                    worker=worker_index,
                ).inc(busy)
                dispatch(worker_index)
            elif kind == "error":
                _, task_index, worker_index, error_payload, trace = message
                carrier = ParallelError(
                    "worker %d raised while evaluating item %d"
                    % (worker_index, task_index),
                    worker_traceback=trace,
                )
                if error_payload is None:
                    raise carrier
                raise pickle.loads(error_payload) from carrier
            else:  # pragma: no cover - protocol violation
                raise ParallelError("unknown pool message %r" % (message,))
        return [results[index] for index in range(len(batch))], assignments
    finally:
        shutdown()


__all__ = [
    "MAX_TASK_ATTEMPTS",
    "ParallelError",
    "WorkStealingPool",
]
