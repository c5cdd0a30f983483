"""Worker-pool evaluation layer for independent solve calls.

The paper's workflow (Fig. 1) is a loop of *independent* solver
invocations: EPA scenario sweeps, what-if mitigation deployments,
sensitivity-analysis factor variations.  Two pool shapes live here:

:func:`parallel_map`
    the simple fan-out: map a picklable function over a batch on a
    :class:`~concurrent.futures.ProcessPoolExecutor` (or a thread pool,
    for callables that close over unpicklable state such as CEGAR
    oracles), results in submission order.  Good when items cost about
    the same.

:class:`WorkStealingPool`
    the sharded-enumeration pool used by cube-and-conquer (see
    :mod:`repro.asp.cubes` and ``docs/parallelism.md``).  The parent
    holds the pending-task deque and feeds each worker one task at a
    time, preferring tasks whose *home* tag matches the worker; a
    worker that drains its home partition is handed tasks homed
    elsewhere — work stealing with exact parent-side bookkeeping, which
    is what makes crash recovery precise: when a worker process dies,
    the parent knows exactly which task it held, re-queues it (bounded
    attempts), and respawns the worker.  Per-task busy seconds, steal
    counts and cube counts are published to the metrics registry as
    ``repro_parallel_worker_busy_seconds``, ``repro_parallel_steals_total``
    and ``repro_parallel_cubes_total``.

:func:`merge_stats` folds per-worker statistics dictionaries into one
:class:`~repro.observability.SolveStats` tree (numeric leaves sum), so
``--stats`` output still accounts for work done in child processes.
Trace events and metrics ride the same way: workers ship their
recorded event streams and a
:meth:`~repro.observability.MetricsRegistry.to_dict` snapshot back in
the result envelope, and the parent replays the events on its own sink
tagged ``worker=<i>`` and folds the metrics into the process-wide
registry — ``--trace``/``--metrics`` compose with ``--workers N``.

Pool-level failures — a worker killed by the OS, unpicklable payloads —
surface as :class:`ParallelError` instead of a hang, with the
worker-side traceback attached as :attr:`ParallelError.worker_traceback`
when one was captured; exceptions *raised by* the mapped function
propagate unchanged (chained to a :class:`ParallelError` carrying the
worker traceback when they crossed a process boundary).

**Streaming result channel.**  A task function may call
:func:`emit_partial` any number of times before returning: each value is
pickled and shipped on the pool's result queue immediately, and the
parent invokes the ``on_partial(task_index, value)`` callback passed to
:meth:`WorkStealingPool.map` as the messages arrive — the mechanism
behind bounded-memory streaming sweeps, where workers ship models (or
pre-folded partial aggregates) as they are found instead of one pickled
batch per cube.  Two companion callbacks keep crash recovery honest:
``on_retry(task_index)`` fires when a worker died mid-task and the task
is re-queued, so the caller discards the partials the dead attempt
already shipped; ``on_result(task_index, value)`` fires when a task
finishes, marking its partials final.  In the in-process degenerate
case (one worker or one item) :func:`emit_partial` invokes
``on_partial`` synchronously — same contract, no queue.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import queue as queue_module
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    TypeVar,
)

from .observability import SolveStats
from .observability.health import WorkerHealth
from .observability.metrics import get_registry

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: how many times a task is retried after its worker died mid-execution
MAX_TASK_ATTEMPTS = 3

#: worker-side channel state: ``(result_queue, task_index, worker_index)``
#: while a pool worker is executing a task, else ``None``
_WORKER_CHANNEL = None

#: in-process channel state: ``(on_partial, task_index)`` while the
#: degenerate (sequential) map path is executing a task, else ``None``
_INPROCESS_PARTIAL = None


def emit_partial(value) -> bool:
    """Ship an intermediate result from inside a pool task.

    Called by the task function; the value reaches the parent's
    ``on_partial(task_index, value)`` callback — immediately via the
    result queue from a pool worker, synchronously in the degenerate
    in-process case.  Returns ``False`` (value dropped) when no channel
    is open: either the caller is not running under a pool ``map``, or
    the parent did not pass ``on_partial``.  Task functions use the
    return value to decide between streaming and returning one batch.
    """
    if _WORKER_CHANNEL is not None:
        results, task_index, worker_index, attempt = _WORKER_CHANNEL
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        results.put(("partial", task_index, worker_index, attempt, payload))
        return True
    if _INPROCESS_PARTIAL is not None:
        on_partial, task_index = _INPROCESS_PARTIAL
        on_partial(task_index, value)
        return True
    return False


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


def parallel_map(
    function: Callable[[_Item], _Result],
    items: Iterable[_Item],
    workers: Optional[int] = None,
    backend: str = "process",
) -> List[_Result]:
    """Map ``function`` over ``items``, preserving submission order.

    ``workers=None`` / ``0`` / ``1`` (or a single item) runs sequentially
    in-process — the degenerate case costs nothing and keeps behaviour
    identical for small batches.  ``backend`` selects ``"process"``
    (default; requires picklable functions and items) or ``"thread"``
    (for closures; parallelism then depends on workers releasing the
    GIL, but ordering and error semantics are the same).
    """
    batch = list(items)
    if not workers or workers <= 1 or len(batch) <= 1:
        return [function(item) for item in batch]
    if backend == "process":
        executor_type = ProcessPoolExecutor
    elif backend == "thread":
        executor_type = ThreadPoolExecutor
    else:
        raise ValueError("unknown backend: %r" % (backend,))
    pool_workers = min(workers, len(batch))
    try:
        with executor_type(max_workers=pool_workers) as pool:
            futures: List["Future[_Result]"] = [
                pool.submit(function, item) for item in batch
            ]
            return [future.result() for future in futures]
    except BrokenProcessPool as error:
        cause = error.__cause__
        worker_traceback = None
        if cause is not None:
            worker_traceback = "".join(
                traceback_module.format_exception(
                    type(cause), cause, cause.__traceback__
                )
            )
        raise ParallelError(
            "worker pool broke while evaluating %d items: %s"
            % (len(batch), error),
            worker_traceback=worker_traceback,
        ) from error


def _pool_worker(index, function, tasks, results):
    """Worker-process loop: one task at a time, results pre-pickled.

    Pre-pickling the result in the worker keeps an unpicklable return
    value from silently dying in the queue's feeder thread (which would
    hang the parent); it becomes an explicit error message instead.
    Exceptions raised by ``function`` are shipped with their formatted
    traceback so the parent can re-raise without losing the failing
    frame.

    The cyclic garbage collector is frozen on entry: fork-started
    workers inherit the parent heap copy-on-write, and a collection
    sweeping those inherited objects would unshare their pages (and
    burn CPU) for garbage the short-lived worker never produced.
    Task-local garbage is still reclaimed by reference counting.
    """
    global _WORKER_CHANNEL
    gc.freeze()
    gc.disable()
    while True:
        message = tasks.get()
        if message is None:
            return
        task_index, attempt, item = message
        start = time.perf_counter()
        _WORKER_CHANNEL = (results, task_index, index, attempt)
        try:
            value = function(item)
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
            results.put(("error", task_index, index, error_payload, trace))
            return
        finally:
            _WORKER_CHANNEL = None
        busy = time.perf_counter() - start
        results.put(("done", task_index, index, busy, payload))


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
        #: the multiprocessing start method the pool's workers use
        self.start_method = method
        #: item index -> worker lane of the most recent :meth:`map` call
        self.last_assignments: Dict[int, int] = {}

    def map(
        self,
        function: Callable[[_Item], _Result],
        items: Iterable[_Item],
        on_partial: Optional[Callable[[int, object], None]] = None,
        on_retry: Optional[Callable[[int], None]] = None,
        on_result: Optional[Callable[[int, object], None]] = None,
        decorate: Optional[Callable[[int, _Item], _Item]] = None,
    ) -> List[_Result]:
        """Evaluate ``function`` over ``items``; results in input order.

        After the call, :attr:`last_assignments` maps each item index to
        the worker lane that executed it (all ``0`` for the in-process
        degenerate case) — callers use it to tag per-item telemetry with
        the lane it actually ran in.

        ``on_partial(task_index, value)`` receives every
        :func:`emit_partial` value a task ships before finishing;
        ``on_retry(task_index)`` fires when a crashed worker's task is
        re-queued (discard that task's partials); ``on_result`` fires on
        task completion, before the pool moves on.  All three run in the
        parent process, on the thread driving :meth:`map`.

        ``decorate(task_index, item)`` rewrites an item *at dispatch
        time* — the moment it is handed to a worker, not when the batch
        was built — and its return value is what the worker receives.
        This is the late-binding hook behind warm-started cube solves:
        knowledge accumulated from already-finished tasks (e.g. shared
        glue clauses) is injected into tasks still waiting in the
        pending deque.  It runs in the parent, is applied again on every
        retry dispatch (so a re-queued task sees the freshest state),
        and must not mutate the original item in place.
        """
        global _INPROCESS_PARTIAL
        batch = list(items)
        if self.workers <= 1 or len(batch) <= 1:
            self.last_assignments = {index: 0 for index in range(len(batch))}
            collected = []
            for index, item in enumerate(batch):
                if decorate is not None:
                    item = decorate(index, item)
                if on_partial is not None:
                    _INPROCESS_PARTIAL = (on_partial, index)
                try:
                    value = function(item)
                finally:
                    _INPROCESS_PARTIAL = None
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
            decorate=decorate,
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
    decorate=None,
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

    result_queue = context.Queue()
    task_queues = []
    processes = []
    in_flight: Dict[int, Optional[int]] = {}

    def spawn(worker_index):
        task_queue = context.Queue()
        process = context.Process(
            target=_pool_worker,
            args=(worker_index, function, task_queue, result_queue),
            daemon=True,
        )
        process.start()
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
        item = batch[task_index]
        if decorate is not None:
            item = decorate(task_index, item)
        task_queues[worker_index].put(
            (task_index, attempts[task_index], item)
        )

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
        result_queue.close()
        for task_queue in task_queues:
            task_queue.close()

    try:
        for worker_index in range(worker_count):
            spawn(worker_index)
            dispatch(worker_index)

        while len(results) < len(batch):
            try:
                message = result_queue.get(timeout=0.05)
            except queue_module.Empty:
                message = None
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
                    on_partial is not None
                    and task_index not in results
                    and attempt == attempts[task_index]
                    and in_flight.get(worker_index) == task_index
                ):
                    on_partial(task_index, pickle.loads(payload))
                continue
            if kind == "done":
                _, task_index, worker_index, busy, payload = message
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


def merge_stats(
    target: SolveStats, parts: Iterable[Dict[str, object]]
) -> SolveStats:
    """Fold per-worker statistics dicts into ``target`` (leaves sum)."""
    for part in parts:
        target.merge(part)
    return target


__all__ = [
    "MAX_TASK_ATTEMPTS",
    "ParallelError",
    "WorkStealingPool",
    "emit_partial",
    "parallel_map",
    "merge_stats",
]
