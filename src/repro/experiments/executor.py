"""Process-pool execution layer for the experiment harness.

Every experiment in this package reduces to an *embarrassingly parallel*
bag of simulation runs: each run is a pure function of a pre-assigned
integer seed (see the seeding contract in :mod:`repro.experiments.harness`),
so runs may execute in any order, on any worker, and still produce
bit-identical results.  The unit of scheduling is a *tile* — a chunk of
repetitions bounded by both ``--batch-size`` and the memory-budget
rep-tile cap (:mod:`repro.engine.plan`) — so a single large configuration
shards across every worker instead of occupying one.
:class:`RunExecutor` exploits exactly that:

* ``jobs == 1`` (the default) executes tasks serially in-process;
* ``jobs > 1`` fans tasks out over a ``multiprocessing`` pool using the
  ``fork`` start method.  Tasks are arbitrary zero-argument closures —
  workers inherit them (and any shared read-only state such as the
  warmed probability-table cache) through the forked address space, so
  nothing about the existing lambda-heavy driver code needs to become
  picklable;
  only task *indices* cross the pipe going in and task *results* coming
  back.

Determinism contract
--------------------

``RunExecutor.map`` preserves input order: ``map(tasks)[i]`` is always
``tasks[i]()``.  Because the harness pre-assigns every run's seed before
submission (no RNG state is shared between tasks), the same task list
produces byte-identical results for any worker count — a property the
tier-1 suite (``tests/test_executor.py``) and
``benchmarks/test_bench_parallel.py`` both enforce.  Failure recovery
preserves the contract: a retried task re-executes the *same* closure with
the same pre-assigned seed, so a run that eventually succeeds contributes
exactly the result it would have contributed on a clean first attempt.

Failure policy
--------------

Long suite runs (hours at the paper scale) must survive a crashed, hung or
killed worker.  Three knobs, settable per executor or process-wide
(:func:`set_default_failure_policy`, wired to the CLI's ``--task-timeout``
and ``--max-retries`` flags):

* ``task_timeout`` — seconds after which one task *attempt* is declared
  hung and abandoned.  Serial execution cannot preempt a running task, so
  the timeout only applies under ``jobs > 1``.  A worker killed by the
  OOM-killer (or ``kill -9``) needs no timeout: every task records the pid
  of the worker that picked it up, and while the parent waits on a task it
  checks that this worker is still alive.  A dead owner fails the attempt
  (the pool replaces the worker and the attempt is re-submitted), so a
  killed worker never stalls the parent.
* ``max_retries`` — how many times a failed attempt (exception, timeout,
  or killed worker) is re-submitted before giving up.  Exhausting retries
  re-raises the task's own exception (timeouts and killed workers raise
  :class:`TaskFailedError`).  The default ``0`` preserves the historical
  fail-fast behaviour.
* ``retry_backoff`` — base of the exponential sleep between attempts
  (``backoff * 2**(attempt-1)``, capped at 30 s), giving transient
  resource exhaustion room to clear.

If the pool *infrastructure* breaks — workers cannot be forked, or a
re-submission fails because the pool died — execution degrades gracefully
to serial in-process and the bag still completes.  Every failure is
counted, never silent: per-map counts land on the executor
(``last_retry_counts``, ``last_failures``, ``last_timeouts``,
``last_degraded``) and process-wide totals in :func:`execution_stats`,
which the registry copies onto ``ExperimentReport.timings``.

Nesting: a task that itself builds a :class:`RunExecutor` (e.g. a pool
driver whose per-adversary task calls ``repeat_schedule_runs``) runs that
inner executor serially inside the worker — process pools never nest.

On platforms without ``fork`` (Windows), execution silently degrades to
serial; results are identical, only slower.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from typing import Any, Optional

from repro.telemetry import registry as telemetry

__all__ = [
    "RunExecutor",
    "TaskFailedError",
    "set_default_jobs",
    "get_default_jobs",
    "resolve_jobs",
    "use_jobs",
    "set_default_failure_policy",
    "get_default_failure_policy",
    "use_failure_policy",
    "set_default_batch_size",
    "get_default_batch_size",
    "resolve_batch_size",
    "use_batch_size",
    "execution_stats",
    "parallelism_available",
]

#: Process-wide default worker count, set by the CLI's ``--jobs`` flag.
_default_jobs = 1

#: Process-wide failure policy, set by the CLI's ``--task-timeout`` /
#: ``--max-retries`` flags (see :func:`set_default_failure_policy`).
_default_task_timeout: Optional[float] = None
_default_max_retries = 0

#: Process-wide default batch size for the harness's chunked batch
#: submission (CLI ``--batch-size``).  ``1`` disables batching: every run
#: is submitted as its own task, exactly the pre-batching execution path.
_default_batch_size = 64

#: Longest single backoff sleep between retry attempts, seconds.
_MAX_BACKOFF_SECONDS = 30.0

#: True inside a pool worker; forces nested executors to run serially.
_in_worker = False

#: Task list a freshly forked pool inherits (index-addressed by workers).
_forked_tasks: Optional[list[Callable[[], Any]]] = None

#: Shared array a freshly forked pool inherits: the pid of the worker
#: running each task (0 until a worker picks the attempt up).
_task_owners: Optional[Any] = None

#: How often the parent checks that the worker owning the awaited task is
#: still alive, seconds.  Results are collected as soon as they arrive;
#: this only bounds how long a killed worker goes unnoticed.
_LIVENESS_POLL_SECONDS = 0.25

#: Process-wide failure accounting across every map() in this process.
#: The registry snapshots it around each experiment so flaky runs surface
#: on the report instead of disappearing into a retry loop.
_EXEC_STATS = {"failures": 0, "retries": 0, "timeouts": 0, "degraded": 0}

#: Result callback: ``on_result(index, result, seconds)`` fires once per
#: *completed* task, in input order, as results are collected — the hook
#: the checkpoint journal uses to persist progress incrementally.
ResultCallback = Callable[[int, Any, float], None]


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget without delivering a result."""


def _validate_jobs(jobs: int) -> int:
    """Normalise a jobs request: ``0`` (or negative) means "all cores"."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (``0`` = all cores)."""
    global _default_jobs
    _default_jobs = _validate_jobs(int(jobs))


def get_default_jobs() -> int:
    """The current process-wide default worker count."""
    return _default_jobs


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve an explicit/None jobs request against the process default."""
    if jobs is None:
        return _default_jobs
    return _validate_jobs(int(jobs))


@contextmanager
def use_jobs(jobs: Optional[int]):
    """Temporarily override the default worker count (None = no change)."""
    global _default_jobs
    previous = _default_jobs
    if jobs is not None:
        _default_jobs = _validate_jobs(int(jobs))
    try:
        yield
    finally:
        _default_jobs = previous


def set_default_failure_policy(
    *, task_timeout: Optional[float] = None, max_retries: Optional[int] = None
) -> None:
    """Set the process-wide failure policy (None = leave unchanged)."""
    global _default_task_timeout, _default_max_retries
    if task_timeout is not None:
        if task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        _default_task_timeout = float(task_timeout)
    if max_retries is not None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        _default_max_retries = int(max_retries)


def get_default_failure_policy() -> tuple[Optional[float], int]:
    """The process-wide ``(task_timeout, max_retries)`` defaults."""
    return _default_task_timeout, _default_max_retries


@contextmanager
def use_failure_policy(
    task_timeout: Optional[float] = None, max_retries: Optional[int] = None
):
    """Temporarily override the failure policy (None = no change)."""
    global _default_task_timeout, _default_max_retries
    previous = (_default_task_timeout, _default_max_retries)
    set_default_failure_policy(task_timeout=task_timeout, max_retries=max_retries)
    try:
        yield
    finally:
        _default_task_timeout, _default_max_retries = previous


def _validate_batch_size(batch_size: int) -> int:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def set_default_batch_size(batch_size: int) -> None:
    """Set the process-wide default batch size (``1`` = no batching)."""
    global _default_batch_size
    _default_batch_size = _validate_batch_size(int(batch_size))


def get_default_batch_size() -> int:
    """The current process-wide default batch size."""
    return _default_batch_size


def resolve_batch_size(batch_size: Optional[int]) -> int:
    """Resolve an explicit/None batch-size request against the default."""
    if batch_size is None:
        return _default_batch_size
    return _validate_batch_size(int(batch_size))


@contextmanager
def use_batch_size(batch_size: Optional[int]):
    """Temporarily override the default batch size (None = no change)."""
    global _default_batch_size
    previous = _default_batch_size
    if batch_size is not None:
        _default_batch_size = _validate_batch_size(int(batch_size))
    try:
        yield
    finally:
        _default_batch_size = previous


def execution_stats() -> dict[str, int]:
    """Process-wide failure accounting since the last reset.

    Keys: ``failures`` (failed attempts: exception, timeout or killed
    worker), ``retries`` (re-submissions), ``timeouts`` (attempts
    abandoned on the task-timeout detector), ``degraded`` (maps that fell
    back to serial because the pool infrastructure broke).  Failures
    inside pool *workers* (nested serial retries) are folded back into
    the parent's counters when the task's result is collected.
    """
    return dict(_EXEC_STATS)


def parallelism_available() -> bool:
    """True iff multi-process execution can actually be used here."""
    return not _in_worker and "fork" in multiprocessing.get_all_start_methods()


def in_worker() -> bool:
    """True iff the caller is running inside a pool worker process."""
    return _in_worker


def _worker_init() -> None:
    global _in_worker, _default_jobs
    _in_worker = True
    _default_jobs = 1  # nested executors degrade to serial


def _run_forked_task(index: int) -> tuple[Any, float, dict[str, Any]]:
    """Worker-side task wrapper.  Besides the result and its wall-clock,
    it ships back the *deltas* of the worker's own failure counters,
    checkpoint-journal counters and telemetry registry: nested serial
    executors retry, harness calls journal, and instruments record,
    inside the worker's address space — without the piggyback those
    events would be invisible to the parent's report accounting."""
    assert _forked_tasks is not None, "worker forked without a task list"
    from repro.experiments.checkpoint import current_checkpoint

    _task_owners[index] = os.getpid()

    stats_before = dict(_EXEC_STATS)
    journal = current_checkpoint()
    journal_before = (
        (journal.hits, journal.records_written) if journal is not None else (0, 0)
    )
    tel_before = telemetry.snapshot() if telemetry.enabled() else None
    start = time.perf_counter()
    result = _forked_tasks[index]()
    seconds = time.perf_counter() - start
    delta: dict[str, Any] = {
        key: _EXEC_STATS[key] - stats_before[key]
        for key in ("failures", "retries", "timeouts")
    }
    if journal is not None:
        delta["journal_hits"] = journal.hits - journal_before[0]
        delta["journal_records"] = journal.records_written - journal_before[1]
    if tel_before is not None:
        delta["telemetry"] = telemetry.delta_since(tel_before)
    return result, seconds, delta


class RunExecutor:
    """Order-preserving map over zero-argument simulation tasks.

    Args:
        jobs: worker process count; ``None`` uses the process default
            (see :func:`set_default_jobs`), ``0`` means all CPU cores,
            ``1`` runs serially in-process.
        task_timeout: seconds before one pool attempt counts as hung
            (``None`` = the process default, which itself defaults to no
            timeout).  Also the detector for killed workers; ignored under
            serial execution, which cannot preempt a task.
        max_retries: re-submissions allowed per task after a failed
            attempt (``None`` = the process default, initially 0).
        retry_backoff: base seconds of the exponential inter-attempt sleep.

    After :meth:`map` returns, :attr:`last_task_seconds` holds the
    per-task wall-clock durations (same order as the results) and
    :attr:`last_wall_seconds` the end-to-end duration of the call —
    the raw material for the timing capture on ``ExperimentReport``.
    Failure accounting lands in :attr:`last_retry_counts` (per task),
    :attr:`last_failures`, :attr:`last_timeouts` and
    :attr:`last_degraded`.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        task_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_backoff: float = 0.5,
    ):
        self.jobs = resolve_jobs(jobs)
        default_timeout, default_retries = get_default_failure_policy()
        self.task_timeout = (
            float(task_timeout) if task_timeout is not None else default_timeout
        )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        self.max_retries = (
            int(max_retries) if max_retries is not None else default_retries
        )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        self.retry_backoff = float(retry_backoff)
        self.last_task_seconds: list[float] = []
        self.last_wall_seconds: float = 0.0
        self.last_retry_counts: list[int] = []
        self.last_failures: int = 0
        self.last_timeouts: int = 0
        self.last_degraded: bool = False

    def map(
        self,
        tasks: Iterable[Callable[[], Any]],
        on_result: Optional[ResultCallback] = None,
    ) -> list[Any]:
        """Execute every task, returning results in input order.

        ``on_result(index, result, seconds)`` — if given — fires once per
        completed task as results are collected (always in input order),
        so callers can persist progress before the whole bag finishes.
        """
        task_list = list(tasks)
        start = time.perf_counter()
        telemetry.count("executor.tasks", len(task_list))
        self.last_retry_counts = [0] * len(task_list)
        self.last_failures = 0
        self.last_timeouts = 0
        self.last_degraded = False
        workers = min(self.jobs, len(task_list))
        if workers > 1 and parallelism_available():
            timed = self._map_forked(task_list, workers, on_result)
        else:
            timed = self._map_serial(task_list, on_result)
        self.last_wall_seconds = time.perf_counter() - start
        self.last_task_seconds = [seconds for _, seconds in timed]
        if telemetry.enabled():
            telemetry.gauge("executor.queue_depth", 0)
            for seconds in self.last_task_seconds:
                telemetry.observe("executor.task_seconds", seconds)
        return [result for result, _ in timed]

    # -- failure bookkeeping -------------------------------------------------

    def _note_failure(self, index: int, *, timed_out: bool) -> None:
        self.last_failures += 1
        _EXEC_STATS["failures"] += 1
        telemetry.count("executor.task_failures")
        if timed_out:
            self.last_timeouts += 1
            _EXEC_STATS["timeouts"] += 1
            telemetry.count("executor.task_timeouts")

    def _note_retry(self, index: int, attempt: int) -> None:
        self.last_retry_counts[index] += 1
        _EXEC_STATS["retries"] += 1
        telemetry.count("executor.task_retries")
        if self.retry_backoff > 0.0:
            pause = min(
                self.retry_backoff * 2 ** (attempt - 1), _MAX_BACKOFF_SECONDS
            )
            telemetry.count("executor.backoff_seconds", pause)
            time.sleep(pause)

    def _note_degraded(self) -> None:
        if not self.last_degraded:
            self.last_degraded = True
            _EXEC_STATS["degraded"] += 1
            telemetry.count("executor.degraded_maps")

    def _merge_worker_delta(self, delta: dict[str, Any]) -> None:
        """Fold a pool worker's nested accounting into this process:
        retries, journal traffic and telemetry inside a worker happened in
        its own address space, so the deltas ride back on the task result."""
        self.last_failures += delta.get("failures", 0)
        self.last_timeouts += delta.get("timeouts", 0)
        for key in ("failures", "retries", "timeouts"):
            _EXEC_STATS[key] += delta.get(key, 0)
        worker_telemetry = delta.get("telemetry")
        if worker_telemetry:
            telemetry.merge(worker_telemetry)
        hits = delta.get("journal_hits", 0)
        records = delta.get("journal_records", 0)
        if hits or records:
            from repro.experiments.checkpoint import current_checkpoint

            journal = current_checkpoint()
            if journal is not None:
                journal.hits += hits
                journal.records_written += records

    # -- serial path ---------------------------------------------------------

    def _run_one_serial(self, index: int, task: Callable[[], Any]) -> tuple[Any, float]:
        """One task in-process, honouring the retry budget (exceptions only:
        a serial task cannot be preempted, so the timeout does not apply)."""
        attempt = 1
        while True:
            start = time.perf_counter()
            try:
                result = task()
            except Exception:
                self._note_failure(index, timed_out=False)
                if attempt > self.max_retries:
                    raise
                self._note_retry(index, attempt)
                attempt += 1
                continue
            return result, time.perf_counter() - start

    def _map_serial(
        self,
        task_list: list[Callable[[], Any]],
        on_result: Optional[ResultCallback],
    ) -> list[tuple[Any, float]]:
        timed: list[tuple[Any, float]] = []
        for index, task in enumerate(task_list):
            result, seconds = self._run_one_serial(index, task)
            timed.append((result, seconds))
            if on_result is not None:
                on_result(index, result, seconds)
        return timed

    # -- pool path -----------------------------------------------------------

    def _map_forked(
        self,
        task_list: list[Callable[[], Any]],
        workers: int,
        on_result: Optional[ResultCallback],
    ) -> list[tuple[Any, float]]:
        global _forked_tasks, _task_owners
        context = multiprocessing.get_context("fork")
        n = len(task_list)
        _forked_tasks = task_list
        _task_owners = multiprocessing.RawArray("q", n)
        try:
            try:
                # The pool must fork *after* the global is set: children
                # inherit the task closures through copy-on-write memory, so
                # only the integer indices (and the results) are ever pickled.
                pool = context.Pool(workers, initializer=_worker_init)
            except OSError:
                # Cannot fork (resource exhaustion): the bag still completes.
                self._note_degraded()
                return self._map_serial(task_list, on_result)
            with pool:
                return self._collect(pool, task_list, on_result)
        finally:
            _forked_tasks = None
            _task_owners = None

    def _collect(
        self,
        pool,
        task_list: list[Callable[[], Any]],
        on_result: Optional[ResultCallback],
    ) -> list[tuple[Any, float]]:
        """Drive the pool: submit everything, then collect in input order,
        retrying failed/hung/killed attempts per the failure policy."""
        n = len(task_list)
        timed: list[Optional[tuple[Any, float]]] = [None] * n
        pending = {i: pool.apply_async(_run_forked_task, (i,)) for i in range(n)}
        attempts = [1] * n
        for i in range(n):
            telemetry.gauge("executor.queue_depth", n - i)
            while timed[i] is None:
                try:
                    result, seconds, worker_delta = self._await(i, pending[i])
                except Exception as exc:
                    timed_out = isinstance(exc, multiprocessing.TimeoutError)
                    self._note_failure(i, timed_out=timed_out)
                    if attempts[i] > self.max_retries:
                        if timed_out:
                            raise TaskFailedError(
                                f"task {i} timed out after {self.task_timeout:.6g}s "
                                f"(attempt {attempts[i]} of {self.max_retries + 1})"
                            ) from None
                        raise
                    self._note_retry(i, attempts[i])
                    attempts[i] += 1
                    _task_owners[i] = 0
                    try:
                        # A killed worker has already been replaced by the
                        # pool; the re-submission lands on a live one.  A
                        # permanently hung worker stays occupied, which is
                        # fine: the bag needs only one live worker to drain.
                        pending[i] = pool.apply_async(_run_forked_task, (i,))
                    except Exception:
                        # The pool itself died: finish the remainder serially.
                        self._note_degraded()
                        for j in range(i, n):
                            if timed[j] is None:
                                timed[j] = self._run_one_serial(j, task_list[j])
                                if on_result is not None:
                                    on_result(j, timed[j][0], timed[j][1])
                        return [entry for entry in timed if entry is not None]
                else:
                    timed[i] = (result, seconds)
                    self._merge_worker_delta(worker_delta)
                    self.last_retry_counts[i] = attempts[i] - 1
                    if on_result is not None:
                        on_result(i, result, seconds)
        return [entry for entry in timed if entry is not None]

    def _await(self, index: int, pending) -> tuple[Any, float, dict[str, Any]]:
        """Wait for one pool attempt: its result, the task's own exception,
        :class:`multiprocessing.TimeoutError` past ``task_timeout``, or
        :class:`TaskFailedError` once the worker running it has died (the
        pool never re-queues a dead worker's task, so waiting longer would
        wait forever)."""
        deadline = (
            None if self.task_timeout is None
            else time.monotonic() + self.task_timeout
        )
        while True:
            wait = _LIVENESS_POLL_SECONDS
            if deadline is not None:
                wait = min(wait, max(deadline - time.monotonic(), 0.0))
            pending.wait(wait)
            if pending.ready():
                return pending.get()
            owner = _task_owners[index]
            if owner and owner not in {
                p.pid for p in multiprocessing.active_children()
            }:
                raise TaskFailedError(
                    f"task {index} lost: its pool worker (pid {owner}) died "
                    f"mid-task"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise multiprocessing.TimeoutError
