"""Experiment harness: repeated runs, sweeps over ``k``, worst-case pools.

Every run goes through the engine-dispatch layer: the harness builds one
:class:`~repro.core.spec.RunSpec` per configuration, fans seeded copies out
through the executor, and lets :func:`repro.engine.execute` pick the engine
(the vectorised sampler exactly when the spec is admissible, the object
engine otherwise — or whatever the process default engine says, so
``--engine cross-check`` shadows every run with the reference engine).

Seeding contract
----------------

All experiment drivers in this package are deterministic functions of their
``seed`` argument: repetition ``r`` of configuration ``i`` uses seed
``config_seed(seed, i) + r = seed + i * SEED_STRIDE + r``, so any reported
number can be regenerated exactly from its run seed.  ``SEED_STRIDE`` is
``2**32``, which keeps the per-configuration seed streams disjoint for any
repetition count below four billion (the historical ``seed + 1000*i + r``
scheme collided across configurations whenever ``reps >= 1000``).

Parallel execution
------------------

Every helper below accepts a ``jobs`` argument (``None`` = the process
default set by the CLI's ``--jobs`` flag) and fans its runs out through
:class:`~repro.experiments.executor.RunExecutor`.  Because each run's seed
is pre-assigned before submission, results are bit-identical for any
worker count; sweeps parallelize across *both* sweep points and
repetitions.  Probability tables are warmed in the parent process (the
:mod:`repro.engine.cache` LRU), so forked workers inherit them read-only
instead of recomputing per repetition.  Per-run wall-clock durations land
in ``MetricSample.run_seconds``.

Fault tolerance
---------------

``task_timeout`` / ``max_retries`` (``None`` = the process defaults set by
the CLI's ``--task-timeout`` / ``--max-retries`` flags) bound each run
attempt and re-execute crashed, hung or killed-worker runs; retried runs
re-use their pre-assigned seed, so recovery never changes a result.  Per
run retry counts land in ``MetricSample.run_retries``.

When a checkpoint journal is active (``--resume <dir>``, see
:mod:`repro.experiments.checkpoint`), every completed run is journaled as
soon as it finishes — keyed by ``(RunSpec.fingerprint(), run seed)`` — and
journaled runs are *skipped* on re-execution, folding the stored result in
their place.  The fold is deterministic, so an interrupted-and-resumed
experiment reproduces its report byte-for-byte.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from repro.adversary.base import AdaptiveAdversary, WakeSchedule
from repro.analysis.metrics import MetricSample
from repro.channel.feedback import FeedbackModel
from repro.channel.results import RunResult, StopCondition
from repro.core.protocol import ProbabilitySchedule, Protocol
from repro.core.spec import RunSpec
from repro.core.spec import adversary_token as _adversary_token  # noqa: F401 back-compat
from repro.core.spec import stable_token as _stable_token  # noqa: F401 back-compat
from repro.engine.cache import probability_table
from repro.engine.dispatch import (
    compiled_inadmissibility,
    execute,
    execute_batch,
    vectorized_inadmissibility,
)
from repro.experiments.checkpoint import current_checkpoint
from repro.faults import current_faults
from repro.experiments.executor import RunExecutor, resolve_batch_size
from repro.telemetry import registry as telemetry

__all__ = [
    "SEED_STRIDE",
    "config_seed",
    "run_seed",
    "ExperimentReport",
    "repeat_schedule_runs",
    "repeat_protocol_runs",
    "repeat_spec_runs",
    "sweep_schedule",
    "sweep_protocol",
    "run_pool",
    "worst_sample",
]

#: Seed spacing between experiment configurations.  Wide enough that the
#: per-configuration repetition streams ``[config_seed, config_seed + reps)``
#: can never overlap for any realistic repetition count.
SEED_STRIDE = 2**32


def config_seed(seed: int, index: int) -> int:
    """Base seed of configuration ``index`` in a sweep started at ``seed``."""
    return seed + index * SEED_STRIDE


def run_seed(seed: int, index: int, rep: int) -> int:
    """Exact seed of repetition ``rep`` of configuration ``index``.

    The regenerability guarantee: rerunning the simulator with this seed
    (and the configuration's other parameters) reproduces the run's
    ``MetricSample`` contribution bit-for-bit.
    """
    return config_seed(seed, index) + rep


@dataclass(slots=True)
class ExperimentReport:
    """What every experiment driver returns: printable text + raw rows.

    ``timings`` carries wall-clock capture: the registry's
    :func:`~repro.experiments.registry.run_experiment` records the driver's
    end-to-end duration (``wall_s``) and the worker count it ran with
    (``jobs``); drivers may add their own entries.
    """

    experiment_id: str
    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    text: str = ""
    notes: str = ""
    timings: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def _fold_sample(
    label: str,
    k: int,
    results: Iterable[RunResult],
    seconds: Iterable[float],
    retries: Optional[Iterable[int]] = None,
) -> MetricSample:
    """Fold executed runs into a sample, serially and in submission order."""
    with telemetry.span("harness.fold"):
        sample = MetricSample(label=label, k=k)
        for result in results:
            sample.add(result)
        sample.run_seconds.extend(seconds)
        if retries is not None:
            sample.run_retries.extend(retries)
        telemetry.count("harness.runs_folded", len(sample.run_seconds))
        return sample


def _schedule_fingerprint(
    k: int,
    schedule: ProbabilitySchedule,
    adversary: WakeSchedule,
    *,
    horizon: int,
    prob_table,
    switch_off_on_ack: bool,
    stop: StopCondition,
) -> str:
    """Back-compat shim: journal key for one schedule-run configuration.

    The journal key is now derived from :meth:`RunSpec.fingerprint`; this
    wrapper keeps the pre-RunSpec call signature working for existing
    callers and tests.
    """
    return RunSpec(
        k=k,
        protocol=schedule,
        adversary=adversary,
        switch_off_on_ack=switch_off_on_ack,
        stop=stop,
        max_rounds=horizon,
    ).fingerprint(prob_table=prob_table)


def _protocol_fingerprint(
    k: int,
    protocol_factory: Callable[[], Protocol],
    adversary: WakeSchedule | AdaptiveAdversary,
    *,
    horizon: int,
    feedback: FeedbackModel,
    stop: StopCondition,
    label: str,
) -> str:
    """Back-compat shim: journal key for one object-engine configuration
    (see :meth:`RunSpec.fingerprint`)."""
    return RunSpec(
        k=k,
        protocol=protocol_factory,
        adversary=adversary,
        feedback=feedback,
        stop=stop,
        max_rounds=horizon,
        label=label,
    ).fingerprint()


def _execute_runs(
    fingerprints: Optional[Sequence[str]],
    seeds: Sequence[int],
    tasks: Sequence[Callable[[], RunResult]],
    *,
    jobs: Optional[int],
    task_timeout: Optional[float],
    max_retries: Optional[int],
    batch_bases: Optional[Sequence[Optional[RunSpec]]] = None,
    batch_size: Optional[int] = None,
) -> tuple[list[RunResult], list[float], list[int]]:
    """Run a pre-seeded task bag through the executor, checkpoint-aware.

    ``fingerprints`` aligns with ``tasks`` (sweeps carry one fingerprint
    per configuration); None disables journaling.  Runs already present in
    the active journal are *not* re-executed: their stored results (and
    wall seconds) are folded in place.  Fresh results are journaled the
    moment the executor collects them, so an interruption loses at most
    the in-flight runs.  Returns results, per-run seconds and per-run
    retry counts, all in submission order.

    Batched submission: ``batch_bases`` aligns with ``tasks`` and names the
    un-seeded base :class:`RunSpec` each run was derived from (None = this
    run must go through its own task).  Consecutive *pending* runs sharing
    the same base object are chunked into groups of up to ``batch_size``
    (None = the process default, CLI ``--batch-size``) and submitted as one
    :func:`repro.engine.execute_batch` task, which fuses admissible chunks
    into a single vectorised kernel call and transparently falls back to
    per-run execution otherwise.  Results are byte-identical for every
    batch size (the batched kernel's contract); journal entries stay
    per-(fingerprint, seed) with the chunk's wall-clock split evenly, so
    ``--resume`` is unaffected.  A ``batch_size`` of 1 — or no
    ``batch_bases`` — is exactly the historical one-task-per-run path.
    Under batching, ``task_timeout`` bounds a whole chunk attempt and a
    retried chunk re-executes all of its runs (same seeds, same results).

    Tiled scheduling: when a memory budget or ``--tile-reps`` is active
    (see :mod:`repro.engine.plan`), each base's chunk ceiling shrinks to
    its rep-tile cap, so a *tile* — not a config — becomes the fork-pool
    scheduling unit and one large config shards across every worker.
    Journal entries stay per-(fingerprint, seed), so ``--resume`` is
    tile-size-invariant: a journal written under one tiling folds into a
    resumed run under any other.
    """
    journal = current_checkpoint() if fingerprints is not None else None
    n = len(tasks)
    results: list[Optional[RunResult]] = [None] * n
    seconds = [0.0] * n
    retries = [0] * n
    pending = list(range(n))
    if journal is not None:
        pending = []
        for index in range(n):
            cached = journal.get(fingerprints[index], seeds[index])
            if cached is not None:
                results[index], seconds[index] = cached
            else:
                pending.append(index)
    if pending:
        size = resolve_batch_size(batch_size) if batch_bases is not None else 1
        # Per-base chunk ceiling: min(batch size, the base's rep-tile cap)
        # so one fork-pool task never exceeds the memory budget and a
        # single config fans out across workers tile by tile.
        from repro.engine.plan import tile_rep_cap

        cap_cache: dict[int, int] = {}

        def base_cap(base: RunSpec) -> int:
            cached = cap_cache.get(id(base))
            if cached is None:
                cap = tile_rep_cap(base)
                cached = size if cap is None else min(size, cap)
                cap_cache[id(base)] = cached
            return cached

        chunks: list[list[int]] = []
        exec_tasks: list[Callable[[], object]] = []
        if size > 1:
            i = 0
            while i < len(pending):
                index = pending[i]
                base = batch_bases[index]
                group = [index]
                i += 1
                if base is not None:
                    cap = base_cap(base)
                    while (
                        i < len(pending)
                        and len(group) < cap
                        and batch_bases[pending[i]] is base
                    ):
                        group.append(pending[i])
                        i += 1
                if len(group) == 1:
                    exec_tasks.append(tasks[index])
                else:
                    exec_tasks.append(
                        _batch_task(base, [seeds[idx] for idx in group])
                    )
                chunks.append(group)
        else:
            chunks = [[index] for index in pending]
            exec_tasks = [tasks[index] for index in pending]
        executor = RunExecutor(
            jobs, task_timeout=task_timeout, max_retries=max_retries
        )
        on_result = None
        if journal is not None:
            def on_result(j: int, result: object, secs: float) -> None:
                group = chunks[j]
                if len(group) == 1:
                    journal.record(fingerprints[group[0]], seeds[group[0]], result, secs)
                    return
                per_run = secs / len(group)
                for index, run in zip(group, result):
                    journal.record(fingerprints[index], seeds[index], run, per_run)
        fresh = executor.map(exec_tasks, on_result=on_result)
        for j, group in enumerate(chunks):
            if len(group) == 1:
                index = group[0]
                results[index] = fresh[j]
                seconds[index] = executor.last_task_seconds[j]
                retries[index] = executor.last_retry_counts[j]
            else:
                per_run = executor.last_task_seconds[j] / len(group)
                chunk_retries = executor.last_retry_counts[j]
                for index, run in zip(group, fresh[j]):
                    results[index] = run
                    seconds[index] = per_run
                    retries[index] = chunk_retries
    return results, seconds, retries  # type: ignore[return-value]


def _batch_fusable(spec: RunSpec) -> bool:
    """True when ``execute_batch`` can fuse repetitions of ``spec`` into a
    single kernel call — vectorised-admissible schedule runs or
    compiled-admissible protocol runs.  Inadmissible bases skip chunking
    entirely so each run stays an independently-retryable task."""
    return (
        vectorized_inadmissibility(spec) is None
        or compiled_inadmissibility(spec) is None
    )


def _batch_task(spec: RunSpec, chunk_seeds: list[int]) -> Callable[[], list[RunResult]]:
    """One chunk of pre-seeded runs, dispatched (and possibly fused into a
    single batched kernel call) at execution time — see :func:`_spec_task`
    for why dispatch is deferred into the closure."""

    def task() -> list[RunResult]:
        return execute_batch(spec, chunk_seeds)

    return task


def _spec_task(spec: RunSpec) -> Callable[[], RunResult]:
    """One pre-seeded run, dispatched at execution time.

    The engine choice is deferred into the task so forked workers honour
    the process-default engine (``--engine``) they inherited; the
    probability-table cache is warmed by the caller before the fork, so the
    vectorised path never recomputes a table inside a worker.
    """

    def task() -> RunResult:
        return execute(spec)

    return task


def _apply_default_faults(base: RunSpec) -> RunSpec:
    """Fold the process-default fault model into a harness-built spec.

    The CLI's ``--noise``/``--ack-loss``/``--energy-budget`` flags set a
    process default (:func:`repro.faults.use_faults`); every harness
    helper folds it into the specs it builds, so any experiment can be
    re-run on a degraded channel without changing its driver.  A spec
    that already carries its own fault model wins (the robustness
    experiment sets per-cell models), and fifo traffic stays unfaulted
    (the queue simulator has no fault path).
    """
    default = current_faults()
    if default is None or base.faults is not None:
        return base
    if base.is_traffic_run and base.queue_discipline != "free":
        return base
    return base.replace(faults=default)


def _warm_tables(spec: RunSpec) -> Optional[object]:
    """Precompute (and cache) the spec's probability table in this process.

    Returns the table for schedule specs (handy for fingerprinting), None
    for protocol-factory specs, which have no table.
    """
    if spec.is_schedule_run:
        return probability_table(spec.schedule, spec.resolve_horizon())
    return None


def repeat_schedule_runs(
    k: int,
    schedule_factory: Callable[[int], ProbabilitySchedule],
    adversary: WakeSchedule,
    *,
    reps: int,
    seed: int,
    max_rounds: Optional[Callable[[int], int]] = None,
    switch_off_on_ack: bool = True,
    stop: StopCondition = StopCondition.ALL_SWITCHED_OFF,
    label: Optional[str] = None,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> MetricSample:
    """Run a non-adaptive schedule ``reps`` times (fast engine under
    ``auto`` dispatch).

    ``max_rounds`` maps ``k`` to an explicit horizon; ``None`` defers to
    the :meth:`RunSpec.resolve_horizon` policy.  The probability table is
    computed once here and shared with every repetition (and, under
    ``jobs > 1``, inherited read-only by the worker processes) instead of
    being rebuilt per run.  Repetitions are submitted in chunks of
    ``batch_size`` (None = the process default) and fused into single
    batched-kernel calls when admissible; results are byte-identical for
    every batch size.
    """
    schedule = schedule_factory(k)
    base = RunSpec(
        k=k,
        protocol=schedule,
        adversary=adversary,
        switch_off_on_ack=switch_off_on_ack,
        stop=stop,
        max_rounds=max_rounds(k) if max_rounds is not None else None,
    )
    base = _apply_default_faults(base)
    prob_table = _warm_tables(base)
    seeds = [seed + r for r in range(reps)]
    tasks = [_spec_task(base.with_seed(s)) for s in seeds]
    fingerprints = None
    if current_checkpoint() is not None:
        fingerprints = [base.fingerprint(prob_table=prob_table)] * reps
    results, seconds, retries = _execute_runs(
        fingerprints, seeds, tasks,
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_bases=[base] * reps, batch_size=batch_size,
    )
    return _fold_sample(label or schedule.name, k, results, seconds, retries)


def repeat_protocol_runs(
    k: int,
    protocol_factory: Callable[[], Protocol],
    adversary: WakeSchedule | AdaptiveAdversary,
    *,
    reps: int,
    seed: int,
    max_rounds: Optional[Callable[[int], int]] = None,
    feedback: FeedbackModel = FeedbackModel.ACK_ONLY,
    stop: StopCondition = StopCondition.ALL_SWITCHED_OFF,
    label: str = "",
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> MetricSample:
    """Run an arbitrary protocol ``reps`` times.

    Under ``auto`` dispatch, lowerable state machines (``AdaptiveNoK``,
    ``SUniform``, ``GlobalClockUFR``) with oblivious adversaries fuse
    their repetitions through the compiled stepper's batch kernel;
    everything else takes the per-run object-engine path.
    """
    label = label or getattr(protocol_factory, "protocol_name", "protocol")
    base = RunSpec(
        k=k,
        protocol=protocol_factory,
        adversary=adversary,
        feedback=feedback,
        stop=stop,
        max_rounds=max_rounds(k) if max_rounds is not None else None,
        label=label,
    )
    base = _apply_default_faults(base)
    seeds = [seed + r for r in range(reps)]
    tasks = [_spec_task(base.with_seed(s)) for s in seeds]
    fingerprints = None
    if current_checkpoint() is not None:
        fingerprints = [base.fingerprint()] * reps
    results, seconds, retries = _execute_runs(
        fingerprints, seeds, tasks,
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_bases=[base] * reps if _batch_fusable(base) else None,
        batch_size=batch_size,
    )
    return _fold_sample(label, k, results, seconds, retries)


def repeat_spec_runs(
    base: RunSpec,
    *,
    reps: int,
    seed: int,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> list[RunResult]:
    """Execute ``reps`` pre-seeded copies of one spec; raw results, in
    repetition order (repetition ``r`` uses seed ``seed + r``).

    The record-level sibling of :func:`repeat_schedule_runs` /
    :func:`repeat_protocol_runs`: drivers that analyse per-station records
    themselves (the traffic-phase experiment's backlog and windowed-
    throughput measures) get the :class:`RunResult` list instead of a
    folded :class:`MetricSample`.  Checkpoint-aware and chunk-batched the
    same way — schedule-run bases (including admissible traffic specs,
    which fuse through their packet-level reduction) ride the batched
    kernel; everything else falls back to per-run dispatch.
    """
    base = _apply_default_faults(base)
    prob_table = _warm_tables(base)
    seeds = [seed + r for r in range(reps)]
    tasks = [_spec_task(base.with_seed(s)) for s in seeds]
    fingerprints = None
    if current_checkpoint() is not None:
        fingerprints = [base.fingerprint(prob_table=prob_table)] * reps
    results, _seconds, _retries = _execute_runs(
        fingerprints, seeds, tasks,
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_bases=[base] * reps if _batch_fusable(base) else None,
        batch_size=batch_size,
    )
    return results


def sweep_schedule(
    ks: Sequence[int],
    schedule_factory: Callable[[int], ProbabilitySchedule],
    adversary: WakeSchedule,
    *,
    reps: int,
    seed: int,
    max_rounds: Optional[Callable[[int], int]] = None,
    switch_off_on_ack: bool = True,
    stop: StopCondition = StopCondition.ALL_SWITCHED_OFF,
    label: Optional[str] = None,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> list[MetricSample]:
    """One :func:`repeat_schedule_runs` per contention size.

    All ``len(ks) * reps`` runs are submitted to the executor as one flat
    task bag, so parallelism spans sweep points as well as repetitions.
    Chunked batch submission applies per sweep point (chunks never span
    configurations — each chunk shares one base spec and one table).
    """
    journaling = current_checkpoint() is not None
    tasks = []
    labels = []
    seeds = []
    batch_bases: list[Optional[RunSpec]] = []
    fingerprints: Optional[list[str]] = [] if journaling else None
    for i, k in enumerate(ks):
        schedule = schedule_factory(k)
        base = RunSpec(
            k=k,
            protocol=schedule,
            adversary=adversary,
            switch_off_on_ack=switch_off_on_ack,
            stop=stop,
            max_rounds=max_rounds(k) if max_rounds is not None else None,
        )
        base = _apply_default_faults(base)
        prob_table = _warm_tables(base)
        labels.append(label or schedule.name)
        if journaling:
            fingerprints.extend([base.fingerprint(prob_table=prob_table)] * reps)
        batch_bases.extend([base] * reps)
        for r in range(reps):
            seeds.append(run_seed(seed, i, r))
            tasks.append(_spec_task(base.with_seed(seeds[-1])))
    results, seconds, retries = _execute_runs(
        fingerprints, seeds, tasks,
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_bases=batch_bases, batch_size=batch_size,
    )
    return [
        _fold_sample(
            labels[i],
            k,
            results[i * reps : (i + 1) * reps],
            seconds[i * reps : (i + 1) * reps],
            retries[i * reps : (i + 1) * reps],
        )
        for i, k in enumerate(ks)
    ]


def sweep_protocol(
    ks: Sequence[int],
    protocol_factory: Callable[[], Protocol],
    adversary: WakeSchedule | AdaptiveAdversary,
    *,
    reps: int,
    seed: int,
    max_rounds: Optional[Callable[[int], int]] = None,
    feedback: FeedbackModel = FeedbackModel.ACK_ONLY,
    stop: StopCondition = StopCondition.ALL_SWITCHED_OFF,
    label: str = "",
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> list[MetricSample]:
    """One :func:`repeat_protocol_runs` per contention size (flat fan-out);
    compiled-admissible points fuse in chunks, as in :func:`sweep_schedule`."""
    journaling = current_checkpoint() is not None
    sample_label = label or getattr(protocol_factory, "protocol_name", "protocol")
    tasks = []
    seeds = []
    batch_bases: list[Optional[RunSpec]] = []
    fingerprints: Optional[list[str]] = [] if journaling else None
    for i, k in enumerate(ks):
        base = RunSpec(
            k=k,
            protocol=protocol_factory,
            adversary=adversary,
            feedback=feedback,
            stop=stop,
            max_rounds=max_rounds(k) if max_rounds is not None else None,
            label=sample_label,
        )
        base = _apply_default_faults(base)
        if journaling:
            fingerprints.extend([base.fingerprint()] * reps)
        batch_bases.extend([base if _batch_fusable(base) else None] * reps)
        for r in range(reps):
            seeds.append(run_seed(seed, i, r))
            tasks.append(_spec_task(base.with_seed(seeds[-1])))
    results, seconds, retries = _execute_runs(
        fingerprints, seeds, tasks,
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_bases=batch_bases,
    )
    return [
        _fold_sample(
            sample_label,
            k,
            results[i * reps : (i + 1) * reps],
            seconds[i * reps : (i + 1) * reps],
            retries[i * reps : (i + 1) * reps],
        )
        for i, k in enumerate(ks)
    ]


def run_pool(
    runners: Iterable[Callable[[], MetricSample]],
    *,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
) -> list[MetricSample]:
    """Execute independent sample-producing callables across the executor.

    The adversary-pool drivers use this to fan one task per
    (sweep point, adversary) pair out over workers; each runner typically
    calls :func:`repeat_schedule_runs` / :func:`repeat_protocol_runs`,
    which degrade to serial execution inside a worker (pools never nest).
    Order is preserved.  When a checkpoint journal is active, the *inner*
    harness calls journal their runs (workers inherit the journal through
    the fork and append concurrently); the per-runner ``task_timeout``
    here bounds a whole runner, not one simulation.
    """
    executor = RunExecutor(jobs, task_timeout=task_timeout, max_retries=max_retries)
    return executor.map(list(runners))


def worst_sample(samples: Iterable[MetricSample], metric: str = "latency_mean") -> MetricSample:
    """The worst (largest-``metric``) sample over an adversary pool.

    The paper's upper bounds quantify over *every* adversary strategy; the
    empirical analogue runs a pool of concrete strategies and reports the
    worst observed.

    Raises:
        ValueError: if ``samples`` is empty, or ``metric`` is absent (or
            NaN) in every sample's row — silently returning an arbitrary
            sample would let a typo'd metric name masquerade as a result.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("worst_sample needs at least one sample")

    def value_of(sample: MetricSample) -> Optional[float]:
        value = sample.row().get(metric)
        if value is None or value != value:  # absent or NaN
            return None
        return float(value)

    values = [value_of(sample) for sample in samples]
    if all(value is None for value in values):
        known = ", ".join(sorted(samples[0].row()))
        raise ValueError(
            f"metric {metric!r} is absent or NaN in every sample; "
            f"row keys: {known}"
        )
    index = max(
        range(len(samples)),
        key=lambda i: float("-inf") if values[i] is None else values[i],
    )
    return samples[index]
