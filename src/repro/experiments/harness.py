"""Experiment harness: one execution primitive, :func:`run_grid`.

Every simulation run an experiment driver makes goes through
:func:`run_grid`: the driver describes each configuration as an un-seeded
:class:`~repro.core.spec.RunSpec` plus the explicit seeds to run it with,
and the grid fans the seeded copies out through the executor, the
checkpoint journal and the batched kernels, letting
:func:`repro.engine.execute` / :func:`repro.engine.execute_batch` pick the
engine (the vectorised sampler exactly when the spec is admissible, the
compiled stepper for lowerable machines, the object engine otherwise — or
whatever the process default engine says, so ``--engine cross-check``
shadows every run with the reference engine).  ``repeat_schedule_runs`` /
``repeat_protocol_runs`` / ``repeat_spec_runs`` are one-cell conveniences
over it.  No driver calls ``execute`` itself (``scripts/check.sh`` lints
for it).

Seeding contract
----------------

All experiment drivers in this package are deterministic functions of their
``seed`` argument: repetition ``r`` of configuration ``i`` uses seed
``config_seed(seed, i) + r = seed + i * SEED_STRIDE + r``, so any reported
number can be regenerated exactly from its run seed.  ``SEED_STRIDE`` is
``2**32``, which keeps the per-configuration seed streams disjoint for any
repetition count below four billion (the historical ``seed + 1000*i + r``
scheme collided across configurations whenever ``reps >= 1000``).
Drivers whose published numbers predate that layout keep their own
explicit seeds; :func:`run_grid` takes every seed as given.

Parallel execution
------------------

Every helper below accepts a ``jobs`` argument (``None`` = the process
default set by the CLI's ``--jobs`` flag) and fans its runs out through
:class:`~repro.experiments.executor.RunExecutor`.  Because each run's seed
is pre-assigned before submission, results are bit-identical for any
worker count; a grid parallelises across *both* cells and repetitions.
Probability tables are warmed in the parent process (the
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
from repro.core.spec import RunSpec, check_seed
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
    "GridCell",
    "run_grid",
    "repeat_schedule_runs",
    "repeat_protocol_runs",
    "repeat_spec_runs",
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


#: Estimated working set (:func:`repro.engine.plan.estimate_rep_bytes`)
#: one fused chunk may reach.  Fusing amortises a kernel call's fixed cost
#: over its repetitions, which pays only while repetitions are small; a
#: repetition this large runs alone instead of multiplying peak memory.
FUSED_CHUNK_BYTES = 128 * 2**20

#: One grid cell: an un-seeded base spec and the explicit run seeds to
#: execute it with (each run is ``base.with_seed(seed)``).
GridCell = tuple[RunSpec, Sequence[int]]


def run_grid(
    cells: Iterable[GridCell],
    *,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> list[list[RunResult]]:
    """Execute every ``(base, seeds)`` cell; one result list per cell, in
    cell order, each in seed order.

    The one execution primitive every driver goes through.  All runs of
    all cells form one flat task bag, so ``jobs`` parallelises across
    cells as well as repetitions.  Per cell, the process-default fault
    model is folded into the base, the base's probability table is warmed
    before any fork, and (under ``--resume``) the base is fingerprinted
    once; each run is then looked up in, or recorded to, the journal under
    ``(fingerprint, seed)``.  Consecutive runs of one fusable base are
    chunked into :func:`repro.engine.execute_batch` calls (see
    :func:`_execute_runs`).  Results are byte-identical for every worker
    count, batch size, tiling and resume state.

    A ``record_trace`` base runs through the same path but is never
    journaled — the journal payload drops traces, so a replay could not
    return one — and each such run counts as ``harness.runs_unjournaled``.
    """
    return [
        results
        for results, _seconds, _retries in _run_cells(
            cells,
            jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
            batch_size=batch_size,
        )
    ]


def _run_cells(
    cells: Iterable[GridCell], **policy: Optional[float]
) -> list[tuple[list[RunResult], list[float], list[int]]]:
    """:func:`run_grid` with each cell's per-run seconds and retry counts."""
    journaling = current_checkpoint() is not None
    bases: list[RunSpec] = []
    seeds: list[int] = []
    fingerprints: list[Optional[str]] = []
    batch_bases: list[Optional[RunSpec]] = []
    bounds: list[tuple[int, int]] = []
    for base, cell_seeds in cells:
        cell_seeds = list(cell_seeds)
        for seed in cell_seeds:
            check_seed(seed)
        base = _apply_default_faults(base)
        prob_table = _warm_tables(base)
        fingerprint = None
        if base.record_trace:
            telemetry.count("harness.runs_unjournaled", len(cell_seeds))
        elif journaling:
            fingerprint = base.fingerprint(prob_table=prob_table)
        fusable = not base.record_trace and _batch_fusable(base)
        start = len(seeds)
        seeds.extend(cell_seeds)
        bases.extend([base] * len(cell_seeds))
        fingerprints.extend([fingerprint] * len(cell_seeds))
        batch_bases.extend([base if fusable else None] * len(cell_seeds))
        bounds.append((start, len(seeds)))
    results, seconds, retries = _execute_runs(
        bases, seeds, fingerprints, batch_bases, **policy
    )
    return [
        (results[a:b], seconds[a:b], retries[a:b]) for a, b in bounds
    ]


def _execute_runs(
    bases: Sequence[RunSpec],
    seeds: Sequence[int],
    fingerprints: Sequence[Optional[str]],
    batch_bases: Sequence[Optional[RunSpec]],
    *,
    jobs: Optional[int],
    task_timeout: Optional[float],
    max_retries: Optional[int],
    batch_size: Optional[int],
) -> tuple[list[RunResult], list[float], list[int]]:
    """Run a pre-seeded run bag through the executor, checkpoint-aware.

    Run ``i`` is ``bases[i].with_seed(seeds[i])``.  ``fingerprints[i]`` is
    its journal key (None = never journaled).  Runs already present in the
    active journal are *not* re-executed: their stored results (and wall
    seconds) are folded in place.  Fresh results are journaled the moment
    the executor collects them, so an interruption loses at most the
    in-flight runs.  Returns results, per-run seconds and per-run retry
    counts, all in submission order.

    Batched submission: ``batch_bases[i]`` is the base run ``i`` may fuse
    with (None = this run goes through its own task).  Consecutive
    *pending* runs sharing the same base object are chunked into groups of
    up to ``batch_size`` (None = the process default, CLI ``--batch-size``)
    and submitted as one :func:`repro.engine.execute_batch` task, which
    fuses the chunk into a single kernel call.  Results are byte-identical
    for every batch size (the batched kernels' contract); journal entries
    stay per-(fingerprint, seed) with the chunk's wall-clock split evenly,
    so ``--resume`` is unaffected.  A ``batch_size`` of 1 is exactly the
    one-task-per-run path.  Under batching, ``task_timeout`` bounds a
    whole chunk attempt and a retried chunk re-executes all of its runs
    (same seeds, same results).

    Tiled scheduling: when a memory budget or ``--tile-reps`` is active
    (see :mod:`repro.engine.plan`), each base's chunk ceiling shrinks to
    its rep-tile cap, so a *tile* — not a config — becomes the fork-pool
    scheduling unit and one large config shards across every worker.
    Journal entries stay per-(fingerprint, seed), so ``--resume`` is
    tile-size-invariant: a journal written under one tiling folds into a
    resumed run under any other.
    """
    journal = current_checkpoint()
    n = len(seeds)
    results: list[Optional[RunResult]] = [None] * n
    seconds = [0.0] * n
    retries = [0] * n
    pending = []
    for index in range(n):
        fingerprint = fingerprints[index]
        cached = (
            None if journal is None or fingerprint is None
            else journal.get(fingerprint, seeds[index])
        )
        if cached is None:
            pending.append(index)
        else:
            results[index], seconds[index] = cached
    if pending:
        size = resolve_batch_size(batch_size)
        # Per-base chunk ceiling: the batch size, capped by the base's
        # rep-tile cap (so one fork-pool task never exceeds the memory
        # budget and a single config fans out across workers tile by
        # tile) and by FUSED_CHUNK_BYTES.
        from repro.engine.plan import estimate_rep_bytes, tile_rep_cap

        cap_cache: dict[int, int] = {}

        def base_cap(base: RunSpec) -> int:
            cached = cap_cache.get(id(base))
            if cached is None:
                cached = min(size, FUSED_CHUNK_BYTES // estimate_rep_bytes(base))
                tile_cap = tile_rep_cap(base)
                if tile_cap is not None:
                    cached = min(cached, tile_cap)
                cached = max(1, cached)
                cap_cache[id(base)] = cached
            return cached

        chunks: list[list[int]] = []
        exec_tasks: list[Callable[[], object]] = []
        i = 0
        while i < len(pending):
            index = pending[i]
            base = batch_bases[index]
            group = [index]
            i += 1
            if base is not None and size > 1:
                cap = base_cap(base)
                while (
                    i < len(pending)
                    and len(group) < cap
                    and batch_bases[pending[i]] is base
                ):
                    group.append(pending[i])
                    i += 1
            if len(group) == 1:
                exec_tasks.append(_spec_task(bases[index].with_seed(seeds[index])))
            else:
                exec_tasks.append(
                    _batch_task(base, [seeds[idx] for idx in group])
                )
            chunks.append(group)
        executor = RunExecutor(
            jobs, task_timeout=task_timeout, max_retries=max_retries
        )
        on_result = None
        if journal is not None:
            def on_result(j: int, result: object, secs: float) -> None:
                group = chunks[j]
                runs = [result] if len(group) == 1 else result
                per_run = secs / len(group)
                for index, run in zip(group, runs):
                    if fingerprints[index] is not None:
                        journal.record(fingerprints[index], seeds[index], run, per_run)
        fresh = executor.map(exec_tasks, on_result=on_result)
        for j, group in enumerate(chunks):
            runs = [fresh[j]] if len(group) == 1 else fresh[j]
            per_run = executor.last_task_seconds[j] / len(group)
            for index, run in zip(group, runs):
                results[index] = run
                seconds[index] = per_run
                retries[index] = executor.last_retry_counts[j]
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
    process default (:func:`repro.faults.use_faults`); :func:`run_grid`
    folds it into every base it runs, so any experiment can be re-run on
    a degraded channel without changing its driver.  A spec that already
    carries its own fault model wins (the robustness experiment sets
    per-cell models).
    """
    default = current_faults()
    if default is None or base.faults is not None:
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


def _repeat_sample(
    base: RunSpec, label: str, *, reps: int, seed: int, **policy: Optional[float]
) -> MetricSample:
    """``reps`` runs of ``base`` (seeds ``seed + r``), folded into a sample."""
    ((results, seconds, retries),) = _run_cells(
        [(base, range(seed, seed + reps))], **policy
    )
    return _fold_sample(label, base.k, results, seconds, retries)


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
    """Run a non-adaptive schedule ``reps`` times (repetition ``r`` uses
    seed ``seed + r``) through :func:`run_grid`, folded into a sample.

    ``max_rounds`` maps ``k`` to an explicit horizon; ``None`` defers to
    the :meth:`RunSpec.resolve_horizon` policy.
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
    return _repeat_sample(
        base, label or schedule.name, reps=reps, seed=seed,
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_size=batch_size,
    )


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
    """Run an arbitrary protocol ``reps`` times through :func:`run_grid`,
    folded into a sample (lowerable machines fuse on the compiled
    stepper; everything else runs per run on the object engine)."""
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
    return _repeat_sample(
        base, label, reps=reps, seed=seed,
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_size=batch_size,
    )


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
    """Raw results of ``reps`` runs of one spec (repetition ``r`` uses seed
    ``seed + r``): a one-cell :func:`run_grid`."""
    (results,) = run_grid(
        [(base, range(seed, seed + reps))],
        jobs=jobs, task_timeout=task_timeout, max_retries=max_retries,
        batch_size=batch_size,
    )
    return results


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

    When runs were recorded but none of them defined ``metric`` (say, an
    energy budget killed every station before any delivery, so no latency
    exists), the worst sample is the one with the most failed runs.

    Raises:
        ValueError: if ``samples`` is empty, ``metric`` is not a row key,
            or no sample recorded a run — silently returning an arbitrary
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
        row = samples[0].row()
        if metric in row and any(sample.runs for sample in samples):
            return max(samples, key=lambda sample: sample.failures)
        raise ValueError(
            f"metric {metric!r} is absent or NaN in every sample; "
            f"row keys: {', '.join(sorted(row))}"
        )
    index = max(
        range(len(samples)),
        key=lambda i: float("-inf") if values[i] is None else values[i],
    )
    return samples[index]
