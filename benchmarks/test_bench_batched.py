"""Batched-kernel benchmark: fused repetitions vs the per-run loop.

Not a paper artefact — infrastructure health, and the anchor of the perf
trajectory (``scripts/bench_trajectory.py`` turns these medians into
``BENCH_engines.json``).  Both sides below execute the *same* repetitions
of the same configuration (identical seeds, byte-identical results), and
a single vectorised run is itself a one-seed call of the same kernel, so
the ratio of their medians is what fusing R repetitions saves over R
per-run calls: dispatch, planning, table lookup, generator construction
and small-array numpy overhead — the batching speedup and nothing else.

``REPRO_BENCH_REPS`` scales the repetition count (default 1000 — the
ISSUE's acceptance configuration; CI uses a smaller value).
"""

from __future__ import annotations

import os

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.batched import run_batch
from repro.channel.results import StopCondition
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine.dispatch import execute

K = 64
REPS = int(os.environ.get("REPRO_BENCH_REPS", "1000"))
SPEC = RunSpec(
    k=K,
    protocol=NonAdaptiveWithK(K, 6),
    adversary=UniformRandomSchedule(span=lambda k: 2 * k),
    stop=StopCondition.ALL_SUCCEEDED,
    switch_off_on_ack=False,
    max_rounds=30 * K,
    seed=7,
)
SEEDS = [SPEC.seed + r for r in range(REPS)]


def run_batched_kernel():
    return run_batch(SPEC, seeds=SEEDS)


def run_per_run_loop():
    return [execute(SPEC.with_seed(s), engine="vectorized") for s in SEEDS]


def test_bench_batched_kernel(benchmark):
    results = benchmark(run_batched_kernel)
    assert len(results) == REPS
    # This adversary defeats a noticeable fraction of runs (byte identity
    # with the per-run loop is property-tested in tests/test_batched.py);
    # the benchmark only sanity-checks that the workload is non-trivial.
    assert sum(r.completed for r in results) > REPS // 4


def test_bench_per_run_vectorized_loop(benchmark):
    results = benchmark(run_per_run_loop)
    assert len(results) == REPS
    assert sum(r.completed for r in results) > REPS // 4
