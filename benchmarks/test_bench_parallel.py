"""Benchmark ``parallel_executor``: the process-pool run executor.

Two claims, matching the executor's contract:

1. **Determinism** — the same seed yields byte-identical ``MetricSample``
   rows whether the sweep runs on 1 worker or 4 (seeds are pre-assigned
   per run, results are folded in submission order).
2. **Speedup** — on a multi-core host, fanning a sweep's runs across 4
   workers cuts wall-clock by at least 2x versus serial execution.  The
   speedup assertion is skipped on hosts with fewer than 4 cores, where
   the pool cannot physically deliver it; the equality check always runs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.adversary.oblivious import UniformRandomSchedule
from repro.analysis.metrics import collect
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.experiments.executor import parallelism_available
from repro.experiments.harness import run_grid, run_seed

from benchmarks.conftest import RESULTS_DIR


def _sweep(jobs, *, ks=(64, 128, 192, 256), reps=6):
    """One run_grid cell per k, folded into one sample per k."""
    adversary = UniformRandomSchedule(span=lambda k: 2 * k)
    cells = [
        (RunSpec(k, NonAdaptiveWithK(k, 4), adversary, max_rounds=60 * k),
         [run_seed(8087, i, r) for r in range(reps)])
        for i, k in enumerate(ks)
    ]
    return [
        collect(base.display_label, base.k, results)
        for (base, _seeds), results in zip(cells, run_grid(cells, jobs=jobs))
    ]


def test_bench_parallel_equality(benchmark):
    """jobs=4 must be byte-identical to jobs=1 on the same seed."""
    serial = _sweep(1, ks=(32, 64), reps=3)
    parallel = benchmark.pedantic(
        lambda: _sweep(4, ks=(32, 64), reps=3), rounds=1, iterations=1
    )
    serial_rows = [s.row() for s in serial]
    parallel_rows = [s.row() for s in parallel]
    assert repr(serial_rows) == repr(parallel_rows)
    assert serial_rows == parallel_rows


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup needs >= 4 physical workers"
)
@pytest.mark.skipif(
    not parallelism_available(), reason="fork start method unavailable"
)
def test_bench_parallel_speedup(benchmark):
    """A 4-worker sweep must run >= 2x faster than the serial sweep."""
    _sweep(1, ks=(32,), reps=1)  # warm imports outside the timed region

    t0 = time.perf_counter()
    serial = _sweep(1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(lambda: _sweep(4), rounds=1, iterations=1)
    parallel_s = time.perf_counter() - t0

    speedup = serial_s / parallel_s
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_executor.txt").write_text(
        "== parallel_executor: 4-worker sweep vs serial ==\n"
        f"cores: {os.cpu_count()}\n"
        f"serial:   {serial_s:.2f}s\n"
        f"parallel: {parallel_s:.2f}s (jobs=4)\n"
        f"speedup:  {speedup:.2f}x\n"
    )
    assert [s.row() for s in serial] == [s.row() for s in parallel]
    assert speedup >= 2.0
