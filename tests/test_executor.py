"""Tests for the process-pool execution layer and its determinism contract:
the same seed must produce bit-identical ``MetricSample`` rows regardless of
worker count (``--jobs 1`` == ``--jobs 4``) and regardless of injected
failures — crashed, hung and killed workers are retried with the same
pre-assigned task, so recovery never changes results."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.suniform import SUniform
from repro.experiments.executor import (
    RunExecutor,
    TaskFailedError,
    execution_stats,
    get_default_failure_policy,
    get_default_jobs,
    in_worker,
    parallelism_available,
    resolve_jobs,
    set_default_jobs,
    use_failure_policy,
    use_jobs,
)
from repro.analysis.metrics import collect
from repro.core.spec import RunSpec
from repro.experiments.harness import (
    repeat_protocol_runs,
    repeat_schedule_runs,
    run_grid,
    run_seed,
)
from repro.experiments.registry import run_experiment

needs_fork = pytest.mark.skipif(
    not parallelism_available(), reason="fork start method unavailable"
)


def _square(i):
    return lambda: i * i


class TestRunExecutor:
    def test_serial_map_preserves_order(self):
        executor = RunExecutor(1)
        assert executor.map([_square(i) for i in range(10)]) == [
            i * i for i in range(10)
        ]
        assert len(executor.last_task_seconds) == 10

    @needs_fork
    def test_parallel_map_matches_serial(self):
        tasks = [_square(i) for i in range(23)]
        assert RunExecutor(4).map(tasks) == RunExecutor(1).map(tasks)

    @needs_fork
    def test_tasks_run_in_worker_processes(self):
        flags = RunExecutor(2).map([in_worker for _ in range(4)])
        assert all(flags)
        assert not in_worker()

    def test_serial_tasks_run_in_process(self):
        assert RunExecutor(1).map([in_worker]) == [False]

    def test_jobs_resolution(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == get_default_jobs()

    def test_default_jobs_round_trip(self):
        previous = get_default_jobs()
        try:
            set_default_jobs(5)
            assert get_default_jobs() == 5
            assert RunExecutor().jobs == 5
        finally:
            set_default_jobs(previous)

    def test_use_jobs_context_restores(self):
        previous = get_default_jobs()
        with use_jobs(7):
            assert get_default_jobs() == 7
        assert get_default_jobs() == previous
        with use_jobs(None):
            assert get_default_jobs() == previous

    def test_empty_task_list(self):
        assert RunExecutor(4).map([]) == []

    @needs_fork
    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("worker failure")

        with pytest.raises(RuntimeError, match="worker failure"):
            RunExecutor(2).map([boom, boom])


def _rows(samples):
    return [s.row() for s in samples]


def _grid_sweep(base_for_k, ks, *, reps, seed, jobs):
    """One run_grid cell per k (seeds ``run_seed(seed, i, r)``), folded."""
    cells = [
        (base_for_k(k), [run_seed(seed, i, r) for r in range(reps)])
        for i, k in enumerate(ks)
    ]
    return [
        collect(base.display_label, base.k, results)
        for (base, _seeds), results in zip(cells, run_grid(cells, jobs=jobs))
    ]


def _raw(sample):
    """Every seed-determined field of a MetricSample (timings excluded)."""
    return (
        sample.label,
        sample.k,
        sample.runs,
        sample.failures,
        sample.max_latency,
        sample.mean_latency,
        sample.energy,
        sample.energy_per_station,
        sample.first_success,
        sample.rounds,
    )


@needs_fork
class TestJobsDeterminism:
    def test_repeat_schedule_runs_jobs_invariant(self):
        def run(jobs):
            return repeat_schedule_runs(
                24,
                lambda k: NonAdaptiveWithK(k, 4),
                UniformRandomSchedule(span=lambda k: 2 * k),
                reps=6,
                seed=123,
                max_rounds=lambda k: 40 * k,
                jobs=jobs,
            )

        assert _raw(run(1)) == _raw(run(4))

    def test_repeat_protocol_runs_jobs_invariant(self):
        def run(jobs):
            return repeat_protocol_runs(
                8,
                lambda: SUniform(),
                StaticSchedule(),
                reps=4,
                seed=9,
                max_rounds=lambda k: 64 * k,
                label="suniform",
                jobs=jobs,
            )

        assert _raw(run(1)) == _raw(run(4))

    def test_sweep_schedule_jobs_invariant(self):
        """A run_grid sweep over k (schedule cells) is jobs-invariant."""

        def run(jobs):
            return _grid_sweep(
                lambda k: RunSpec(
                    k, NonAdaptiveWithK(k, 4), StaticSchedule(), max_rounds=40 * k
                ),
                (8, 16, 24), reps=3, seed=5, jobs=jobs,
            )

        serial, parallel = run(1), run(4)
        assert _rows(serial) == _rows(parallel)
        assert [_raw(s) for s in serial] == [_raw(s) for s in parallel]

    def test_sweep_protocol_jobs_invariant(self):
        """A run_grid sweep over k (protocol-factory cells) is jobs-invariant."""

        def run(jobs):
            return _grid_sweep(
                lambda k: RunSpec(
                    k, lambda: SUniform(), StaticSchedule(), max_rounds=64 * k
                ),
                (4, 8), reps=2, seed=11, jobs=jobs,
            )

        assert _rows(run(1)) == _rows(run(4))

    def test_run_experiment_jobs_invariant(self):
        """End-to-end over the registry/CLI plumbing: a pool-driver
        experiment produces identical rows for --jobs 1 and --jobs 4."""

        def run(jobs):
            report = run_experiment(
                "thm51_wakeup", ks=(8, 12), reps=2, jobs=jobs
            )
            return report.rows

        assert run(1) == run(4)

    def test_run_experiment_records_timings(self):
        report = run_experiment("thm51_wakeup", ks=(8, 12), reps=1, jobs=2)
        assert report.timings["wall_s"] > 0.0
        assert report.timings["jobs"] == 2.0

    def test_per_run_timing_capture(self):
        sample = repeat_schedule_runs(
            8,
            lambda k: NonAdaptiveWithK(k, 4),
            StaticSchedule(),
            reps=3,
            seed=0,
            max_rounds=lambda k: 40 * k,
            jobs=2,
        )
        assert len(sample.run_seconds) == 3
        assert all(seconds >= 0.0 for seconds in sample.run_seconds)

    def test_per_run_retry_capture(self):
        sample = repeat_schedule_runs(
            8,
            lambda k: NonAdaptiveWithK(k, 4),
            StaticSchedule(),
            reps=3,
            seed=0,
            max_rounds=lambda k: 40 * k,
            jobs=2,
        )
        assert sample.run_retries == [0, 0, 0]
        assert sample.total_retries == 0


def _attempt_count(path) -> int:
    """Cross-process attempt counter: one appended byte per attempt."""
    return os.path.getsize(path) if os.path.exists(path) else 0


def _bump(path) -> int:
    with open(path, "ab") as handle:
        handle.write(b"x")
    return _attempt_count(path)


class TestFailurePolicyDefaults:
    def test_use_failure_policy_round_trip(self):
        previous = get_default_failure_policy()
        with use_failure_policy(task_timeout=2.5, max_retries=3):
            assert get_default_failure_policy() == (2.5, 3)
            executor = RunExecutor(1)
            assert executor.task_timeout == 2.5
            assert executor.max_retries == 3
        assert get_default_failure_policy() == previous

    def test_explicit_args_override_defaults(self):
        with use_failure_policy(task_timeout=2.5, max_retries=3):
            executor = RunExecutor(1, task_timeout=9.0, max_retries=1)
            assert executor.task_timeout == 9.0
            assert executor.max_retries == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RunExecutor(1, task_timeout=0.0)
        with pytest.raises(ValueError):
            RunExecutor(1, max_retries=-1)


class TestFaultInjection:
    """Crashed, hung and killed workers: retries happen, results stay
    order-preserving and deterministic, and every failure is counted."""

    def test_serial_retry_on_exception(self, tmp_path):
        counter = tmp_path / "attempts"

        def flaky():
            if _bump(counter) < 3:
                raise RuntimeError("transient failure")
            return "recovered"

        executor = RunExecutor(1, max_retries=3, retry_backoff=0.0)
        assert executor.map([flaky, lambda: 7]) == ["recovered", 7]
        assert executor.last_retry_counts == [2, 0]
        assert executor.last_failures == 2
        assert _attempt_count(counter) == 3

    def test_serial_retries_exhausted_reraises(self, tmp_path):
        def always_fails():
            raise ValueError("permanent failure")

        executor = RunExecutor(1, max_retries=2, retry_backoff=0.0)
        with pytest.raises(ValueError, match="permanent failure"):
            executor.map([always_fails])
        assert executor.last_failures == 3  # 1 attempt + 2 retries

    @needs_fork
    def test_pool_retry_on_exception(self, tmp_path):
        counter = tmp_path / "attempts"

        def flaky():
            if _bump(counter) < 2:
                raise RuntimeError("worker crash")
            return 99

        executor = RunExecutor(2, max_retries=2, retry_backoff=0.01)
        results = executor.map([flaky, lambda: 1, lambda: 2])
        assert results == [99, 1, 2]
        assert executor.last_retry_counts == [1, 0, 0]
        assert executor.last_failures == 1

    @needs_fork
    def test_pool_retries_exhausted_reraises_original(self):
        def boom():
            raise RuntimeError("permanent worker failure")

        executor = RunExecutor(2, max_retries=1, retry_backoff=0.0)
        with pytest.raises(RuntimeError, match="permanent worker failure"):
            executor.map([boom, lambda: 1])

    @needs_fork
    def test_hung_task_times_out_and_retries(self, tmp_path):
        flag = tmp_path / "hung-once"

        def hangs_once():
            if not flag.exists():
                flag.touch()
                time.sleep(60.0)
            return "past the hang"

        executor = RunExecutor(2, task_timeout=1.0, max_retries=2, retry_backoff=0.01)
        results = executor.map([hangs_once, lambda: 5])
        assert results == ["past the hang", 5]
        assert executor.last_timeouts == 1
        assert executor.last_retry_counts[0] == 1

    @needs_fork
    def test_hang_exhaustion_raises_task_failed(self):
        def hangs_forever():
            time.sleep(60.0)

        executor = RunExecutor(2, task_timeout=0.3, max_retries=1, retry_backoff=0.0)
        with pytest.raises(TaskFailedError, match="timed out"):
            executor.map([hangs_forever, lambda: 1])
        assert executor.last_timeouts == 2

    @needs_fork
    def test_killed_worker_is_retried(self, tmp_path):
        flag = tmp_path / "killed-once"

        def kills_own_worker_once():
            if in_worker() and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return "survived the kill"

        executor = RunExecutor(2, task_timeout=1.0, max_retries=2, retry_backoff=0.01)
        results = executor.map([kills_own_worker_once, lambda: 3])
        assert results == ["survived the kill", 3]
        assert executor.last_failures >= 1
        assert executor.last_retry_counts[0] >= 1

    @needs_fork
    def test_killed_worker_without_timeout_does_not_stall(self, tmp_path):
        # No task_timeout: only the worker-liveness check can notice the
        # lost task.  A regression hangs forever, so the scenario runs in
        # a child interpreter under a wall-clock cap.
        script = textwrap.dedent(
            """
            import json, os, signal, sys
            from repro.experiments.executor import (
                RunExecutor, TaskFailedError, in_worker,
            )

            flag = sys.argv[1]

            def kills_own_worker_once():
                if in_worker() and not os.path.exists(flag):
                    open(flag, "w").close()
                    os.kill(os.getpid(), signal.SIGKILL)
                return "survived the kill"

            retried = RunExecutor(2, max_retries=1, retry_backoff=0.0)
            results = retried.map([kills_own_worker_once, lambda: 3])
            os.remove(flag)
            try:
                RunExecutor(2, retry_backoff=0.0).map(
                    [lambda: 1, kills_own_worker_once]
                )
                error = None
            except TaskFailedError as exc:
                error = str(exc)
            print(json.dumps({
                "results": results,
                "retries": retried.last_retry_counts,
                "timeouts": retried.last_timeouts,
                "error": error,
            }))
            """
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "killed-once")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            # Take the pool workers down with the stalled parent.
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the executor stalled on a killed pool worker")
        assert child.returncode == 0, err
        report = json.loads(out)
        assert report["results"] == ["survived the kill", 3]
        assert report["retries"] == [1, 0]
        assert report["timeouts"] == 0
        assert report["error"] is not None and "task 1" in report["error"]

    @needs_fork
    def test_results_deterministic_under_injected_failures(self, tmp_path):
        """A task bag with injected crashes produces exactly the results a
        clean serial executor produces, in the same order."""
        counter = tmp_path / "attempts"

        def make_task(i):
            def task():
                if i == 3 and _bump(counter) < 2:
                    raise RuntimeError("crash on first attempt")
                return i * i
            return task

        tasks = [make_task(i) for i in range(8)]
        clean = RunExecutor(1).map([lambda i=i: i * i for i in range(8)])
        executor = RunExecutor(4, task_timeout=5.0, max_retries=2, retry_backoff=0.01)
        assert executor.map(tasks) == clean

    def test_pool_infrastructure_breakage_degrades_to_serial(self, monkeypatch):
        """If workers cannot be forked at all, the bag still completes
        in-process and the degradation is counted, not silent."""
        class BrokenContext:
            def Pool(self, *args, **kwargs):
                raise OSError("cannot allocate worker processes")

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method: BrokenContext()
        )
        before = execution_stats()["degraded"]
        executor = RunExecutor(4)
        assert executor.map([_square(i) for i in range(6)]) == [
            i * i for i in range(6)
        ]
        assert executor.last_degraded
        assert execution_stats()["degraded"] == before + 1

    def test_on_result_streams_in_order(self):
        seen = []
        executor = RunExecutor(1)
        executor.map(
            [_square(i) for i in range(5)],
            on_result=lambda i, result, seconds: seen.append((i, result)),
        )
        assert seen == [(i, i * i) for i in range(5)]

    @needs_fork
    def test_on_result_streams_in_order_parallel(self):
        seen = []
        executor = RunExecutor(3)
        executor.map(
            [_square(i) for i in range(9)],
            on_result=lambda i, result, seconds: seen.append((i, result)),
        )
        assert seen == [(i, i * i) for i in range(9)]


class TestFailureVisibility:
    """Executor failures surface on the experiment report, never silently."""

    def test_flaky_driver_failures_land_on_report_timings(self, tmp_path):
        from repro.experiments.harness import ExperimentReport
        from repro.experiments.registry import EXPERIMENTS

        counter = tmp_path / "attempts"

        def flaky_driver(**overrides):
            def flaky():
                if _bump(counter) < 2:
                    raise RuntimeError("transient")
                return 1

            executor = RunExecutor(1, max_retries=2, retry_backoff=0.0)
            executor.map([flaky])
            return ExperimentReport(experiment_id="_flaky", title="flaky")

        EXPERIMENTS["_flaky"] = flaky_driver
        try:
            report = run_experiment("_flaky")
        finally:
            del EXPERIMENTS["_flaky"]
        assert report.timings["task_failures"] == 1.0
        assert report.timings["task_retries"] == 1.0

    def test_clean_run_reports_no_failure_keys(self):
        report = run_experiment("thm51_wakeup", ks=(8, 12), reps=1)
        assert "task_failures" not in report.timings
        assert "task_retries" not in report.timings
