"""Tests for the experiment harness (repeat/sweep helpers)."""

from __future__ import annotations

import pytest

from repro.adversary.adaptive import DripFeedAdversary
from repro.adversary.oblivious import StaticSchedule
from repro.channel.results import StopCondition
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.suniform import SUniform
from repro.experiments.harness import (
    SEED_STRIDE,
    ExperimentReport,
    config_seed,
    repeat_protocol_runs,
    repeat_schedule_runs,
    run_seed,
    sweep_protocol,
    sweep_schedule,
    worst_sample,
)


class TestRepeatScheduleRuns:
    def test_collects_all_reps(self):
        sample = repeat_schedule_runs(
            16,
            lambda k: NonAdaptiveWithK(k, 4),
            StaticSchedule(),
            reps=4,
            seed=0,
            max_rounds=lambda k: 40 * k,
        )
        assert sample.runs == 4
        assert sample.failures == 0
        assert sample.k == 16
        assert len(sample.max_latency) == 4

    def test_label_defaults_to_schedule_name(self):
        sample = repeat_schedule_runs(
            8, lambda k: NonAdaptiveWithK(k, 4), StaticSchedule(),
            reps=1, seed=0, max_rounds=lambda k: 40 * k,
        )
        assert sample.label.startswith("NonAdaptiveWithK")

    def test_deterministic_given_seed(self):
        def run():
            return repeat_schedule_runs(
                16, lambda k: NonAdaptiveWithK(k, 4), StaticSchedule(),
                reps=3, seed=7, max_rounds=lambda k: 40 * k,
            ).row()

        assert run() == run()

    def test_first_success_stop(self):
        sample = repeat_schedule_runs(
            16, lambda k: DecreaseSlowly(2), StaticSchedule(),
            reps=3, seed=1, max_rounds=lambda k: 64 * k,
            stop=StopCondition.FIRST_SUCCESS,
        )
        assert len(sample.first_success) == 3


class TestRepeatProtocolRuns:
    def test_object_engine_protocols(self):
        sample = repeat_protocol_runs(
            12, lambda: SUniform(), StaticSchedule(),
            reps=2, seed=2, max_rounds=lambda k: 64 * k,
            label="suniform",
        )
        assert sample.runs == 2
        assert sample.failures == 0
        assert sample.label == "suniform"

    def test_adaptive_adversary_supported(self):
        sample = repeat_protocol_runs(
            6, lambda: SUniform(), DripFeedAdversary(interval=2),
            reps=1, seed=3, max_rounds=lambda k: 200 * k,
        )
        assert sample.runs == 1


class TestSweeps:
    def test_sweep_schedule_one_sample_per_k(self):
        samples = sweep_schedule(
            (8, 16), lambda k: NonAdaptiveWithK(k, 4), StaticSchedule(),
            reps=2, seed=4, max_rounds=lambda k: 40 * k,
        )
        assert [s.k for s in samples] == [8, 16]

    def test_sweep_protocol_one_sample_per_k(self):
        from repro.experiments.executor import use_batch_size
        from repro.telemetry import registry as telemetry

        def sweep(batch_size):
            with use_batch_size(batch_size):
                return sweep_protocol(
                    (4, 8), lambda: SUniform(), StaticSchedule(),
                    reps=3, seed=5, max_rounds=lambda k: 64 * k,
                )

        def metrics(sample):
            return (
                sample.k, sample.runs, sample.failures, sample.max_latency,
                sample.mean_latency, sample.energy, sample.first_success,
                sample.rounds,
            )

        telemetry.enable()
        try:
            samples = sweep(batch_size=None)
            fused = telemetry.snapshot()["counters"].get("engine.batch_fused_runs", 0)
        finally:
            telemetry.disable()
            telemetry.reset()
        assert [s.k for s in samples] == [4, 8]
        # SUniform lowers onto the compiled stepper, so each sweep point's
        # repetitions fuse into one batch, with per-run results unchanged.
        assert fused == 6
        assert [metrics(s) for s in samples] == [
            metrics(s) for s in sweep(batch_size=1)
        ]

    def test_sweep_seeds_differ_by_k(self):
        # Different ks get decorrelated seeds (SEED_STRIDE apart): the
        # latency sequences should not be identical when k is identical by
        # construction of two single-k sweeps with different indices.
        a = sweep_schedule(
            (8, 8), lambda k: NonAdaptiveWithK(k, 4), StaticSchedule(),
            reps=2, seed=6, max_rounds=lambda k: 40 * k,
        )
        assert a[0].max_latency != a[1].max_latency or (
            a[0].energy != a[1].energy
        )


class TestSeedSpacing:
    """Regression for the old ``seed + 1000*i + r`` layout, whose streams
    collided as soon as ``reps >= 1000``: configuration ``i`` repetition
    1000 reused configuration ``i+1`` repetition 0's seed, silently
    correlating neighbouring sweep points."""

    def test_old_collision_case_now_disjoint(self):
        # The exact pair that used to collide.
        assert run_seed(0, 0, 1000) != run_seed(0, 1, 0)

    def test_config_streams_disjoint_for_huge_reps(self):
        seed, reps = 7, 100_000
        streams = [
            set(range(run_seed(seed, i, 0), run_seed(seed, i, reps)))
            for i in range(4)
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert streams[i].isdisjoint(streams[j])

    def test_run_seed_layout(self):
        assert config_seed(42, 0) == 42
        assert config_seed(42, 3) == 42 + 3 * SEED_STRIDE
        assert run_seed(42, 3, 5) == config_seed(42, 3) + 5
        assert SEED_STRIDE >= 2**32

    def test_rep_count_validated_against_stride(self):
        # Any realistic rep count stays inside one stride.
        assert run_seed(0, 0, SEED_STRIDE - 1) < run_seed(0, 1, 0)


class TestWorstSample:
    def test_nan_values_not_selected(self):
        from repro.analysis.metrics import MetricSample

        good = MetricSample("good", k=1)
        good.max_latency = [5.0]
        empty = MetricSample("empty", k=1)  # latency_mean is NaN
        assert worst_sample([good, empty]).label == "good"

    def test_metric_override(self):
        from repro.analysis.metrics import MetricSample

        a = MetricSample("a", k=1)
        a.max_latency = [100.0]
        a.energy = [1.0]
        b = MetricSample("b", k=1)
        b.max_latency = [1.0]
        b.energy = [100.0]
        assert worst_sample([a, b], metric="latency_mean").label == "a"
        assert worst_sample([a, b], metric="energy_mean").label == "b"

    def test_raises_when_metric_absent_everywhere(self):
        from repro.analysis.metrics import MetricSample

        a = MetricSample("a", k=1)  # no runs recorded: every metric is NaN
        b = MetricSample("b", k=1)
        with pytest.raises(ValueError, match="latency_mean"):
            worst_sample([a, b], metric="latency_mean")

    def test_raises_on_unknown_metric_key(self):
        from repro.analysis.metrics import MetricSample

        a = MetricSample("a", k=1)
        a.max_latency = [5.0]
        with pytest.raises(ValueError, match="no_such_metric"):
            worst_sample([a], metric="no_such_metric")

    def test_raises_on_empty_sample_list(self):
        with pytest.raises(ValueError):
            worst_sample([], metric="latency_mean")


class TestExperimentReport:
    def test_str_is_text(self):
        report = ExperimentReport("id", "t", text="hello")
        assert str(report) == "hello"
