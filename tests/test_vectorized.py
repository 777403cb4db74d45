"""Tests for the vectorised engine: hazard sampling, sweep semantics,
determinism, stop conditions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.adaptive import DripFeedAdversary
from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.channel.results import StopCondition
from repro.channel.validate import validate_run
from repro.channel.vectorized import (
    ScheduleTables,
    VectorizedSimulator,
    hazard_table,
)
from repro.core.protocol import ProbabilitySchedule
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine.dispatch import execute


class ConstantSchedule(ProbabilitySchedule):
    def __init__(self, p, name="const"):
        self.p = p
        self.name = name

    def probability(self, local_round: int) -> float:
        return self.p


class TestHazardTable:
    def test_values(self):
        table = hazard_table(np.array([0.5, 0.5]))
        assert table[0] == pytest.approx(np.log(2))
        assert table[1] == pytest.approx(2 * np.log(2))

    def test_zero_probability_zero_width(self):
        table = hazard_table(np.array([0.0, 0.3, 0.0]))
        assert table[0] == 0.0
        assert table[2] == table[1]

    def test_probability_one_capped(self):
        table = hazard_table(np.array([1.0]))
        assert np.isfinite(table[0]) and table[0] > 30

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hazard_table(np.array([1.5]))
        with pytest.raises(ValueError):
            hazard_table(np.array([-0.1]))

    def test_empty(self):
        assert hazard_table(np.array([])).size == 0


class TestBasicRuns:
    def test_single_station_p_high_succeeds_immediately(self):
        result = VectorizedSimulator(
            1, ConstantSchedule(0.999999), StaticSchedule(), max_rounds=64, seed=0
        ).run()
        assert result.completed
        assert result.records[0].first_success_round == 1
        assert result.records[0].latency == 1

    def test_zero_probability_never_succeeds(self):
        result = VectorizedSimulator(
            4, ConstantSchedule(0.0), StaticSchedule(), max_rounds=100, seed=0
        ).run()
        assert not result.completed
        assert result.success_count == 0
        assert result.total_transmissions == 0

    def test_all_stations_complete(self):
        k = 64
        result = VectorizedSimulator(
            k, NonAdaptiveWithK(k, 4), StaticSchedule(),
            max_rounds=40 * k, seed=3,
        ).run()
        assert result.completed
        assert result.success_count == k
        assert all(r.latency is not None and r.latency >= 1 for r in result.records)

    def test_switch_off_stops_attempts(self):
        k = 8
        result = VectorizedSimulator(
            k, ConstantSchedule(0.2), StaticSchedule(), max_rounds=50_000, seed=4
        ).run()
        assert result.completed
        # After switch-off a station stops transmitting, so attempts are
        # finite and roughly geometric (p_success >= 0.2 * 0.8^7 ~ 0.04).
        assert all(r.transmissions < 2000 for r in result.records)

    def test_no_ack_variant_counts_every_round(self):
        result = VectorizedSimulator(
            2, ConstantSchedule(1.0), StaticSchedule(),
            switch_off_on_ack=False,
            stop=StopCondition.ALL_SUCCEEDED,
            max_rounds=100, seed=5,
        ).run()
        # Both stations transmit every round: permanent collision.
        assert not result.completed
        assert result.success_count == 0
        assert result.total_transmissions == 200

    def test_wake_offsets_respected(self):
        result = VectorizedSimulator(
            3, ConstantSchedule(0.999999), FixedSchedule([0, 10, 20]),
            max_rounds=200, seed=6,
        ).run()
        records = sorted(result.records, key=lambda r: r.wake_round)
        assert [r.wake_round for r in records] == [0, 10, 20]
        # Well-separated wakes: each succeeds on its first local round.
        assert [r.first_success_round for r in records] == [1, 11, 21]


class TestStopConditions:
    def test_first_success(self):
        result = VectorizedSimulator(
            16, DecreaseSlowly(2), StaticSchedule(),
            stop=StopCondition.FIRST_SUCCESS, max_rounds=10_000, seed=7,
        ).run()
        assert result.completed
        assert result.success_count >= 1
        assert result.first_success_round == result.rounds_executed

    def test_max_rounds_cap(self):
        result = VectorizedSimulator(
            4, ConstantSchedule(0.5), StaticSchedule(), max_rounds=3, seed=8
        ).run()
        assert result.rounds_executed <= 3


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run():
            return VectorizedSimulator(
                32, NonAdaptiveWithK(32, 3),
                UniformRandomSchedule(span=lambda k: k),
                max_rounds=4096, seed=123,
            ).run()

        a, b = run(), run()
        assert [r.first_success_round for r in a.records] == [
            r.first_success_round for r in b.records
        ]
        assert a.total_transmissions == b.total_transmissions

    def test_mismatched_prob_table_rejected(self, monkeypatch):
        # A cache entry built from a different schedule (what a fingerprint
        # collision would produce) is caught by run_batch's spot-check
        # before anything is sampled from it.
        from repro.engine import cache

        schedule = NonAdaptiveWithK(16, 3)
        wrong = NonAdaptiveWithK(64, 3).probabilities(2000)
        key = (cache.schedule_fingerprint(schedule), 2000)
        monkeypatch.setitem(cache._tables, key, ScheduleTables(wrong))
        with pytest.raises(ValueError, match="disagrees"):
            VectorizedSimulator(
                16, schedule, StaticSchedule(), max_rounds=2000, seed=9
            ).run()

    def test_unseeded_runs_draw_fresh_entropy(self):
        # seed=None runs on OS entropy through dispatch and the facade
        # alike, and the result reports seed=None.
        spec = RunSpec(
            16, NonAdaptiveWithK(16, 6), UniformRandomSchedule(span=1000)
        )
        results = [execute(spec) for _ in range(3)] + [
            VectorizedSimulator(
                16, spec.schedule, spec.adversary, max_rounds=spec.resolve_horizon()
            ).run()
            for _ in range(3)
        ]
        for result in results:
            assert result.seed is None
            validate_run(result)
        wakes = {tuple(r.wake_round for r in res.records) for res in results}
        assert len(wakes) == len(results)


class TestValidation:
    def test_rejects_adaptive_adversary(self):
        with pytest.raises(TypeError):
            VectorizedSimulator(
                4, ConstantSchedule(0.5), DripFeedAdversary(), max_rounds=100
            )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            VectorizedSimulator(0, ConstantSchedule(0.5), StaticSchedule(), max_rounds=10)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            VectorizedSimulator(1, ConstantSchedule(0.5), StaticSchedule(), max_rounds=0)
