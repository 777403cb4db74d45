"""Tests for the non-adaptive sawtooth schedule (dependent-round sampler)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.adversary.oblivious import (
    BatchSchedule,
    StaticSchedule,
    UniformRandomSchedule,
)
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator
from repro.channel.vectorized import VectorizedSimulator
from repro.core.protocols.sawtooth_schedule import SawtoothSchedule, _window_sizes
from repro.core.protocols.suniform import SUniform
from repro.core.spec import RunSpec
from repro.engine.dispatch import execute, execute_batch
from repro.experiments.checkpoint import result_to_payload


class TestWindowStructure:
    def test_window_size_sequence(self):
        assert _window_sizes(11) == [1, 2, 1, 4, 2, 1]
        assert _window_sizes(1) == [1]

    def test_marginal_probabilities(self):
        schedule = SawtoothSchedule()
        # Rounds:      1 | 2 3 | 4 | 5 6 7 8 | 9 10 | 11
        # Window size: 1 |  2  | 1 |    4    |  2   | 1
        expected = [1.0, 0.5, 0.5, 1.0, 0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 1.0]
        for i, p in enumerate(expected, start=1):
            assert schedule.probability(i) == pytest.approx(p)

    def test_probabilities_table_matches(self):
        schedule = SawtoothSchedule()
        table = schedule.probabilities(200)
        for i in (1, 5, 60, 200):
            assert table[i - 1] == pytest.approx(schedule.probability(i))

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            SawtoothSchedule().probability(0)


def per_station_draw(rng, max_local):
    """Reference sampler: one station's slots, one ``rng.random(W)`` call
    over the ``W`` windows that start inside ``[1, max_local]``."""
    rounds, start = [], 1
    sizes = _window_sizes(max_local)
    draws = rng.random(len(sizes))
    for w, u in zip(sizes, draws):
        r = start + min(int(u * w), w - 1)
        if r <= max_local:
            rounds.append(r)
        start += w
    return rounds


class TestSampler:
    def test_one_round_per_complete_window(self):
        schedule = SawtoothSchedule()
        rng = np.random.default_rng(0)
        stations, rounds = schedule.sample_rounds(rng, 1, 11)
        # Windows fully inside [1, 11]: 6 of them; each contributes at most
        # one round, all within range and strictly increasing.
        assert 1 <= len(rounds) <= 6
        assert stations.tolist() == [0] * len(rounds)
        assert all(1 <= r <= 11 for r in rounds)
        assert list(rounds) == sorted(set(rounds))

    def test_exactly_one_per_window_when_untruncated(self):
        schedule = SawtoothSchedule()
        rng = np.random.default_rng(1)
        # Horizon 11 ends exactly at a window boundary: every window fully
        # contained, so exactly one transmission per window and station.
        for _ in range(20):
            stations, rounds = schedule.sample_rounds(rng, 3, 11)
            assert np.bincount(stations, minlength=3).tolist() == [6, 6, 6]

    def test_marginal_statistics(self):
        """Empirical per-round frequency matches the 1/W marginal."""
        schedule = SawtoothSchedule()
        rng = np.random.default_rng(2)
        trials = 4000
        _, rounds = schedule.sample_rounds(rng, trials, 11)
        freqs = np.bincount(rounds, minlength=12)[1:12] / trials
        expected = [schedule.probability(i) for i in range(1, 12)]
        np.testing.assert_allclose(freqs, expected, atol=0.03)

    def test_empty_horizon(self):
        schedule = SawtoothSchedule()
        stations, rounds = schedule.sample_rounds(np.random.default_rng(0), 4, 0)
        assert stations.size == rounds.size == 0

    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    @pytest.mark.parametrize("max_local", [1, 2, 5, 11, 12, 100, 777])
    def test_whole_repetition_equals_per_station_draws(self, k, max_local):
        # One rng.random((k, W)) reads the stream exactly as k sequential
        # per-station rng.random(W) calls, and leaves the generator in the
        # same state, so every seeded run is unchanged by the batching.
        rng = np.random.default_rng([k, max_local])
        twin = np.random.default_rng([k, max_local])
        stations, rounds = SawtoothSchedule().sample_rounds(rng, k, max_local)
        expected = [
            (s, r) for s in range(k) for r in per_station_draw(twin, max_local)
        ]
        assert list(zip(stations.tolist(), rounds.tolist())) == expected
        assert stations.dtype == rounds.dtype == np.int64
        assert rng.bit_generator.state == twin.bit_generator.state


class TestVectorizedIntegration:
    def test_resolves_static_contention(self):
        k = 64
        result = VectorizedSimulator(
            k, SawtoothSchedule(), StaticSchedule(),
            max_rounds=64 * k, seed=5,
        ).run()
        assert result.completed
        assert result.success_count == k

    def test_scales_to_large_k(self):
        """The point of the fast path: sawtooth at k = 2048 in seconds."""
        k = 2048
        result = VectorizedSimulator(
            k, SawtoothSchedule(), StaticSchedule(),
            max_rounds=64 * k, seed=6,
        ).run()
        assert result.completed
        assert result.max_latency < 20 * k

    def test_agrees_with_object_engine_suniform(self):
        """Distributional agreement with the stateful SUniform protocol."""
        k, reps = 32, 10
        vec, obj = [], []
        for r in range(reps):
            vec_result = VectorizedSimulator(
                k, SawtoothSchedule(), StaticSchedule(),
                max_rounds=64 * k, seed=100 + r,
            ).run()
            obj_result = SlotSimulator(
                k, lambda: SUniform(), StaticSchedule(),
                max_rounds=64 * k, seed=900 + r,
            ).run()
            assert vec_result.completed and obj_result.completed
            vec.append(vec_result.max_latency)
            obj.append(obj_result.max_latency)
        assert np.mean(vec) == pytest.approx(np.mean(obj), rel=0.35)

    def test_transmissions_polylog(self):
        import math

        k = 256
        result = VectorizedSimulator(
            k, SawtoothSchedule(), StaticSchedule(),
            max_rounds=64 * k, seed=7,
        ).run()
        t = result.rounds_executed
        ceiling = 6 * math.log2(max(2, t)) ** 2
        assert max(r.transmissions for r in result.records) <= ceiling

    def test_out_of_range_sampler_rejected(self):
        for stations, rounds, field in (
            ([0], [0], "local_rounds"),  # round 0 is before the first
            ([0], [11], "local_rounds"),  # past max_local = 10
            ([1], [1], "stations"),  # k = 1: would alias the next rep
            ([-1], [1], "stations"),
            ([0, 0], [1], "shape"),  # unequal lengths
        ):

            class Broken(SawtoothSchedule):
                def sample_rounds(self, rng, k, max_local):
                    return (
                        np.array(stations, dtype=np.int64),
                        np.array(rounds, dtype=np.int64),
                    )

            with pytest.raises(ValueError, match=f"SawtoothSchedule.*{field}"):
                VectorizedSimulator(
                    1, Broken(), StaticSchedule(), max_rounds=10, seed=0
                ).run()

    def test_old_arity_override_fails_loudly(self):
        # A two-argument override from before the hook took ``k`` must not
        # silently fall back to Bernoulli thinning.
        class Stale(SawtoothSchedule):
            def sample_rounds(self, rng, max_local):
                return np.array([1], dtype=np.int64)

        with pytest.raises(TypeError):
            VectorizedSimulator(
                1, Stale(), StaticSchedule(), max_rounds=10, seed=0
            ).run()

    def test_golden_digest(self):
        # Pins the sawtooth streams per seed: 212 runs over k up to 1024,
        # static / uniform-random / batch wakes, first-success and
        # all-stations stop rules, ack and no-ack, three horizons, through
        # both execute_batch and execute.  The digest was recorded while
        # the sampler still drew one station per call and deduplicated
        # with np.unique; any drift in draw order, event assembly or
        # dedup changes it.
        wakes = (
            StaticSchedule(),
            UniformRandomSchedule(),
            BatchSchedule(batch=3, gap=5),
        )
        modes = (
            (True, StopCondition.ALL_SWITCHED_OFF),
            (True, StopCondition.FIRST_SUCCESS),
            (False, StopCondition.ALL_SUCCEEDED),
            (False, StopCondition.FIRST_SUCCESS),
        )
        payloads = []
        seed = 0
        for k in (1, 2, 3, 7, 64, 256, 1024):
            for wake in wakes:
                for ack, stop in modes:
                    if k == 1024 and (wake is wakes[2] or not ack):
                        continue
                    seed += 1
                    spec = RunSpec(
                        k=k,
                        protocol=SawtoothSchedule(),
                        adversary=wake,
                        stop=stop,
                        switch_off_on_ack=ack,
                        max_rounds=(
                            (4, 12, 5 * k)[seed % 3] if k < 64 else 3 * k
                        ),
                    )
                    seeds = [seed, seed + 1000] if k < 256 else [seed]
                    payloads.extend(
                        result_to_payload(r) for r in execute_batch(spec, seeds)
                    )
                    payloads.append(
                        result_to_payload(execute(spec.with_seed(seed + 2000)))
                    )
        assert len(payloads) == 212
        digest = hashlib.sha256(json.dumps(payloads).encode()).hexdigest()
        assert digest == (
            "c153fdfefbc2cac07a65f0653a4fc5d250d142b4bda549e00679e00bc42d86ac"
        )
