"""Batched-engine contract: byte identity, dispatch, harness chunking.

The batched kernel is the vectorised engine (a single run is a batch of
one), so its oracle is :func:`sequential_oracle`: the same per-repetition
draws resolved by a plain round-by-round sweep.  ``run_batch(spec,
seeds)`` must return ``RunResult``s *byte-identical* to the oracle's —
same wake draws, same transmission samples, same records, same metrics.
The Hypothesis suite below fuzzes that equality across the cross-engine
config space (stochastic and deterministic schedules, both vectorised
sampling paths, jamming, ack/no-ack, every stop condition), comparing the
checkpoint journal's canonical JSON serialisation so "byte-identical"
means exactly that.

The harness half pins the executor contract: ``--batch-size 1`` ==
``--batch-size 64`` == the pre-batching serial path, for any worker
count, with checkpoint resume folding per-(fingerprint, seed) entries
written by either path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel import batched
from repro.channel.batched import _map_points_to_rounds, run_batch
from repro.channel.results import RunResult, StopCondition
from repro.channel.vectorized import ScheduleTables, sample_station_events
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sawtooth_schedule import SawtoothSchedule
from repro.core.spec import RunSpec
from repro.core.station import StationRecord
from repro.engine.dispatch import (
    EngineSelectionError,
    execute,
    execute_batch,
    use_engine,
)
from repro.experiments.checkpoint import (
    CheckpointJournal,
    result_to_payload,
    use_checkpoint,
)
from repro.experiments.executor import (
    get_default_batch_size,
    resolve_batch_size,
    set_default_batch_size,
    use_batch_size,
)
from repro.experiments.harness import repeat_schedule_runs, run_grid, run_seed
from tests.test_engine_fuzz import MAX_WAKE, MIN_ROUNDS, DeterministicSchedule

MAX_ROUNDS = 120


def canonical(result) -> str:
    """Canonical byte string of a RunResult (the journal's serialisation)."""
    return json.dumps(result_to_payload(result), sort_keys=True)


def sequential_oracle(spec: RunSpec) -> RunResult:
    """One run resolved round by round, independently of the kernel.

    The draws are the kernel's (the same ``_rep_generators`` streams and
    ``sample_station_events`` sampler, on a table computed here rather
    than fetched from the cache, deduplicated here rather than by the
    kernel's post-sort mask); resolution is a plain sweep over the
    rounds that carry a transmission.  A round with one live attempt is
    a success unless jammed or faulted; under ack semantics the winner
    stops transmitting.  The sweep stops once the stop condition can be
    decided, except that ALL_SWITCHED_OFF without acks consumes every
    event, since stations keep transmitting until their horizon.
    """
    k, schedule, max_rounds = spec.k, spec.schedule, spec.resolve_horizon()
    ack, stop = spec.switch_off_on_ack, spec.stop
    adversary_rng, station_rng = batched._rep_generators(spec.seed)
    wake = np.asarray(spec.adversary.wake_rounds(k, adversary_rng), dtype=np.int64)
    horizon = schedule.horizon()
    max_local = int(max_rounds - wake.min())
    if horizon is not None:
        max_local = min(max_local, horizon)
    max_local = max(max_local, 1)
    stations, local = sample_station_events(
        station_rng, schedule, k,
        ScheduleTables(schedule.probabilities(max_local)), max_local,
    )
    # The sampler may repeat a (station, round) sample; the kernel drops
    # repeats with its post-sort mask, the oracle with its own unique.
    key = np.unique(stations * (max_local + 1) + local)
    stations, local = key // (max_local + 1), key % (max_local + 1)
    rounds = local + wake[stations]
    order = np.argsort(rounds, kind="stable")
    stations, rounds = stations[order], rounds[order]
    keep = rounds <= max_rounds
    stations, rounds = stations[keep].tolist(), rounds[keep].tolist()
    dead = set(spec.jam_rounds or ())
    if spec.faults is not None:
        dead |= spec.faults.plan(spec.seed, max_rounds).fault_set

    first_success = [None] * k
    alive = [True] * k
    attempts = [0] * k
    successes = 0
    completed = False
    rounds_executed = max_rounds
    early_stop = stop is not StopCondition.ALL_SWITCHED_OFF or ack
    need = 1 if stop is StopCondition.FIRST_SUCCESS else k
    i = 0
    while i < len(rounds) and not completed:
        t = rounds[i]
        live = []
        while i < len(rounds) and rounds[i] == t:
            if alive[stations[i]]:
                live.append(stations[i])
                attempts[stations[i]] += 1
            i += 1
        if len(live) == 1 and t not in dead:
            winner = live[0]
            if first_success[winner] is None:
                first_success[winner] = t
                successes += 1
            alive[winner] = not ack
            if early_stop and successes >= need:
                completed, rounds_executed = True, t

    def switch_off(i: int, until: int):
        if ack and first_success[i] is not None:
            return first_success[i]
        if horizon is None:
            return None
        off = int(wake[i]) + horizon + 1
        return off if off <= until else None

    if not completed and stop is StopCondition.ALL_SWITCHED_OFF:
        offs = [switch_off(i, max_rounds) for i in range(k)]
        if None not in offs:
            completed, rounds_executed = True, max(offs)
    records = [
        StationRecord(
            i, int(wake[i]), first_success[i],
            switch_off(i, rounds_executed), attempts[i],
        )
        for i in range(k)
    ]
    return RunResult(
        records, rounds_executed, completed, stop, None, spec.seed,
        schedule.name, spec.adversary.name,
    )


def assert_byte_identical(spec: RunSpec, seeds: list[int]) -> None:
    batch = run_batch(spec, seeds=seeds)
    sequential = [sequential_oracle(spec.with_seed(s)) for s in seeds]
    assert [canonical(b) for b in batch] == [canonical(s) for s in sequential]


@st.composite
def batch_configs(c):
    k = c(st.integers(1, 12))
    kind = c(st.sampled_from(("with_k", "sawtooth", "det", "det_direct")))
    if kind == "with_k":
        schedule = NonAdaptiveWithK(k, c(st.integers(2, 8)))
    elif kind == "sawtooth":
        schedule = SawtoothSchedule()
    else:
        pattern = c(st.lists(st.booleans(), min_size=1, max_size=MAX_WAKE))
        schedule = DeterministicSchedule(pattern, direct=(kind == "det_direct"))
    if c(st.booleans()):
        adversary = FixedSchedule(
            c(st.lists(st.integers(0, MAX_WAKE), min_size=k, max_size=k))
        )
    else:
        adversary = UniformRandomSchedule()
    ack = c(st.booleans())
    stop = c(st.sampled_from(sorted(StopCondition, key=lambda s: s.value)))
    max_rounds = c(st.integers(MIN_ROUNDS, MAX_ROUNDS))
    jam = None
    if c(st.booleans()):
        jam = frozenset(c(st.sets(st.integers(1, MAX_ROUNDS), min_size=1, max_size=30)))
    base_seed = c(st.integers(0, 2**48))
    n_reps = c(st.integers(1, 6))
    return (
        RunSpec(
            k=k,
            protocol=schedule,
            adversary=adversary,
            switch_off_on_ack=ack,
            stop=stop,
            max_rounds=max_rounds,
            jam_rounds=jam,
        ),
        [base_seed + r for r in range(n_reps)],
    )


@settings(max_examples=120, deadline=None)
@given(batch_configs())
def test_batched_byte_identical_to_sequential(config):
    """The exactness contract, fuzzed: run_batch == R sequential-oracle runs,
    compared through the canonical JSON serialisation (true byte identity),
    across schedules, both sampling paths, adversaries, jamming, ack/no-ack
    and every stop condition."""
    spec, seeds = config
    assert_byte_identical(spec, seeds)


class DoubledSawtooth(SawtoothSchedule):
    """The sawtooth's draws, every event emitted twice and out of order."""

    def sample_rounds(self, rng, k, max_local):
        stations, rounds = super().sample_rounds(rng, k, max_local)
        return (
            np.concatenate([stations[::-1], stations]),
            np.concatenate([rounds[::-1], rounds]),
        )


@pytest.mark.parametrize("k", [1, 5, 64])
@pytest.mark.parametrize(
    "ack, stop",
    [
        (True, StopCondition.ALL_SWITCHED_OFF),
        (False, StopCondition.ALL_SUCCEEDED),
        (True, StopCondition.FIRST_SUCCESS),
    ],
)
def test_duplicate_direct_events_are_dropped_by_the_kernel(k, ack, stop):
    """The kernel's post-sort mask is the only dedup: a direct sampler that
    repeats every event, in any order, gives the bytes of its twin."""
    spec = RunSpec(
        k=k,
        protocol=SawtoothSchedule(),
        adversary=UniformRandomSchedule(),
        switch_off_on_ack=ack,
        stop=stop,
        max_rounds=8 * k + 20,
        jam_rounds=(3, 7, 11),
    )
    seeds = list(range(40, 46))
    doubled = run_batch(spec.replace(protocol=DoubledSawtooth()), seeds=seeds)
    assert [canonical(r) for r in doubled] == [
        canonical(r) for r in run_batch(spec, seeds=seeds)
    ]


def test_batched_matches_seed_stride_layout():
    """run_batch(spec, n_reps=R) derives seeds spec.seed + r — the harness's
    SEED_STRIDE repetition layout — and matches the explicit-seeds call."""
    spec = RunSpec(
        k=8,
        protocol=NonAdaptiveWithK(8, 6),
        adversary=UniformRandomSchedule(),
        seed=4242,
        max_rounds=200,
    )
    implicit = run_batch(spec, n_reps=5)
    explicit = run_batch(spec, seeds=[4242 + r for r in range(5)])
    assert [canonical(a) for a in implicit] == [canonical(b) for b in explicit]
    assert [r.seed for r in implicit] == [4242 + r for r in range(5)]


class TestDeepAckChains:
    """Long ack-switch-off chains: ``SublinearDecrease`` at k=256 needs
    well over a dozen fixpoint passes, each new win exposing singletons
    that only the next pass can see.  Byte identity with the sequential
    engine is checked at every round-window size, and the pass counts are
    pinned: the delta-counted fixpoint must take exactly the iterates of
    a full per-pass re-count (the counter includes the final no-change
    pass)."""

    K = 256
    SEEDS = list(range(1000, 1016))
    #: (variant, tile_rounds) -> batched.fixpoint_passes for SEEDS.
    PINNED_PASSES = {
        ("plain", None): 26, ("plain", 37): 547, ("plain", 500): 77,
        ("jammed", None): 16, ("jammed", 37): 541, ("jammed", 500): 66,
        ("faulted", None): 19, ("faulted", 37): 541, ("faulted", 500): 73,
    }

    def spec(self, variant: str) -> RunSpec:
        from repro.core.protocols import SublinearDecrease
        from repro.faults import fault_model

        k = self.K
        spec = RunSpec(
            k, SublinearDecrease(4), UniformRandomSchedule(2 * k),
            max_rounds=30 * k,
        )
        if variant == "jammed":
            return spec.replace(jam_rounds=tuple(range(5, 30 * k + 1, 5)))
        if variant == "faulted":
            return spec.replace(faults=fault_model(noise=0.05, ack_loss=0.05))
        return spec

    @pytest.mark.parametrize("variant", ["plain", "jammed", "faulted"])
    def test_byte_identical_and_pinned_passes_at_every_window(self, variant):
        from repro.telemetry import registry as telemetry

        spec = self.spec(variant)
        sequential = [
            canonical(sequential_oracle(spec.with_seed(s))) for s in self.SEEDS
        ]
        telemetry.enable()
        try:
            for tile_rounds in (None, 37, 500):
                before = telemetry.snapshot()["counters"].get(
                    "batched.fixpoint_passes", 0
                )
                batch = run_batch(spec, seeds=self.SEEDS, tile_rounds=tile_rounds)
                passes = (
                    telemetry.snapshot()["counters"]["batched.fixpoint_passes"]
                    - before
                )
                assert [canonical(b) for b in batch] == sequential, tile_rounds
                assert passes == self.PINNED_PASSES[variant, tile_rounds]
        finally:
            telemetry.disable()
            telemetry.reset()


def test_run_batch_argument_errors():
    spec = RunSpec(
        k=4, protocol=NonAdaptiveWithK(4, 6), adversary=UniformRandomSchedule()
    )
    with pytest.raises(ValueError, match="n_reps or an explicit seed list"):
        run_batch(spec)
    with pytest.raises(ValueError, match="set spec.seed"):
        run_batch(spec, n_reps=3)
    with pytest.raises(ValueError, match="disagrees"):
        run_batch(spec, n_reps=3, seeds=[1, 2])


class TestGridPointMapping:
    """The grid-accelerated point->round mapping is *exactly* binary search.

    ``_map_points_to_rounds`` replaces ``np.searchsorted(cum, flat,
    "right")`` on large batches; any disagreement — including on exact
    bucket/round boundaries and float-rounding overshoot — would silently
    break byte identity, so equality is asserted element-wise against the
    binary search on adversarial inputs.
    """

    def test_grid_path_matches_binary_search_exactly(self):
        rng = np.random.default_rng(1234)
        n = 8192
        weights = rng.uniform(0.0, 1.0, size=n)
        weights[rng.uniform(size=n) < 0.3] = 0.0  # zero-hazard rounds
        full_cum = np.cumsum(weights)
        total = float(full_cum[-1])
        flat = np.concatenate(
            [
                rng.uniform(0.0, total, size=70_000),  # past the grid gate
                full_cum[rng.integers(0, n, size=5_000)],  # exact boundaries
                [0.0, float(np.nextafter(total, 0.0))],
            ]
        )
        got = _map_points_to_rounds(full_cum, flat)
        ref = np.searchsorted(full_cum, flat, side="right")
        assert got.dtype.kind in "iu"
        assert (got == ref).all()

    def test_small_batches_fall_back_to_binary_search(self):
        rng = np.random.default_rng(5)
        full_cum = np.cumsum(rng.uniform(size=256))
        flat = rng.uniform(0.0, float(full_cum[-1]), size=100)
        got = _map_points_to_rounds(full_cum, flat)
        assert (got == np.searchsorted(full_cum, flat, side="right")).all()

    def test_concentrated_hazard_mass_falls_back(self):
        # Nearly all cumulative mass lands inside one grid bucket, so the
        # bucket span blows past the walk cap and the fallback must fire
        # (and still be exact).
        n = 2048
        weights = np.full(n, 1e-12)
        weights[0] = 1.0
        full_cum = np.cumsum(weights)
        rng = np.random.default_rng(6)
        flat = rng.uniform(0.0, float(full_cum[-1]), size=70_000)
        got = _map_points_to_rounds(full_cum, flat)
        assert (got == np.searchsorted(full_cum, flat, side="right")).all()

    def test_large_batches_route_through_the_grid_and_stay_identical(
        self, monkeypatch
    ):
        """A batch big enough to cross the grid gate (>= 65536 points) still
        matches the sequential engine byte for byte."""
        seen = {"max": 0}
        real = _map_points_to_rounds

        def spy(full_cum, flat):
            seen["max"] = max(seen["max"], int(flat.size))
            return real(full_cum, flat)

        monkeypatch.setattr(batched, "_map_points_to_rounds", spy)
        spec = RunSpec(
            k=64,
            protocol=NonAdaptiveWithK(64, 6),
            adversary=UniformRandomSchedule(),
            stop=StopCondition.ALL_SUCCEEDED,
            max_rounds=1500,
        )
        assert_byte_identical(spec, list(range(77, 77 + 60)))
        assert seen["max"] >= 65536, "batch never reached the grid path"


def test_wide_keys_use_int64_and_stay_identical():
    """A wake offset past 2**30 pushes the composite key width over 31
    bits, forcing the int64 key path; identity must hold there too."""
    spec = RunSpec(
        k=8,
        protocol=NonAdaptiveWithK(8, 6),
        adversary=FixedSchedule([2**30] + [0] * 7),
        stop=StopCondition.ALL_SUCCEEDED,
        max_rounds=200,
    )
    assert_byte_identical(spec, [3, 4, 5, 6])


def test_run_batch_rejects_non_batchable_specs():
    from repro.baselines.backoff import BinaryExponentialBackoff
    from tests.conftest import make_factory

    factory = make_factory(BinaryExponentialBackoff)
    spec = RunSpec(k=4, protocol=factory, adversary=UniformRandomSchedule())
    with pytest.raises(TypeError):
        run_batch(spec, seeds=[1, 2])


class TestCheckBatchableMessages:
    """Every admissibility error names the spec field that tripped, so a
    driver that bypassed dispatch sees exactly which capability to change."""

    def spec(self, **kw) -> RunSpec:
        base = dict(
            k=4,
            protocol=NonAdaptiveWithK(4, 4),
            adversary=UniformRandomSchedule(),
            max_rounds=100,
        )
        base.update(kw)
        return RunSpec(**base)

    def test_factory_protocol_names_the_protocol(self):
        from repro.baselines.backoff import BinaryExponentialBackoff
        from tests.conftest import make_factory

        spec = self.spec(protocol=make_factory(BinaryExponentialBackoff))
        with pytest.raises(
            TypeError, match=r"spec\.protocol is a factory.*BinaryExponentialBackoff"
        ):
            run_batch(spec, seeds=[1])

    def test_adaptive_adversary_names_its_type(self):
        from repro.adversary.adaptive import WakeOnSuccessAdversary

        spec = self.spec(
            adversary=WakeOnSuccessAdversary(seed_group=2, refill=2)
        )
        with pytest.raises(
            TypeError, match=r"spec\.adversary is WakeOnSuccessAdversary"
        ):
            run_batch(spec, seeds=[1])

    def test_jammer_object_points_at_jam_rounds(self):
        from repro.channel.jamming import RandomJammer

        spec = self.spec(jammer=RandomJammer(0.1))
        with pytest.raises(
            ValueError, match=r"spec\.jammer is RandomJammer.*jam_rounds"
        ):
            run_batch(spec, seeds=[1])

    def test_trace_message_names_record_trace(self):
        spec = self.spec(record_trace=True)
        with pytest.raises(ValueError, match=r"spec\.record_trace is True"):
            run_batch(spec, seeds=[1])

    def test_feedback_message_names_the_model(self):
        from repro.channel.feedback import FeedbackModel

        spec = self.spec(feedback=FeedbackModel.COLLISION_DETECTION)
        with pytest.raises(
            ValueError, match=r"spec\.feedback is 'collision_detection'"
        ):
            run_batch(spec, seeds=[1])


class TestExecuteBatchDispatch:
    def spec(self, **kw) -> RunSpec:
        base = dict(
            k=6,
            protocol=NonAdaptiveWithK(6, 6),
            adversary=UniformRandomSchedule(),
            max_rounds=150,
        )
        base.update(kw)
        return RunSpec(**base)

    def test_auto_routes_admissible_specs_to_the_kernel(self):
        spec = self.spec()
        seeds = [11, 12, 13]
        batch = execute_batch(spec, seeds)
        expected = [sequential_oracle(spec.with_seed(s)) for s in seeds]
        assert [canonical(b) for b in batch] == [canonical(e) for e in expected]

    def test_object_engine_falls_back_per_run(self):
        spec = self.spec()
        seeds = [21, 22]
        per_run = execute_batch(spec, seeds, engine="object")
        expected = [execute(spec.with_seed(s), engine="object") for s in seeds]
        assert [canonical(p) for p in per_run] == [canonical(e) for e in expected]

    def test_inadmissible_spec_falls_back_transparently_under_auto(self):
        from repro.baselines.backoff import BinaryExponentialBackoff
        from tests.conftest import make_factory

        spec = self.spec(protocol=make_factory(BinaryExponentialBackoff))
        seeds = [31, 32]
        fallback = execute_batch(spec, seeds)
        expected = [execute(spec.with_seed(s), engine="object") for s in seeds]
        assert [canonical(f) for f in fallback] == [canonical(e) for e in expected]

    def test_fifo_traffic_falls_back_per_run(self):
        from repro.adversary.oblivious import PoissonArrivals

        # Only free-discipline traffic reduces to the classic model; a
        # fifo spec must fall back to per-run execution, not fail while
        # the fused path reduces it.
        spec = RunSpec(
            k=4,
            protocol=NonAdaptiveWithK(4, 6),
            arrivals=PoissonArrivals(0.05),
            queue_discipline="fifo",
            max_rounds=300,
        )
        seeds = [61, 62, 63]
        fallback = execute_batch(spec, seeds)
        expected = [execute(spec.with_seed(s)) for s in seeds]
        assert [canonical(f) for f in fallback] == [canonical(e) for e in expected]
        for engine in ("vectorized", "compiled"):
            with pytest.raises(EngineSelectionError, match="fifo"):
                execute_batch(spec, seeds, engine=engine)

    def test_scheduled_jammer_falls_back_and_agrees_with_object_engine(self):
        from repro.channel.jamming import ScheduledJammer
        from repro.telemetry import registry as telemetry

        # A stateful jammer object is outside the batched kernel's
        # admissibility (unlike the oblivious jam_rounds form), so auto
        # dispatch must fall back to per-run object execution — and the
        # fallback must agree with running the object engine directly.
        jam = ScheduledJammer(range(1, 60, 3))
        spec = self.spec(jammer=jam)
        seeds = [51, 52, 53]
        telemetry.enable()
        try:
            before = telemetry.snapshot()["counters"].get(
                "engine.batch_fallback_runs", 0
            )
            fallback = execute_batch(spec, seeds)
            counters = telemetry.snapshot()["counters"]
            assert counters.get("engine.batch_fallback_runs", 0) - before == len(
                seeds
            )
        finally:
            telemetry.disable()
            telemetry.reset()
        expected = [execute(spec.with_seed(s), engine="object") for s in seeds]
        assert [canonical(f) for f in fallback] == [canonical(e) for e in expected]
        # The jam schedule bites: some station's progress differs from the
        # unjammed configuration, so the agreement above is non-vacuous.
        clean = execute_batch(self.spec(), seeds)
        assert [canonical(f) for f in fallback] != [canonical(c) for c in clean]

    def test_forced_vectorized_raises_on_inadmissible_spec(self):
        from repro.baselines.backoff import BinaryExponentialBackoff
        from tests.conftest import make_factory

        spec = self.spec(protocol=make_factory(BinaryExponentialBackoff))
        with pytest.raises(EngineSelectionError):
            execute_batch(spec, [1], engine="vectorized")

    def test_honours_the_process_default_engine(self):
        spec = self.spec()
        with use_engine("object"):
            per_run = execute_batch(spec, [41])
        expected = execute(spec.with_seed(41), engine="object")
        assert canonical(per_run[0]) == canonical(expected)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            execute_batch(self.spec(), [1], engine="warp")


def sample_rows(sample) -> str:
    row = dict(sample.row())
    return json.dumps(row, sort_keys=True, default=str)


class TestHarnessBatching:
    """--batch-size 1 == --batch-size 64 == the pre-batching serial path."""

    KW = dict(reps=17, seed=991)

    def run_once(self, **kw):
        merged = dict(self.KW, **kw)
        return repeat_schedule_runs(
            12, lambda k: NonAdaptiveWithK(k, 6), UniformRandomSchedule(), **merged
        )

    def test_batch_sizes_agree_with_serial_path(self):
        serial = self.run_once(batch_size=1)  # exactly the one-task-per-run path
        batched = self.run_once(batch_size=64)
        ragged = self.run_once(batch_size=5)  # reps % batch_size != 0
        assert sample_rows(serial) == sample_rows(batched) == sample_rows(ragged)

    def test_batching_is_worker_count_invariant(self):
        serial = self.run_once(batch_size=64, jobs=1)
        forked = self.run_once(batch_size=4, jobs=3)
        assert sample_rows(serial) == sample_rows(forked)

    def test_process_default_batch_size_applies(self):
        explicit = self.run_once(batch_size=3)
        with use_batch_size(3):
            defaulted = self.run_once()
        assert sample_rows(explicit) == sample_rows(defaulted)

    def test_sweep_chunks_never_span_configurations(self):
        cells = [
            (RunSpec(k, NonAdaptiveWithK(k, 6), UniformRandomSchedule()),
             [run_seed(313, i, r) for r in range(7)])
            for i, k in enumerate((4, 8, 16))
        ]
        swept = run_grid(cells, batch_size=64)
        per_run = run_grid(cells, batch_size=1)
        assert [[canonical(r) for r in results] for results in swept] == [
            [canonical(r) for r in results] for results in per_run
        ]

    def test_resume_folds_batched_journal_entries(self, tmp_path):
        """Journal entries stay per-(fingerprint, seed) under batching: a
        run journaled by a batch-64 pass is folded by a batch-5 resume."""
        journal = CheckpointJournal.for_experiment(tmp_path, "batched")
        journal.load()
        with use_checkpoint(journal):
            first = self.run_once(batch_size=64)
        assert journal.records_written == self.KW["reps"]

        resumed_journal = CheckpointJournal.for_experiment(tmp_path, "batched")
        resumed_journal.load()
        with use_checkpoint(resumed_journal):
            resumed = self.run_once(batch_size=5)
        assert resumed_journal.hits == self.KW["reps"]
        first_row = first.row()
        resumed_row = resumed.row()
        for row in (first_row, resumed_row):
            for key in list(row):
                if "seconds" in str(key):
                    row.pop(key)
        assert json.dumps(first_row, sort_keys=True, default=str) == json.dumps(
            resumed_row, sort_keys=True, default=str
        )


class TestBatchSizeDefaults:
    def test_default_is_64(self):
        assert get_default_batch_size() == 64

    def test_resolve_and_set_roundtrip(self):
        assert resolve_batch_size(None) == get_default_batch_size()
        assert resolve_batch_size(7) == 7
        previous = get_default_batch_size()
        try:
            set_default_batch_size(8)
            assert get_default_batch_size() == 8
            assert resolve_batch_size(None) == 8
        finally:
            set_default_batch_size(previous)

    def test_use_batch_size_scopes_and_restores(self):
        previous = get_default_batch_size()
        with use_batch_size(2):
            assert get_default_batch_size() == 2
            with use_batch_size(None):  # None = leave alone (CLI default)
                assert get_default_batch_size() == 2
        assert get_default_batch_size() == previous

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            resolve_batch_size(0)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            set_default_batch_size(-3)
