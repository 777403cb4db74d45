"""Tests for the fault-injection subsystem (``repro.faults``).

Covers the model/validation layer, the deterministic fault-plan RNG
contract, fingerprint integration, dispatch admissibility, object-engine
semantics (noise, ack loss, energy budgets), cross-engine byte identity
of the ISSUE acceptance spec under batch-size / jobs / tiling / resume
variation, the process-default fault plumbing, and the ``fault.*``
telemetry counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import FixedArrivals, UniformRandomSchedule
from repro.channel.events import RoundOutcome
from repro.channel.results import StopCondition
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine.dispatch import (
    _FAULT_COMPILED_REASON,
    _FAULT_ENERGY_REASON,
    EngineSelectionError,
    compiled_inadmissibility,
    execute,
    execute_batch,
    select_engine,
    vectorized_inadmissibility,
)
from repro.engine.plan import use_tiling
from repro.experiments.checkpoint import CheckpointJournal, use_checkpoint
from repro.experiments.executor import use_batch_size, use_jobs
from repro.experiments.harness import _apply_default_faults, repeat_spec_runs
from repro.faults import (
    AckLoss,
    EnergyBudget,
    FaultModel,
    SlotNoise,
    current_faults,
    fault_model,
    set_default_faults,
    use_faults,
)
from repro.telemetry import registry as telemetry
from repro.telemetry.export import metric_name
from tests.test_engine_fuzz import DeterministicSchedule, record_keys


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def result_fingerprint(result):
    return (
        result.completed,
        result.rounds_executed,
        result.success_count,
        result.total_transmissions,
        record_keys(result, result.rounds_executed),
    )


def acceptance_spec(seed: int = 20260808) -> RunSpec:
    """The ISSUE acceptance configuration: noise=0.05, ack_loss=0.02 on a
    deterministic schedule with a fixed seed."""
    pattern = [True, False, True, True, False, True, True, True, False, True]
    return RunSpec(
        k=12,
        protocol=DeterministicSchedule(pattern),
        adversary=FixedSchedule([0, 1, 3, 3, 6, 8, 11, 13, 17, 19, 22, 24]),
        stop=StopCondition.ALL_SWITCHED_OFF,
        max_rounds=120,
        faults=FaultModel(noise=SlotNoise(0.05), ack_loss=AckLoss(0.02)),
        seed=seed,
    )


# ------------------------------------------------------------- model layer


class TestModelValidation:
    def test_probability_bounds(self):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                SlotNoise(bad)
            with pytest.raises(ValueError):
                AckLoss(bad)
        assert SlotNoise(0.0).p == 0.0
        assert AckLoss(1).p == 1.0

    def test_energy_budget_positive_int(self):
        with pytest.raises(ValueError):
            EnergyBudget(0)
        with pytest.raises(ValueError):
            EnergyBudget(-3)
        with pytest.raises(TypeError):
            EnergyBudget(2.5)
        assert EnergyBudget(4).charges == 4

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            FaultModel()

    def test_component_types_checked(self):
        with pytest.raises(TypeError):
            FaultModel(noise=0.1)
        with pytest.raises(TypeError):
            FaultModel(ack_loss=0.1)
        with pytest.raises(TypeError):
            FaultModel(energy_budget=8)

    def test_builder_returns_none_when_empty(self):
        assert fault_model() is None
        model = fault_model(noise=0.1, energy_budget=8)
        assert model.noise.p == 0.1
        assert model.ack_loss is None
        assert model.energy_budget.charges == 8

    def test_token_shape(self):
        model = FaultModel(noise=SlotNoise(0.1), ack_loss=AckLoss(0.05))
        assert model.token() == ("faults", 0.1, 0.05, None)
        assert FaultModel(energy_budget=EnergyBudget(3)).token() == (
            "faults", None, None, 3
        )

    def test_spec_rejects_non_model(self):
        with pytest.raises(TypeError):
            RunSpec(
                k=2,
                protocol=DeterministicSchedule([True]),
                adversary=FixedSchedule([0, 1]),
                faults="noise",
            )

    def test_fifo_traffic_accepts_faults(self):
        # FIFO traffic runs on the shared object round loop, so it takes
        # every fault component; the energy budget is per packet (each
        # head-of-line packet is a fresh contender).
        spec = RunSpec(
            k=2,
            protocol=DeterministicSchedule([True] * 8),
            arrivals=FixedArrivals([0, 0, 0, 0], origins=[0, 0, 1, 1]),
            queue_discipline="fifo",
            max_rounds=50,
            seed=3,
            faults=FaultModel(energy_budget=EnergyBudget(2)),
        )
        assert select_engine(spec) == "object"
        records = execute(spec).records
        # The two heads collide until both are exhausted at round 2; the
        # next heads, promoted that round, collide at 3-4 and die at 4.
        assert [r.switch_off_round for r in records] == [2, 4, 2, 4]
        assert [r.transmissions for r in records] == [2, 2, 2, 2]
        assert all(r.first_success_round is None for r in records)


# -------------------------------------------------------------- fault plan


class TestFaultPlan:
    def test_plan_is_deterministic_per_seed_and_horizon(self):
        model = FaultModel(noise=SlotNoise(0.3), ack_loss=AckLoss(0.2))
        a = model.plan(7, 500)
        b = model.plan(7, 500)
        np.testing.assert_array_equal(a.noise_rounds, b.noise_rounds)
        np.testing.assert_array_equal(a.ack_rounds, b.ack_rounds)
        np.testing.assert_array_equal(a.fault_rounds, b.fault_rounds)
        assert a.noise_set == b.noise_set
        assert a.ack_set == b.ack_set

    def test_plan_differs_across_seeds(self):
        model = FaultModel(noise=SlotNoise(0.5))
        a = model.plan(1, 400)
        b = model.plan(2, 400)
        assert not np.array_equal(a.noise_rounds, b.noise_rounds)

    def test_adding_ack_component_never_shifts_noise_stream(self):
        """The noise stream is drawn first, so composing in ack loss must
        leave the corrupted-round set untouched (stream decoupling)."""
        noise_only = FaultModel(noise=SlotNoise(0.3)).plan(11, 300)
        composed = FaultModel(
            noise=SlotNoise(0.3), ack_loss=AckLoss(0.4)
        ).plan(11, 300)
        np.testing.assert_array_equal(
            noise_only.noise_rounds, composed.noise_rounds
        )

    def test_rounds_are_one_based_and_bounded(self):
        plan = FaultModel(
            noise=SlotNoise(1.0), ack_loss=AckLoss(1.0)
        ).plan(3, 40)
        assert plan.noise_rounds.min() == 1
        assert plan.noise_rounds.max() == 40
        assert plan.noise_rounds.size == 40
        # noise wins on shared rounds: the union is just every round.
        assert plan.fault_rounds.size == 40

    def test_none_seed_uses_entropy(self):
        plan = FaultModel(noise=SlotNoise(0.5)).plan(None, 100)
        assert plan.noise_rounds.size <= 100

    def test_zero_probability_component_still_draws(self):
        """A p=0 component consumes its stream slot, so p=0 and absent
        compose identically for the *other* component."""
        with_zero = FaultModel(
            noise=SlotNoise(0.0), ack_loss=AckLoss(0.3)
        ).plan(5, 200)
        without = FaultModel(
            noise=SlotNoise(0.4), ack_loss=AckLoss(0.3)
        ).plan(5, 200)
        assert with_zero.noise_rounds.size == 0
        np.testing.assert_array_equal(with_zero.ack_rounds, without.ack_rounds)


# ------------------------------------------------------------ fingerprints


class TestFingerprints:
    def test_faulted_spec_fingerprints_differently(self):
        clean = acceptance_spec().replace(faults=None)
        faulted = acceptance_spec()
        assert clean.fingerprint() != faulted.fingerprint()

    def test_fault_rates_distinguish_fingerprints(self):
        a = acceptance_spec().replace(faults=FaultModel(noise=SlotNoise(0.1)))
        b = acceptance_spec().replace(faults=FaultModel(noise=SlotNoise(0.2)))
        assert a.fingerprint() != b.fingerprint()

    def test_equal_models_share_fingerprints(self):
        a = acceptance_spec()
        b = acceptance_spec().replace(
            faults=FaultModel(noise=SlotNoise(0.05), ack_loss=AckLoss(0.02))
        )
        assert a.fingerprint() == b.fingerprint()


# -------------------------------------------------------------- dispatch


class TestDispatch:
    def test_oblivious_faults_run_everywhere_but_compiled(self):
        spec = acceptance_spec()
        assert vectorized_inadmissibility(spec) is None
        assert compiled_inadmissibility(spec) == _FAULT_COMPILED_REASON
        with pytest.raises(EngineSelectionError):
            execute(spec, "compiled")

    def test_energy_budget_forces_object_engine(self):
        spec = acceptance_spec().replace(
            faults=FaultModel(energy_budget=EnergyBudget(5))
        )
        assert vectorized_inadmissibility(spec) == _FAULT_ENERGY_REASON
        with pytest.raises(EngineSelectionError):
            execute(spec, "vectorized")
        result = execute(spec)
        assert all(
            r.transmissions + r.listening_slots <= 5 for r in result.records
        )

    def test_fault_selection_counters(self):
        telemetry.enable()
        execute(acceptance_spec(), "vectorized")
        execute(
            acceptance_spec().replace(
                faults=FaultModel(energy_budget=EnergyBudget(5))
            )
        )
        counters = telemetry.snapshot()["counters"]
        assert counters["engine.select.vectorized.fault"] == 1
        assert counters["engine.select.object.fault"] == 1


# ------------------------------------------------- object-engine semantics


class TestObjectSemantics:
    def run_traced(self, faults, *, k=4, ack=True, wakes=None):
        spec = RunSpec(
            k=k,
            protocol=DeterministicSchedule([True, False, True, True]),
            adversary=FixedSchedule(
                list(range(0, 3 * k, 3)) if wakes is None else wakes
            ),
            switch_off_on_ack=ack,
            stop=StopCondition.ALL_SWITCHED_OFF,
            max_rounds=60,
            record_trace=True,
            faults=faults,
            seed=99,
        )
        return execute(spec, "object")

    def test_total_noise_corrupts_every_success(self):
        result = self.run_traced(FaultModel(noise=SlotNoise(1.0)))
        assert result.success_count == 0
        assert all(e.outcome is not RoundOutcome.SUCCESS for e in result.trace)
        corrupted = [e for e in result.trace if e.corrupted]
        assert corrupted
        assert all(
            e.outcome is RoundOutcome.COLLISION and e.transmitter_count == 1
            for e in corrupted
        )

    def test_total_ack_loss_keeps_payload_on_air(self):
        """Ack loss leaves the SUCCESS on the channel (the event records a
        winner) but the sender never hears it: nobody's first_success is
        set and ack-driven switch-off never fires."""
        result = self.run_traced(FaultModel(ack_loss=AckLoss(1.0)))
        assert result.success_count == 0
        successes = [
            e for e in result.trace if e.outcome is RoundOutcome.SUCCESS
        ]
        assert successes
        assert all(e.winner is not None for e in successes)
        # Stations retire on schedule exhaustion, not on the (lost) ack.
        horizon = 4
        for record in result.records:
            assert record.first_success_round is None
            assert record.switch_off_round == record.wake_round + horizon + 1

    def test_noise_beats_ack_loss_on_shared_rounds(self):
        telemetry.enable()
        result = self.run_traced(
            FaultModel(noise=SlotNoise(1.0), ack_loss=AckLoss(1.0))
        )
        counters = telemetry.snapshot()["counters"]
        assert result.success_count == 0
        assert counters["fault.slots_corrupted"] > 0
        assert counters.get("fault.acks_dropped", 0) == 0

    def test_energy_budget_exhausts_stations(self):
        telemetry.enable()
        # Simultaneous wakes: the stations collide, never get acked, and
        # burn through their single charge before the schedule retires them.
        result = self.run_traced(
            FaultModel(energy_budget=EnergyBudget(1)), k=6, wakes=[0] * 6
        )
        assert all(
            r.transmissions + r.listening_slots <= 1 for r in result.records
        )
        counters = telemetry.snapshot()["counters"]
        assert counters["fault.stations_exhausted"] > 0
        # An exhausted station is switched off, so the run still completes.
        assert result.completed


# ----------------------------------------------- cross-engine byte identity


class TestAcceptanceByteIdentity:
    def test_engines_agree_on_acceptance_spec(self):
        spec = acceptance_spec()
        obj = execute(spec, "object")
        vec = execute(spec, "vectorized")
        (fused,) = execute_batch(spec, seeds=[spec.seed])
        assert result_fingerprint(obj) == result_fingerprint(vec)
        assert result_fingerprint(obj) == result_fingerprint(fused)

    def test_batch_size_and_tiling_invariance(self):
        spec = acceptance_spec()
        reps, seed = 6, 40
        baseline = None
        for batch_size, tiling in (
            (1, {}),
            (64, {}),
            (3, {}),
            (64, {"tile_reps": 2}),
            (64, {"tile_rounds": 16}),
        ):
            with use_batch_size(batch_size), use_tiling(**tiling):
                results = repeat_spec_runs(spec, reps=reps, seed=seed)
            prints = [result_fingerprint(r) for r in results]
            if baseline is None:
                baseline = prints
            assert prints == baseline

    def test_jobs_invariance(self):
        spec = RunSpec(
            k=8,
            protocol=NonAdaptiveWithK(8, 6),
            adversary=UniformRandomSchedule(span=lambda kk: 2 * kk),
            max_rounds=400,
            faults=FaultModel(noise=SlotNoise(0.1), ack_loss=AckLoss(0.05)),
            seed=7,
        )
        serial = repeat_spec_runs(spec, reps=4, seed=11)
        with use_jobs(2):
            parallel = repeat_spec_runs(spec, reps=4, seed=11)
        assert [result_fingerprint(r) for r in serial] == [
            result_fingerprint(r) for r in parallel
        ]

    def test_resume_reproduces_interrupted_run(self, tmp_path):
        """A journaled partial pass (the mid-run-kill stand-in) resumed to
        completion matches an uninterrupted pass byte for byte."""
        spec = acceptance_spec()
        reps, seed = 5, 60
        fresh = repeat_spec_runs(spec, reps=reps, seed=seed)

        journal = CheckpointJournal.for_experiment(tmp_path, "faults")
        journal.load()
        with use_checkpoint(journal):
            repeat_spec_runs(spec, reps=2, seed=seed)
        assert journal.records_written == 2

        resumed_journal = CheckpointJournal.for_experiment(tmp_path, "faults")
        resumed_journal.load()
        with use_checkpoint(resumed_journal):
            resumed = repeat_spec_runs(spec, reps=reps, seed=seed)
        assert resumed_journal.hits == 2
        assert [result_fingerprint(r) for r in fresh] == [
            result_fingerprint(r) for r in resumed
        ]

    def test_traffic_free_discipline_carries_faults(self):
        spec = RunSpec(
            k=3,
            protocol=DeterministicSchedule([True, True, False, True]),
            arrivals=FixedArrivals([1, 2, 4, 9, 9], origins=[0, 1, 2, 0, 1]),
            max_rounds=80,
            faults=FaultModel(noise=SlotNoise(0.2), ack_loss=AckLoss(0.1)),
            seed=21,
        )
        assert vectorized_inadmissibility(spec) is None
        obj = execute(spec, "object")
        vec = execute(spec, "vectorized")
        (fused,) = execute_batch(spec, seeds=[spec.seed])
        assert result_fingerprint(obj) == result_fingerprint(vec)
        assert result_fingerprint(obj) == result_fingerprint(fused)


# ------------------------------------------------------- default plumbing


class TestDefaultFaults:
    def test_use_faults_scopes_the_default(self):
        model = FaultModel(noise=SlotNoise(0.1))
        assert current_faults() is None
        with use_faults(model):
            assert current_faults() is model
            with use_faults(None):  # None = no-op scope
                assert current_faults() is model
        assert current_faults() is None

    def test_set_default_type_checked(self):
        with pytest.raises(TypeError):
            set_default_faults(0.1)
        set_default_faults(None)

    def test_apply_default_folds_into_clean_specs_only(self):
        model = FaultModel(noise=SlotNoise(0.1))
        clean = acceptance_spec().replace(faults=None)
        own = acceptance_spec()
        with use_faults(model):
            assert _apply_default_faults(clean).faults is model
            assert _apply_default_faults(own).faults is own.faults
        assert _apply_default_faults(clean).faults is None

    def test_apply_default_reaches_fifo_traffic(self):
        fifo = RunSpec(
            k=2,
            protocol=DeterministicSchedule([True]),
            arrivals=FixedArrivals([1, 2], origins=[0, 1]),
            queue_discipline="fifo",
            max_rounds=50,
        )
        model = FaultModel(noise=SlotNoise(0.1))
        with use_faults(model):
            assert _apply_default_faults(fifo).faults is model

    def test_default_reaches_executed_runs(self):
        spec = acceptance_spec().replace(faults=None)
        with use_faults(acceptance_spec().faults):
            defaulted = repeat_spec_runs(spec, reps=1, seed=spec.seed)
        explicit = repeat_spec_runs(
            acceptance_spec(), reps=1, seed=spec.seed
        )
        assert result_fingerprint(defaulted[0]) == result_fingerprint(
            explicit[0]
        )


# -------------------------------------------------------------- telemetry


class TestFaultTelemetry:
    def test_object_and_batched_counters_agree(self):
        spec = acceptance_spec(seed=314)
        telemetry.enable()
        execute(spec, "object")
        object_counters = telemetry.snapshot()["counters"]
        telemetry.reset()
        telemetry.enable()
        execute_batch(spec, seeds=[spec.seed])
        batched_counters = telemetry.snapshot()["counters"]
        for key in ("fault.runs", "fault.slots_corrupted",
                    "fault.acks_dropped"):
            assert object_counters.get(key, 0) == batched_counters.get(key, 0)

    def test_prometheus_names_carry_fault_prefix(self):
        assert metric_name("fault.slots_corrupted") == (
            "repro_fault_slots_corrupted"
        )
        assert metric_name("fault.acks_dropped") == "repro_fault_acks_dropped"
        assert metric_name("fault.stations_exhausted") == (
            "repro_fault_stations_exhausted"
        )
