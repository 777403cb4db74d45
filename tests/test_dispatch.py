"""RunSpec + engine dispatch: admissibility, overrides, cache, fidelity.

The dispatch layer (``repro.engine``) promises three things:

1. ``execute(spec, engine="auto")`` routes to the vectorised engine
   *exactly* when the spec is admissible (non-adaptive schedule, oblivious
   adversary, no jammer object, no trace, ACK-only feedback) and is
   byte-identical, per seed, to constructing that engine by hand;
2. explicit ``engine=`` overrides either force the reference engine or
   fail loudly (``EngineSelectionError``) — never silently run the wrong
   semantics;
3. probability/hazard tables are cached per (schedule fingerprint,
   horizon) with an LRU bound, and cached runs stay byte-identical to
   uncached ones.

This suite pins all three, plus the RunSpec contract itself (validation,
horizon policy, fingerprints) that the checkpoint layer builds on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import FixedSchedule
from repro.adversary.adaptive import WakeOnSuccessAdversary
from repro.baselines.backoff import BinaryExponentialBackoff
from repro.baselines.cd_adaptive import CdAimdProtocol
from repro.channel.batched import run_batch
from repro.channel.compiled import CompiledSimulator
from repro.channel.feedback import FeedbackModel
from repro.channel.jamming import RandomJammer, ScheduledJammer
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator, default_max_rounds
from repro.channel.vectorized import VectorizedSimulator
from repro.core.protocol import ScheduleProtocol
from repro.core.protocols import AdaptiveNoK, NonAdaptiveWithK, SUniform
from repro.core.protocols.global_clock import GlobalClockUFR
from repro.core.protocols.sawtooth_schedule import SawtoothSchedule
from repro.core.spec import RunSpec
from repro.engine import (
    EngineDisagreement,
    EngineSelectionError,
    assert_results_agree,
    assert_results_identical,
    build_simulator,
    clear_table_cache,
    compiled_inadmissibility,
    cumulative_hazard,
    execute,
    execute_batch,
    get_default_engine,
    probability_table,
    select_engine,
    set_default_engine,
    set_table_cache_limit,
    table_cache_info,
    use_engine,
    vectorized_inadmissibility,
)
from tests.conftest import make_factory

K = 4
WAKES = FixedSchedule([0, 3, 7, 11])


def schedule_spec(**overrides) -> RunSpec:
    base = dict(
        k=K,
        protocol=NonAdaptiveWithK(16, 4),
        adversary=WAKES,
        max_rounds=5000,
        seed=42,
    )
    base.update(overrides)
    return RunSpec(**base)


def protocol_spec(**overrides) -> RunSpec:
    base = dict(
        k=K,
        protocol=lambda: AdaptiveNoK(),
        adversary=WAKES,
        max_rounds=5000,
        seed=42,
    )
    base.update(overrides)
    return RunSpec(**base)


def result_key(result):
    return (
        result.completed,
        result.rounds_executed,
        result.first_success_round,
        result.success_count,
        result.total_transmissions,
        sorted(result.latencies),
        sorted(
            (r.wake_round, r.first_success_round, r.switch_off_round, r.transmissions)
            for r in result.records
        ),
    )


# --------------------------------------------------------- admissibility


def test_admissible_spec_selects_vectorized():
    spec = schedule_spec()
    assert vectorized_inadmissibility(spec) is None
    assert select_engine(spec) == "vectorized"
    assert isinstance(build_simulator(spec), VectorizedSimulator)


@pytest.mark.parametrize(
    "overrides",
    [
        {"jammer": RandomJammer(0.1)},
        {"record_trace": True},
    ],
    ids=["jammer", "trace"],
)
def test_inadmissible_specs_fall_back_to_object(overrides):
    spec = schedule_spec(**overrides)
    for inadmissibility in (vectorized_inadmissibility, compiled_inadmissibility):
        reason = inadmissibility(spec)
        assert isinstance(reason, str) and reason
    assert select_engine(spec) == "object"
    assert isinstance(build_simulator(spec, "auto"), SlotSimulator)


@pytest.mark.parametrize(
    "overrides",
    [
        {"adversary": WakeOnSuccessAdversary(seed_group=2, refill=2)},
        {"feedback": FeedbackModel.COLLISION_DETECTION},
        {
            "adversary": WakeOnSuccessAdversary(seed_group=2, refill=2),
            "feedback": FeedbackModel.COLLISION_DETECTION,
        },
    ],
    ids=["adaptive-adversary", "cd-feedback", "adaptive-cd"],
)
def test_adaptive_and_cd_specs_select_compiled(overrides):
    # PR 9: lowerable adaptive adversaries and ternary CD symbols run on
    # the compiled stepper; only the batch sampler stays out of reach.
    spec = schedule_spec(**overrides)
    assert vectorized_inadmissibility(spec) is not None
    assert compiled_inadmissibility(spec) is None
    assert select_engine(spec) == "compiled"
    assert isinstance(build_simulator(spec, "auto"), CompiledSimulator)
    compiled = execute(spec, engine="compiled")
    reference = execute(spec, engine="object")
    assert result_key(compiled) == result_key(reference)


def test_lowerable_factory_selects_compiled():
    spec = protocol_spec()
    assert vectorized_inadmissibility(spec) is not None
    assert compiled_inadmissibility(spec) is None
    assert select_engine(spec) == "compiled"
    assert isinstance(build_simulator(spec, "auto"), CompiledSimulator)


def test_non_lowerable_factory_selects_object():
    spec = protocol_spec(protocol=make_factory(BinaryExponentialBackoff))
    reason = compiled_inadmissibility(spec)
    assert reason is not None and "no table lowering" in reason
    assert select_engine(spec) == "object"


def test_lowering_is_exact_type_not_subclass():
    # A subclass may override any hook, so the lowering pass only claims
    # the exact machines it was derived from.
    class Tweaked(AdaptiveNoK):
        pass

    spec = protocol_spec(protocol=make_factory(Tweaked))
    assert compiled_inadmissibility(spec) is not None
    assert select_engine(spec) == "object"


# ---------------------------------------------------------- dispatch matrix

_OBLIVIOUS = FixedSchedule([0, 3, 7, 11])
_ADAPTIVE = WakeOnSuccessAdversary(seed_group=2, refill=2)

_FAMILIES = {
    "schedule": NonAdaptiveWithK(16, 4),
    "adaptive-no-k": make_factory(AdaptiveNoK),
    "s-uniform": make_factory(SUniform),
    "global-clock": make_factory(GlobalClockUFR),
    "backoff-baseline": make_factory(BinaryExponentialBackoff),
}

#: Engine ``auto`` must pick for an (oblivious adversary, ACK) cell.
_OBLIVIOUS_ACK_ENGINE = {
    "schedule": "vectorized",
    "adaptive-no-k": "compiled",
    "s-uniform": "compiled",
    "global-clock": "compiled",
    "backoff-baseline": "object",
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("adversary", ["oblivious", "adaptive"])
@pytest.mark.parametrize(
    "feedback", [FeedbackModel.ACK_ONLY, FeedbackModel.COLLISION_DETECTION],
    ids=["ack", "cd"],
)
def test_dispatch_matrix(family, adversary, feedback):
    """Every (protocol family x adversary x feedback) cell routes where the
    capability table says: fast engines only for oblivious-ACK cells, the
    vectorised engine for schedules, the compiled stepper for lowerable
    machines, the object engine everywhere else."""
    spec = schedule_spec(
        protocol=_FAMILIES[family],
        adversary=_OBLIVIOUS if adversary == "oblivious" else _ADAPTIVE,
        feedback=feedback,
    )
    if family == "backoff-baseline":
        expected = "object"  # no table lowering, regardless of the cell
    elif adversary == "oblivious" and feedback is FeedbackModel.ACK_ONLY:
        expected = _OBLIVIOUS_ACK_ENGINE[family]
    else:
        # Adaptive adversary and/or CD feedback: the batch sampler is out,
        # but the compiled stepper covers every lowerable machine.
        expected = "compiled"
    assert select_engine(spec) == expected


class _TweakedWakeOnSuccess(WakeOnSuccessAdversary):
    """Subclass: may override wake_now, so the lowering must not claim it."""


_STABLE_COMPILED_REASONS = [
    ({"record_trace": True}, "the compiled engine keeps no per-round event log"),
    (
        {"adversary": _TweakedWakeOnSuccess(seed_group=2, refill=2)},
        "adversary _TweakedWakeOnSuccess has no table lowering; the "
        "compiled stepper only runs the adversary state machines it knows "
        "(BurstOnQuietAdversary, WakeOnSuccessAdversary, "
        "AntiLeaderAdversary, DripFeedAdversary)",
    ),
    (
        {"jammer": RandomJammer(0.1)},
        "jammer objects may be adaptive; use jam_rounds for oblivious "
        "jamming on the fast engines",
    ),
    (
        {"protocol": make_factory(CdAimdProtocol)},
        "CdAimdProtocol requires collision-detection feedback; under "
        "ack-only feedback the object engine raises its RuntimeError at "
        "the first observation",
    ),
]


@pytest.mark.parametrize(
    "overrides, reason",
    _STABLE_COMPILED_REASONS,
    ids=["trace", "unlowerable-adversary", "jammer", "cd-aimd-under-ack"],
)
def test_forced_compiled_reason_strings_are_stable(overrides, reason):
    spec = protocol_spec(**overrides)
    assert compiled_inadmissibility(spec) == reason
    with pytest.raises(EngineSelectionError) as excinfo:
        build_simulator(spec, "compiled")
    assert str(excinfo.value) == f"spec is not compiled-admissible: {reason}"


def test_forced_compiled_on_unlowerable_protocol_raises():
    spec = protocol_spec(protocol=make_factory(BinaryExponentialBackoff))
    with pytest.raises(EngineSelectionError, match="no table lowering"):
        build_simulator(spec, "compiled")
    with pytest.raises(EngineSelectionError, match="no table lowering"):
        execute_batch(spec, seeds=[1], engine="compiled")


def test_jam_rounds_stay_vectorized_admissible():
    spec = schedule_spec(jam_rounds=(5, 9, 9, 2))
    assert vectorized_inadmissibility(spec) is None
    assert spec.jam_rounds == (2, 5, 9)  # sorted, deduped at construction


def test_every_stop_condition_is_admissible():
    for stop in StopCondition:
        assert select_engine(schedule_spec(stop=stop)) == "vectorized"


def test_forced_vectorized_on_inadmissible_raises():
    with pytest.raises(EngineSelectionError, match="round loop"):
        build_simulator(protocol_spec(), "vectorized")
    with pytest.raises(EngineSelectionError, match="event log"):
        execute(schedule_spec(record_trace=True), engine="vectorized")


def test_forced_object_always_legal():
    assert isinstance(build_simulator(schedule_spec(), "object"), SlotSimulator)
    assert isinstance(build_simulator(protocol_spec(), "object"), SlotSimulator)


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        build_simulator(schedule_spec(), "warp")
    with pytest.raises(ValueError, match="execute"):
        build_simulator(schedule_spec(), "cross-check")


# ------------------------------------------------- byte-identical dispatch


def test_execute_matches_direct_vectorized_construction():
    spec = schedule_spec()
    direct = VectorizedSimulator(
        spec.k,
        spec.schedule,
        spec.adversary,
        max_rounds=spec.max_rounds,
        seed=spec.seed,
    ).run()
    assert result_key(execute(spec)) == result_key(direct)
    assert result_key(execute(spec, engine="auto")) == result_key(direct)


def test_execute_matches_direct_object_construction():
    spec = schedule_spec()
    schedule = spec.schedule
    direct = SlotSimulator(
        spec.k,
        lambda: ScheduleProtocol(schedule),
        spec.adversary,
        max_rounds=spec.max_rounds,
        seed=spec.seed,
    ).run()
    assert result_key(execute(spec, engine="object")) == result_key(direct)


def test_jam_rounds_match_on_both_engines_per_spec():
    spec = schedule_spec(jam_rounds=(2, 3, 4, 5))
    direct = VectorizedSimulator(
        spec.k,
        spec.schedule,
        spec.adversary,
        max_rounds=spec.max_rounds,
        seed=spec.seed,
        jam_rounds=spec.jam_rounds,
    ).run()
    assert result_key(execute(spec)) == result_key(direct)
    # The object engine sees the same rounds through a ScheduledJammer.
    simulator = build_simulator(spec, "object")
    assert isinstance(simulator.jammer, ScheduledJammer)
    assert simulator.jammer.rounds == frozenset(spec.jam_rounds)


def test_scheduled_jammer_jams_exactly_its_rounds():
    jammer = ScheduledJammer([4, 1, 4])
    assert [jammer.jams(r, []) for r in range(6)] == [
        False, True, False, False, True, False,
    ]


def test_execute_repetition_fanout_is_deterministic():
    base = schedule_spec(seed=None)
    first = [result_key(execute(base.with_seed(s))) for s in range(3)]
    second = [result_key(execute(base.with_seed(s))) for s in range(3)]
    assert first == second


# ----------------------------------------------------- default + override


def test_use_engine_scopes_the_process_default():
    assert get_default_engine() == "auto"
    with use_engine("object"):
        assert get_default_engine() == "object"
        assert isinstance(build_simulator(schedule_spec(), get_default_engine()),
                          SlotSimulator)
        with use_engine(None):  # None = leave alone (CLI default)
            assert get_default_engine() == "object"
    assert get_default_engine() == "auto"


def test_set_default_engine_validates():
    with pytest.raises(ValueError, match="unknown engine"):
        set_default_engine("warp")
    assert get_default_engine() == "auto"


def test_execute_consults_default_engine():
    spec = schedule_spec()
    with use_engine("object"):
        obj = execute(spec)
    direct = build_simulator(spec, "object").run()
    assert result_key(obj) == result_key(direct)


# ------------------------------------------------------------ cross-check


def test_cross_check_agrees_on_seeded_specs():
    for seed in range(5):
        spec = schedule_spec(seed=seed)
        checked = execute(spec, engine="cross-check")
        # Cross-check returns what "auto" would have (the vectorised run).
        assert result_key(checked) == result_key(execute(spec))


def test_cross_check_degrades_to_object_for_inadmissible():
    spec = protocol_spec(record_trace=True)
    checked = execute(spec, engine="cross-check")
    assert result_key(checked) == result_key(execute(spec, engine="object"))


def test_cross_check_shadows_compiled_runs():
    # A lowerable factory spec is compiled-only: cross-check runs the
    # compiled stepper against the object engine and returns the compiled
    # (= auto) result, which must be byte-identical anyway.
    for seed in range(3):
        spec = protocol_spec(seed=seed)
        checked = execute(spec, engine="cross-check")
        assert result_key(checked) == result_key(execute(spec, engine="object"))


def test_compiled_execute_is_byte_identical_to_object():
    for factory in (make_factory(AdaptiveNoK), make_factory(SUniform),
                    make_factory(GlobalClockUFR)):
        spec = protocol_spec(protocol=factory, seed=5)
        assert_results_identical(
            spec, execute(spec, "object"), execute(spec, "compiled")
        )


def test_assert_results_identical_flags_divergence():
    spec = protocol_spec(seed=0)
    honest = execute(spec, engine="object")
    other = execute(spec.with_seed(1), engine="object")
    with pytest.raises(EngineDisagreement, match="compiled engine diverged"):
        assert_results_identical(spec, honest, other)


def test_assert_results_agree_flags_divergence():
    # Stochastic schedules are only comparable through their shared
    # adversary stream, so a run with *different* wake draws must be
    # flagged as a disagreement.
    spec = schedule_spec()
    honest = execute(spec, engine="object")
    other_wakes = execute(
        spec.replace(adversary=FixedSchedule([0, 1, 2, 3])), engine="object"
    )
    with pytest.raises(AssertionError, match="wake draws differ"):
        assert_results_agree(spec, honest, other_wakes)


# ------------------------------------------------------------ table cache


def test_probability_table_is_cached_and_read_only():
    clear_table_cache()
    schedule = NonAdaptiveWithK(16, 4)
    first = probability_table(schedule, 2000)
    info = table_cache_info()
    assert info["misses"] == 1 and info["tables"] == 1
    # A *fresh but equivalent* schedule instance hits the same entry.
    again = probability_table(NonAdaptiveWithK(16, 4), 2000)
    assert table_cache_info()["hits"] == 1
    assert again is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.5
    np.testing.assert_array_equal(first, schedule.probabilities(2000))


def test_hazard_table_is_cached_per_horizon():
    clear_table_cache()
    schedule = NonAdaptiveWithK(16, 4)
    h1 = cumulative_hazard(schedule, 1000)
    h2 = cumulative_hazard(schedule, 1000)
    assert h2 is h1
    assert cumulative_hazard(schedule, 2000) is not h1
    assert not h1.flags.writeable


def test_probability_and_hazard_tables_share_one_entry():
    # Both tables of a configuration live in one entry: a cold run_batch
    # costs one miss, and the hazard is never an entry (or a miss) of its
    # own.  It is materialised only for schedules that thin, not for
    # fingerprint-only fetches or direct samplers.
    clear_table_cache()
    spec = schedule_spec()
    run_batch(spec, seeds=[1, 2])
    info = table_cache_info()
    assert (info["misses"], info["tables"], info["hazards"]) == (1, 1, 1)
    cumulative_hazard(spec.schedule, spec.max_rounds)
    probability_table(spec.schedule, spec.max_rounds)
    assert table_cache_info()["misses"] == 1
    probability_table(NonAdaptiveWithK(32, 4), 100)
    run_batch(spec.replace(protocol=SawtoothSchedule()), seeds=[1])
    info = table_cache_info()
    assert (info["misses"], info["tables"], info["hazards"]) == (3, 3, 1)


def test_cache_respects_lru_bound():
    clear_table_cache()
    set_table_cache_limit(2)
    try:
        probability_table(NonAdaptiveWithK(16, 4), 100)
        probability_table(NonAdaptiveWithK(32, 4), 100)
        probability_table(NonAdaptiveWithK(64, 4), 100)
        assert table_cache_info()["tables"] == 2
        # The oldest entry (16) was evicted: refetching misses again.
        misses = table_cache_info()["misses"]
        probability_table(NonAdaptiveWithK(16, 4), 100)
        assert table_cache_info()["misses"] == misses + 1
    finally:
        set_table_cache_limit(32)
        clear_table_cache()


def test_cached_execution_is_byte_identical_to_cold():
    spec = schedule_spec()
    clear_table_cache()
    cold = result_key(execute(spec))
    warm = result_key(execute(spec))
    assert table_cache_info()["hits"] >= 1
    assert warm == cold


# -------------------------------------------------------- RunSpec contract


def test_runspec_validation():
    with pytest.raises(ValueError, match="at least one station"):
        schedule_spec(k=0)
    with pytest.raises(TypeError, match="protocol"):
        schedule_spec(protocol="not-a-protocol")
    with pytest.raises(TypeError, match="adversary"):
        schedule_spec(adversary="not-an-adversary")
    with pytest.raises(ValueError, match="max_rounds"):
        schedule_spec(max_rounds=0)
    with pytest.raises(ValueError, match="mutually exclusive"):
        schedule_spec(jammer=RandomJammer(0.1), jam_rounds=(1, 2))


#: One invalid value per validated field, as a Hypothesis strategy: wrong
#: type (TypeError) or out of range (ValueError).
_INVALID_FIELDS = {
    "k": st.one_of(
        st.integers(max_value=0),
        st.floats(allow_nan=True),
        st.booleans(),
        st.text(max_size=3),
    ),
    "seed": st.one_of(
        st.integers(max_value=-1),
        st.floats(allow_nan=True),
        st.booleans(),
        st.text(max_size=3),
    ),
    "max_rounds": st.one_of(
        st.integers(max_value=0),
        st.floats(allow_nan=True),
        st.booleans(),
        st.text(max_size=3),
    ),
    "jam_rounds": st.lists(st.integers(1, 500), max_size=5).flatmap(
        lambda good: st.integers(max_value=0).map(lambda bad: tuple(good) + (bad,))
    ),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), field=st.sampled_from(sorted(_INVALID_FIELDS)))
def test_runspec_rejects_invalid_fields_by_name(data, field):
    """Bad inputs fail at the spec boundary with a ValueError/TypeError
    naming the field — never with a numpy error from inside an engine, and
    never by silently truncating (``seed=1.5`` used to run as seed 1)."""
    value = data.draw(_INVALID_FIELDS[field])
    with pytest.raises((TypeError, ValueError), match=rf"\b{field}\b"):
        schedule_spec(**{field: value})


def test_runspec_accepts_numpy_integers():
    spec = schedule_spec(k=np.int64(16), seed=np.int32(3), max_rounds=np.int64(900))
    assert spec.with_seed(np.uint8(4)).seed == 4


def test_runspec_is_frozen():
    spec = schedule_spec()
    with pytest.raises(AttributeError):
        spec.k = 8


def test_resolve_horizon_policy():
    assert schedule_spec(max_rounds=123).resolve_horizon() == 123
    assert schedule_spec(max_rounds=None).resolve_horizon() == default_max_rounds(K)


def test_with_seed_and_replace_revalidate():
    spec = schedule_spec()
    assert spec.with_seed(9).seed == 9
    assert spec.with_seed(9).k == spec.k
    assert spec.replace(max_rounds=77).max_rounds == 77
    with pytest.raises(ValueError):
        spec.replace(k=-1)


def test_schedule_kind_properties():
    sched = schedule_spec()
    assert sched.is_schedule_run
    proto = sched.protocol_factory()
    assert isinstance(proto, ScheduleProtocol)

    factory = protocol_spec()
    assert not factory.is_schedule_run
    with pytest.raises(TypeError):
        factory.schedule


def test_fingerprint_is_stable_and_sensitive():
    base = schedule_spec()
    assert base.fingerprint() == schedule_spec().fingerprint()
    # Seed never enters the fingerprint (it keys the journal per config).
    assert base.fingerprint() == schedule_spec(seed=0).fingerprint()
    distinct = {
        base.fingerprint(),
        schedule_spec(protocol=NonAdaptiveWithK(32, 4)).fingerprint(),
        schedule_spec(adversary=FixedSchedule([0, 1, 2, 3])).fingerprint(),
        schedule_spec(max_rounds=4096).fingerprint(),
        schedule_spec(jam_rounds=(1, 2)).fingerprint(),
        schedule_spec(switch_off_on_ack=False).fingerprint(),
        schedule_spec(stop=StopCondition.FIRST_SUCCESS).fingerprint(),
    }
    assert len(distinct) == 7


def test_protocol_fingerprint_uses_label():
    assert (
        protocol_spec(label="a").fingerprint()
        != protocol_spec(label="b").fingerprint()
    )
