"""Property-based cross-engine fuzzing: the two engines must agree.

``tests/test_engine_agreement.py`` pins a handful of hand-picked
configurations; this suite generalises them with Hypothesis.  The engines
use different sampling mechanisms (per-round Bernoulli vs Poisson
thinning), so per-seed equality cannot hold for *stochastic* schedules —
but for **deterministic** schedules (every per-round probability 0 or 1)
the execution is a pure function of the configuration, and the two
engines must produce *identical* round events and metrics: per-station
wake/first-success/switch-off rounds and transmission counts, completion,
rounds executed, energy and latency.  That determinism survives every
model dimension the engines share — wake schedules, jamming patterns,
ack/no-ack semantics, every stop condition, tight horizons — so the fuzz
space covers all of them, plus both vectorised sampling paths (Poisson
thinning and the ``sample_rounds`` direct path).

Stations sharing a wake round run perfectly correlated under a
deterministic schedule (they collide forever and never succeed, in both
engines), so records compare exactly after sorting by
``(wake, first_success, switch_off, transmissions)``.

CI runs >= 200 generated configurations per pass (see the ``max_examples``
settings below) and caches the Hypothesis example database between runs,
so a configuration that ever disagreed is retried first on every push.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import FixedArrivals
from repro.channel.jamming import Jammer
from repro.channel.results import RunResult, StopCondition
from repro.channel.simulator import SlotSimulator
from repro.channel.vectorized import VectorizedSimulator
from repro.core.protocol import ProbabilitySchedule, ScheduleProtocol
from repro.core.spec import RunSpec
from repro.engine.dispatch import execute, execute_batch, vectorized_inadmissibility
from repro.faults import AckLoss, EnergyBudget, FaultModel, SlotNoise

MAX_WAKE = 25
MAX_PATTERN = 25
MIN_ROUNDS = 40  # > MAX_WAKE: every station wakes inside the horizon
MAX_ROUNDS = 120


class DeterministicSchedule(ProbabilitySchedule):
    """p(i) in {0, 1} from a boolean pattern; horizon = pattern length.

    With ``direct=True`` the schedule exposes ``sample_rounds`` (the
    dependent-rounds path of the vectorised engine); otherwise the engine
    uses Poisson thinning, where probability-1 rounds carry the capped
    hazard (miss probability ~1e-15 — far below one expected false
    failure over the lifetime of this suite).
    """

    def __init__(self, pattern: Sequence[bool], direct: bool = False):
        self.pattern = tuple(bool(b) for b in pattern)
        self.direct = direct
        self.name = f"det[{''.join('1' if b else '0' for b in self.pattern)}]"

    def probability(self, local_round: int) -> float:
        if 1 <= local_round <= len(self.pattern):
            return 1.0 if self.pattern[local_round - 1] else 0.0
        return 0.0

    def horizon(self) -> int:
        return len(self.pattern)

    def sample_rounds(self, rng, k, max_local):
        if not self.direct:
            return None
        rounds = [
            i
            for i in range(1, min(len(self.pattern), max_local) + 1)
            if self.pattern[i - 1]
        ]
        stations = np.repeat(np.arange(k, dtype=np.int64), len(rounds))
        return stations, np.tile(np.asarray(rounds, dtype=np.int64), k)


class FixedJammer(Jammer):
    """Jam exactly the given set of global rounds (oblivious)."""

    def __init__(self, rounds):
        self.rounds = frozenset(int(r) for r in rounds)
        self.name = f"fixed-jammer({len(self.rounds)})"

    def jams(self, round_index: int, history) -> bool:
        return round_index in self.rounds


@st.composite
def engine_configs(c, *, with_jamming: bool):
    k = c(st.integers(1, 10))
    wakes = c(st.lists(st.integers(0, MAX_WAKE), min_size=k, max_size=k))
    pattern = c(st.lists(st.booleans(), min_size=1, max_size=MAX_PATTERN))
    direct = c(st.booleans())
    ack = c(st.booleans())
    stop = c(st.sampled_from(sorted(StopCondition, key=lambda s: s.value)))
    max_rounds = c(st.integers(MIN_ROUNDS, MAX_ROUNDS))
    if with_jamming:
        jam = frozenset(c(st.sets(st.integers(1, MAX_ROUNDS), min_size=1, max_size=40)))
    else:
        jam = None
    return k, wakes, pattern, direct, ack, stop, max_rounds, jam


def run_both(config) -> tuple[RunResult, RunResult]:
    k, wakes, pattern, direct, ack, stop, max_rounds, jam = config
    schedule = DeterministicSchedule(pattern, direct=direct)
    wake = FixedSchedule(wakes)
    # Different seeds on purpose: a deterministic configuration must not
    # depend on either engine's random stream.
    obj = SlotSimulator(
        k,
        lambda: ScheduleProtocol(schedule, switch_off_on_ack=ack),
        wake,
        stop=stop,
        max_rounds=max_rounds,
        seed=0,
        jammer=None if jam is None else FixedJammer(jam),
    ).run()
    vec = VectorizedSimulator(
        k,
        schedule,
        wake,
        switch_off_on_ack=ack,
        stop=stop,
        max_rounds=max_rounds,
        seed=1,
        jam_rounds=jam,
    ).run()
    return obj, vec


def record_keys(result: RunResult, up_to_round: int):
    """Station records as a sorted multiset, ignoring engine-specific ids.

    The object engine only materialises stations the adversary woke before
    the run stopped; the vectorised engine always materialises all ``k``.
    A station woken after the stop round has no observable behaviour, so
    both views agree once restricted to ``wake_round <= up_to_round``.
    """
    return sorted(
        (r.wake_round, r.first_success_round, r.switch_off_round, r.transmissions)
        for r in result.records
        if r.wake_round <= up_to_round
    )


def assert_engines_agree(config) -> None:
    obj, vec = run_both(config)
    assert obj.completed == vec.completed
    assert obj.rounds_executed == vec.rounds_executed
    assert obj.first_success_round == vec.first_success_round
    assert obj.success_count == vec.success_count
    assert obj.total_transmissions == vec.total_transmissions
    assert sorted(obj.latencies) == sorted(vec.latencies)
    assert obj.max_latency == vec.max_latency
    assert record_keys(obj, obj.rounds_executed) == record_keys(
        vec, obj.rounds_executed
    )


@settings(max_examples=140, deadline=None)
@given(engine_configs(with_jamming=False))
def test_engines_agree_on_events_and_metrics(config):
    """Both engines produce identical records and metrics over random
    (k, wake schedule, deterministic schedule, ack/no-ack, stop condition,
    horizon) configurations, on both vectorised sampling paths."""
    assert_engines_agree(config)


@settings(max_examples=80, deadline=None)
@given(engine_configs(with_jamming=True))
def test_engines_agree_under_jamming(config):
    """Jamming semantics agree: a jammed round with transmitters is a
    collision (attempts still cost energy), a jammed empty round is a
    non-event, in both engines."""
    assert_engines_agree(config)


@st.composite
def traffic_configs(c, *, max_arrival: int = MAX_WAKE):
    """Free-discipline traffic over explicit packet lists.

    ``max_arrival`` above the horizon range exercises the phantom padding
    of the reduction (dropped arrivals leave capacity slack filled with
    ``horizon + 1`` wakes).
    """
    stations = c(st.integers(1, 6))
    n_packets = c(st.integers(1, 12))
    rounds = sorted(
        c(st.lists(st.integers(0, max_arrival), min_size=n_packets,
                   max_size=n_packets))
    )
    origins = c(st.lists(st.integers(0, stations - 1), min_size=n_packets,
                         max_size=n_packets))
    pattern = c(st.lists(st.booleans(), min_size=1, max_size=MAX_PATTERN))
    direct = c(st.booleans())
    ack = c(st.booleans())
    stop = c(st.sampled_from(sorted(StopCondition, key=lambda s: s.value)))
    max_rounds = c(st.integers(MIN_ROUNDS, MAX_ROUNDS))
    return stations, rounds, origins, pattern, direct, ack, stop, max_rounds


def traffic_spec(config, *, discipline: str = "free") -> RunSpec:
    stations, rounds, origins, pattern, direct, ack, stop, max_rounds = config
    return RunSpec(
        k=stations,
        protocol=DeterministicSchedule(pattern, direct=direct),
        arrivals=FixedArrivals(rounds, origins=origins),
        queue_discipline=discipline,
        switch_off_on_ack=ack,
        stop=stop,
        max_rounds=max_rounds,
        seed=17,
    )


@settings(max_examples=60, deadline=None)
@given(traffic_configs(max_arrival=MAX_ROUNDS + 10))
def test_traffic_dispatch_engines_agree(config):
    """Queued-arrival (traffic) specs run byte-identically through every
    dispatch path: the object engine, the vectorised engine, and the fused
    batched kernel all consume the same free-discipline reduction, phantom
    padding included."""
    spec = traffic_spec(config)
    assert vectorized_inadmissibility(spec) is None
    obj = execute(spec, "object")
    vec = execute(spec, "vectorized")
    (fused,) = execute_batch(spec, seeds=[spec.seed])
    for a, b in ((obj, vec), (vec, fused)):
        assert a.completed == b.completed
        assert a.rounds_executed == b.rounds_executed
        assert a.success_count == b.success_count
        assert a.total_transmissions == b.total_transmissions
        assert record_keys(a, a.rounds_executed) == record_keys(
            b, b.rounds_executed
        )


@st.composite
def fault_models(c):
    """An optional fault model drawing each component independently."""
    noise = c(st.one_of(st.none(), st.floats(0.0, 0.6, allow_nan=False)))
    ack_loss = c(st.one_of(st.none(), st.floats(0.0, 0.6, allow_nan=False)))
    charges = c(st.one_of(st.none(), st.integers(1, 20)))
    if noise is None and ack_loss is None and charges is None:
        return None
    return FaultModel(
        noise=None if noise is None else SlotNoise(noise),
        ack_loss=None if ack_loss is None else AckLoss(ack_loss),
        energy_budget=None if charges is None else EnergyBudget(charges),
    )


@settings(max_examples=40, deadline=None)
@given(traffic_configs(), fault_models())
def test_fifo_matches_free_on_single_packet_queues(config, faults):
    """With at most one packet per station queue, FIFO never serialises
    anything, so the FIFO station source must match the free reduction
    record for record (station ids are packet ids in both views) — under
    the same noise, ack loss and per-packet energy budget as well."""
    stations, rounds, origins, pattern, direct, ack, stop, max_rounds = config
    seen: set[int] = set()
    kept = [
        (r, o)
        for r, o in zip(rounds, origins)
        if o not in seen and not seen.add(o)
    ]
    config = (
        stations,
        [r for r, _ in kept],
        [o for _, o in kept],
        pattern, direct, ack, stop, max_rounds,
    )
    fifo = execute(traffic_spec(config, discipline="fifo").replace(faults=faults))
    free = execute(traffic_spec(config).replace(faults=faults), "object")
    assert fifo.completed == free.completed
    assert fifo.rounds_executed == free.rounds_executed
    assert fifo.success_count == free.success_count
    assert fifo.total_transmissions == free.total_transmissions
    assert sorted(
        (r.station_id, r.wake_round, r.first_success_round,
         r.switch_off_round, r.transmissions)
        for r in fifo.records
    ) == sorted(
        (r.station_id, r.wake_round, r.first_success_round,
         r.switch_off_round, r.transmissions)
        for r in free.records
    )


@settings(max_examples=40, deadline=None)
@given(engine_configs(with_jamming=False))
def test_no_ack_switch_off_rounds_exact(config):
    """The no-ack variant generalisation of
    ``TestNoAckSwitchOffAgreement``: with switch-off driven purely by the
    schedule horizon, switch-off rounds equal ``wake + horizon + 1``
    whenever the run lasted long enough to observe them."""
    k, wakes, pattern, direct, _ack, _stop, max_rounds, jam = config
    config = (
        k, wakes, pattern, direct, False,
        StopCondition.ALL_SWITCHED_OFF, max_rounds, jam,
    )
    obj, vec = run_both(config)
    horizon = len(pattern)
    expected = sorted(
        (
            w + horizon + 1 if w + horizon + 1 <= obj.rounds_executed else None
            for w in wakes
        ),
        key=lambda x: (x is None, x),
    )
    for result in (obj, vec):
        got = sorted(
            (r.switch_off_round for r in result.records),
            key=lambda x: (x is None, x),
        )
        assert got == expected


# ------------------------------------------------- compiled engine fuzz
#
# The compiled stepper (``repro.channel.compiled``) promises more than the
# vectorised engine: *byte identity* with the object engine — it replays
# the object engine's per-station RNG draw order exactly, so stochastic
# configurations compare exactly too, per seed, record field for record
# field.  The fuzz space spans every lowerable machine (``AdaptiveNoK``,
# ``SUniform``, ``GlobalClockUFR``, probability schedules), wake
# schedules, stop conditions, oblivious jamming, tight horizons and no-ack
# switch-off, and checks object == compiled == fused-batch per seed.

from repro.adversary.oblivious import UniformRandomSchedule  # noqa: E402
from repro.channel.compiled import run_compiled_batch  # noqa: E402
from repro.core.protocols import AdaptiveNoK, SUniform  # noqa: E402
from repro.core.protocols.global_clock import GlobalClockUFR  # noqa: E402
from repro.engine.dispatch import (  # noqa: E402
    assert_results_identical,
    compiled_inadmissibility,
)
from tests.conftest import make_factory  # noqa: E402

_LOWERABLE = {
    "adaptive-no-k": AdaptiveNoK,
    "s-uniform": SUniform,
    "global-clock": GlobalClockUFR,
}


class StochasticSchedule(ProbabilitySchedule):
    """Arbitrary per-round probabilities; horizon = table length.

    Unlike :class:`DeterministicSchedule` this draws real Bernoulli
    rounds, which the vectorised engine may sample differently — but the
    compiled stepper must still match the object engine byte for byte.
    """

    def __init__(self, probs: Sequence[float]):
        self.probs = tuple(float(p) for p in probs)
        self.name = f"stoch[{len(self.probs)}]"

    def probability(self, local_round: int) -> float:
        if 1 <= local_round <= len(self.probs):
            return self.probs[local_round - 1]
        return 0.0

    def horizon(self) -> int:
        return len(self.probs)


@st.composite
def compiled_configs(c):
    kind = c(st.sampled_from(sorted(_LOWERABLE) + ["schedule"]))
    k = c(st.integers(1, 8))
    wakes = c(st.lists(st.integers(0, MAX_WAKE), min_size=k, max_size=k))
    stop = c(st.sampled_from(sorted(StopCondition, key=lambda s: s.value)))
    max_rounds = c(st.integers(MIN_ROUNDS, 400))
    jam = c(st.one_of(
        st.none(),
        st.sets(st.integers(1, 400), min_size=1, max_size=40),
    ))
    ack = c(st.booleans())
    seed = c(st.integers(0, 2**31 - 1))
    if kind == "schedule":
        protocol = StochasticSchedule(
            c(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                       min_size=1, max_size=MAX_PATTERN))
        )
    else:
        protocol = make_factory(_LOWERABLE[kind])
    return protocol, k, wakes, stop, max_rounds, jam, ack, seed


def compiled_spec(config) -> RunSpec:
    protocol, k, wakes, stop, max_rounds, jam, ack, seed = config
    return RunSpec(
        k=k,
        protocol=protocol,
        adversary=FixedSchedule(wakes),
        switch_off_on_ack=ack,
        stop=stop,
        max_rounds=max_rounds,
        jam_rounds=None if jam is None else tuple(jam),
        seed=seed,
    )


def assert_compiled_byte_identical(spec: RunSpec) -> None:
    assert compiled_inadmissibility(spec) is None
    obj = execute(spec, "object")
    comp = execute(spec, "compiled")
    assert_results_identical(spec, obj, comp)
    # The fused batch path must reproduce the same bytes per seed, with
    # the spec's own seed embedded in a multi-rep batch.
    seeds = [spec.seed, spec.seed + 1]
    fused = run_compiled_batch(spec, seeds=seeds)
    assert_results_identical(spec, obj, fused[0])
    assert_results_identical(
        spec.with_seed(seeds[1]),
        execute(spec.with_seed(seeds[1]), "object"),
        fused[1],
    )


@settings(max_examples=100, deadline=None)
@given(compiled_configs())
def test_compiled_engine_is_byte_identical(config):
    """object == compiled == fused-batch, byte for byte, across lowerable
    machines, wake schedules, stop conditions, jamming, no-ack switch-off
    and stochastic schedules."""
    assert_compiled_byte_identical(compiled_spec(config))


def test_compiled_uint32_cache_rewind_regression():
    """Pinned drift found by this fuzz family (cf. the PR-6 precedent).

    numpy's bounded ``integers(0, high)`` serves 32-bit halves of one
    uint64 across *two* calls, caching the unused half inside the bit
    generator — and that cache survives interleaved ``random()`` draws.
    The compiled stepper's block-prefetch rewind originally restored the
    stream position with ``advance()``, which cannot restore the cache, so
    a station whose sawtooth slot draws straddled an election (bounded
    draws before and after a block of uniforms) diverged from the object
    engine.  k=64 / seed 8 is the smallest configuration the fuzz sweep
    caught it on: station 13's ``integers(0, 8)`` slot draw at round 92
    returned the cached half under the buggy rewind.  The fix snapshots
    ``bit_generator.state`` at each refill and replays consumed draws.
    """
    spec = RunSpec(
        k=64,
        protocol=make_factory(AdaptiveNoK),
        adversary=UniformRandomSchedule(span=128),
        stop=StopCondition.ALL_SWITCHED_OFF,
        max_rounds=30 * 64,
        seed=8,
    )
    assert_results_identical(
        spec, execute(spec, "object"), execute(spec, "compiled")
    )


def test_compiled_handles_simultaneous_wakes_and_k_one():
    """Corner pins: all stations sharing one wake round (maximal
    contention ties) and the degenerate single-station run."""
    for k, wakes in ((4, [5, 5, 5, 5]), (1, [0])):
        spec = RunSpec(
            k=k,
            protocol=make_factory(AdaptiveNoK),
            adversary=FixedSchedule(wakes),
            stop=StopCondition.ALL_SWITCHED_OFF,
            max_rounds=600,
            seed=3,
        )
        assert_compiled_byte_identical(spec)


# ------------------------------------- compiled adaptive + CD feedback fuzz
#
# PR 9 widens the compiled stepper to the adaptive adversaries (lowered to
# Mealy tables over the ternary silence/success/collision outcome) and to
# ``FeedbackModel.COLLISION_DETECTION`` (ternary symbol columns, including
# the ``CdAimdProtocol`` window-lattice walk).  Byte identity must hold on
# that whole new axis too: every lowerable adversary x every lowerable
# protocol x both feedback models, with jamming and tight horizons mixed
# in, object == compiled == fused-batch per seed.

from repro.adversary.adaptive import (  # noqa: E402
    AntiLeaderAdversary,
    BurstOnQuietAdversary,
    DripFeedAdversary,
    WakeOnSuccessAdversary,
)
from repro.baselines.cd_adaptive import CdAimdProtocol  # noqa: E402
from repro.channel.feedback import FeedbackModel  # noqa: E402

_ADAPTIVE_ADVERSARIES = {
    "burst-on-quiet": lambda c: BurstOnQuietAdversary(
        burst=c(st.integers(1, 6)), quiet=c(st.integers(1, 6))
    ),
    "wake-on-success": lambda c: WakeOnSuccessAdversary(
        seed_group=c(st.integers(1, 4)), refill=c(st.integers(1, 4))
    ),
    "anti-leader": lambda c: AntiLeaderAdversary(flood=c(st.integers(1, 6))),
    "drip-feed": lambda c: DripFeedAdversary(interval=c(st.integers(1, 6))),
}


@st.composite
def compiled_adaptive_configs(c):
    adv_kind = c(st.sampled_from(sorted(_ADAPTIVE_ADVERSARIES) + ["oblivious"]))
    proto_kind = c(st.sampled_from(sorted(_LOWERABLE) + ["schedule", "cd-aimd"]))
    cd = True if proto_kind == "cd-aimd" else c(st.booleans())
    k = c(st.integers(1, 8))
    if adv_kind == "oblivious":
        adversary = FixedSchedule(
            c(st.lists(st.integers(0, MAX_WAKE), min_size=k, max_size=k))
        )
    else:
        adversary = _ADAPTIVE_ADVERSARIES[adv_kind](c)
    stop = c(st.sampled_from(sorted(StopCondition, key=lambda s: s.value)))
    max_rounds = c(st.integers(MIN_ROUNDS, 400))
    jam = c(st.one_of(
        st.none(),
        st.sets(st.integers(1, 400), min_size=1, max_size=40),
    ))
    seed = c(st.integers(0, 2**31 - 1))
    if proto_kind == "schedule":
        protocol = StochasticSchedule(
            c(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                       min_size=1, max_size=MAX_PATTERN))
        )
    elif proto_kind == "cd-aimd":
        protocol = make_factory(CdAimdProtocol)
    else:
        protocol = make_factory(_LOWERABLE[proto_kind])
    return protocol, adversary, cd, k, stop, max_rounds, jam, seed


def compiled_adaptive_spec(config) -> RunSpec:
    protocol, adversary, cd, k, stop, max_rounds, jam, seed = config
    return RunSpec(
        k=k,
        protocol=protocol,
        adversary=adversary,
        feedback=(
            FeedbackModel.COLLISION_DETECTION if cd else FeedbackModel.ACK_ONLY
        ),
        stop=stop,
        max_rounds=max_rounds,
        jam_rounds=None if jam is None else tuple(jam),
        seed=seed,
    )


@settings(max_examples=100, deadline=None)
@given(compiled_adaptive_configs())
def test_compiled_adaptive_and_cd_byte_identical(config):
    """object == compiled == fused-batch on the adaptive/CD axis: every
    lowerable adversary machine and ``CdAimdProtocol`` under both feedback
    models, mixed with jamming, stop conditions and tight horizons."""
    assert_compiled_byte_identical(compiled_adaptive_spec(config))


# ---------------------------------------------------- fault-injection fuzz
#
# PR 10 adds the fault subsystem (``repro.faults``): oblivious slot noise
# and ack loss lower onto the vectorised and batched engines as outcome
# rewrites, energy budgets are object-engine-only.  The fault plan is a
# pure function of ``(seed, horizon)``, so — unlike ``run_both`` above,
# which deliberately gives each engine a different seed — faulted
# byte-identity runs every engine *on the same seed* and demands exact
# record agreement on deterministic schedules.

from repro.engine.dispatch import (  # noqa: E402
    _FAULT_COMPILED_REASON,
    _FAULT_ENERGY_REASON,
    EngineSelectionError,
)


@st.composite
def faulted_configs(c):
    k = c(st.integers(1, 10))
    wakes = c(st.lists(st.integers(0, MAX_WAKE), min_size=k, max_size=k))
    pattern = c(st.lists(st.booleans(), min_size=1, max_size=MAX_PATTERN))
    direct = c(st.booleans())
    ack = c(st.booleans())
    stop = c(st.sampled_from(sorted(StopCondition, key=lambda s: s.value)))
    max_rounds = c(st.integers(MIN_ROUNDS, MAX_ROUNDS))
    jam = c(st.one_of(
        st.none(),
        st.sets(st.integers(1, MAX_ROUNDS), min_size=1, max_size=40),
    ))
    noise = c(st.one_of(st.none(), st.floats(0.0, 0.6, allow_nan=False)))
    ack_loss = c(st.one_of(st.none(), st.floats(0.0, 0.6, allow_nan=False)))
    if noise is None and ack_loss is None:
        noise = 0.1
    seed = c(st.integers(0, 2**31 - 1))
    return (k, wakes, pattern, direct, ack, stop, max_rounds, jam,
            noise, ack_loss, seed)


def faulted_spec(config) -> RunSpec:
    (k, wakes, pattern, direct, ack, stop, max_rounds, jam,
     noise, ack_loss, seed) = config
    return RunSpec(
        k=k,
        protocol=DeterministicSchedule(pattern, direct=direct),
        adversary=FixedSchedule(wakes),
        switch_off_on_ack=ack,
        stop=stop,
        max_rounds=max_rounds,
        jam_rounds=None if jam is None else tuple(jam),
        faults=FaultModel(
            noise=None if noise is None else SlotNoise(noise),
            ack_loss=None if ack_loss is None else AckLoss(ack_loss),
        ),
        seed=seed,
    )


@settings(max_examples=100, deadline=None)
@given(faulted_configs())
def test_faulted_engines_byte_identical(config):
    """Oblivious noise/ack-loss on deterministic schedules: the object,
    vectorised and fused-batch engines agree byte for byte per seed,
    jamming and every stop condition mixed in."""
    spec = faulted_spec(config)
    assert vectorized_inadmissibility(spec) is None
    obj = execute(spec, "object")
    vec = execute(spec, "vectorized")
    (fused,) = execute_batch(spec, seeds=[spec.seed])
    for a, b in ((obj, vec), (vec, fused)):
        assert a.completed == b.completed
        assert a.rounds_executed == b.rounds_executed
        assert a.success_count == b.success_count
        assert a.total_transmissions == b.total_transmissions
        assert sorted(a.latencies) == sorted(b.latencies)
        assert record_keys(a, a.rounds_executed) == record_keys(
            b, b.rounds_executed
        )


@settings(max_examples=25, deadline=None)
@given(faulted_configs(), st.integers(1, 40))
def test_energy_budget_is_object_engine_only(config, charges):
    """Energy-budget specs are vectorised- and compiled-inadmissible with
    the documented reason strings; dispatch falls back to the object
    engine, which runs them."""
    spec = faulted_spec(config)
    spec = spec.replace(faults=FaultModel(
        noise=spec.faults.noise,
        ack_loss=spec.faults.ack_loss,
        energy_budget=EnergyBudget(charges),
    ))
    assert vectorized_inadmissibility(spec) == _FAULT_ENERGY_REASON
    assert compiled_inadmissibility(spec) == _FAULT_COMPILED_REASON
    with pytest.raises(EngineSelectionError):
        execute(spec, "vectorized")
    with pytest.raises(EngineSelectionError):
        execute(spec, "compiled")
    result = execute(spec)  # auto -> object
    assert all(
        r.transmissions + r.listening_slots <= charges for r in result.records
    )


# Fixed-seed trajectory anchors: these pin the *object engine's* observable
# trajectory for the two adversaries whose lowering is subtlest (the
# anti-leader success-edge detector and the drip-feed modular clock), so a
# regression in either engine — not just a divergence between them — fails
# loudly.  Values were captured from the object engine at the pinned seeds.

_TRAJECTORY_ANCHORS = [
    (
        "anti-leader",
        AntiLeaderAdversary(flood=5),
        dict(rounds_executed=224, success_count=24, total_transmissions=463),
    ),
    (
        "drip-feed",
        DripFeedAdversary(interval=3),
        dict(rounds_executed=234, success_count=24, total_transmissions=421),
    ),
]


@pytest.mark.parametrize(
    "adversary, expected",
    [(a, e) for _, a, e in _TRAJECTORY_ANCHORS],
    ids=[name for name, _, _ in _TRAJECTORY_ANCHORS],
)
def test_compiled_adaptive_trajectory_anchors(adversary, expected):
    spec = RunSpec(
        k=24,
        protocol=make_factory(AdaptiveNoK),
        adversary=adversary,
        stop=StopCondition.ALL_SWITCHED_OFF,
        max_rounds=2000,
        seed=20260808,
    )
    obj = execute(spec, "object")
    comp = execute(spec, "compiled")
    assert_results_identical(spec, obj, comp)
    for result in (obj, comp):
        assert result.completed
        assert result.rounds_executed == expected["rounds_executed"]
        assert result.success_count == expected["success_count"]
        assert result.total_transmissions == expected["total_transmissions"]
