"""Capability-based engine dispatch: ``execute(spec, engine="auto")``.

The repository ships three exact engines, each a single-run view of one
semantics — the slot-by-slot
:class:`~repro.channel.simulator.SlotSimulator` (runs everything), the
Poisson-thinning batch kernel :func:`~repro.channel.batched.run_batch`
(runs the non-adaptive subset; a single run is a batch of one, fronted
by :class:`~repro.channel.vectorized.VectorizedSimulator`), and the
table-driven compiled stepper (:mod:`repro.channel.compiled`,
byte-identical to the object engine on the finite-state-machine
protocols it lowers — ``AdaptiveNoK``, ``SUniform``, ``GlobalClockUFR``
and probability schedules).  Before this layer existed, every
experiment driver hand-picked an engine and re-spelled its constructor
kwargs; now the choice is a property of the
:class:`~repro.core.spec.RunSpec`:

===============================  ======================================
spec property                    vectorised-admissible?
===============================  ======================================
protocol is a factory            no — stateful protocols need the round loop
adaptive adversary               no — reacts to history the batch sampler
                                 never materialises (the *compiled*
                                 stepper runs the lowerable adversary
                                 machines)
``jammer`` object                no — may be adaptive (``jam_rounds`` is
                                 the oblivious, engine-portable form)
``record_trace=True``            no — the fast engine keeps no event log
non-ACK feedback                 no — needs the per-round observation
                                 path (the *compiled* stepper covers
                                 collision detection via its ternary
                                 symbol columns)
``queue_discipline="fifo"``      no — FIFO heads depend on channel
                                 history; only the
                                 :class:`~repro.channel.traffic.QueueSimulator`
                                 round loop materialises it
``faults`` with an energy        no — budgets mutate per-station
budget                           liveness mid-protocol; oblivious
                                 noise/ack-loss faults *are*
                                 vectorised-admissible (they lower as
                                 post-resolution outcome rewrites; the
                                 compiled stepper rejects all faults)
everything else                  yes
===============================  ======================================

Traffic runs (``spec.arrivals`` set) route through the *reduction*
(:func:`repro.channel.traffic.traffic_reduction`): free-discipline traffic
is exactly a packet-level classic run, so its admissibility is the
reduced spec's admissibility — oblivious arrivals + a non-adaptive
schedule run vectorised and batch-fused, everything else falls back to
the object engine on the reduced spec.  FIFO traffic always runs on the
dedicated object-engine :class:`~repro.channel.traffic.QueueSimulator`.

``engine="auto"`` (the default) routes vectorised-admissible specs to the
vectorised engine, compiled-admissible ones (a wider capability set:
the protocol drawn from the *lowerable* machines, the adversary either
an oblivious schedule or one of the lowerable adaptive machines, and
ACK-only or collision-detection feedback — still no jammer objects, no
traces) to the compiled stepper, and everything else to the object
engine.  ``engine="object"`` forces the
reference engine (always legal); ``engine="vectorized"`` or
``engine="compiled"`` on an inadmissible spec raises
:class:`EngineSelectionError` instead of silently running the wrong
semantics.  ``engine="cross-check"`` runs every engine the spec admits
and asserts agreement: the vectorised engine per
:func:`assert_results_agree` (exact for deterministic schedules,
model-invariant for stochastic ones, whose per-seed outcomes
legitimately differ between sampling mechanisms), and the compiled
engine per :func:`assert_results_identical` — full byte identity, since
it replays the object engine's RNG draw order exactly.

The adaptive/oblivious boundary here mirrors the feedback distinction
stressed in the contention-resolution literature (Bender et al.; De
Marco–Kowalski–Stachowiak): an oblivious wake schedule plus a non-adaptive
transmission schedule is a product distribution the thinning sampler can
draw in one shot, while anything that *reacts* needs the round loop.

The process-wide default engine (:func:`use_engine` /
:func:`set_default_engine`, wired to the CLI's ``--engine`` flag) lets a
whole experiment run under ``cross-check`` without touching any driver.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager
from typing import Optional, Union

import numpy as np

from repro.adversary.base import AdaptiveAdversary, WakeSchedule
from repro.baselines.cd_adaptive import CdAimdProtocol
from repro.channel.batched import run_batch
from repro.channel.compiled import CompiledSimulator, run_compiled_batch
from repro.channel.jamming import ScheduledJammer
from repro.channel.feedback import FeedbackModel
from repro.channel.results import RunResult
from repro.channel.simulator import SlotSimulator
from repro.channel.traffic import QueueSimulator, traffic_reduction
from repro.channel.validate import validate_run
from repro.channel.vectorized import VectorizedSimulator
from repro.core.spec import RunSpec
from repro.engine.cache import probability_table
from repro.engine.compile import adversary_lowering_reason, lowering_reason
from repro.telemetry import registry as telemetry

__all__ = [
    "ENGINE_NAMES",
    "EngineSelectionError",
    "EngineDisagreement",
    "vectorized_inadmissibility",
    "compiled_inadmissibility",
    "select_engine",
    "build_simulator",
    "execute",
    "execute_batch",
    "assert_results_agree",
    "assert_results_identical",
    "set_default_engine",
    "get_default_engine",
    "use_engine",
]

Engine = Union[SlotSimulator, VectorizedSimulator, CompiledSimulator, QueueSimulator]

#: Legal values of the ``engine`` argument (and the CLI's ``--engine``).
ENGINE_NAMES = ("auto", "object", "vectorized", "compiled", "cross-check")

#: Process-wide default consulted when ``execute`` is called with
#: ``engine=None`` — the hook the CLI's ``--engine`` flag sets.
_default_engine = "auto"


#: Shared dispatch-reason strings.  Each capability gap is spelled once
#: here — the admissibility predicates, forced-engine errors and the docs'
#: dispatch table all quote the same sentence, so the wording cannot
#: drift between the two fast engines.
_FIFO_REASON = (
    "fifo queues serialise packets on channel history, which only the "
    "QueueSimulator round loop materialises"
)
_ADAPTIVE_ADVERSARY_REASON = (
    "adaptive adversaries react to channel history, which the batch "
    "sampler never materialises; the lowerable adversary machines run on "
    "the compiled stepper instead"
)
_JAMMER_REASON = (
    "jammer objects may be adaptive; use jam_rounds for oblivious "
    "jamming on the fast engines"
)
_CD_FEEDBACK_REASON = (
    "non-ACK feedback needs the per-round observation path; the compiled "
    "stepper's ternary symbol columns cover collision detection, the "
    "batch sampler does not"
)
_CD_AIMD_ACK_REASON = (
    "CdAimdProtocol requires collision-detection feedback; under ack-only "
    "feedback the object engine raises its RuntimeError at the first "
    "observation"
)
_PROTOCOL_FACTORY_REASON = (
    "protocol-factory runs need the object engine's round loop"
)
_VECTORIZED_TRACE_REASON = "the vectorised engine keeps no per-round event log"
_COMPILED_TRACE_REASON = "the compiled engine keeps no per-round event log"
_COMPILED_FEEDBACK_REASON = (
    "feedback model {feedback!r} has no compiled symbol lowering"
)
_FAULT_ENERGY_REASON = (
    "energy budgets kill stations mid-protocol, a per-station liveness "
    "mutation only the object engine's round loop tracks; oblivious "
    "noise/ack-loss faults run on every engine"
)
_FAULT_COMPILED_REASON = (
    "the compiled stepper has no fault lowering; faulted specs run "
    "vectorised (oblivious noise/ack-loss) or on the object engine"
)


class EngineSelectionError(ValueError):
    """A spec was forced onto an engine that cannot express it."""


class EngineDisagreement(AssertionError):
    """Cross-check mode found the two engines producing different results."""


def set_default_engine(engine: str) -> None:
    """Set the process default for ``execute(spec, engine=None)``."""
    global _default_engine
    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINE_NAMES}")
    _default_engine = engine


def get_default_engine() -> str:
    """The process default engine (``"auto"`` unless overridden)."""
    return _default_engine


@contextmanager
def use_engine(engine: Optional[str]):
    """Scope a default-engine override (None = leave the default alone)."""
    global _default_engine
    previous = _default_engine
    if engine is not None:
        set_default_engine(engine)
    try:
        yield
    finally:
        _default_engine = previous


def vectorized_inadmissibility(spec: RunSpec) -> Optional[str]:
    """Why ``spec`` cannot run on the vectorised engine, or None if it can.

    The returned string is the human-readable dispatch reason used in
    error messages and in the docs' dispatch table.
    """
    if spec.is_traffic_run:
        if spec.queue_discipline != "free":
            return _FIFO_REASON
        # Free-discipline traffic is exactly its packet-level reduction.
        return vectorized_inadmissibility(traffic_reduction(spec))
    if not spec.is_schedule_run:
        return _PROTOCOL_FACTORY_REASON
    if not isinstance(spec.adversary, WakeSchedule):
        return _ADAPTIVE_ADVERSARY_REASON
    if spec.jammer is not None:
        return _JAMMER_REASON
    if spec.record_trace:
        return _VECTORIZED_TRACE_REASON
    if spec.feedback is not FeedbackModel.ACK_ONLY:
        return _CD_FEEDBACK_REASON
    if spec.faults is not None and spec.faults.energy_budget is not None:
        return _FAULT_ENERGY_REASON
    return None


def compiled_inadmissibility(spec: RunSpec) -> Optional[str]:
    """Why ``spec`` cannot run on the compiled engine, or None if it can.

    Channel-level capabilities: oblivious jamming only (``jam_rounds``),
    no traces, ACK-only *or* collision-detection feedback (the ternary
    symbol columns), and any adversary that is either an oblivious
    :class:`WakeSchedule` or one of the lowerable adaptive machines
    (:func:`repro.engine.compile.adversary_lowering_reason`).  The
    protocol capability is any machine the lowering pass knows
    (:func:`repro.engine.compile.lowering_reason`), probed on a fresh
    instance via :attr:`RunSpec.protocol_probe` — with the one coupling
    rule that ``CdAimdProtocol`` also *requires* CD feedback.
    """
    if spec.is_traffic_run:
        if spec.queue_discipline != "free":
            return _FIFO_REASON
        # Free-discipline traffic is exactly its packet-level reduction.
        return compiled_inadmissibility(traffic_reduction(spec))
    if spec.faults is not None:
        return _FAULT_COMPILED_REASON
    if not isinstance(spec.adversary, WakeSchedule):
        reason = adversary_lowering_reason(spec.adversary)
        if reason is not None:
            return reason
    if spec.jammer is not None:
        return _JAMMER_REASON
    if spec.record_trace:
        return _COMPILED_TRACE_REASON
    if spec.feedback not in (
        FeedbackModel.ACK_ONLY,
        FeedbackModel.COLLISION_DETECTION,
    ):
        return _COMPILED_FEEDBACK_REASON.format(feedback=spec.feedback.value)
    if spec.is_schedule_run:
        return None
    probe = spec.protocol_probe
    reason = lowering_reason(probe)
    if reason is not None:
        return reason
    if (
        type(probe) is CdAimdProtocol
        and spec.feedback is not FeedbackModel.COLLISION_DETECTION
    ):
        return _CD_AIMD_ACK_REASON
    return None


def select_engine(spec: RunSpec) -> str:
    """The engine ``engine="auto"`` resolves to.

    The vectorised engine wins where admissible (it samples whole
    transmission sets instead of stepping rounds, so it is the fastest);
    the compiled stepper takes the remaining lowerable machines; the
    object engine runs the rest.
    """
    if not vectorized_inadmissibility(spec):
        return "vectorized"
    if not compiled_inadmissibility(spec):
        return "compiled"
    return "object"


def build_simulator(spec: RunSpec, engine: str = "auto") -> Engine:
    """Construct (but do not run) the simulator for ``spec``.

    The vectorised path shares the per-process probability-table cache, so
    repeated runs of the same configuration reuse one table.
    """
    if engine == "auto":
        engine = select_engine(spec)
    if spec.is_traffic_run and engine in ("object", "vectorized", "compiled"):
        if spec.queue_discipline == "fifo":
            if engine == "vectorized":
                raise EngineSelectionError(
                    "spec is not vectorised-admissible: "
                    f"{vectorized_inadmissibility(spec)}"
                )
            if engine == "compiled":
                raise EngineSelectionError(
                    "spec is not compiled-admissible: "
                    f"{compiled_inadmissibility(spec)}"
                )
            return QueueSimulator(spec)
        # Free discipline: every engine runs the packet-level reduction.
        return build_simulator(traffic_reduction(spec), engine)
    if engine == "vectorized":
        reason = vectorized_inadmissibility(spec)
        if reason is not None:
            raise EngineSelectionError(
                f"spec is not vectorised-admissible: {reason}"
            )
        return VectorizedSimulator(
            spec.k,
            spec.schedule,
            spec.adversary,
            switch_off_on_ack=spec.switch_off_on_ack,
            stop=spec.stop,
            max_rounds=spec.resolve_horizon(),
            seed=spec.seed,
            jam_rounds=spec.jam_rounds,
            faults=spec.faults,
        )
    if engine == "compiled":
        reason = compiled_inadmissibility(spec)
        if reason is not None:
            raise EngineSelectionError(
                f"spec is not compiled-admissible: {reason}"
            )
        return CompiledSimulator(spec)
    if engine == "object":
        jammer = spec.jammer
        if jammer is None and spec.jam_rounds is not None:
            jammer = ScheduledJammer(spec.jam_rounds)
        return SlotSimulator(
            spec.k,
            spec.protocol_factory,
            spec.adversary,
            feedback=spec.feedback,
            stop=spec.stop,
            max_rounds=spec.resolve_horizon(),
            seed=spec.seed,
            record_trace=spec.record_trace,
            jammer=jammer,
            faults=spec.faults,
        )
    raise ValueError(
        f"unknown engine {engine!r}; known: {ENGINE_NAMES}"
        + (" (cross-check is execute()-only)" if engine == "cross-check" else "")
    )


def execute(spec: RunSpec, engine: Optional[str] = None) -> RunResult:
    """Run one spec on the right engine and return its :class:`RunResult`.

    ``engine=None`` uses the process default (``"auto"`` unless the CLI's
    ``--engine`` flag or :func:`use_engine` changed it).  ``"auto"`` picks
    the vectorised engine exactly when the spec is admissible; that path
    is a one-seed :func:`~repro.channel.batched.run_batch` call,
    byte-identical to constructing the engine directly.
    ``"cross-check"`` runs both engines, asserts agreement, and returns
    the result ``"auto"`` would have returned.
    """
    if engine is None:
        engine = _default_engine
    if engine == "cross-check":
        with telemetry.span("engine.execute.cross-check"):
            return _cross_check(spec)
    if engine == "auto":
        engine = select_engine(spec)
    if engine == "vectorized":
        reason = vectorized_inadmissibility(spec)
        if reason is not None:
            raise EngineSelectionError(
                f"spec is not vectorised-admissible: {reason}"
            )
        telemetry.count("engine.select.vectorized")
        if spec.faults is not None:
            telemetry.count("engine.select.vectorized.fault")
        with telemetry.span("engine.execute.vectorized"):
            (result,) = run_batch(_fused_base(spec), seeds=[spec.seed])
            return result
    simulator = build_simulator(spec, engine)
    if isinstance(simulator, CompiledSimulator):
        telemetry.count("engine.select.compiled")
        _count_compiled_capabilities(simulator.spec)
        with telemetry.span("engine.execute.compiled"):
            return simulator.run()
    telemetry.count("engine.select.object")
    if spec.faults is not None:
        telemetry.count("engine.select.object.fault")
    with telemetry.span("engine.execute.object"):
        return simulator.run()


def _count_compiled_capabilities(spec: RunSpec) -> None:
    """Sub-counters under ``engine.select``: which widened capability a
    compiled selection exercised (``repro stats`` renders them alongside
    the per-engine selection counts)."""
    if isinstance(spec.adversary, AdaptiveAdversary):
        telemetry.count("engine.select.compiled.adaptive")
    if spec.feedback is FeedbackModel.COLLISION_DETECTION:
        telemetry.count("engine.select.compiled.cd")


def _fused_base(spec: RunSpec) -> RunSpec:
    """The spec a fused kernel runs: admissible traffic specs fuse through
    their packet-level reduction (seed-independent by construction: the
    capacity padding fixes k).  Only free-discipline traffic reduces, so
    call this only once a kernel has admitted ``spec``."""
    return traffic_reduction(spec) if spec.is_traffic_run else spec


def execute_batch(
    spec: RunSpec, seeds: Sequence[int], engine: Optional[str] = None
) -> list[RunResult]:
    """Run ``spec`` once per seed, fusing admissible specs into one batch.

    Byte-identical to ``[execute(spec.with_seed(s), engine) for s in
    seeds]`` — both fused kernels (:func:`repro.channel.batched.run_batch`
    and :func:`repro.channel.compiled.run_compiled_batch`) are admissible
    exactly where their single-run engines are, and everything else falls
    back to per-run execution transparently:

    * ``"auto"`` (or None, with an ``auto`` default): vectorised-admissible
      specs run through the batched kernel, compiled-admissible ones
      through the compiled stepper's fused batch; the rest loop over
      per-run object-engine executions;
    * ``"vectorized"`` / ``"compiled"``: the matching fused kernel, raising
      :class:`EngineSelectionError` on inadmissible specs like ``execute``;
    * ``"object"`` / ``"cross-check"``: always the per-run loop (the object
      engine has no batch form; cross-check shadows each run).

    Both fused kernels stream their repetitions through memory-bounded
    tiles governed by the process-wide tiling defaults (CLI
    ``--memory-budget`` / ``--tile-reps`` / ``--tile-rounds``; see
    :mod:`repro.engine.plan`) — tiling never changes result bytes.
    """
    seed_list = [int(s) for s in seeds]
    if engine is None:
        engine = _default_engine
    if engine in ("object", "cross-check"):
        return [execute(spec.with_seed(s), engine) for s in seed_list]
    if engine not in ("auto", "vectorized", "compiled"):
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINE_NAMES}")
    vec_reason = vectorized_inadmissibility(spec)
    if engine in ("auto", "vectorized") and vec_reason is None:
        telemetry.count("engine.batch_fused_runs", len(seed_list))
        if spec.faults is not None:
            telemetry.count("engine.select.vectorized.fault", len(seed_list))
        return run_batch(_fused_base(spec), seeds=seed_list)
    if engine == "vectorized":
        raise EngineSelectionError(
            f"spec is not vectorised-admissible: {vec_reason}"
        )
    comp_reason = compiled_inadmissibility(spec)
    if comp_reason is None:
        telemetry.count("engine.batch_fused_runs", len(seed_list))
        base = _fused_base(spec)
        _count_compiled_capabilities(base)
        return run_compiled_batch(base, seeds=seed_list)
    if engine == "compiled":
        raise EngineSelectionError(
            f"spec is not compiled-admissible: {comp_reason}"
        )
    telemetry.count("engine.batch_fallback_runs", len(seed_list))
    return [execute(spec.with_seed(s), "object") for s in seed_list]


def _is_deterministic(spec: RunSpec) -> bool:
    """True when every per-round probability is 0 or 1 over the horizon —
    the regime where both engines are pure functions of the configuration
    and must agree exactly (cf. ``tests/test_engine_fuzz.py``)."""
    table = probability_table(spec.schedule, spec.resolve_horizon())
    return bool(np.all((table == 0.0) | (table == 1.0)))


def _record_keys(result: RunResult, up_to_round: int) -> list[tuple]:
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


def assert_results_agree(
    spec: RunSpec, object_result: RunResult, vectorized_result: RunResult
) -> None:
    """Raise :class:`EngineDisagreement` unless the two engines agree.

    Deterministic schedules demand full agreement: completion, rounds
    executed, every metric, and the station-record multiset.  Stochastic
    schedules use different sampling mechanisms (per-round Bernoulli vs
    Poisson thinning), so per-seed equality cannot hold; both results must
    instead pass the model-invariant validator and report identical wake
    draws (the adversary stream is shared), restricted to stations woken
    before either run stopped.
    """
    obj, vec = object_result, vectorized_result

    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise EngineDisagreement(
                f"engines disagree on {spec.display_label!r} "
                f"(k={spec.k}, seed={spec.seed}): {message}"
            )

    try:
        validate_run(obj)
        validate_run(vec)
    except Exception as error:  # InvariantViolation carries the detail
        raise EngineDisagreement(
            f"invariant violation on {spec.display_label!r} "
            f"(k={spec.k}, seed={spec.seed}): {error}"
        ) from error

    if _is_deterministic(spec):
        _require(obj.completed == vec.completed, "completed flags differ")
        _require(
            obj.rounds_executed == vec.rounds_executed, "rounds_executed differ"
        )
        _require(
            obj.first_success_round == vec.first_success_round,
            "first_success_round differs",
        )
        _require(obj.success_count == vec.success_count, "success counts differ")
        _require(
            obj.total_transmissions == vec.total_transmissions,
            "energy differs",
        )
        _require(
            sorted(obj.latencies) == sorted(vec.latencies), "latencies differ"
        )
        _require(
            _record_keys(obj, obj.rounds_executed)
            == _record_keys(vec, obj.rounds_executed),
            "station records differ",
        )
        return

    horizon = min(obj.rounds_executed, vec.rounds_executed)
    obj_wakes = sorted(
        r.wake_round for r in obj.records if r.wake_round <= horizon
    )
    vec_wakes = sorted(
        r.wake_round for r in vec.records if r.wake_round <= horizon
    )
    _require(
        obj_wakes == vec_wakes,
        "wake draws differ (the adversary stream must be shared)",
    )


def assert_results_identical(
    spec: RunSpec, object_result: RunResult, compiled_result: RunResult
) -> None:
    """Raise :class:`EngineDisagreement` unless the results are byte-equal.

    The compiled stepper replays the object engine's per-station RNG draw
    order, so — unlike the vectorised engine's model-invariant contract —
    every field of every station record must match exactly, per seed:
    station id, wake round, first success, switch-off round, transmission
    and listening counts, plus the run-level rounds/completion outcome.
    """
    obj, comp = object_result, compiled_result

    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise EngineDisagreement(
                f"compiled engine diverged on {spec.display_label!r} "
                f"(k={spec.k}, seed={spec.seed}): {message}"
            )

    _require(obj.completed == comp.completed, "completed flags differ")
    _require(
        obj.rounds_executed == comp.rounds_executed, "rounds_executed differ"
    )
    _require(
        len(obj.records) == len(comp.records),
        f"record counts differ ({len(obj.records)} != {len(comp.records)})",
    )
    for o, c in zip(obj.records, comp.records):
        same = (
            o.station_id == c.station_id
            and o.wake_round == c.wake_round
            and o.first_success_round == c.first_success_round
            and o.switch_off_round == c.switch_off_round
            and o.transmissions == c.transmissions
            and o.listening_slots == c.listening_slots
        )
        _require(same, f"station record differs: {o} != {c}")


def _cross_check(spec: RunSpec) -> RunResult:
    """Run every engine the spec admits and assert agreement.

    Returns the result ``engine="auto"`` would have produced, so flipping
    a whole experiment to cross-check changes no reported number — it only
    adds shadow runs and the agreement assertions.  Vectorised-admissible
    specs run all three engines (vectorised vs object per
    :func:`assert_results_agree`, compiled vs object per
    :func:`assert_results_identical` — schedule runs are always
    lowerable); compiled-only specs run the compiled stepper against the
    object engine; object-only specs degrade to a plain object run.
    """
    obj = build_simulator(spec, "object").run()
    if compiled_inadmissibility(spec) is None:
        comp = build_simulator(spec, "compiled").run()
        assert_results_identical(spec, obj, comp)
    else:
        comp = None
    if vectorized_inadmissibility(spec) is not None:
        return obj if comp is None else comp
    vec = build_simulator(spec, "vectorized").run()
    assert_results_agree(spec, obj, vec)
    return vec
