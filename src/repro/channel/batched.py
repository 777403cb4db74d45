"""Batched vectorised engine: R repetitions in one set of numpy passes.

Every experiment in this repository is a Monte Carlo estimate — the
harness's ``run_grid`` executes hundreds to thousands of statistically
independent repetitions of the same :class:`~repro.core.spec.RunSpec`.  :func:`run_batch` is the one engine
for vectorised-admissible specs: it fuses all R repetitions into one
``(rep, station)`` batch, and a single run is simply a batch of one
(:class:`~repro.channel.vectorized.VectorizedSimulator` is that facade):

1. wake schedules and Poisson transmission points are drawn per
   repetition from that repetition's own seeded generators (the draw
   sequence is *exactly* a sequential per-run sampler's, which is what
   makes the results byte-identical), then concatenated into flat batch
   arrays;
2. collisions are resolved for the whole batch at once with array-segment
   reductions: events are sorted by ``(rep, global_round)``, per-round
   attempt counts come from run-length boundaries, and singleton rounds —
   the successes — fall out of a ``counts == 1`` mask;
3. the acknowledgement-triggered switch-off (a success *removes the
   winner's future events*, which can turn a later collision into a new
   singleton) is handled by a delta-counted fixpoint: after one counting
   pass over the whole stream, each pass locates — through a
   station-major view sorted once — only the events that the last pass's
   new wins invalidated, decrements their rounds' attempt counts, and
   takes the rounds left with one attempt as the next candidate
   successes, until no win moves.  Work per pass is proportional to the
   events removed, not to the stream.  Deaths are monotone (a station's
   estimated switch-off round only moves earlier, and never before its
   true one), so the fixpoint converges to exactly the sequential sweep's
   outcome.

Streaming execution
-------------------

Millions of repetitions cannot hold the full (rep, round, station) event
space at once, so :func:`run_batch` executes a deterministic
:class:`~repro.engine.plan.TilePlan`: repetitions stream through in
**rep tiles** (each tile runs the whole kernel on its own slice of the
seed list — per-rep RNG is independent, so this is trivially exact), and
inside a tile the ack-switch-off fixpoint can sweep the sorted event
stream in **round windows**, carrying the ``win`` frontier from window
to window (see :func:`_ack_fixpoint`).  Tile sizes come from the
planner's bytes-per-(rep·round·station) cost model under
``--memory-budget``, or explicitly via ``tile_reps`` / ``tile_rounds``;
with no constraint the plan is the single monolithic batch, exactly the
historical behaviour.  An allocation that would exceed memory fails fast
as :class:`~repro.engine.plan.BatchMemoryError` naming the offending
spec field and an admitting budget, instead of letting numpy abort.

Exactness contract
------------------

``run_batch(spec, seeds=[s0, ..., s(R-1)])`` returns ``RunResult``s
byte-identical to ``[run_batch(spec, seeds=[s]) for s in seeds]`` — same
wake draws, same transmission samples, same records, metrics, completion
flags and stop rounds, **at any tile size**.  ``tests/test_batched.py``
fuzzes the kernel against an independent sequential resolver (the same
per-repetition draws, then a per-round sweep) across the cross-engine
config space (stochastic and deterministic schedules, jamming, faults,
the no-ack switch-off variant, every stop condition), and
``tests/test_plan.py`` across random tile-rep/round-window sizes.

Admissibility is the vectorised engine's: non-adaptive schedule,
oblivious wake adversary, no stateful jammer, no trace, ACK feedback.
Route through :func:`repro.engine.dispatch.execute_batch` to get
transparent per-run fallback for everything else.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.adversary.base import WakeSchedule
from repro.channel.feedback import FeedbackModel
from repro.channel.results import RunResult, StopCondition
from repro.channel.vectorized import (
    ScheduleTables,
    check_prob_table,
    sample_station_events,
)
from repro.core.protocol import ProbabilitySchedule
from repro.core.spec import RunSpec
from repro.core.station import StationRecord
from repro.telemetry import registry as telemetry

__all__ = ["run_batch"]

#: "Never happens" sentinel for round numbers (first success / switch-off).
_INF = np.iinfo(np.int64).max


def _resolve_seeds(
    spec: RunSpec, n_reps: Optional[int], seeds: Optional[Sequence[Optional[int]]]
) -> list[Optional[int]]:
    if seeds is None:
        if n_reps is None:
            raise ValueError("run_batch needs n_reps or an explicit seed list")
        if spec.seed is None:
            raise ValueError(
                "run_batch(spec, n_reps) derives per-rep seeds from spec.seed; "
                "set spec.seed or pass seeds explicitly"
            )
        return [spec.seed + r for r in range(n_reps)]
    seed_list = [None if s is None else int(s) for s in seeds]
    if n_reps is not None and n_reps != len(seed_list):
        raise ValueError(
            f"n_reps={n_reps} disagrees with len(seeds)={len(seed_list)}"
        )
    return seed_list


def _rep_generators(
    seed: Optional[int],
) -> tuple[np.random.Generator, np.random.Generator]:
    """One repetition's (adversary, station) generator pair.

    The two ``spawn(2)`` children of ``SeedSequence(seed)`` (spawn keys
    ``(0,)`` and ``(1,)``) — the same streams
    :class:`~repro.util.rng.RngFactory` hands out as two successive
    ``spawn(1)`` children, so journals written by the historical per-run
    engine replay byte-identically.  ``seed=None`` draws OS entropy.
    """
    adversary_child, station_child = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(adversary_child)),
        np.random.Generator(np.random.PCG64(station_child)),
    )


def _map_points_to_rounds(full_cum: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Exact ``np.searchsorted(full_cum, flat, side="right")``, faster.

    Binary search pays ~90 ns per point; a batch has millions.  A uniform
    grid over the hazard axis precomputes, per grid bucket, the smallest
    insertion index of any value in the bucket; each point then starts at
    its bucket's index and walks forward at most ``max bucket span`` steps
    (whole-array compare-and-add passes).  A trailing backward pass
    corrects the rare float-rounding overshoot of the bucket computation,
    so the result is exactly the binary search's for every input.  Tables
    whose hazard mass concentrates in few buckets (span > 32) — and small
    batches, where the grid setup doesn't amortise — fall back to plain
    ``searchsorted``.
    """
    n = int(full_cum.shape[0])
    total = float(full_cum[-1]) if n else 0.0
    if flat.size < 65536 or n < 2 or not total > 0.0:
        return np.searchsorted(full_cum, flat, side="right")
    m = 1 << ((n - 1).bit_length() + 1)  # ~2-4 buckets per round
    edges = np.arange(m, dtype=np.float64) * (total / m)
    lo = np.searchsorted(full_cum, edges, side="right")
    spans = np.diff(lo)
    max_span = int(spans.max()) if spans.size else 0
    if max_span > 32:
        return np.searchsorted(full_cum, flat, side="right")
    bucket = np.minimum((flat * (m / total)).astype(np.int64), m - 1)
    np.maximum(bucket, 0, out=bucket)
    idx = lo[bucket]
    cum_pad = np.append(full_cum, np.inf)
    # One whole-array pass finds the points still left of their round;
    # subsequent passes touch only the shrinking unresolved subset.
    active = np.flatnonzero(cum_pad[idx] <= flat)
    for _ in range(max_span + 2):
        if active.size == 0:
            break
        idx[active] += 1
        still = cum_pad[idx[active]] <= flat[active]
        active = active[still]
    else:  # pragma: no cover - loop bound is exact by construction
        return np.searchsorted(full_cum, flat, side="right")
    behind = np.flatnonzero(
        (idx > 0) & (full_cum[np.maximum(idx, 1) - 1] > flat)
    )
    while behind.size:
        idx[behind] -= 1
        sub = idx[behind]
        still = (sub > 0) & (full_cum[np.maximum(sub, 1) - 1] > flat[behind])
        behind = behind[still]
    return idx


def _check_batchable(spec: RunSpec) -> None:
    """Defensive admissibility check (dispatch performs the routed one).

    Each message names the spec field that tripped, so a driver that
    bypassed dispatch sees exactly which capability to change.
    """
    if not spec.is_schedule_run:
        raise TypeError(
            "run_batch requires a probability-schedule spec: spec.protocol is "
            f"a factory ({spec.display_label!r}); use run_compiled_batch or "
            "per-run execute() for stateful protocols"
        )
    if not isinstance(spec.adversary, WakeSchedule):
        raise TypeError(
            "run_batch requires an oblivious WakeSchedule: spec.adversary is "
            f"{type(spec.adversary).__name__}, which may react to channel history"
        )
    if spec.jammer is not None:
        raise ValueError(
            "run_batch does not take jammer objects: spec.jammer is "
            f"{type(spec.jammer).__name__}; express oblivious jamming as "
            "spec.jam_rounds instead"
        )
    if spec.record_trace:
        raise ValueError(
            "run_batch keeps no event log: spec.record_trace is True; "
            "use the object engine to record traces"
        )
    if spec.feedback is not FeedbackModel.ACK_ONLY:
        raise ValueError(
            "run_batch only models ACK feedback: spec.feedback is "
            f"{spec.feedback.value!r}"
        )
    if spec.faults is not None and spec.faults.energy_budget is not None:
        raise ValueError(
            "run_batch does not model energy budgets: "
            "spec.faults.energy_budget is set; use the object engine"
        )


def _segment_singletons(
    keys: np.ndarray, jammed: np.ndarray
) -> np.ndarray:
    """Positions (into ``keys``) of non-jammed singleton segments.

    ``keys`` is the sorted ``(rep, global_round)`` composite key; a
    segment is one channel round of one repetition, and a singleton
    segment is a round with exactly one attempt — a success unless jammed.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, keys.size))
    singles = starts[counts == 1]
    return singles[~jammed[singles]]


def _flat_ranges(lo: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(l, l + n) for l, n in zip(lo, lengths)])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(lo - offsets, lengths)


def _ack_fixpoint(
    win: np.ndarray, s: np.ndarray, g: np.ndarray, gk: np.ndarray,
    dead: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """Iterate the ack-switch-off fixpoint over one event (sub)stream.

    Every event passed in must be live (``g <= win[s]``): the round-window
    caller drops the events of stations that won in an earlier window
    before the call, exactly as if the whole stream were swept at once.
    ``win`` is advanced in place.  A win at round t removes the winner's
    events after t, which can create new singletons at later rounds of
    the same repetition.

    The fixpoint is delta-counted over ``(rep, round)`` segments, which
    are numbered in stream order, so within one station segment order is
    round order and a win is tracked as the segment it happened in.  One
    whole-stream pass counts every segment's live events and yields the
    initial singletons.  Each later pass visits only the events that the
    previous pass's new wins invalidated: for a station whose win moved
    from segment ``old`` to ``new``, its events in ``(new, old]``, found
    by two ``searchsorted`` calls in a station-major view sorted once.
    It decrements their segments' counts, and the segments that drop to
    one event and are neither jammed nor faulted are the next candidate
    singletons.  Work per pass is proportional to the events removed.
    Deaths are monotone (estimates only move earlier and never before
    the true switch-off), so the iterates are those of a full re-count
    and the fixpoint is the sequential sweep's outcome.  Windowing is
    sound for the same reason: a win found in a later window has a round
    past every earlier window's rounds, so it can never invalidate an
    event — or create a singleton — in a window that already converged.

    Returns the frontier, the pass count (the final no-change pass and
    the pass that observes it included) and the number of events the
    passes after the first re-examined.
    """
    n = int(g.size)
    if n == 0:
        return win, 2, 0
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(gk[1:], gk[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    n_seg = int(starts.size)
    # Live events per segment, and the sum of their station ids: a
    # segment left with one live event names its station by the sum.
    live = np.diff(np.append(starts, n))
    station_sum = np.add.reduceat(s, starts, dtype=np.int64)
    seg_dead = dead[starts]
    # Station-major view: (station, segment) composite keys, sorted.  The
    # segment field holds ids up to n_seg + 1 (the "never won" bound).
    seg_bits = (n_seg + 1).bit_length()
    if (win.size - 1).bit_length() + seg_bits > 63:  # pragma: no cover
        raise ValueError("station-major keys would overflow int64")
    station_major = np.cumsum(first, dtype=np.int64)
    station_major -= 1
    station_major += np.left_shift(s, seg_bits, dtype=np.int64)
    station_major.sort()
    del first
    seg_mask = (1 << seg_bits) - 1
    # win_seg[station] = the segment of its win in this stream (n_seg =
    # not yet).
    win_seg = np.full(win.size, n_seg, dtype=np.int64)
    candidates = np.flatnonzero((live == 1) & ~seg_dead)
    examined = 0
    # Each productive pass strictly lowers at least one win estimate, and
    # every estimate is one of the event rounds, so the pass count is
    # bounded by the event count (plus the final no-change pass).
    for passes in range(2, n + 3):
        # The one live event of each candidate segment wins it.
        previous = win_seg.copy()
        np.minimum.at(win_seg, station_sum[candidates], candidates)
        moved = np.flatnonzero(win_seg != previous)
        if moved.size == 0:
            break
        # A station whose win moved from segment old to new loses its
        # events in segments (new, old].
        base = moved << seg_bits
        lo = np.searchsorted(station_major, base | (win_seg[moved] + 1))
        hi = np.searchsorted(station_major, base | (previous[moved] + 1))
        keys = station_major[_flat_ranges(lo, hi - lo)]
        segs = keys & seg_mask
        examined += int(segs.size)
        np.subtract.at(live, segs, 1)
        np.subtract.at(station_sum, segs, keys >> seg_bits)
        candidates = segs[(live[segs] == 1) & ~seg_dead[segs]]
    else:  # pragma: no cover - deaths strictly decrease, so unreachable
        raise RuntimeError("batched ack fixpoint failed to converge")
    won = np.flatnonzero(win_seg < n_seg)
    win[won] = g[starts[win_seg[won]]]
    return win, passes, examined


def run_batch(
    spec: RunSpec,
    n_reps: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    *,
    tile_reps: Optional[int] = None,
    tile_rounds: Optional[int] = None,
    memory_budget: Optional[object] = None,
) -> list[RunResult]:
    """Execute ``spec`` for every seed through memory-bounded tiles.

    Args:
        spec: a vectorised-admissible run description (see module docs).
        n_reps: repetition count; seeds default to ``spec.seed + r``
            (the harness's repetition layout).
        seeds: explicit per-repetition seeds (overrides ``n_reps``-derived
            ones; both may be given if consistent).  A None seed runs on
            fresh OS entropy and its result reports ``seed=None``.
        tile_reps: repetitions per streaming tile (None = the process
            default, else derived from the memory budget, else all).
        tile_rounds: rounds per resolution window inside a tile (None =
            the process default, else the whole horizon).
        memory_budget: bytes (or a ``"4G"``-style string) bounding one
            tile's estimated working set; None = the process default set
            by the CLI's ``--memory-budget``.

    Returns:
        One :class:`RunResult` per seed, in order, byte-identical to
        one ``run_batch`` call per seed — for every tile size.

    Raises:
        BatchMemoryError: the budget admits no tile, or a kernel
            allocation actually failed (numpy's bare ``MemoryError`` is
            wrapped with the offending spec field and an admitting
            budget).
    """
    _check_batchable(spec)
    seed_list = _resolve_seeds(spec, n_reps, seeds)
    R = len(seed_list)
    if R == 0:
        return []
    from repro.engine.plan import (
        BatchMemoryError,
        build_plan,
        oversized_batch_message,
    )

    plan = build_plan(
        spec,
        R,
        memory_budget=memory_budget,
        tile_reps=tile_reps,
        tile_rounds=tile_rounds,
    )
    if telemetry.enabled():
        telemetry.count("batched.batches")
        telemetry.count("batched.reps", R)
        telemetry.observe("batched.batch_reps", R)

    # One shared probability/hazard table entry for every tile, from one
    # cache lookup; each repetition slices the prefix its own wake draw
    # allows.
    from repro.engine.cache import schedule_tables

    max_rounds = spec.resolve_horizon()
    tables = schedule_tables(spec.schedule, max_rounds)
    check_prob_table(spec.schedule, tables.probabilities, max_rounds)

    results: list[RunResult] = []
    for lo, hi in plan.rep_slices():
        with telemetry.span("tile.run"):
            if telemetry.enabled():
                telemetry.count("tile.runs")
                telemetry.count("tile.reps", hi - lo)
            try:
                results.extend(
                    _run_tile(
                        spec, seed_list[lo:hi], tables, plan.tile_rounds
                    )
                )
            except BatchMemoryError:
                raise
            except MemoryError as error:
                raise BatchMemoryError(
                    oversized_batch_message(spec, hi - lo)
                ) from error
    return results


def _run_tile(
    spec: RunSpec,
    seed_list: list[Optional[int]],
    tables: ScheduleTables,
    tile_rounds: Optional[int],
) -> list[RunResult]:
    """One rep tile: the full kernel over ``seed_list``'s repetitions.

    Exactly the pre-streaming monolithic body — per-rep draws, one sort,
    segment-reduction resolution, stop/attempt/materialise — except that
    the ack-switch-off fixpoint optionally sweeps the sorted event
    stream in ``tile_rounds``-round windows, carrying the ``win``
    frontier forward (see :func:`_ack_fixpoint` for why that is exact).
    """
    R = len(seed_list)
    phase = telemetry.timer()

    k = spec.k
    schedule = spec.schedule
    adversary = spec.adversary
    ack = spec.switch_off_on_ack
    stop = spec.stop
    max_rounds = spec.resolve_horizon()
    sched_horizon = schedule.horizon()

    # --- per-repetition draws (seed-exact, so they stay per-rep calls;
    # everything after this loop is whole-batch array work) --------------
    # Schedules without a sample_rounds override draw nothing but the
    # Poisson counts and uniform points per repetition, so the
    # searchsorted / dedup passes can run once over the whole batch.
    direct = (
        type(schedule).sample_rounds is not ProbabilitySchedule.sample_rounds
    )
    wake_all = np.empty((R, k), dtype=np.int64)
    if direct:
        station_parts: list[np.ndarray] = []
        global_parts: list[np.ndarray] = []
        for r, seed in enumerate(seed_list):
            adversary_rng, station_rng = _rep_generators(seed)
            wake = np.asarray(
                adversary.wake_rounds(k, adversary_rng), dtype=np.int64
            )
            if wake.shape != (k,):
                raise ValueError("adversary produced a malformed wake schedule")
            max_local = int(max_rounds - wake.min())
            if sched_horizon is not None:
                max_local = min(max_local, sched_horizon)
            max_local = max(max_local, 1)
            stations, local_rounds = sample_station_events(
                station_rng, schedule, k, tables, max_local
            )
            wake_all[r] = wake
            station_parts.append(stations + np.int64(r) * k)
            global_parts.append(local_rounds + wake[stations])
        ev_station = (
            np.concatenate(station_parts)
            if station_parts
            else np.empty(0, dtype=np.int64)
        )
        ev_global = (
            np.concatenate(global_parts)
            if global_parts
            else np.empty(0, dtype=np.int64)
        )
        del station_parts, global_parts
    else:
        full_cum = tables.hazard
        counts_all = np.zeros((R, k), dtype=np.int64)
        flat_parts: list[np.ndarray] = []
        for r, seed in enumerate(seed_list):
            adversary_rng, station_rng = _rep_generators(seed)
            wake = np.asarray(
                adversary.wake_rounds(k, adversary_rng), dtype=np.int64
            )
            if wake.shape != (k,):
                raise ValueError("adversary produced a malformed wake schedule")
            max_local = int(max_rounds - wake.min())
            if sched_horizon is not None:
                max_local = min(max_local, sched_horizon)
            max_local = max(max_local, 1)
            wake_all[r] = wake
            total = float(full_cum[max_local - 1])
            if total <= 0.0:
                continue  # no transmissions: sample_station_events draws nothing
            counts = station_rng.poisson(total, size=k)
            counts_all[r] = counts
            flat_parts.append(
                station_rng.uniform(0.0, total, size=int(counts.sum()))
            )
        # One batch-wide binary search: each point was drawn on its own
        # repetition's prefix of the cumulative-hazard axis, so mapping it
        # against the full table lands on the same round.
        flat = (
            np.concatenate(flat_parts)
            if flat_parts
            else np.empty(0, dtype=float)
        )
        del flat_parts
        local = _map_points_to_rounds(full_cum, flat)
        local += 1
        ev_station = None  # assembled straight into keys below
    if phase:
        phase.lap("batched.draws")

    # --- flat batch event stream, sorted by (rep, global round) ---------
    # Composite key: rep | global_round | station in power-of-two bit
    # fields, so the decompose after sorting is shifts and masks rather
    # than integer division.  The round field leaves room for the largest
    # possible global round (local ≤ max_rounds - min wake, plus any
    # wake), so past-horizon events stay inside their repetition's key
    # space until the post-sort mask drops them.
    max_g = int(max_rounds) + int(wake_all.max()) + 1
    sp = max_g.bit_length()
    kp = (k - 1).bit_length()
    key_bits = (R - 1).bit_length() + sp + kp
    if key_bits > 62:  # pragma: no cover - absurd sizes
        raise ValueError(
            "batch composite keys would overflow int64; reduce the batch size"
        )
    # Narrow keys halve the memory traffic of the sort and of every
    # whole-batch pass; typical batches (R=1000, k=64) need < 28 bits.
    key_dtype = np.int32 if key_bits <= 31 else np.int64
    if ev_station is not None:
        # Direct-path events: the per-rep sampling loop already produced
        # flat (rep * k + station, global_round) arrays.
        key = (
            ((ev_station // k) << np.int64(sp)) + ev_global
        ) << np.int64(kp) | (ev_station % k)
        key = key.astype(key_dtype, copy=False)
        # The draw arrays are dead once keyed; freeing them here keeps
        # them out of the sort/resolve peak.
        draw_bytes = ev_station.nbytes + ev_global.nbytes
        del ev_station, ev_global
    else:
        # Poisson-path events: the key decomposes into a per-(rep,
        # station) base — ((rep << sp) + wake) << kp | station — plus
        # local << kp, so per-event assembly is one repeat and one add.
        base = (
            (np.arange(R, dtype=np.int64) << np.int64(sp))[:, None] + wake_all
        ) << np.int64(kp) | np.arange(k, dtype=np.int64)[None, :]
        key = np.repeat(
            base.reshape(-1).astype(key_dtype, copy=False),
            counts_all.reshape(-1),
        )
        local = local.astype(key_dtype, copy=False)
        local <<= kp
        key += local
        draw_bytes = flat.nbytes + local.nbytes + counts_all.nbytes
        del flat, local, counts_all
    # One sort both orders the sweep and puts duplicate (station, round)
    # samples side by side for the dedup mask, the only dedup on either
    # sampling path.  Past-horizon events are dropped by the same mask.
    if phase:
        phase.lap("batched.key_build")
    key.sort()
    gk = key >> kp  # (rep, global_round) composite segment key
    g = gk & ((1 << sp) - 1)
    if key.size:
        m = np.empty(key.size, dtype=bool)
        m[0] = True
        np.not_equal(key[1:], key[:-1], out=m[1:])
        m &= g <= max_rounds
        key = key[m]
        gk = gk[m]
        g = g[m]
    ev_rep = gk >> sp
    s = ev_rep * k + (key & ((1 << kp) - 1))
    if spec.jam_rounds:
        ev_jammed = np.isin(g, np.asarray(spec.jam_rounds, dtype=np.int64))
    else:
        ev_jammed = np.zeros(g.size, dtype=bool)
    # Oblivious faults lower as post-resolution outcome rewrites: a fault
    # round can carry no *observed* success (noise corrupts the slot; ack
    # loss keeps the schedule-following winner contending), which under
    # schedule semantics is exactly the jammed-round treatment.  Fault
    # rounds are per repetition (each rep draws its own plan from its own
    # seed), so membership is tested on the (rep, round) composite key.
    ev_noise: Optional[np.ndarray] = None
    ev_fault: Optional[np.ndarray] = None
    ev_dead = ev_jammed
    if spec.faults is not None:
        fault_parts: list[np.ndarray] = []
        noise_parts: list[np.ndarray] = []
        with telemetry.span("fault.plan"):
            for r, seed in enumerate(seed_list):
                fault_plan = spec.faults.plan(seed, max_rounds)
                rep_base = np.int64(r) << np.int64(sp)
                fault_parts.append(rep_base + fault_plan.fault_rounds)
                noise_parts.append(rep_base + fault_plan.noise_rounds)
        fault_keys = np.concatenate(fault_parts)
        noise_keys = np.concatenate(noise_parts)
        ev_fault = np.isin(gk, fault_keys)
        ev_noise = np.isin(gk, noise_keys)
        ev_dead = ev_jammed | ev_fault
    if phase:
        phase.lap("batched.sort")
        telemetry.count("batched.events", int(key.size))
        telemetry.gauge_max(
            "tile.working_set_bytes.peak",
            key.nbytes
            + gk.nbytes
            + g.nbytes
            + ev_rep.nbytes
            + s.nbytes
            + ev_jammed.nbytes
            + wake_all.nbytes
            + draw_bytes,
        )

    # --- collision resolution: segment reductions + ack fixpoint --------
    # win[rep*k + station] = the station's first successful round (_INF =
    # never).  Under ack semantics this is also its switch-off round.
    win = np.full(R * k, _INF, dtype=np.int64)
    passes = 1
    examined = 0
    if not ack or stop is StopCondition.FIRST_SUCCESS:
        # Single counting pass.  Without switch-off feedback the live set
        # never changes; under FIRST_SUCCESS the run ends at the first
        # success, so no ack can have removed events before any round the
        # result reports (everything past the stop round is masked below).
        singles = _segment_singletons(gk, ev_dead)
        np.minimum.at(win, s[singles], g[singles])
    else:
        # The fixpoint's index (per-round counts, station-major keys)
        # scales with the events it sweeps; bounding it is what horizon
        # windows are for.  A window only ever *removes*
        # events at rounds past every earlier window, so sweeping windows
        # in ascending round order with the carried ``win`` frontier is
        # exact (see _ack_fixpoint).
        n_windows = 1
        if tile_rounds is not None and tile_rounds < max_rounds:
            n_windows = (int(max_rounds) - 1) // tile_rounds + 1
        if n_windows <= 1 or key.size == 0:
            win, passes, examined = _ack_fixpoint(win, s, g, gk, ev_dead)
        else:
            # Stable sort on the window index keeps each window's events
            # in (rep, round) order, so segment keys stay contiguous.
            widx = (g - 1) // tile_rounds
            order = np.argsort(widx, kind="stable")
            bounds = np.searchsorted(widx[order], np.arange(n_windows + 1))
            passes = 0
            for w in range(n_windows):
                idx = order[bounds[w] : bounds[w + 1]]
                if idx.size == 0:
                    continue
                # Events of stations that won in an earlier window are
                # past their switch-off from the start.
                idx = idx[g[idx] <= win[s[idx]]]
                win, w_passes, w_examined = _ack_fixpoint(
                    win, s[idx], g[idx], gk[idx], ev_dead[idx]
                )
                passes += w_passes
                examined += w_examined
            passes = max(passes, 1)
            if phase:
                telemetry.count("tile.windows", n_windows)
    if phase:
        phase.lap("batched.resolve")
        telemetry.count("batched.fixpoint_passes", passes)
        telemetry.count("batched.fixpoint_events", examined)

    # --- stop conditions, per repetition --------------------------------
    fs = win.reshape(R, k)
    if stop is StopCondition.FIRST_SUCCESS:
        t_stop = fs.min(axis=1)
    elif stop is StopCondition.ALL_SWITCHED_OFF and not ack:
        # Without acks a station keeps transmitting until its schedule
        # horizon runs out; the sweep consumes every event (no early stop).
        t_stop = np.full(R, _INF, dtype=np.int64)
    else:
        # ALL_SUCCEEDED, or ALL_SWITCHED_OFF under ack semantics: the run
        # stops at the k-th distinct first success.
        all_won = (fs < _INF).all(axis=1)
        t_stop = np.where(all_won, np.where(fs < _INF, fs, 0).max(axis=1), _INF)

    # Successes after the stop round were never observed by the sweep.
    fs_rep = np.where(fs <= t_stop[:, None], fs, _INF)

    # Attempts: every event up to the stop round from a still-live station
    # (under ack, a station's events end at its own first success).
    cutoff = t_stop[ev_rep]
    if ack:
        cutoff = np.minimum(cutoff, win[s])
    attempts = np.bincount(s[g <= cutoff], minlength=R * k).reshape(R, k)

    if ev_fault is not None and telemetry.enabled():
        # Suppressed would-be successes, matching the object engine's
        # per-round attribution: singleton among live pre-stop events,
        # not jammed; noise wins when both components drew the round.
        live = g <= cutoff
        singles = _segment_singletons(gk[live], ev_jammed[live])
        fault_hits = int(np.count_nonzero(ev_fault[live][singles]))
        noise_hits = int(np.count_nonzero(ev_noise[live][singles]))
        telemetry.count("fault.runs", R)
        telemetry.count("fault.slots_corrupted", noise_hits)
        telemetry.count("fault.acks_dropped", fault_hits - noise_hits)

    completed = t_stop < _INF
    rounds_executed = np.where(completed, t_stop, max_rounds)
    if stop is StopCondition.ALL_SWITCHED_OFF:
        # A station switches off on its ack (ack semantics) or one round
        # past its schedule horizon; with neither it never does and the
        # run cannot complete — matching the sequential engines.
        pend = ~completed
        if pend.any():
            acked = np.logical_and(ack, fs_rep < _INF)
            if sched_horizon is not None:
                off = np.where(acked, fs_rep, wake_all + sched_horizon + 1)
            else:
                off = np.where(acked, fs_rep, _INF)
            done = pend & (off.max(axis=1) <= max_rounds)
            completed |= done
            rounds_executed = np.where(done, off.max(axis=1), rounds_executed)

    # --- materialise per-repetition RunResults ---------------------------
    # Success and switch-off rounds are resolved into whole-batch arrays
    # first; the -1 "never" sentinel becomes None inside object arrays, so
    # tolist() converts every field to its final json-safe value in one C
    # pass and the loop is pure record construction.
    protocol_name = getattr(schedule, "name", "")
    adversary_name = getattr(adversary, "name", "")
    won = fs_rep != _INF
    success = np.where(won, fs_rep, -1)
    if sched_horizon is not None:
        off_sched = wake_all + (sched_horizon + 1)
        switch_off = np.where(off_sched <= rounds_executed[:, None], off_sched, -1)
    else:
        switch_off = np.full((R, k), -1, dtype=np.int64)
    if ack:
        switch_off = np.where(won, fs_rep, switch_off)
    success_obj = success.astype(object)
    success_obj[success < 0] = None
    switch_off_obj = switch_off.astype(object)
    switch_off_obj[switch_off < 0] = None
    wake_l = wake_all.tolist()
    suc_l = success_obj.tolist()
    off_l = switch_off_obj.tolist()
    att_l = attempts.tolist()
    rounds_l = rounds_executed.tolist()
    comp_l = completed.tolist()
    station_ids = range(k)
    record = StationRecord  # positional: id, wake, first_success, off, tx
    results: list[RunResult] = []
    for r in range(R):
        records = list(
            map(record, station_ids, wake_l[r], suc_l[r], off_l[r], att_l[r])
        )
        results.append(
            RunResult(
                records,
                rounds_l[r],
                comp_l[r],
                stop,
                None,
                seed_list[r],
                protocol_name,
                adversary_name,
            )
        )
    if phase:
        phase.lap("batched.materialize")
    return results
