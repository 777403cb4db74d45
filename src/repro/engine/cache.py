"""Bounded per-process cache of probability and hazard tables.

``ProbabilitySchedule.probabilities(horizon)`` is a pure-Python loop over
the horizon — O(horizon) calls into ``probability(i)`` — and the paper's
sweeps re-ran it once per repetition before the dispatch layer existed.
The table is a pure function of (schedule, horizon), so this module keeps
a small LRU keyed by ``(schedule fingerprint, horizon)`` whose entries
hold the probability table and, once needed, its cumulative hazard
(:class:`~repro.channel.vectorized.ScheduleTables`): a table1-style sweep
now computes each configuration's tables exactly once per process, and
forked pool workers inherit the warm cache through the parent's address
space.

The schedule fingerprint digests the schedule's class, ``name``,
``horizon()``, public primitive attributes *and* a probe of its actual
probability values at fixed rounds — two schedules that would collide must
agree on every probe, which no distinct paper configuration does.  As a
second line of defence, the batched kernel spot-checks every table it
fetches against the live schedule before sampling from it
(:func:`repro.channel.vectorized.check_prob_table`), so a hash collision
cannot silently poison results.

Cached arrays are marked read-only; callers share them, never mutate them.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.channel.vectorized import ScheduleTables
from repro.core.protocol import ProbabilitySchedule
from repro.core.spec import stable_token
from repro.telemetry import registry as telemetry

__all__ = [
    "schedule_fingerprint",
    "schedule_tables",
    "probability_table",
    "cumulative_hazard",
    "table_cache_info",
    "clear_table_cache",
    "set_table_cache_limit",
]

#: Local rounds probed by :func:`schedule_fingerprint` — a dense prefix
#: (where every paper schedule does its distinctive work) plus a geometric
#: tail covering any realistic horizon.
_PROBE_ROUNDS = tuple(range(1, 17)) + tuple(2**i for i in range(5, 21))

_lock = threading.Lock()
_tables: OrderedDict[tuple[str, int], ScheduleTables] = OrderedDict()
_max_entries = 32
_hits = 0
_misses = 0


def schedule_fingerprint(schedule: ProbabilitySchedule) -> str:
    """A stable identity for a schedule's probability function.

    Process-independent (no ``id``/``repr``), so it doubles as a checkpoint
    key component and stays valid across resumed processes.
    """
    attrs = tuple(
        (key, stable_token(value))
        for key, value in sorted(getattr(schedule, "__dict__", {}).items())
        if not key.startswith("_")
    )
    horizon = schedule.horizon()
    probes = []
    for i in _PROBE_ROUNDS:
        if horizon is not None and i > horizon:
            probes.append(0.0)
        else:
            probes.append(float(schedule.probability(i)))
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                type(schedule).__name__,
                getattr(schedule, "name", ""),
                horizon,
                attrs,
            )
        ).encode()
    )
    digest.update(np.asarray(probes, dtype=float).tobytes())
    return digest.hexdigest()[:24]


def schedule_tables(schedule: ProbabilitySchedule, horizon: int) -> ScheduleTables:
    """The cached :class:`ScheduleTables` of ``schedule`` over ``horizon``
    local rounds: one fingerprint per lookup."""
    global _hits, _misses
    key = (schedule_fingerprint(schedule), int(horizon))
    with _lock:
        entry = _tables.get(key)
        if entry is not None:
            _tables.move_to_end(key)
            _hits += 1
            telemetry.count("engine.cache.hit")
            return entry
    entry = ScheduleTables(
        np.asarray(schedule.probabilities(int(horizon)), dtype=float)
    )
    with _lock:
        _misses += 1
        telemetry.count("engine.cache.miss")
        _tables[key] = entry
        while len(_tables) > _max_entries:
            _tables.popitem(last=False)
            telemetry.count("engine.cache.evict")
    return entry


def probability_table(
    schedule: ProbabilitySchedule, horizon: int
) -> np.ndarray:
    """``schedule.probabilities(horizon)``, cached and read-only."""
    return schedule_tables(schedule, horizon).probabilities


def cumulative_hazard(schedule: ProbabilitySchedule, horizon: int) -> np.ndarray:
    """The cumulative-hazard table over the probability table, cached."""
    return schedule_tables(schedule, horizon).hazard


def table_cache_info() -> dict[str, int]:
    """Hit/miss/occupancy counters (process-wide, since import or the last
    :func:`clear_table_cache`)."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "tables": len(_tables),
            "hazards": sum(e.has_hazard for e in _tables.values()),
            "max_entries": _max_entries,
        }


def clear_table_cache() -> None:
    """Drop every cached table and reset the counters."""
    global _hits, _misses
    with _lock:
        _tables.clear()
        _hits = 0
        _misses = 0


def set_table_cache_limit(max_entries: int) -> None:
    """Bound the cache.  Each entry holds at most two O(horizon) float
    tables, so the default of 32 caps worst-case memory at a few tens of
    megabytes."""
    global _max_entries
    if max_entries < 1:
        raise ValueError(f"max_entries must be >= 1, got {max_entries}")
    with _lock:
        _max_entries = int(max_entries)
        while len(_tables) > _max_entries:
            _tables.popitem(last=False)
