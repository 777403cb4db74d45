"""Traffic metrics: delivery, latency, and stability classification.

The dynamic-arrival experiments ask the ALOHA-era question of Section
1.1: below which injection rate does a protocol keep up?  These helpers
turn one packet-level :class:`~repro.channel.results.RunResult` (from
either the free-discipline reduction or FIFO queueing) into the
steady-state observables the phase diagram is built from:

* windowed **delivery rate** (deliveries per round), the traffic analogue
  of :func:`~repro.analysis.throughput.throughput_timeline`;
* **backlog** statistics via :func:`~repro.analysis.backlog.backlog_trace`
  — with traffic records, "station" means *packet* and the backlog is the
  queue of undelivered packets;
* the ``late_slope`` **divergence signature**: the linear trend of the
  last-half backlog.  A stable λ drains arrivals and the late backlog is
  flat; an unstable λ accumulates and the slope is positive.

Phantom records (padding stations of the free reduction, woken at
``horizon + 1``) are filtered by :func:`packet_records`, so every metric
here sees only real packets.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.analysis.backlog import backlog_statistics
from repro.channel.results import RunResult
from repro.core.station import StationRecord

__all__ = [
    "packet_records",
    "delivery_timeline",
    "traffic_stats",
    "classify_stability",
]


def packet_records(
    result: RunResult, horizon: int
) -> list[StationRecord]:
    """The real packets of a traffic run: records woken inside the horizon.

    The free-discipline reduction pads each run to a seed-independent
    capacity with phantom stations at ``horizon + 1``; FIFO runs emit no
    phantoms.  Filtering on ``wake_round <= horizon`` makes both
    disciplines' outputs comparable record-for-record.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return [r for r in result.records if r.wake_round <= horizon]


def delivery_timeline(
    records: Sequence[StationRecord], horizon: int, *, window: int = 128
) -> tuple[np.ndarray, np.ndarray]:
    """``(centres, rates)`` of windowed deliveries per round.

    ``rates[i]`` is the number of first successes falling inside window
    ``i`` divided by that window's actual length; ``centres`` follow the
    1-based round coordinates of
    :func:`~repro.analysis.throughput.throughput_timeline`, including the
    partial tail window.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    deliveries = np.zeros(horizon, dtype=np.float64)
    for record in records:
        t = record.first_success_round
        if t is not None and 1 <= t <= horizon:
            deliveries[t - 1] += 1.0
    n_full = horizon // window
    centres: list[float] = []
    rates: list[float] = []
    for i in range(n_full):
        chunk = deliveries[i * window : (i + 1) * window]
        centres.append(i * window + (window + 1) / 2.0)
        rates.append(float(chunk.mean()))
    tail = deliveries[n_full * window :]
    if tail.size:
        centres.append(n_full * window + (tail.size + 1) / 2.0)
        rates.append(float(tail.mean()))
    return np.asarray(centres), np.asarray(rates)


def traffic_stats(
    result: RunResult, horizon: int, *, window: int = 128
) -> dict[str, float]:
    """One run's steady-state observables, keyed for report rows.

    ``late_delivery_rate`` (deliveries per round over the last half of the
    horizon) and the backlog ``late_slope`` together tell the stability
    story: a stable system delivers at the offered rate with a flat late
    backlog; an unstable one delivers below it while the backlog climbs.
    """
    records = packet_records(result, horizon)
    offered = len(records)
    delivered = sum(1 for r in records if r.succeeded)
    latencies = [r.latency for r in records if r.latency is not None]
    half_start = horizon // 2
    late_deliveries = sum(
        1
        for r in records
        if r.first_success_round is not None
        and r.first_success_round > half_start
    )
    late_len = horizon - half_start
    backlog = backlog_statistics(records, horizon)
    return {
        "offered": float(offered),
        "offered_rate": offered / horizon,
        "delivered": float(delivered),
        "delivered_fraction": delivered / offered if offered else 1.0,
        "delivery_rate": delivered / horizon,
        "late_delivery_rate": late_deliveries / late_len,
        "mean_latency": float(np.mean(latencies)) if latencies else 0.0,
        "backlog_mean": backlog["mean"],
        "backlog_peak": backlog["peak"],
        "backlog_final": backlog["final"],
        "late_slope": backlog["late_slope"],
    }


def classify_stability(
    stats: dict[str, float], *, slope_threshold: float = 0.01
) -> bool:
    """``True`` when the run looks stable: the late backlog trend stays at
    or below ``slope_threshold`` packets per round.

    The threshold absorbs fit noise on finite horizons; genuinely unstable
    cells grow by Θ(λ − capacity) packets per round, orders of magnitude
    above any sensible threshold.
    """
    return stats["late_slope"] <= slope_threshold
