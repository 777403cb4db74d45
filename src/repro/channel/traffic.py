"""Dynamic-arrival traffic: the reduction and the FIFO station source.

The classic model of this repository wakes exactly ``k`` one-packet
stations.  A *traffic* :class:`~repro.core.spec.RunSpec` instead has ``k``
station queues fed by an :class:`~repro.adversary.base.ArrivalProcess` —
the injection-rate setting under which the dynamic-arrival literature
(Bender et al.; the early ALOHA queueing story of Section 1.1) studies
stability.  Two queue disciplines are supported:

* ``free`` — every queued packet contends independently from its arrival
  round; the station is an attribution label, not a serialisation point.
  This discipline **reduces exactly** to the classic model: each packet is
  a one-packet station woken at its arrival round.
  :class:`ArrivalWakeSchedule` performs that reduction as an ordinary
  (randomized, oblivious) wake schedule, padded with inert *phantom*
  wakes at ``horizon + 1`` up to the process's deterministic
  ``max_packets`` capacity — so the reduced spec is seed-independent and
  runs unchanged on the object engine, the vectorised engine, *and* the
  fused batched kernel, with the existing cross-check machinery proving
  agreement.

* ``fifo`` — each station transmits only its head-of-line packet; the
  next packet's protocol starts when it reaches the head.  That coupling
  is history-dependent (who is head depends on past channel outcomes), so
  it runs only on the object engine:
  :class:`~repro.channel.simulator.SlotSimulator` takes the arrival
  process as its adversary and draws its contenders from this module's
  FIFO station source — the same round loop, faults included, as the
  classic one-packet-per-station model.

Both disciplines draw the *same* packet realisation from the same
adversary stream (generator #0 of ``RngFactory(seed)``), so per-seed
traffic is comparable across disciplines, and :func:`draw_packets` can
re-materialise the exact ``(arrival_rounds, origins)`` arrays of a run
for analysis without touching engine internals.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.adversary.base import WakeSchedule
from repro.channel.events import RoundEvent
from repro.core.spec import RunSpec
from repro.core.station import Station, StationRecord
from repro.util.rng import RngFactory

__all__ = [
    "ArrivalWakeSchedule",
    "traffic_reduction",
    "draw_packets",
]


class ArrivalWakeSchedule(WakeSchedule):
    """A packet-level wake schedule reducing free-discipline traffic.

    One "station" per *potential* packet: a draw of the arrival process
    becomes the wake rounds of its packets, padded with phantom wakes at
    ``horizon + 1`` up to the deterministic ``capacity``
    (``arrivals.max_packets``).  Phantoms are inert — they never wake
    inside the horizon, transmit nothing, and are filtered by the
    analysis layer (``wake_round > horizon``) — but they make the reduced
    spec's ``k`` seed-independent, which is exactly what the batched
    kernel needs to fuse repetitions.
    """

    def __init__(self, arrivals, stations: int, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.arrivals = arrivals
        self.stations = stations
        self.horizon = horizon
        self.capacity = max(1, int(arrivals.max_packets(stations, horizon)))
        self.name = f"traffic[{arrivals.name}@{stations}q]"

    def wake_rounds(self, k: int, rng: np.random.Generator) -> list[int]:
        if k != self.capacity:
            raise ValueError(
                f"{self.name}: capacity is {self.capacity} packets but "
                f"k={k} was requested"
            )
        rounds, _origins = self.arrivals.draw(self.stations, self.horizon, rng)
        padded = np.full(self.capacity, self.horizon + 1, dtype=np.int64)
        padded[: rounds.size] = rounds
        return self.validate(padded, k)


def traffic_reduction(spec: RunSpec) -> RunSpec:
    """The packet-level classic spec equivalent to a free-discipline
    traffic spec (identical per-seed behaviour on every engine).

    Station ``j`` of the reduced spec is packet ``j`` of the draw (both
    orderings are sorted by arrival round, same stream), so positions
    align with :func:`draw_packets` for origin attribution.
    """
    if not spec.is_traffic_run:
        raise ValueError("traffic_reduction needs a traffic RunSpec")
    if spec.queue_discipline != "free":
        raise ValueError(
            f"only free-discipline traffic reduces to the classic model; "
            f"got {spec.queue_discipline!r}"
        )
    wrapper = ArrivalWakeSchedule(spec.arrivals, spec.k, spec.resolve_horizon())
    return spec.replace(
        arrivals=None, adversary=wrapper, k=wrapper.capacity
    )


def draw_packets(spec: RunSpec) -> tuple[np.ndarray, np.ndarray]:
    """Re-materialise the exact ``(arrival_rounds, origins)`` realisation
    of a seeded traffic spec — the same draw every engine consumed (the
    arrival process reads generator #0 of ``RngFactory(seed)``, exactly
    like an oblivious wake schedule)."""
    if not spec.is_traffic_run:
        raise ValueError("draw_packets needs a traffic RunSpec")
    rng = RngFactory(spec.seed).next_generator()
    return spec.arrivals.draw(spec.k, spec.resolve_horizon(), rng)


class _FifoQueues:
    """Station source for ``fifo`` traffic: one packet queue per station.

    Arrivals are drawn up front from the adversary stream.  Each queue
    exposes only its head-of-line packet as a contender (a fresh
    :class:`~repro.core.station.Station` running its own protocol, woken
    the round it reaches the head and drawing the next station generator
    then); trailing packets touch neither the channel nor any RNG.  A head
    that switches off — delivered or abandoned — is replaced by the next
    packet in the same round, so energy budgets and faults apply per
    packet.  Records are per packet, in packet (arrival) order, with
    ``wake_round`` = the arrival round, so queueing delay counts toward
    latency exactly as in the free reduction.

    Same interface as the classic one-packet-per-station source of
    :mod:`repro.channel.simulator`: ``arrive``, ``active``, ``retire``,
    ``total`` and ``records``.
    """

    def __init__(self, k, protocol_factory, arrivals, horizon, adversary_rng,
                 next_rng):
        self._arrival_rounds, origins = arrivals.draw(k, horizon, adversary_rng)
        self.total = int(self._arrival_rounds.size)
        self._by_round: dict[int, list[tuple[int, int]]] = {}
        for packet_id, r in enumerate(self._arrival_rounds):
            self._by_round.setdefault(int(r), []).append(
                (packet_id, int(origins[packet_id]))
            )
        self._factory = protocol_factory
        self._next_rng = next_rng
        self._waiting: list[deque[int]] = [deque() for _ in range(k)]
        self._heads: list[Optional[Station]] = [None] * k
        self._records: dict[int, StationRecord] = {}
        self.active: list[Station] = []

    def arrive(self, t: int, history: list[RoundEvent]) -> None:
        packets = self._by_round.pop(t, None)
        if packets is None:
            return
        for packet_id, queue in packets:
            self._waiting[queue].append(packet_id)
            if self._heads[queue] is None:
                self._promote(queue, t)
        self.active = [h for h in self._heads if h is not None]

    def _promote(self, queue: int, t: int) -> None:
        waiting = self._waiting[queue]
        self._heads[queue] = (
            Station(
                station_id=waiting.popleft(),
                wake_round=t,
                protocol=self._factory(),
                rng=self._next_rng(),
            )
            if waiting
            else None
        )

    def retire(self, t: int) -> int:
        resolved = 0
        for queue, head in enumerate(self._heads):
            if head is not None and not head.active:
                self._record(head)
                self._promote(queue, t)
                resolved += 1
        if resolved:
            self.active = [h for h in self._heads if h is not None]
        return resolved

    def _record(self, head: Station) -> None:
        record = head.record()
        record.wake_round = int(self._arrival_rounds[head.station_id])
        self._records[head.station_id] = record

    def records(self) -> list[StationRecord]:
        """Every packet's record: resolved heads, the live heads as-is,
        and the still-waiting packets untouched."""
        for head in self._heads:
            if head is not None:
                self._record(head)
        for waiting in self._waiting:
            for packet_id in waiting:
                self._records[packet_id] = StationRecord(
                    station_id=packet_id,
                    wake_round=int(self._arrival_rounds[packet_id]),
                    first_success_round=None,
                    switch_off_round=None,
                    transmissions=0,
                )
        return [self._records[pid] for pid in sorted(self._records)]
