"""Station runtime state.

A :class:`Station` wraps one :class:`~repro.core.protocol.Protocol` instance
with the bookkeeping the simulator and the metrics layer need: wake time,
local clock, transmission count, first-success round.  The paper's stations
are anonymous — ``station_id`` exists only for bookkeeping and is never made
available to protocol *logic* beyond tagging the data packet's origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.protocol import Protocol, Transmission

__all__ = ["Station", "StationRecord"]


@dataclass(slots=True)
class StationRecord:
    """Immutable-after-run summary of one station's execution.

    ``listening_slots`` counts rounds the station spent *receiving* — the
    channel-access cost the paper's Discussion section singles out as an
    open problem for adaptive protocols.  Non-adaptive protocols do not
    need to listen at all (their only feedback is the ack, which arrives
    on the transmit path), so their count is 0 by definition.
    """

    station_id: int
    wake_round: int
    first_success_round: Optional[int]
    switch_off_round: Optional[int]
    transmissions: int
    listening_slots: int = 0

    @property
    def succeeded(self) -> bool:
        return self.first_success_round is not None

    @property
    def latency(self) -> Optional[int]:
        """Rounds from activation to own first success (paper's latency)."""
        if self.first_success_round is None:
            return None
        return self.first_success_round - self.wake_round


class Station:
    """Live station driven by the object engine."""

    __slots__ = (
        "station_id",
        "wake_round",
        "protocol",
        "transmissions",
        "listening_slots",
        "first_success_round",
        "switch_off_round",
    )

    def __init__(
        self,
        station_id: int,
        wake_round: int,
        protocol: Protocol,
        rng: np.random.Generator,
    ):
        self.station_id = station_id
        self.wake_round = wake_round
        self.protocol = protocol
        self.transmissions = 0
        self.listening_slots = 0
        self.first_success_round: Optional[int] = None
        self.switch_off_round: Optional[int] = None
        protocol.begin(station_id, rng)
        protocol.on_wake_round(wake_round)

    def local_round(self, global_round: int) -> int:
        """Local-clock round corresponding to reference-clock ``global_round``."""
        return global_round - self.wake_round

    @property
    def active(self) -> bool:
        """Active = woken and not yet switched off."""
        return self.switch_off_round is None

    def decide(self, global_round: int) -> Optional[Transmission]:
        """Ask the protocol for this round's action; track switch-off."""
        if not self.active:
            return None
        decision = self.protocol.decide(self.local_round(global_round))
        if self.protocol.finished and self.switch_off_round is None:
            # Protocol ended (e.g. schedule horizon ran out) during decide().
            self.switch_off_round = global_round
            return None
        if decision is not None:
            self.transmissions += 1
        elif self.protocol.requires_listening:
            self.listening_slots += 1
        return decision

    def observe(self, observation, global_round: int) -> None:
        """Deliver feedback; record first success and switch-off times."""
        if not self.active:
            return
        if observation.acked and self.first_success_round is None:
            self.first_success_round = global_round
        self.protocol.observe(observation)
        if self.protocol.finished and self.switch_off_round is None:
            self.switch_off_round = global_round

    def record(self) -> StationRecord:
        return StationRecord(
            station_id=self.station_id,
            wake_round=self.wake_round,
            first_success_round=self.first_success_round,
            switch_off_round=self.switch_off_round,
            transmissions=self.transmissions,
            listening_slots=self.listening_slots,
        )
