"""Protocol interfaces.

Two levels of protocol abstraction mirror the paper's algorithm classes:

* :class:`Protocol` — the general (possibly adaptive) interface driven by the
  object engine (:class:`repro.channel.simulator.SlotSimulator`).  A protocol
  decides per local round whether to transmit and with which payload, and
  observes channel feedback.

* :class:`ProbabilitySchedule` — a *non-adaptive* protocol described purely
  by its transmission-probability sequence ``p(i)`` over the local clock
  (the paper's Section 2 formalism).  Schedules run on both engines; the
  vectorised engine exploits that ``p`` is a pure function of the local round.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.channel.feedback import Observation
from repro.channel.messages import DataPacket
from repro.util.intmath import clamp_probability

__all__ = ["Transmission", "Protocol", "ProbabilitySchedule", "ScheduleProtocol"]


@dataclass(frozen=True, slots=True)
class Transmission:
    """A decision to transmit ``payload`` in the current round."""

    payload: object


class Protocol(abc.ABC):
    """One station's algorithm, driven round-by-round by the simulator.

    Lifecycle (local clock):

    1. ``begin(station_id, rng)`` at activation (local round 0; the paper's
       convention is that a station wakes at local round 0 and may first
       transmit at local round 1).
    2. For each local round ``i >= 1``: ``decide(i)`` returns a
       :class:`Transmission` or ``None`` (listen), then ``observe(obs)``
       delivers the round's feedback.
    3. ``finished`` becomes True when the station permanently switches off.

    Implementations must not communicate outside these hooks (stations are
    anonymous and share no state).
    """

    #: Whether the protocol needs to *receive* on non-transmitting rounds.
    #: Adaptive protocols do (they react to messages); non-adaptive ones do
    #: not — their only feedback is the ack on the transmit path.  Drives
    #: the listening-slot accounting the paper's Discussion section raises.
    requires_listening: bool = True

    def __init__(self) -> None:
        self._station_id: Optional[int] = None
        self._rng: Optional[np.random.Generator] = None
        self._finished = False

    @property
    def station_id(self) -> int:
        if self._station_id is None:
            raise RuntimeError("protocol not started: begin() was never called")
        return self._station_id

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            raise RuntimeError("protocol not started: begin() was never called")
        return self._rng

    @property
    def finished(self) -> bool:
        """True once the station has permanently switched off."""
        return self._finished

    def switch_off(self) -> None:
        """Permanently disable the station (the paper's 'sleeping mode')."""
        self._finished = True

    def begin(self, station_id: int, rng: np.random.Generator) -> None:
        """Activate the protocol.  Subclasses extend, call super().begin()."""
        self._station_id = station_id
        self._rng = rng

    def on_wake_round(self, wake_round: int) -> None:
        """Receive the station's global wake round.

        The paper's base model has **no global clock**, so this hook is a
        no-op and must stay unused by the paper's protocols.  It exists
        only for the global-clock model *extension* the Discussion section
        speculates about (``repro.core.protocols.global_clock``), where
        ``wake_round + local_round`` reconstructs global time.
        """

    @abc.abstractmethod
    def decide(self, local_round: int) -> Optional[Transmission]:
        """Return the transmission for this local round, or None to listen."""

    def observe(self, observation: Observation) -> None:
        """Receive the round's feedback.  Default: switch off on own ack."""
        if observation.acked:
            self.switch_off()


class ProbabilitySchedule(abc.ABC):
    """A non-adaptive protocol: a probability for every local round.

    ``probability(i)`` must be a pure function of ``i`` (>= 1) returning a
    value in [0, 1].  A schedule carries no per-execution state, so a single
    instance can describe every station in a run.
    """

    #: Human-readable name used in experiment tables.
    name: str = "schedule"

    @abc.abstractmethod
    def probability(self, local_round: int) -> float:
        """Transmission probability at local round ``local_round >= 1``."""

    def horizon(self) -> Optional[int]:
        """Number of local rounds after which the schedule stops (switches
        the station off) regardless of success, or None if unbounded."""
        return None

    def probabilities(self, up_to: int) -> np.ndarray:
        """Vector of ``probability(i)`` for ``i = 1 .. up_to`` (clamped).

        The table cache computes this once per (schedule, horizon).  Rounds
        past :meth:`horizon` get probability 0.
        """
        if up_to < 0:
            raise ValueError(f"up_to must be non-negative, got {up_to}")
        horizon = self.horizon()
        table = np.empty(up_to, dtype=float)
        for i in range(1, up_to + 1):
            if horizon is not None and i > horizon:
                table[i - 1] = 0.0
            else:
                table[i - 1] = clamp_probability(self.probability(i))
        return table

    def cumulative(self, up_to: int) -> float:
        """The paper's ``s(i) = sum_{j<=i} p(j)`` evaluated at ``up_to``."""
        return float(self.probabilities(up_to).sum())

    def sample_rounds(
        self, rng: np.random.Generator, k: int, max_local: int
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Directly sample one repetition's ``(stations, local_rounds)``, or None.

        The paper's non-adaptive model does *not* require independence of
        transmissions across rounds (Section 2.1's footnote): a schedule is
        any random distribution over round subsets whose marginals are
        ``p(i)``.  Schedules with dependent rounds (e.g. one-per-window
        sawtooth patterns) override this to draw all ``k`` stations at
        once: equal-length integer arrays, ``0 <= station < k`` and
        ``1 <= round <= max_local``, in any order, repeats allowed (the
        kernel sorts and dedups).  None (the default) tells the vectorised
        engine to use exact Poisson thinning over independent rounds.
        """
        return None


class ScheduleProtocol(Protocol):
    """Adapter running a :class:`ProbabilitySchedule` on the object engine.

    Independent Bernoulli draw per round; switches off on own ack (the
    non-adaptive semantics of the paper) unless ``switch_off_on_ack`` is
    False (the no-acknowledgement variant analysed in Theorem 4.?/5.?; the
    station then transmits forever and latency is measured as first success).
    """

    #: Non-adaptive stations never need to receive (Discussion section):
    #: the ack is sensed on the transmit path and messages are ignored.
    requires_listening = False

    def __init__(self, schedule: ProbabilitySchedule, *, switch_off_on_ack: bool = True):
        super().__init__()
        self.schedule = schedule
        self.switch_off_on_ack = switch_off_on_ack
        self._horizon = schedule.horizon()

    def decide(self, local_round: int) -> Optional[Transmission]:
        if self._horizon is not None and local_round > self._horizon:
            self.switch_off()
            return None
        p = clamp_probability(self.schedule.probability(local_round))
        if p > 0.0 and self.rng.random() < p:
            return Transmission(DataPacket(origin=self.station_id))
        return None

    def observe(self, observation: Observation) -> None:
        if observation.acked and self.switch_off_on_ack:
            self.switch_off()
