"""The vectorised engine: fast, exact simulation of non-adaptive schedules.

Non-adaptive protocols transmit in local round ``i`` with a probability
``p(i)`` that is a pure function of ``i`` and independent across rounds
(the uniform schedules of Sections 3 and 4).  Simulating round-by-round
costs O(rounds x stations); this module instead samples each station's
*entire set of transmission rounds* directly, in expected O(s(H)) samples
per station (``s(H)`` = expected number of transmissions).  Collisions
and the ack switch-off are then resolved by the array kernel in
:mod:`repro.channel.batched`; :class:`VectorizedSimulator` is its
single-run facade.

Exactness.  Independent per-round Bernoulli(p_i) transmissions are
distributionally identical to "at least one point of a unit-rate Poisson
process falls into a step of width ``lambda_i = -ln(1 - p_i)``":
the step counts are independent Poisson(lambda_i), and
``P(count >= 1) = 1 - exp(-lambda_i) = p_i``.  So we draw
``M ~ Poisson(sum lambda_i)`` points uniform on the cumulative-hazard axis,
map them onto rounds with a binary search, and deduplicate.  No
approximation is involved (up to the 1e-15 hazard cap for p = 1 rounds,
which no paper protocol uses).

The engine reproduces exactly the statistics of
:class:`~repro.channel.simulator.SlotSimulator` running a
:class:`~repro.core.protocol.ScheduleProtocol`; a statistical
cross-validation test in ``tests/test_engine_agreement.py`` enforces this.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.adversary.base import WakeSchedule
from repro.channel.results import RunResult, StopCondition
from repro.core.protocol import ProbabilitySchedule
from repro.core.spec import RunSpec

__all__ = [
    "VectorizedSimulator",
    "ScheduleTables",
    "hazard_table",
    "check_prob_table",
    "sample_station_events",
]

#: Hazard assigned to probability-1 rounds (P(miss) ~ 1e-15, i.e. never).
_MAX_HAZARD = 34.538776394910684


def hazard_table(probabilities: np.ndarray) -> np.ndarray:
    """Cumulative hazard ``Lambda[i] = sum_{j<=i} -ln(1 - p_j)``.

    Probability-1 rounds get the capped hazard ``_MAX_HAZARD``.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        lam = -np.log1p(-p)
    lam = np.where(np.isfinite(lam), lam, _MAX_HAZARD)
    return np.cumsum(lam)


class ScheduleTables:
    """A schedule's read-only probability table over a horizon, and its
    cumulative hazard, materialised on first use and then kept: direct
    samplers never need it, and fingerprint-only fetches should not pay
    its memory.  :attr:`hazard_total` (what the tile planner reads) never
    keeps the array."""

    __slots__ = ("probabilities", "_hazard", "_total")

    def __init__(self, probabilities: np.ndarray):
        probabilities.setflags(write=False)
        self.probabilities = probabilities
        self._hazard: Optional[np.ndarray] = None
        self._total: Optional[float] = None

    @property
    def has_hazard(self) -> bool:
        """Whether the hazard array has been materialised."""
        return self._hazard is not None

    @property
    def hazard(self) -> np.ndarray:
        """``hazard_table(probabilities)``, computed once."""
        if self._hazard is None:
            hazard = hazard_table(self.probabilities)
            hazard.setflags(write=False)
            self._hazard = hazard
        return self._hazard

    @property
    def hazard_total(self) -> float:
        """The last cumulative-hazard value (0.0 for an empty table)."""
        if self._total is None:
            hazard = self._hazard
            if hazard is None:
                hazard = hazard_table(self.probabilities)
            self._total = float(hazard[-1]) if hazard.size else 0.0
        return self._total


def check_prob_table(
    schedule: ProbabilitySchedule, p: np.ndarray, max_local: int
) -> None:
    """Spot-check a cached probability table against the live schedule.

    Guards the table cache: a table built from a different schedule
    silently poisons every result, so a few entries are compared against
    the live schedule.  Probe indices are deduplicated: at ``max_local == 1``
    the naive triple ``(1, max_local // 2 or 1, max_local)`` would check
    round 1 three times and sample nothing else.
    """
    horizon = schedule.horizon()
    for i in sorted({1, max_local // 2 or 1, max_local}):
        if horizon is not None and i > horizon:
            expected = 0.0
        else:
            expected = min(1.0, max(0.0, schedule.probability(i)))
        if abs(p[i - 1] - expected) > 1e-9:
            raise ValueError(
                f"probability table disagrees with {schedule.name} at "
                f"local round {i}: table {p[i - 1]!r} vs schedule "
                f"{expected!r}"
            )


def sample_station_events(
    rng: np.random.Generator,
    schedule: ProbabilitySchedule,
    k: int,
    tables: ScheduleTables,
    max_local: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the flat ``(stations, local_rounds)`` event stream for ``k``
    stations (ignoring switch-off, which the kernel's resolution applies).

    Schedules with dependent rounds draw the repetition themselves via
    :meth:`ProbabilitySchedule.sample_rounds`, range-checked here (a
    station id past ``k`` would land in another repetition's key field);
    independent-Bernoulli schedules go through exact Poisson thinning over
    the first ``max_local`` rounds of ``tables.hazard``.  Events come in
    any order and may repeat: the batched kernel, which calls this once
    per repetition generator, sorts them and drops duplicates.
    """
    drawn = schedule.sample_rounds(rng, k, max_local)
    if drawn is not None:
        stations, rounds = (np.asarray(a, dtype=np.int64) for a in drawn)
        if stations.shape != rounds.shape or stations.ndim != 1:
            raise ValueError(
                f"{schedule.name}: sample_rounds returned stations of shape "
                f"{stations.shape} but local_rounds of shape {rounds.shape}"
            )
        for field, values, low, high in (
            ("stations", stations, 0, k - 1),
            ("local_rounds", rounds, 1, max_local),
        ):
            if values.size and (values.min() < low or values.max() > high):
                raise ValueError(
                    f"{schedule.name}: sample_rounds produced {field} "
                    f"outside [{low}, {high}]"
                )
        return stations, rounds
    cumulative_hazard = tables.hazard[:max_local]
    total = float(cumulative_hazard[-1]) if cumulative_hazard.size else 0.0
    if total <= 0.0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    counts = rng.poisson(total, size=k)
    flat = rng.uniform(0.0, total, size=int(counts.sum()))
    # A point at hazard position u lands in the round whose cumulative
    # hazard first reaches past u; +1 converts 0-based step to local
    # round (local rounds start at 1).
    rounds = np.searchsorted(cumulative_hazard, flat, side="right") + 1
    stations = np.repeat(np.arange(k, dtype=np.int64), counts)
    return stations, rounds.astype(np.int64)


class VectorizedSimulator:
    """Single-run facade over :func:`~repro.channel.batched.run_batch`.

    The batch kernel with one repetition *is* the single-run semantics
    (per-repetition draws never cross repetitions), so :meth:`run` is
    ``run_batch(spec, seeds=[seed])[0]`` on a spec built once from the
    constructor arguments — exactly as
    :class:`~repro.channel.compiled.CompiledSimulator` fronts the compiled
    stepper.

    Args:
        k: number of contending stations.
        schedule: the shared :class:`ProbabilitySchedule` (stations are
            identical, per the paper's anonymity).
        adversary: oblivious wake schedule (adaptive adversaries need the
            object engine — they react to history, which the batch sampling
            here deliberately does not expose).
        switch_off_on_ack: True for the paper's default semantics; False for
            the no-acknowledgement variant where stations keep transmitting
            after success.
        stop: completion criterion (see :class:`StopCondition`).
        max_rounds: global-round horizon.  Must be finite; pick it from the
            protocol's theoretical bound with slack.
        seed: base seed (None = fresh OS entropy; the result reports None).
        jam_rounds: optional iterable of global rounds destroyed by an
            oblivious jammer (see :func:`repro.channel.jamming.draw_jam_rounds`);
            a jammed round can carry no success, but attempts in it still
            cost energy.
        faults: optional :class:`~repro.faults.FaultModel`.  Oblivious
            noise and ack loss lower exactly: under schedule semantics a
            corrupted success and a dropped ack are observationally
            identical (the would-be winner keeps following its schedule),
            so fault rounds resolve like jammed rounds.  Energy budgets
            mutate per-station liveness mid-protocol and are rejected here
            (object engine only).
    """

    def __init__(
        self,
        k: int,
        schedule: ProbabilitySchedule,
        adversary: WakeSchedule,
        *,
        switch_off_on_ack: bool = True,
        stop: StopCondition = StopCondition.ALL_SWITCHED_OFF,
        max_rounds: int = 100_000,
        seed: Optional[int] = None,
        jam_rounds=None,
        faults=None,
    ):
        if k < 1:
            raise ValueError(f"need at least one station, got k={k}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        if not isinstance(adversary, WakeSchedule):
            raise TypeError(
                "VectorizedSimulator only supports oblivious WakeSchedule "
                "adversaries; use SlotSimulator for adaptive adversaries"
            )
        if faults is not None and faults.energy_budget is not None:
            raise TypeError(
                "VectorizedSimulator does not model energy budgets; "
                "use SlotSimulator for EnergyBudget faults"
            )
        self.spec = RunSpec(
            k,
            schedule,
            adversary,
            stop=stop,
            switch_off_on_ack=switch_off_on_ack,
            max_rounds=max_rounds,
            jam_rounds=jam_rounds,
            faults=faults,
            seed=seed,
        )

    def run(self) -> RunResult:
        # Imported here: the batched kernel imports this module's samplers.
        from repro.channel.batched import run_batch

        (result,) = run_batch(self.spec, seeds=[self.spec.seed])
        return result
