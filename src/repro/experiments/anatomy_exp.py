"""Experiment ``adaptive_anatomy`` — inside Algorithm 3's executions.

Theorem 5.4's energy proof decomposes an ``AdaptiveNoK`` execution into
alternating intervals ``L_1, D_1, L_2, D_2, ..., L_tau, D_tau`` whose
station sets ``S_1, ..., S_tau`` partition the ``k`` stations.  This
experiment instruments the protocol to *observe* that decomposition:

* ``tau`` — the number of leader elections (= D modes);
* the sizes ``|S_j|`` — how many stations synchronized at each election;
* energy split by message type: election data packets vs SUniform data
  packets vs the leader's control bits (the O(T) term of the proof);
* per-mode residence times.

Instrumentation is strictly observational: a subclass records its own
mode transitions on its local clock (which, plus the wake round the
simulator knows, yields reference time); decisions are unchanged.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.adversary.oblivious import BatchSchedule
from repro.channel.messages import DataPacket
from repro.core.protocols.adaptive_no_k import AdaptiveNoK, Mode
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.util.ascii_chart import render_table

__all__ = ["run_adaptive_anatomy"]


class _InstrumentedAdaptive(AdaptiveNoK):
    """AdaptiveNoK that logs mode transitions and payload-typed energy."""

    def __init__(self, log: list, q: float = 2.0):
        super().__init__(q)
        self._log = log
        self._local = 0
        self._last_mode = self.mode
        self.payload_counts: Counter = Counter()

    def decide(self, local_round: int):
        self._local = local_round
        decision = super().decide(local_round)
        if self.mode is not self._last_mode:
            self._log.append(
                {
                    "station": self.station_id,
                    "local_round": local_round,
                    "mode": self.mode.value,
                }
            )
            self._last_mode = self.mode
        if decision is not None:
            self.payload_counts[type(decision.payload).__name__] += 1
        return decision

    def observe(self, observation):
        super().observe(observation)
        if self.mode is not self._last_mode:
            self._log.append(
                {
                    "station": self.station_id,
                    "local_round": self._local,
                    "mode": self.mode.value,
                }
            )
            self._last_mode = self.mode


def run_adaptive_anatomy(
    k: int = 96,
    *,
    batch: int = 16,
    gap: int = 150,
    seed: int = 54,
) -> ExperimentReport:
    """Dissect one AdaptiveNoK execution under batched arrivals."""
    transitions: list[dict] = []
    protocols: list[_InstrumentedAdaptive] = []

    def factory():
        protocol = _InstrumentedAdaptive(transitions)
        protocols.append(protocol)
        return protocol

    # One traced run: a one-run grid executes in this process, so the
    # factory's instrumentation lands in the lists above.
    ((result,),) = run_grid([(RunSpec(
        k=k, protocol=factory, adversary=BatchSchedule(batch=batch, gap=gap),
        record_trace=True,
    ), [seed])])

    wake_by_station = {r.station_id: r.wake_round for r in result.records}

    # Reconstruct reference-clock transition times.
    events = []
    for t in transitions:
        events.append(
            {
                "station": t["station"],
                "round": wake_by_station[t["station"]] + t["local_round"],
                "mode": t["mode"],
            }
        )

    # tau and |S_j|: every LEADER transition starts a D mode; members that
    # synchronized at the same reference round belong to that mode's set.
    leader_rounds = sorted(e["round"] for e in events if e["mode"] == "leader")
    member_rounds = Counter(e["round"] for e in events if e["mode"] == "member")
    set_sizes = [1 + member_rounds.get(rnd, 0) for rnd in leader_rounds]

    # Energy split by payload type.
    payload_totals: Counter = Counter()
    for protocol in protocols:
        payload_totals.update(protocol.payload_counts)

    # Mode residence: fraction of station-rounds per mode, from transitions.
    election_entries = sum(1 for e in events if e["mode"] == "election")

    rows = [
        {"quantity": "k", "value": k},
        {"quantity": "completed", "value": result.completed},
        {"quantity": "rounds", "value": result.rounds_executed},
        {"quantity": "tau (number of elections / D modes)",
         "value": len(leader_rounds)},
        {"quantity": "sum |S_j| (must equal k)", "value": sum(set_sizes)},
        {"quantity": "largest |S_j|", "value": max(set_sizes) if set_sizes else 0},
        {"quantity": "mean |S_j|",
         "value": float(np.mean(set_sizes)) if set_sizes else 0.0},
        {"quantity": "election entries (incl. re-entries)",
         "value": election_entries},
        {"quantity": "energy: election+SUniform data packets",
         "value": payload_totals.get("DataPacket", 0)},
        {"quantity": "energy: <D mode> bits (leaders)",
         "value": payload_totals.get("DModeAnnouncement", 0)},
        {"quantity": "energy: <anybody out there?> probes",
         "value": payload_totals.get("AnybodyOutThereProbe", 0)},
        {"quantity": "total energy", "value": result.total_transmissions},
        {"quantity": "listening slots/station",
         "value": result.total_listening_slots / k},
    ]
    table = render_table(
        ["quantity", "value"], [[r["quantity"], r["value"]] for r in rows]
    )
    sizes_line = ", ".join(str(s) for s in set_sizes)
    text = "\n".join(
        [
            f"== adaptive_anatomy: one AdaptiveNoK run, k={k},"
            f" batches of {batch} every {gap} rounds ==",
            table,
            "",
            f"|S_j| sequence: {sizes_line}",
            "",
            "Theorem 5.4 reads off this structure: the S_j partition the k"
            " stations; each interval pays O(|S_j| log |S_j|) election"
            " transmissions, O(|S_j| log^2 |S_j|) SUniform transmissions and"
            " an O(interval length) leader-bit term.",
        ]
    )
    return ExperimentReport(
        "adaptive_anatomy", "AdaptiveNoK anatomy", rows, text,
        notes=f"tau={len(leader_rounds)}, sizes={set_sizes}",
    )
