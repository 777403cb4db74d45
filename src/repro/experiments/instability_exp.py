"""Experiment ``ext_aloha_instability`` — the 1970s failure that started it all.

Section 1.1: "The main issue with any Aloha-type approach was the
instability: eventually the system reaches a situation where the number of
stations involved in retransmissions tends to infinity, while the
throughput tends to zero."

This experiment reproduces that collapse and the modern contrast: stations
arrive as a Poisson process (rate ``lam`` packets/round, each arrival a
fresh station, the paper's single-packet-per-station setting) and run
either fixed-probability slotted ALOHA or the paper's universal code.
Backlog traces tell the story:

* ALOHA below its capacity (`lam` well under ``p``-matched throughput):
  the backlog stays bounded;
* ALOHA above capacity: the backlog grows without bound — retransmission
  pressure compounds and per-round throughput decays toward zero;
* ``SublinearDecrease`` at the same overload arrival rate keeps draining:
  its decreasing ladder automatically spreads the accumulated crowd (it
  is a universal back-off, which is exactly what ALOHA lacked).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.adversary.oblivious import PoissonSchedule
from repro.analysis.backlog import backlog_statistics, backlog_trace
from repro.baselines.aloha import SlottedAlohaFixed
from repro.channel.results import StopCondition
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.util.ascii_chart import line_chart, render_table

__all__ = ["run_aloha_instability"]


def run_aloha_instability(
    k: int = 800,
    *,
    rates: Sequence[float] = (0.05, 0.2, 0.4),
    p: float = 0.05,
    b: int = 4,
    drain_cap: int = 60_000,
    seed: int = 1970,
) -> ExperimentReport:
    """Backlog under Poisson arrivals: ALOHA(p) vs the universal code.

    ``k`` is the total number of arrivals simulated; the horizon is the
    arrival window (``~k/lam``) plus a drain window.  The instability
    signature is what happens once arrivals stop: the universal code
    drains its backlog to zero (its decreasing ladder is a built-in
    back-off), while saturated ALOHA never does — a backlog ``B`` at
    probability ``p`` has per-round success ``~ B p (1-p)^(B-1) ~ 0``
    once ``B >> 1/p``, so the jam is permanent.

    ``drain_cap`` bounds the drain window (the universal code empirically
    drains in a few ``k ln^2 k`` rounds — far below its worst-case bound).
    """
    rows = []
    traces: dict[str, np.ndarray] = {}
    drain = min(SublinearDecrease.latency_bound_no_ack(k, b), drain_cap)
    configs = [
        (lam, label, schedule, int(k / lam) + drain)
        for lam in rates
        for label, schedule in (
            (f"Aloha(p={p})", SlottedAlohaFixed(p)),
            (f"SublinearDecrease(b={b})", SublinearDecrease(b)),
        )
    ]
    # The horizon is the arrival window plus the drain window — both
    # experiment parameters, not defaults.
    cells = [
        (RunSpec(
            k=k, protocol=schedule, adversary=PoissonSchedule(rate=lam),
            stop=StopCondition.ALL_SWITCHED_OFF, max_rounds=horizon,
        ), [seed])
        for lam, _label, schedule, horizon in configs
    ]
    for (lam, label, _schedule, horizon), (result,) in zip(configs, run_grid(cells)):
        stats = backlog_statistics(result.records, horizon)
        rows.append(
            {
                "protocol": label,
                "arrival_rate": lam,
                "delivered_fraction": result.success_count / k,
                "backlog_mean": stats["mean"],
                "backlog_peak": stats["peak"],
                "backlog_final": stats["final"],
                "late_slope": stats["late_slope"],
            }
        )
        if lam == max(rates):
            trace = backlog_trace(result.records, horizon)
            stride = max(1, horizon // 64)
            traces[label] = trace[::stride]

    table = render_table(
        ["protocol", "rate", "delivered", "backlog mean", "peak", "final",
         "late slope"],
        [[r["protocol"], r["arrival_rate"], r["delivered_fraction"],
          r["backlog_mean"], r["backlog_peak"], r["backlog_final"],
          r["late_slope"]] for r in rows],
    )
    chart = ""
    if traces:
        n = min(len(t) for t in traces.values())
        chart = line_chart(
            list(range(n)),
            {name: list(t[:n].astype(float)) for name, t in traces.items()},
            title=f"backlog over time at arrival rate {max(rates)} (sampled)",
        )
    text = "\n".join(
        [
            f"== ext_aloha_instability: Poisson arrivals, {k} packets ==",
            table,
            "",
            chart,
            "",
            "Reading: above its capacity, fixed-p ALOHA jams permanently —"
            " the backlog freezes at hundreds of stations (final > 0, flat)"
            " and most packets are never delivered, the classical"
            " instability.  The universal code absorbs the same overload"
            " (temporary backlog) and drains to zero: its decreasing ladder"
            " is a built-in back-off.",
        ]
    )
    return ExperimentReport(
        "ext_aloha_instability", "ALOHA instability", rows, text
    )
