"""Experiment ``ext_throughput`` — channel utilisation over time.

The dynamic-arrival line of work the paper engages with (Bender et al.,
Section 1.1) measures protocols by *throughput*: the fraction of slots
carrying a success while work is pending.  This experiment reconstructs a
throughput timeline for the paper's protocols under a sustained batch
arrival pattern, plus the listening-slot accounting the Discussion section
raises (non-adaptive protocols listen 0 slots; ``AdaptiveNoK``'s waiters
pay up to Theta(k) each).
"""

from __future__ import annotations

from repro.adversary.oblivious import BatchSchedule
from repro.analysis.throughput import summarize_throughput, throughput_timeline
from repro.core.protocol import ScheduleProtocol
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.util.ascii_chart import line_chart, render_table

__all__ = ["run_throughput"]


def run_throughput(
    k: int = 128,
    *,
    batch: int = 16,
    gap: int = 200,
    seed: int = 8,
) -> ExperimentReport:
    """Throughput timelines and listening costs under batched arrivals."""
    adversary = BatchSchedule(batch=batch, gap=gap)
    rows = []
    timelines = {}

    configs = [
        ("NonAdaptiveWithK", lambda: ScheduleProtocol(NonAdaptiveWithK(k, 6))),
        ("SublinearDecrease", lambda: ScheduleProtocol(SublinearDecrease(4))),
        ("AdaptiveNoK", lambda: AdaptiveNoK()),
    ]
    # One shared theorem-derived horizon keeps the three timelines
    # comparable slot-for-slot.
    horizon = SublinearDecrease.latency_bound_no_ack(k, 4) + 8 * k
    cells = [
        (RunSpec(
            k=k, protocol=factory, adversary=adversary, max_rounds=horizon,
            record_trace=True,
        ), [seed])
        for _name, factory in configs
    ]
    for (name, _factory), (result,) in zip(configs, run_grid(cells)):
        summary = summarize_throughput(result.trace, window=max(32, gap // 2))
        centres, rates = throughput_timeline(result.trace, window=max(32, gap // 2))
        timelines[name] = (centres, rates)
        rows.append(
            {
                "protocol": name,
                "completed": result.completed,
                "rounds": result.rounds_executed,
                "overall_throughput": summary.overall,
                "peak_throughput": summary.peak_window,
                "collision_fraction": summary.collision_fraction,
                "listening_total": result.total_listening_slots,
                "listening_per_station": result.total_listening_slots / k,
            }
        )

    table = render_table(
        ["protocol", "rounds", "throughput", "peak", "collisions",
         "listen/station"],
        [[r["protocol"], r["rounds"], r["overall_throughput"],
          r["peak_throughput"], r["collision_fraction"],
          r["listening_per_station"]] for r in rows],
    )

    # A shared-axis chart over the shortest run.
    min_len = min(len(rates) for _, rates in timelines.values())
    chart = ""
    if min_len >= 2:
        xs = list(timelines[rows[0]["protocol"]][0][:min_len])
        chart = line_chart(
            xs,
            {name: list(rates[:min_len]) for name, (c, rates) in timelines.items()},
            title=f"Throughput timeline, k={k}, batches of {batch} every {gap}",
        )

    text = "\n".join(
        [
            f"== ext_throughput: batched arrivals (batch={batch}, gap={gap}) ==",
            table,
            "",
            chart,
            "",
            "Listening accounting (Discussion section): non-adaptive"
            " protocols need 0 receive slots; AdaptiveNoK's waiters pay the"
            " Theta(k) the paper identifies as an open cost to reduce.",
        ]
    )
    return ExperimentReport("ext_throughput", "Throughput & listening", rows, text)
