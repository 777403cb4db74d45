"""Experiment ``ext_tradeoff`` — the latency/energy Pareto frontier.

The paper's open problems ask: *is logarithmic energy necessary for
optimal O(k) latency, and can energy drop if slightly larger latency is
allowed?*  This experiment charts the empirical frontier at a fixed ``k``:
every protocol/constant combination contributes a (latency, energy) point,
and the Pareto-efficient set is reported.  It does not settle the open
problem — it maps where today's algorithms sit, which is the starting
point for attacking it.
"""

from __future__ import annotations

from repro.adversary.oblivious import UniformRandomSchedule
from repro.baselines.aloha import SlottedAlohaKnownK
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, repeat_schedule_runs, run_grid
from repro.util.ascii_chart import line_chart, render_table

__all__ = ["run_tradeoff"]


def run_tradeoff(
    k: int = 256,
    *,
    reps: int = 5,
    seed: int = 1212,
) -> ExperimentReport:
    """(latency, energy) per protocol/constant at one contention size."""
    adversary = UniformRandomSchedule(span=lambda kk: 2 * kk)
    points = []

    for c in (2, 4, 6, 10):
        sample = repeat_schedule_runs(
            k, lambda kk: NonAdaptiveWithK(kk, c), adversary,
            reps=reps, seed=seed + c,
            max_rounds=lambda kk: 3 * c * kk + 3 * kk + 4096,
            label=f"ladder c={c}",
        )
        row = sample.row()
        points.append(
            {"config": f"NonAdaptiveWithK(c={c})",
             "latency": row["latency_mean"],
             "energy_per_station": row["energy_per_station"],
             "failures": sample.failures}
        )

    for b in (1, 2, 4):
        sample = repeat_schedule_runs(
            k, lambda kk: SublinearDecrease(b), adversary,
            reps=reps, seed=seed + 50 + b,
            max_rounds=lambda kk: int(
                1.5 * SublinearDecrease.latency_bound_with_ack(kk, b)
            ) + 3 * kk + 4096,
            label=f"code b={b}",
        )
        row = sample.row()
        points.append(
            {"config": f"SublinearDecrease(b={b})",
             "latency": row["latency_mean"],
             "energy_per_station": row["energy_per_station"],
             "failures": sample.failures}
        )

    sample = repeat_schedule_runs(
        k, lambda kk: SlottedAlohaKnownK(kk), adversary,
        reps=reps, seed=seed + 99,
        label="aloha",
    )
    row = sample.row()
    points.append(
        {"config": "Aloha(1/k)", "latency": row["latency_mean"],
         "energy_per_station": row["energy_per_station"],
         "failures": sample.failures}
    )

    latencies, energies = [], []
    (results,) = run_grid([(
        RunSpec(k=k, protocol=lambda: AdaptiveNoK(), adversary=adversary),
        range(seed + 200, seed + 200 + max(2, reps // 2)),
    )])
    for result in results:
        if result.completed:
            latencies.append(result.max_latency)
            energies.append(result.total_transmissions / k)
    if latencies:
        points.append(
            {"config": "AdaptiveNoK",
             "latency": sum(latencies) / len(latencies),
             "energy_per_station": sum(energies) / len(energies),
             "failures": 0}
        )

    # Pareto filter: a point is efficient if nothing beats it on both axes.
    def dominated(p, q):
        return (
            q["latency"] <= p["latency"]
            and q["energy_per_station"] <= p["energy_per_station"]
            and (q["latency"] < p["latency"]
                 or q["energy_per_station"] < p["energy_per_station"])
        )

    for p in points:
        p["pareto"] = not any(
            dominated(p, q) for q in points if q is not p and q["failures"] == 0
        )

    table = render_table(
        ["config", "latency", "tx/station", "failures", "Pareto"],
        [[p["config"], p["latency"], p["energy_per_station"], p["failures"],
          "*" if p["pareto"] else ""] for p in points],
    )
    finite = [p for p in points if p["latency"] == p["latency"]]
    chart = line_chart(
        [p["latency"] for p in finite],
        {"(latency, energy) points": [p["energy_per_station"] for p in finite]},
        title=f"latency vs energy/station at k={k}",
    )
    text = "\n".join(
        [
            f"== ext_tradeoff: the latency/energy frontier at k={k} ==",
            table,
            "",
            chart,
            "",
            "Open problem 2 of the paper asks whether this frontier can be"
            " pushed below logarithmic energy at linear latency; the ladder"
            " family (larger c = more latency, flat energy) and the code"
            " family (larger b = more of both) bracket today's frontier.",
        ]
    )
    return ExperimentReport("ext_tradeoff", "Latency/energy frontier", points, text)
