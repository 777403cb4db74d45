"""Experiment ``ext_jamming`` — robustness outside the guarantee envelope.

The related-work section (Section 1.2) surveys contention resolution under
adversarial jamming, including Bender et al.'s separation: *without
collision detection no constant-throughput algorithm survives jamming*.
The paper's own protocols make no jamming claims; this experiment measures
how gracefully they actually degrade:

* sweep the jam rate for the three paper protocols at fixed ``k``;
* report latency inflation relative to the jam-free run and the failure
  rate within a fixed horizon budget.

Expected shape: the non-adaptive protocols degrade smoothly (a jammed slot
only wastes that slot — their schedule carries no state to corrupt), while
``AdaptiveNoK`` is more fragile (a jammed control bit desynchronises the
waiting machinery), mirroring the CD-vs-no-CD fragility the literature
describes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.jamming import RandomJammer, draw_jam_rounds
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.util.ascii_chart import render_table

__all__ = ["run_jamming"]


def run_jamming(
    k: int = 128,
    *,
    rates: Sequence[float] = (0.0, 0.1, 0.25, 0.5),
    reps: int = 4,
    seed: int = 666,
) -> ExperimentReport:
    """Latency and completion under random jamming at several rates."""
    adversary = UniformRandomSchedule(span=lambda kk: 2 * kk)
    # (protocol, rate, cells): one grid cell per run for the non-adaptive
    # protocols (each run draws its own oblivious jam schedule), one cell
    # of seeded repetitions for the adaptive protocol's stateful jammer.
    groups = []
    for rate in rates:
        # --- non-adaptive protocols on the fast engine -------------------
        for name, schedule, horizon in (
            ("NonAdaptiveWithK", NonAdaptiveWithK(k, 6), 40 * k),
            (
                "SublinearDecrease",
                SublinearDecrease(4),
                SublinearDecrease.latency_bound_no_ack(k, 4) + 4 * k,
            ),
        ):
            # The horizon is the failure budget the jam rate is judged
            # against, so it stays an explicit experiment parameter.
            cells = []
            for r in range(reps):
                rng = np.random.default_rng(seed + 13 * r)
                jam = draw_jam_rounds(rate, horizon, rng)
                cells.append((RunSpec(
                    k=k, protocol=schedule, adversary=adversary,
                    max_rounds=horizon,
                    jam_rounds=tuple(int(j) for j in jam),
                ), [seed + r]))
            groups.append((name, rate, cells))

        # --- the adaptive protocol on the object engine -------------------
        groups.append(("AdaptiveNoK", rate, [(RunSpec(
            k=k, protocol=lambda: AdaptiveNoK(), adversary=adversary,
            max_rounds=600 * k + 8192, jammer=RandomJammer(rate),
        ), [seed + r for r in range(max(2, reps // 2))])]))

    outcomes = iter(run_grid([cell for _, _, cells in groups for cell in cells]))
    rows = []
    baseline: dict[str, float] = {}
    for name, rate, cells in groups:
        results = [result for _ in cells for result in next(outcomes)]
        latencies = [result.max_latency for result in results if result.completed]
        mean = float(np.mean(latencies)) if latencies else float("nan")
        if rate == 0.0:
            baseline[name] = mean
        rows.append(
            {
                "protocol": name, "jam_rate": rate, "latency": mean,
                "inflation": mean / baseline[name] if baseline.get(name) else float("nan"),
                "failures": len(results) - len(latencies), "runs": len(results),
            }
        )

    table = render_table(
        ["protocol", "jam rate", "latency", "x jam-free", "failures", "runs"],
        [[r["protocol"], r["jam_rate"], r["latency"], r["inflation"],
          r["failures"], r["runs"]] for r in rows],
    )
    text = "\n".join(
        [
            f"== ext_jamming: random jamming at k={k} ==",
            "(outside the paper's guarantees; related-work Section 1.2)",
            table,
            "",
            "Reading: the memoryless non-adaptive schedules degrade smoothly"
            " (~1/(1-rate)); the adaptive protocol's coordination is the"
            " fragile part, as the no-CD jamming literature predicts.",
        ]
    )
    return ExperimentReport("ext_jamming", "Jamming robustness", rows, text)
