"""Experiment ``ext_adversary_search`` — hunting worst-case schedules.

The upper-bound theorems quantify over every wake-up pattern; the
hand-built pool only samples a few shapes.  This experiment turns an
evolutionary schedule search loose on ``NonAdaptiveWithK`` and reports the
worst latency it can find — an empirical stress certificate: if even a
directed search cannot push latency past a small multiple of the pool's
worst, the O(k) claim is solid at this scale.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.adversary.search import search_worst_schedule
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.util.ascii_chart import render_table

__all__ = ["run_adversary_search"]


def run_adversary_search(
    k: int = 128,
    *,
    budget: int = 40,
    eval_reps: int = 3,
    c: int = 6,
    seed: int = 404,
) -> ExperimentReport:
    """Search for latency-maximising schedules against the known-k ladder."""
    schedule = NonAdaptiveWithK(k, c)
    # Theorem-derived horizon: the search's fitness is defined against it.
    horizon = 3 * c * k + 4 * k + 4096

    def cell(adversary):
        base = RunSpec(k=k, protocol=schedule, adversary=adversary, max_rounds=horizon)
        return base, range(seed, seed + eval_reps)

    def evaluate(instance: FixedSchedule) -> float:
        (results,) = run_grid([cell(instance)])
        if not all(result.completed for result in results):
            # An incomplete run is "worse than any latency": steer the
            # search toward it aggressively.
            return float(horizon * 2)
        return float(np.mean([result.max_latency for result in results]))

    outcome = search_worst_schedule(
        k, evaluate, budget=budget, span=4 * k, seed=seed
    )

    # Reference points from the standard pool.
    pool = {
        "static": StaticSchedule(),
        "uniform": UniformRandomSchedule(span=lambda kk: 2 * kk),
    }
    references = {
        name: float(np.mean([result.max_latency for result in results]))
        for name, results in zip(pool, run_grid(map(cell, pool.values())))
    }

    rows = [
        {"source": "searched worst", "latency": outcome.score,
         "latency_over_k": outcome.score / k},
        *(
            {"source": f"pool:{name}", "latency": value,
             "latency_over_k": value / k}
            for name, value in references.items()
        ),
    ]
    table = render_table(
        ["source", "latency", "latency/k"],
        [[r["source"], r["latency"], r["latency_over_k"]] for r in rows],
    )
    improvement = outcome.history[-1] / outcome.history[0] if outcome.history[0] else 1.0
    text = "\n".join(
        [
            f"== ext_adversary_search: evolutionary schedule search, k={k} ==",
            f"budget: {outcome.evaluations} schedule evaluations"
            f" x {eval_reps} seeded runs each",
            table,
            "",
            f"search improved its incumbent {improvement:.2f}x over the run;"
            f" worst found is {outcome.score / k:.1f} rounds/station — still"
            f" linear (theory ceiling 3ck = {3 * c * k}).",
        ]
    )
    return ExperimentReport(
        "ext_adversary_search", "Adversary schedule search", rows, text,
        notes=f"worst={outcome.score}",
    )
