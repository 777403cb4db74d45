"""Experiment ``estimate_robustness`` — what knowing "k" really requires.

Theorem 3.1 holds when stations know ``k`` *or any linear upper bound* on
it.  This experiment quantifies that requirement by running
``NonAdaptiveWithK(k_hat)`` against true contention ``k`` for estimates
``k_hat in {k/4, k/2, k, 2k, 4k, 8k}``:

* **overestimates** cost only linearly: the ladder stretches to
  ``3 c k_hat`` but stays reliable (the paper's "linear upper bound"
  clause);
* **underestimates** break the sigma-invariant: too many stations reach
  high probability levels too early, collisions persist, and runs start
  failing — exactly why the lower bound of Section 4 is about protocols
  without *any* linear estimate.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.engine import RunSpec, execute
from repro.experiments.harness import ExperimentReport
from repro.util.ascii_chart import render_table

__all__ = ["run_estimate_robustness"]


def run_estimate_robustness(
    k: int = 256,
    *,
    factors: Sequence[float] = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    c: int = 6,
    reps: int = 10,
    seed: int = 33,
) -> ExperimentReport:
    """Latency/failure of NonAdaptiveWithK(k_hat) vs the estimate quality.

    The workload is a static crowd — the densest instance, where an
    underestimate's broken sigma-invariant bites hardest (a dispersed
    workload masks it: stations overlap less, so sigma stays tame even
    with a bad estimate).
    """
    from repro.adversary.oblivious import StaticSchedule

    adversary = StaticSchedule()
    rows = []
    for factor in factors:
        k_hat = max(1, int(round(factor * k)))
        schedule = NonAdaptiveWithK(k_hat, c)
        # Theorem 3.1's ladder length is a function of the estimate, so the
        # horizon is an experiment parameter here, not a default.
        horizon = 3 * c * k_hat + 3 * k + 4096
        base = RunSpec(
            k=k, protocol=schedule, adversary=adversary, max_rounds=horizon
        )
        latencies, energies, failures = [], [], 0
        delivered = []
        for r in range(reps):
            result = execute(base.with_seed(seed + r))
            delivered.append(result.success_count)
            # A run counts as solved only when every station succeeded:
            # under a bad estimate the stations can exhaust their ladders
            # and switch off unsolved, which still completes the run.
            if result.success_count == k:
                latencies.append(result.max_latency)
                energies.append(result.total_transmissions)
            else:
                failures += 1
        rows.append(
            {
                "k_hat_over_k": factor,
                "k_hat": k_hat,
                "latency": float(np.mean(latencies)) if latencies else float("nan"),
                "energy": float(np.mean(energies)) if energies else float("nan"),
                "delivered_fraction": float(np.mean(delivered)) / k,
                "failures": failures,
                "runs": reps,
            }
        )

    table = render_table(
        ["k_hat/k", "k_hat", "latency", "energy", "delivered", "failures", "runs"],
        [[r["k_hat_over_k"], r["k_hat"], r["latency"], r["energy"],
          r["delivered_fraction"], r["failures"], r["runs"]] for r in rows],
    )
    text = "\n".join(
        [
            f"== estimate_robustness: NonAdaptiveWithK(k_hat) vs true k={k},"
            f" static crowd ==",
            table,
            "",
            "Overestimates stretch the ladder linearly in k_hat but stay"
            " reliable (the theorem's 'linear upper bound' clause);"
            " underestimates break the sigma < 1 invariant: at k_hat = k/16"
            " the pumped channel delivers (nearly) nothing — the lower"
            " bound's mechanism, triggered by a bad estimate.",
        ]
    )
    return ExperimentReport(
        "estimate_robustness", "Estimate sensitivity", rows, text
    )
