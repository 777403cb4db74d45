"""Experiment ``whp_validation`` — the "with high probability" claims as
empirical failure rates.

Every headline theorem is a whp statement: for suitable constants the
failure probability is at most ``k^-eta``.  This experiment runs each
protocol many times at a fixed ``k`` (the vectorised engine makes hundreds
of runs cheap) and reports the empirical failure rate with a Wilson score
interval, next to the theorem's analytic bound at the constants used:

* Theorem 3.1 final-step bound ``exp(-c ln k / 8)`` for NonAdaptiveWithK;
* Theorem ``t:full-1`` bound ``k^(-b/8)`` for SublinearDecrease (no acks);
* Theorem 5.1 light-rounds bound ``(1/2k)^(q/2)`` for the wake-up.

"Failure" = not completing within the theorem's horizon (with slack for
the wake-span of the schedule).
"""

from __future__ import annotations

from repro.adversary.oblivious import UniformRandomSchedule
from repro.analysis.stats import proportion_ci
from repro.channel.results import StopCondition
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.theory.bounds import (
    theorem31_failure_exponent,
    theorem51_light_failure_bound,
    theorem_full1_failure_bound,
    theorem_full1_horizon,
)
from repro.util.ascii_chart import render_table

__all__ = ["run_whp_validation"]


def run_whp_validation(
    k: int = 128,
    *,
    runs: int = 300,
    c: int = 6,
    b: int = 4,
    q: float = 2.0,
    seed: int = 9000,
) -> ExperimentReport:
    """Empirical failure rates vs the theorems' analytic bounds."""
    adversary = UniformRandomSchedule(span=lambda kk: 2 * kk)
    rows = []

    def trial_block(label, schedule, horizon, stop, analytic, switch_off=True):
        # Horizons here are the theorems' own bounds (plus wake-span
        # slack) — "failure" is defined relative to them, so they stay
        # explicit experiment parameters.
        base = RunSpec(
            k=k, protocol=schedule, adversary=adversary, max_rounds=horizon,
            stop=stop, switch_off_on_ack=switch_off,
        )
        (results,) = run_grid([(base, range(seed, seed + runs))])
        failures = sum(1 for result in results if not result.completed)
        low, high = proportion_ci(failures, runs)
        rows.append(
            {
                "claim": label, "runs": runs, "failures": failures,
                "empirical_rate": failures / runs,
                "ci_high": high,
                "analytic_bound": analytic,
                "consistent": high <= max(analytic, 0.05) or failures == 0,
            }
        )

    trial_block(
        "Thm 3.1: NonAdaptiveWithK in 3ck",
        NonAdaptiveWithK(k, c),
        3 * c * k + 2 * k + 512,
        StopCondition.ALL_SWITCHED_OFF,
        theorem31_failure_exponent(k, c),
    )
    trial_block(
        "Thm t:full-1: SublinearDecrease (no acks) in 4bk ln^2 k",
        SublinearDecrease(b),
        theorem_full1_horizon(k, b) + 2 * k + 512,
        StopCondition.ALL_SUCCEEDED,
        theorem_full1_failure_bound(k, b),
        switch_off=False,
    )
    trial_block(
        "Thm 5.1: DecreaseSlowly wake-up in 32qk",
        DecreaseSlowly(q),
        int(32 * q * k) + 2 * k + 512,
        StopCondition.FIRST_SUCCESS,
        theorem51_light_failure_bound(k, q),
    )

    table = render_table(
        ["claim", "runs", "failures", "rate", "Wilson hi", "analytic bound"],
        [[r["claim"], r["runs"], r["failures"], r["empirical_rate"],
          r["ci_high"], r["analytic_bound"]] for r in rows],
    )
    text = "\n".join(
        [
            f"== whp_validation at k={k}: failure rates vs theorem bounds ==",
            table,
            "",
            "Each claim's empirical failure rate (Wilson 95% upper bound)"
            " should be consistent with — typically far below — the"
            " analytic bound at the constants used.",
        ]
    )
    return ExperimentReport("whp_validation", "whp claims validated", rows, text)
