"""Experiment ``thm51_wakeup`` — Theorem 5.1: ``DecreaseSlowly`` wakes up
the channel (first successful transmission) in O(k) rounds whp.

Sweeps contention sizes under several wake schedules; the wake-up time is
the first success measured from the first activation.  The paper's improved
analysis gives a *linear* bound (32qk in the proof); the fit must select
``k`` over ``k log k``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adversary.oblivious import (
    StaggeredSchedule,
    StaticSchedule,
    UniformRandomSchedule,
)
from repro.analysis.scaling import fit_all
from repro.channel.results import StopCondition
from repro.core.protocols.decrease_slowly import DecreaseSlowly
from repro.experiments.harness import (
    ExperimentReport,
    config_seed,
    repeat_schedule_runs,
    run_pool,
    worst_sample,
)
from repro.util.ascii_chart import render_table

__all__ = ["run_wakeup"]


def run_wakeup(
    ks: Sequence[int] = (32, 64, 128, 256, 512, 1024),
    *,
    q: float = 2.0,
    reps: int = 10,
    seed: int = 511,
) -> ExperimentReport:
    """Measure first-success time of ``DecreaseSlowly(q)`` vs ``k``."""
    schedule = DecreaseSlowly(q)
    pool = [
        StaticSchedule(),
        UniformRandomSchedule(span=lambda k: k),
        StaggeredSchedule(gap=1),
    ]
    tasks = [
        lambda k=k, adversary=adversary, s=config_seed(
            seed, i * len(pool) + j
        ): repeat_schedule_runs(
            k,
            lambda kk: schedule,
            adversary,
            reps=reps,
            seed=s,
            max_rounds=lambda kk: int(64 * q * kk) + 2048,
            stop=StopCondition.FIRST_SUCCESS,
            label=f"DecreaseSlowly@{adversary.name}",
        )
        for i, k in enumerate(ks)
        for j, adversary in enumerate(pool)
    ]
    flat_samples = run_pool(tasks)
    rows = []
    worst_by_k = []
    for i, k in enumerate(ks):
        samples = flat_samples[i * len(pool) : (i + 1) * len(pool)]
        for sample in samples:
            rows.append(
                {
                    "k": k,
                    "adversary": sample.label.split("@", 1)[-1],
                    "wakeup_mean": sample.row()["first_success_mean"],
                    "failures": sample.failures,
                }
            )
        worst_by_k.append(worst_sample(samples, metric="first_success_mean"))

    worst_values = [s.row()["first_success_mean"] for s in worst_by_k]
    fits = (  # a single k (CLI ``--ks 8``) has nothing to fit
        fit_all(list(ks), worst_values, models=("k", "k log k", "k log^2 k"))
        if len(ks) > 1
        else None
    )
    table = render_table(
        ["k", "adversary", "mean wake-up rounds", "failures"],
        [[r["k"], r["adversary"], r["wakeup_mean"], r["failures"]] for r in rows],
    )
    ratio_table = render_table(
        ["k", "worst mean wake-up", "rounds / k", "theory ceiling 32qk"],
        [
            [k, v, v / k, int(32 * q * k)]
            for k, v in zip(ks, worst_values)
        ],
    )
    text = "\n".join(
        [
            f"== thm51_wakeup: DecreaseSlowly(q={q}) first-success time ==",
            table,
            "",
            ratio_table,
            "",
            f"best fit: ~ {fits[0].constant:.3g} * {fits[0].model}"
            f" (rel. RMSE {fits[0].relative_rmse:.3f}); paper: O(k)"
            if fits
            else "best fit: needs two or more ks; paper: O(k)",
        ]
    )
    return ExperimentReport("thm51_wakeup", "Theorem 5.1 wake-up", rows, text)
