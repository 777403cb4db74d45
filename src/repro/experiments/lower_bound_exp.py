"""Experiment ``fig3_lower_bound_instance`` — Section 4 made empirical.

The lower bound (Theorem ``t:lower-gen``) says: for any non-adaptive,
``k``-oblivious algorithm there is an oblivious instance on which *no*
transmission succeeds for ``Omega(k log k / (loglog k)^2)`` rounds.  The
proof builds the instance by pumping the probability sum
``sigma_hat[t] >= gamma log k`` (Lemmas 4.3/4.6) and invoking Lemma 4.2
(saturated rounds yield no successes).

This experiment instantiates the construction against the concrete
universal code ``SublinearDecrease(b)``:

1. build ``J(k)`` from the code's own ``p(1) = ln3/3``;
2. verify the *pump*: ``sigma_hat[t] >= gamma log2 k`` across the blocked
   prefix (Figure 3's shape);
3. run the actual simulation and count successes inside the prefix — the
   paper predicts ~none, against benign schedules which deliver steadily.
"""

from __future__ import annotations

import math

import numpy as np

from repro.adversary.lower_bound import (
    blocked_prefix_length,
    build_ik_instance,
    build_jk_instance,
    default_tau_small,
)
from repro.adversary.oblivious import StaggeredSchedule
from repro.analysis.sigma import sigma_hat_trace, success_probability_bound
from repro.channel.results import StopCondition
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.util.ascii_chart import line_chart, render_table

__all__ = ["run_lower_bound_instance"]


def run_lower_bound_instance(
    k: int = 2048,
    *,
    b: int = 4,
    gamma: float = 1.0,
    c_star: float = 0.25,
    reps: int = 3,
    seed: int = 1606,
) -> ExperimentReport:
    """Build ``J(k)`` against ``SublinearDecrease(b)`` and measure blocking."""
    schedule = SublinearDecrease(b)
    p1 = schedule.probability(1)
    tau_small = min(default_tau_small(schedule, k), 4 * k)
    prefix = blocked_prefix_length(k, c_star)
    instance = build_jk_instance(
        k, p1, tau_small=tau_small, gamma=gamma, c_star=c_star, seed=seed
    )

    # --- the pump: sigma_hat across the prefix -------------------------------
    wake = instance.wake_rounds(k, np.random.default_rng(seed))
    trace = sigma_hat_trace(wake, schedule, prefix)
    threshold = gamma * math.log2(k)
    saturated = float(np.mean(trace >= threshold))
    bound_worst = max(
        success_probability_bound(float(v)) for v in trace[trace > 0]
    ) if np.any(trace > 0) else 0.0

    # --- blocked vs benign success counts ------------------------------------
    # The benign control is a low-contention trickle (one station every
    # ~2/p(1) rounds): each arrival faces a near-empty channel and succeeds
    # within a few rounds, so successes accumulate steadily through the same
    # prefix that J(k) blocks completely.
    trickle_gap = max(1, int(2.0 / p1))
    ik_instance = build_ik_instance(k, p1, tau_small=tau_small, gamma=gamma)
    instances = (
        ("J(k) adversarial", instance),
        ("I(k) adversarial", ik_instance),
        ("trickle benign", StaggeredSchedule(gap=trickle_gap)),
    )
    # The horizon IS the blocked prefix here — the theorem's claim is
    # about this exact window, so it stays explicit.
    cells = [
        (RunSpec(
            k=k,
            protocol=schedule,
            adversary=adversary,
            max_rounds=prefix,
            stop=StopCondition.ALL_SWITCHED_OFF,
        ), [seed + 17 * r for r in range(reps)])
        for _label, adversary in instances
    ]
    rows = []
    for (label, _adversary), results in zip(instances, run_grid(cells)):
        for r, result in enumerate(results):
            woken = sum(1 for rec in result.records if rec.wake_round < prefix)
            rows.append(
                {
                    "instance": label,
                    "rep": r,
                    "prefix_rounds": prefix,
                    "successes_in_prefix": result.success_count,
                    "stations_awake_in_prefix": woken,
                    "success_fraction_of_awake": result.success_count / max(1, woken),
                }
            )

    adversarial = [r for r in rows if r["instance"] == "J(k) adversarial"]
    benign = [r for r in rows if r["instance"] == "trickle benign"]
    adv_mean = float(np.mean([r["successes_in_prefix"] for r in adversarial]))
    ben_mean = float(np.mean([r["successes_in_prefix"] for r in benign]))

    stride = max(1, prefix // 64)
    chart = line_chart(
        list(range(1, prefix + 1, stride)),
        {
            "sigma_hat[t]": trace[::stride].tolist(),
            "gamma*log2(k)": [threshold] * len(trace[::stride]),
        },
        title=f"fig3: pumped probability sum on J(k), k={k}",
    )
    table = render_table(
        ["instance", "rep", "successes in prefix", "awake in prefix", "success/awake"],
        [
            [r["instance"], r["rep"], r["successes_in_prefix"],
             r["stations_awake_in_prefix"], f"{r['success_fraction_of_awake']:.3f}"]
            for r in rows
        ],
    )
    text = "\n".join(
        [
            f"== fig3_lower_bound_instance: J(k) vs SublinearDecrease(b={b}), k={k} ==",
            f"blocked prefix length (c* k log k/(loglog k)^2): {prefix} rounds",
            f"pump threshold gamma*log2(k) = {threshold:.1f};"
            f" fraction of prefix rounds with sigma_hat >= threshold: {saturated:.3f}",
            f"per-round success-probability ceiling (x e^(1-x)) at worst pumped"
            f" round: {bound_worst:.2e}",
            "",
            chart,
            "",
            table,
            "",
            f"mean successes inside the prefix: adversarial {adv_mean:.1f}"
            f" vs benign {ben_mean:.1f}"
            f" (paper: adversarial ~ 0, a {max(ben_mean, 1.0) / max(adv_mean, 1.0):.0f}x separation)",
        ]
    )
    return ExperimentReport(
        "fig3_lower_bound_instance",
        "Lower-bound instance J(k)",
        rows,
        text,
        notes=f"saturated={saturated:.3f}, adv_mean={adv_mean}, ben_mean={ben_mean}",
    )
