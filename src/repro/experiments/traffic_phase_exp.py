"""Experiment ``traffic_phase`` — λ×protocol stability phase diagram.

The steady-state question of the dynamic-arrival setting: for each
protocol, which injection rates λ (expected packets per round across all
station queues) can it sustain?  Each (protocol, λ) cell runs ``reps``
long-horizon Poisson-traffic simulations, measures windowed delivery
rate, backlog growth, and the ``late_slope`` divergence signature (the
linear trend of the last-half backlog), and is classified **stable**
(``S``: mean late slope at or below ``slope_threshold``) or **unstable**
(``U``).  The largest stable λ per protocol — the empirical capacity
λ* — is the phase boundary.

Free-discipline traffic reduces to the classic packet-level model, so
these sweeps ride the vectorised engine and the fused batched kernel
wherever the protocol is a non-adaptive schedule; FIFO discipline and
protocol factories fall back to the object engine automatically.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from repro.adversary.oblivious import PoissonArrivals
from repro.analysis.traffic import classify_stability, traffic_stats
from repro.baselines.aloha import SlottedAlohaFixed
from repro.baselines.backoff import BinaryExponentialBackoff
from repro.channel.results import StopCondition
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.core.spec import RunSpec
from repro.experiments.harness import (
    ExperimentReport,
    config_seed,
    repeat_spec_runs,
)
from repro.util.ascii_chart import line_chart, render_table

__all__ = ["run_traffic_phase"]

#: Per-run stats averaged across repetitions into each phase-diagram cell.
_CELL_STATS = (
    "delivery_rate",
    "late_delivery_rate",
    "delivered_fraction",
    "mean_latency",
    "backlog_mean",
    "backlog_final",
    "late_slope",
)


def _protocol_instance(name: str, *, aloha_p: float, backoff_b: int):
    """Map a protocol key to something :class:`RunSpec` accepts."""
    if name == "aloha":
        return SlottedAlohaFixed(aloha_p), f"Aloha(p={aloha_p})"
    if name == "sublinear":
        return SublinearDecrease(backoff_b), f"SublinearDecrease(b={backoff_b})"
    if name == "beb":
        def factory() -> BinaryExponentialBackoff:
            return BinaryExponentialBackoff()

        factory.protocol_name = "BEB"
        return factory, "BEB"
    raise KeyError(
        f"unknown protocol {name!r}; known: aloha, sublinear, beb"
    )


def run_traffic_phase(
    stations: int = 16,
    *,
    lams: Sequence[float] = (0.05, 0.2, 0.35, 0.5),
    horizon: int = 10_000,
    reps: int = 3,
    window: int = 512,
    protocols: Sequence[str] = ("aloha", "sublinear"),
    aloha_p: float = 0.1,
    backoff_b: int = 4,
    discipline: str = "free",
    slope_threshold: float = 0.01,
    seed: int = 2026,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> ExperimentReport:
    """Sweep injection rate λ per protocol and classify each cell.

    ``stations`` is the number of station queues packets arrive at (an
    attribution label under the default ``discipline="free"``; a
    serialisation point under ``"fifo"``).  Every cell re-runs the same
    ``reps`` seeds (``config_seed`` per cell), so rows are bit-identical
    across worker counts, batch sizes, and resumed invocations.
    """
    rows: list[dict[str, object]] = []
    grid: dict[str, dict[float, bool]] = {}
    series_rate: dict[str, list[float]] = {}
    series_slope: dict[str, list[float]] = {}
    # CLI overrides deliver single values as scalars ("--lams 0.4",
    # "--protocols aloha"); normalise them to one-element sweeps.
    if isinstance(lams, (int, float)):
        lams = (lams,)
    if isinstance(protocols, str):
        protocols = (protocols,)
    lams = tuple(float(lam) for lam in lams)
    protocols = tuple(protocols)
    for p_idx, name in enumerate(protocols):
        protocol, label = _protocol_instance(
            name, aloha_p=aloha_p, backoff_b=backoff_b
        )
        grid[label] = {}
        series_rate[label] = []
        series_slope[label] = []
        for l_idx, lam in enumerate(lams):
            base = RunSpec(
                k=stations,
                protocol=protocol,
                arrivals=PoissonArrivals(rate=lam),
                queue_discipline=discipline,
                stop=StopCondition.ALL_SWITCHED_OFF,
                max_rounds=horizon,
                label=f"traffic:{label}@lam={lam}",
            )
            cell_index = p_idx * len(lams) + l_idx
            results = repeat_spec_runs(
                base,
                reps=reps,
                seed=config_seed(seed, cell_index),
                jobs=jobs,
                task_timeout=task_timeout,
                max_retries=max_retries,
                batch_size=batch_size,
            )
            per_run = [
                traffic_stats(result, horizon, window=window)
                for result in results
            ]
            cell = {
                key: float(np.mean([s[key] for s in per_run]))
                for key in _CELL_STATS
            }
            stable = classify_stability(
                cell, slope_threshold=slope_threshold
            )
            grid[label][lam] = stable
            series_rate[label].append(cell["delivery_rate"])
            series_slope[label].append(cell["late_slope"])
            rows.append(
                {
                    "protocol": label,
                    "lam": lam,
                    "stable": "S" if stable else "U",
                    **cell,
                }
            )

    table = render_table(
        ["protocol", "lam", "stable", "delivery rate", "late rate",
         "delivered", "latency", "backlog mean", "backlog final",
         "late slope"],
        [[r["protocol"], r["lam"], r["stable"], r["delivery_rate"],
          r["late_delivery_rate"], r["delivered_fraction"],
          r["mean_latency"], r["backlog_mean"], r["backlog_final"],
          r["late_slope"]] for r in rows],
    )

    # The phase diagram proper: rows λ ascending, one column per protocol.
    labels = list(grid)
    diagram_lines = ["phase diagram (S stable / U unstable):", ""]
    header = "  lam    " + "  ".join(f"{lab:>24s}" for lab in labels)
    diagram_lines.append(header)
    for lam in lams:
        cells = "  ".join(
            f"{'S' if grid[lab][lam] else 'U':>24s}" for lab in labels
        )
        diagram_lines.append(f"  {lam:<6g} {cells}")
    boundary_lines = []
    for lab in labels:
        stable_lams = [lam for lam in lams if grid[lab][lam]]
        lam_star = max(stable_lams) if stable_lams else None
        boundary_lines.append(
            f"  {lab}: lam* = "
            + (f"{lam_star:g}" if lam_star is not None else "none (all unstable)")
        )

    rate_chart = line_chart(
        list(lams),
        series_rate,
        title="mean delivery rate (packets/round) vs lam",
    )
    slope_chart = line_chart(
        list(lams),
        series_slope,
        title="late backlog slope (packets/round^2) vs lam",
    )
    text = "\n".join(
        [
            f"== traffic_phase: {stations} queues, {discipline} discipline, "
            f"horizon {horizon}, {reps} reps/cell ==",
            table,
            "",
            *diagram_lines,
            "",
            "empirical capacity (largest stable lam):",
            *boundary_lines,
            "",
            rate_chart,
            "",
            slope_chart,
            "",
            "Reading: below the boundary, windowed delivery tracks the"
            " offered rate and the late backlog is flat (slope ~ 0).  Above"
            " it, deliveries saturate at the protocol's capacity while the"
            " backlog climbs linearly — the late_slope divergence signature"
            " of the classical ALOHA instability.  A universal back-off"
            " pushes the boundary outward relative to fixed-p ALOHA.",
        ]
    )
    return ExperimentReport(
        "traffic_phase", "Traffic stability phase diagram", rows, text
    )
