"""Experiments ``table1_latency`` and ``table1_energy``.

Empirical reproduction of the bold rows of the paper's Table 1 (the
summary-of-results table): latency and energy of

* row A — ``NonAdaptiveWithK``  (non-adaptive, k known):    O(k), O(k log k)
* row B — ``SublinearDecrease`` (non-adaptive, k unknown):  O(k log^2 k / loglog k) with acks
  (and O(k log^2 k) without), energy O(k log^2 k)
* row D — ``AdaptiveNoK``       (adaptive, k unknown):      O(k), O(k log^2 k)

Each protocol runs over a geometric sweep of ``k`` against a pool of
adversarial wake schedules; the reported value per ``k`` is the worst mean
over the pool (the empirical analogue of the worst-case quantifier).  A
scaling fit then selects the growth model, which must match the bound.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.adversary.oblivious import (
    StaggeredSchedule,
    StaticSchedule,
    TwoWavesSchedule,
    UniformRandomSchedule,
)
from repro.analysis.metrics import MetricSample
from repro.analysis.scaling import fit_all
from repro.channel.results import StopCondition
from repro.core.protocols.adaptive_no_k import AdaptiveNoK
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.protocols.sublinear_decrease import SublinearDecrease
from repro.experiments.harness import (
    ExperimentReport,
    config_seed,
    repeat_protocol_runs,
    repeat_schedule_runs,
    run_pool,
    worst_sample,
)
from repro.util.ascii_chart import log_log_chart, render_table

__all__ = ["run_table1_latency", "run_table1_energy", "oblivious_pool"]


def oblivious_pool():
    """The adversarial wake-schedule pool used for Table 1 sweeps."""
    return [
        StaticSchedule(),
        UniformRandomSchedule(span=lambda k: 2 * k),
        StaggeredSchedule(gap=2),
        TwoWavesSchedule(delay=lambda k: 3 * k),
    ]


def _known_k_rounds(k: int) -> int:
    # Schedule horizon 3ck (c = 6) plus the widest pool wake span plus slack.
    return 3 * 6 * k + 3 * k + 4096


def _sublinear_rounds_factory(b: int, with_ack: bool):
    def rounds(k: int) -> int:
        if with_ack:
            bound = SublinearDecrease.latency_bound_with_ack(k, b)
        else:
            bound = SublinearDecrease.latency_bound_no_ack(k, b)
        return int(1.5 * bound) + 3 * k + 4096

    return rounds


def _adaptive_rounds(k: int) -> int:
    return 120 * k + 8192


def _sweep_worst(
    ks: Sequence[int],
    runner,
    *,
    metric: str,
) -> list[MetricSample]:
    """Apply ``runner(k, adversary, seed_offset)`` over the pool; keep the worst.

    One task per (sweep point, adversary) pair, fanned out across the
    executor; seed offsets are spaced by ``SEED_STRIDE`` so no two
    (k, adversary) configurations can ever share a repetition seed.
    """
    pool = oblivious_pool()
    tasks = [
        lambda k=k, adv=adv, off=config_seed(0, i * len(pool) + j): runner(
            k, adv, off
        )
        for i, k in enumerate(ks)
        for j, adv in enumerate(pool)
    ]
    samples = run_pool(tasks)
    return [
        worst_sample(samples[i * len(pool) : (i + 1) * len(pool)], metric=metric)
        for i in range(len(ks))
    ]


def _protocol_rows(ks, samples_by_protocol, value_key):
    rows = []
    for k_index, k in enumerate(ks):
        row = {"k": k}
        for name, samples in samples_by_protocol.items():
            row[name] = samples[k_index].row()[value_key]
        rows.append(row)
    return rows


def run_table1_latency(
    ks: Sequence[int] = (32, 64, 128, 256, 512),
    *,
    reps: int = 5,
    seed: int = 2017,
    b: int = 4,
    c: int = 6,
    include_adaptive: bool = True,
) -> ExperimentReport:
    """Regenerate Table 1's latency column (rows A, B, D)."""
    samples: dict[str, list[MetricSample]] = {}

    samples["NonAdaptiveWithK"] = _sweep_worst(
        ks,
        lambda k, adv, s: repeat_schedule_runs(
            k,
            lambda kk: NonAdaptiveWithK(kk, c),
            adv,
            reps=reps,
            seed=seed + s,
            max_rounds=_known_k_rounds,
            label="NonAdaptiveWithK",
        ),
        metric="latency_mean",
    )

    samples["SublinearDecrease(ack)"] = _sweep_worst(
        ks,
        lambda k, adv, s: repeat_schedule_runs(
            k,
            lambda kk: SublinearDecrease(b),
            adv,
            reps=reps,
            seed=seed + 31 + s,
            max_rounds=_sublinear_rounds_factory(b, with_ack=True),
            label="SublinearDecrease(ack)",
        ),
        metric="latency_mean",
    )

    samples["SublinearDecrease(no-ack)"] = _sweep_worst(
        ks,
        lambda k, adv, s: repeat_schedule_runs(
            k,
            lambda kk: SublinearDecrease(b),
            adv,
            reps=reps,
            seed=seed + 61 + s,
            max_rounds=_sublinear_rounds_factory(b, with_ack=False),
            switch_off_on_ack=False,
            stop=StopCondition.ALL_SUCCEEDED,
            label="SublinearDecrease(no-ack)",
        ),
        metric="latency_mean",
    )

    if include_adaptive:
        samples["AdaptiveNoK"] = _sweep_worst(
            ks,
            lambda k, adv, s: repeat_protocol_runs(
                k,
                lambda: AdaptiveNoK(),
                adv,
                reps=max(2, reps // 2),
                seed=seed + 97 + s,
                max_rounds=_adaptive_rounds,
                label="AdaptiveNoK",
            ),
            metric="latency_mean",
        )

    rows = _protocol_rows(ks, samples, "latency_mean")
    headers = ["k"] + list(samples)
    table = render_table(headers, [[row[h] for h in headers] for row in rows])

    fits_text = []
    for name, protocol_samples in samples.items():
        values = [s.row()["latency_mean"] for s in protocol_samples]
        fits = fit_all(list(ks), values)
        fits_text.append(
            f"{name}: best fit ~ {fits[0].constant:.3g} * {fits[0].model}"
            f" (rel. RMSE {fits[0].relative_rmse:.3f});"
            f" runner-up {fits[1].model} ({fits[1].relative_rmse:.3f})"
        )

    chart = log_log_chart(
        [float(k) for k in ks],
        {name: [s.row()["latency_mean"] for s in protocol_samples]
         for name, protocol_samples in samples.items()},
        title="Table 1 latency (worst over adversary pool)",
    )
    text = "\n".join(
        [
            "== table1_latency: latency vs k, worst over adversary pool ==",
            table,
            "",
            chart,
            "",
            "Scaling fits (paper: A and D linear; B superlinear by polylog):",
            *fits_text,
        ]
    )
    return ExperimentReport("table1_latency", "Table 1 latency column", rows, text)


def run_table1_energy(
    ks: Sequence[int] = (32, 64, 128, 256, 512),
    *,
    reps: int = 5,
    seed: int = 4034,
    b: int = 4,
    c: int = 6,
    include_adaptive: bool = True,
) -> ExperimentReport:
    """Regenerate Table 1's energy column (total broadcast attempts)."""
    samples: dict[str, list[MetricSample]] = {}

    samples["NonAdaptiveWithK"] = _sweep_worst(
        ks,
        lambda k, adv, s: repeat_schedule_runs(
            k,
            lambda kk: NonAdaptiveWithK(kk, c),
            adv,
            reps=reps,
            seed=seed + s,
            max_rounds=_known_k_rounds,
            label="NonAdaptiveWithK",
        ),
        metric="energy_mean",
    )
    samples["SublinearDecrease(ack)"] = _sweep_worst(
        ks,
        lambda k, adv, s: repeat_schedule_runs(
            k,
            lambda kk: SublinearDecrease(b),
            adv,
            reps=reps,
            seed=seed + 31 + s,
            max_rounds=_sublinear_rounds_factory(b, with_ack=True),
            label="SublinearDecrease(ack)",
        ),
        metric="energy_mean",
    )
    if include_adaptive:
        samples["AdaptiveNoK"] = _sweep_worst(
            ks,
            lambda k, adv, s: repeat_protocol_runs(
                k,
                lambda: AdaptiveNoK(),
                adv,
                reps=max(2, reps // 2),
                seed=seed + 97 + s,
                max_rounds=_adaptive_rounds,
                label="AdaptiveNoK",
            ),
            metric="energy_mean",
        )

    rows = _protocol_rows(ks, samples, "energy_mean")
    headers = ["k"] + list(samples)
    table = render_table(headers, [[row[h] for h in headers] for row in rows])

    fits_text = []
    expected = {
        "NonAdaptiveWithK": "k log k",
        "SublinearDecrease(ack)": "k log^2 k",
        "AdaptiveNoK": "k log^2 k",
    }
    for name, protocol_samples in samples.items():
        values = [s.row()["energy_mean"] for s in protocol_samples]
        fits = fit_all(list(ks), values)
        fits_text.append(
            f"{name}: best fit ~ {fits[0].constant:.3g} * {fits[0].model}"
            f" (rel. RMSE {fits[0].relative_rmse:.3f}); paper bound {expected[name]}"
        )

    per_station = render_table(
        ["k"] + [f"{name} tx/station" for name in samples],
        [
            [k] + [samples[name][i].row()["energy_per_station"] for name in samples]
            for i, k in enumerate(ks)
        ],
    )
    text = "\n".join(
        [
            "== table1_energy: total broadcast attempts vs k ==",
            table,
            "",
            "Per-station transmissions (paper: O(log k) / O(log^2 k)):",
            per_station,
            "",
            "Scaling fits:",
            *fits_text,
        ]
    )
    return ExperimentReport("table1_energy", "Table 1 energy column", rows, text)
