"""Experiment ``static_constants`` — the Section 1.1 history, re-measured.

The paper's history paragraph quotes the classical static-model constants:

* Massey: the splitting algorithm resolves known contention in
  ``2.8867 k`` expected slots;
* Greenberg-Flajolet-Ladner: the hybrid (estimate + splitting) reaches
  ``2.134 k + O(log k)`` with no prior knowledge;
* sawtooth back-off ([sawtooth1,2], AMM13): ``O(k)`` without collision
  detection and non-adaptively.

This experiment re-measures all three on simultaneous starts, then runs
the same algorithms under an asynchronous schedule — where the CD-based
phases misalign — to show *why* the paper's dynamic-model machinery is
needed at all.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.adversary.oblivious import StaticSchedule, UniformRandomSchedule
from repro.baselines.hybrid_gfl import HybridEstimateSplit
from repro.baselines.splitting import SplittingTree
from repro.channel.feedback import FeedbackModel
from repro.core.protocols.suniform import SUniform
from repro.core.spec import RunSpec
from repro.experiments.harness import ExperimentReport, run_grid
from repro.util.ascii_chart import render_table

__all__ = ["run_static_constants"]


def _cell(k, factory, adversary, feedback, reps, seed):
    base = RunSpec(k=k, protocol=factory, adversary=adversary, feedback=feedback)
    return base, [seed + r for r in range(reps)]


def _summarise(results):
    rounds = [result.rounds_executed for result in results if result.completed]
    mean = float(np.mean(rounds)) if rounds else float("nan")
    return mean, len(results) - len(rounds)


def run_static_constants(
    ks: Sequence[int] = (64, 256, 1024),
    *,
    reps: int = 5,
    seed: int = 1981,
) -> ExperimentReport:
    """Measure the classical static constants, then break them with asynchrony."""
    configs = [
        ("SplittingTree (Massey 2.8867k)", lambda: SplittingTree(),
         FeedbackModel.COLLISION_DETECTION),
        ("Hybrid GFL (2.134k)", lambda: HybridEstimateSplit(),
         FeedbackModel.COLLISION_DETECTION),
        ("Sawtooth/SUniform (O(k), no CD)", lambda: SUniform(),
         FeedbackModel.ACK_ONLY),
    ]
    cells, labels = [], []
    for i, k in enumerate(ks):
        for j, (name, factory, feedback) in enumerate(configs):
            cells.append(_cell(
                k, factory, StaticSchedule(), feedback, reps,
                seed + 1000 * i + 100 * j,
            ))
            labels.append((name, "static"))
    # The asynchrony check at the largest k: the CD algorithms' phase
    # structure assumes common clocks; a modest wake spread breaks it.
    for j, (name, factory, feedback) in enumerate(configs):
        cells.append(_cell(
            ks[-1], factory, UniformRandomSchedule(span=lambda kk: kk), feedback,
            reps, seed + 7777 + 100 * j,
        ))
        labels.append((name, "async(span=k)"))
    rows = []
    for (name, workload), (base, _seeds), results in zip(
        labels, cells, run_grid(cells)
    ):
        mean, failures = _summarise(results)
        rows.append(
            {
                "algorithm": name, "workload": workload, "k": base.k,
                "rounds_over_k": mean / base.k, "failures": failures,
            }
        )

    table = render_table(
        ["algorithm", "workload", "k", "rounds/k", "failures"],
        [[r["algorithm"], r["workload"], r["k"], r["rounds_over_k"],
          r["failures"]] for r in rows],
    )
    text = "\n".join(
        [
            "== static_constants: the classical constants of Section 1.1 ==",
            table,
            "",
            "Paper's quoted constants: Massey 2.8867, GFL 2.134 (+O(log k)),"
            " sawtooth O(k).  The async rows show the same algorithms once"
            " clocks misalign — the problem this paper exists to solve.",
        ]
    )
    return ExperimentReport("static_constants", "Static-model constants", rows, text)
