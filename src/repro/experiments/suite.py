"""Suite runner: execute every registered experiment at a chosen scale.

Two scales:

* ``quick`` — minutes: small sweeps, few repetitions; verifies wiring and
  regenerates recognisable shapes;
* ``paper`` — the configurations the benchmarks use (about 4 minutes on
  a 2-vCPU host, most of it object-engine ``static_constants`` runs);
  regenerates the EXPERIMENTS.md numbers.

``python -m repro suite --scale quick --out results/`` writes every report
as text (and CSV rows) into the output directory.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Optional

from repro.experiments.harness import ExperimentReport
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["SCALES", "suite_overrides", "run_suite"]

#: Per-experiment keyword overrides, by scale.  Absent ids run on defaults.
SCALES: dict[str, dict[str, dict[str, object]]] = {
    "quick": {
        "table1_latency": {"ks": (16, 32, 64), "reps": 2},
        "table1_energy": {"ks": (16, 32, 64), "reps": 2},
        "table1_cd_row": {"ks": (16, 32, 64), "reps": 2},
        "fig3_lower_bound_instance": {"k": 512, "reps": 2},
        "thm51_wakeup": {"ks": (16, 32, 64), "reps": 4},
        "thm52_suniform": {"ks": (8, 16, 32), "reps": 2},
        "sep_known_unknown": {"ks": (16, 32), "reps": 2, "include_adaptive": False},
        "baseline_compare": {"k": 64, "reps": 2},
        "ablation_constants": {"k": 64, "reps": 3},
        "estimate_robustness": {"k": 64, "reps": 4},
        "static_constants": {"ks": (32, 64), "reps": 2},
        "whp_validation": {"k": 64, "runs": 60},
        "lemma_validation": {"k": 64, "reps": 2},
        "adaptive_anatomy": {"k": 48, "batch": 12, "gap": 100},
        "adaptive_adversary_check": {"k": 48, "reps": 2},
        "ext_global_clock": {"ks": (16, 32), "reps": 2},
        "ext_jamming": {"k": 48, "reps": 2},
        "ext_throughput": {"k": 48},
        "ext_wakeup_variants": {"k": 64, "reps": 4},
        "ext_adversary_search": {"k": 48, "budget": 10, "eval_reps": 2},
        "ext_tradeoff": {"k": 64, "reps": 3},
        "ext_aloha_instability": {"k": 200, "drain_cap": 15_000},
        "traffic_phase": {
            "stations": 8, "lams": (0.1, 0.5), "horizon": 2_000,
            "reps": 2, "window": 256,
        },
        "robustness": {
            "k": 16, "fault_rates": (0.0, 0.05, 0.1), "reps": 2,
            "energy_charges": 24,
        },
    },
    "paper": {
        "table1_latency": {"ks": (32, 64, 128, 256, 512), "reps": 3},
        "table1_energy": {"ks": (32, 64, 128, 256, 512), "reps": 3},
        "table1_cd_row": {"ks": (32, 64, 128, 256), "reps": 4},
        "fig3_lower_bound_instance": {"k": 4096, "reps": 3},
        "thm51_wakeup": {"ks": (32, 64, 128, 256, 512, 1024, 2048), "reps": 10},
        "thm52_suniform": {"ks": (16, 32, 64, 128, 256, 512), "reps": 5},
        "sep_known_unknown": {"ks": (64, 128, 256, 512, 1024), "reps": 3},
        "baseline_compare": {"k": 256, "reps": 3},
        "ablation_constants": {"k": 256, "reps": 10},
        "estimate_robustness": {"k": 256, "reps": 10},
        "static_constants": {"ks": (64, 256, 1024), "reps": 5},
        "whp_validation": {"k": 128, "runs": 300},
        "lemma_validation": {"k": 256, "reps": 5},
        "adaptive_anatomy": {"k": 96, "batch": 16, "gap": 150},
        "adaptive_adversary_check": {"k": 96, "reps": 3},
        "ext_global_clock": {"ks": (32, 64, 128, 256), "reps": 4},
        "ext_jamming": {"k": 128, "reps": 4},
        "ext_throughput": {"k": 128},
        "ext_wakeup_variants": {"k": 256, "reps": 10},
        "ext_adversary_search": {"k": 128, "budget": 40, "eval_reps": 3},
        "ext_tradeoff": {"k": 256, "reps": 5},
        "ext_aloha_instability": {"k": 800},
        "traffic_phase": {
            "stations": 16, "lams": (0.05, 0.15, 0.25, 0.35, 0.45, 0.55),
            "horizon": 20_000, "reps": 3,
        },
        "robustness": {
            "k": 64, "fault_rates": (0.0, 0.02, 0.05, 0.1, 0.2), "reps": 3,
            "energy_charges": 96,
        },
    },
}


def suite_overrides(scale: str) -> dict[str, dict[str, object]]:
    """The per-experiment overrides of a named scale."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
    return SCALES[scale]


def run_suite(
    scale: str = "quick",
    *,
    out_dir: Optional[str | Path] = None,
    only: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
    resume_dir: Optional[str | Path] = None,
    task_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    engine: Optional[str] = None,
    batch_size: Optional[int] = None,
    memory_budget: Optional[object] = None,
    tile_reps: Optional[int] = None,
    tile_rounds: Optional[int] = None,
    noise: Optional[float] = None,
    ack_loss: Optional[float] = None,
    energy_budget: Optional[int] = None,
    progress: Callable[[str], None] = print,
) -> dict[str, ExperimentReport]:
    """Run every (or a subset of) registered experiment(s) at a scale.

    Returns ``{experiment_id: report}``; optionally writes
    ``<out_dir>/<id>.txt`` and ``<id>.csv``.  ``jobs`` is the worker
    process count handed to every experiment (``0`` = all cores); rows
    are bit-identical for any worker count.

    ``resume_dir`` makes the whole suite crash-safe: each experiment
    journals its completed runs there (one JSONL file per experiment) and
    a rerun after an interruption — same scale, same overrides — skips
    every journaled run, re-executing only what is missing while writing
    byte-identical reports.  ``task_timeout`` / ``max_retries`` set the
    worker failure policy (see :mod:`repro.experiments.executor`).

    ``engine`` overrides engine dispatch for every run in the suite
    (``"cross-check"`` turns the whole suite into an engine-agreement
    sweep without changing any reported number).  ``batch_size`` bounds
    the harness's chunked batch submission (``1`` = per-run execution);
    rows are byte-identical for every batch size.  ``memory_budget`` /
    ``tile_reps`` / ``tile_rounds`` bound each kernel call's working set
    by streaming repetitions through tiles (see
    :mod:`repro.engine.plan`); rows are byte-identical for every tiling.

    ``noise`` / ``ack_loss`` / ``energy_budget`` compose a process-default
    :class:`~repro.faults.FaultModel` applied to every harness-built spec
    in the suite, degrading the whole sweep's channel at once (the
    robustness experiment's own per-cell fault models are unaffected).
    """
    overrides = suite_overrides(scale)
    wanted = set(only) if only is not None else set(EXPERIMENTS)
    unknown = wanted - set(EXPERIMENTS)
    if unknown:
        raise KeyError(f"unknown experiment ids: {sorted(unknown)}")

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    reports: dict[str, ExperimentReport] = {}
    for experiment_id in sorted(wanted):
        progress(f"[suite:{scale}] running {experiment_id} ...")
        report = run_experiment(
            experiment_id,
            jobs=jobs,
            resume_dir=None if resume_dir is None else str(resume_dir),
            task_timeout=task_timeout,
            max_retries=max_retries,
            engine=engine,
            batch_size=batch_size,
            memory_budget=memory_budget,
            tile_reps=tile_reps,
            tile_rounds=tile_rounds,
            noise=noise,
            ack_loss=ack_loss,
            energy_budget=energy_budget,
            **overrides.get(experiment_id, {}),
        )
        reports[experiment_id] = report
        wall = report.timings.get("wall_s")
        if wall is not None:
            notes = []
            resumed = int(report.timings.get("runs_resumed", 0))
            if resumed:
                notes.append(f"{resumed} runs resumed")
            # Surface the executor's failure accounting per experiment —
            # a retried-but-recovered suite should say so, not hide it.
            for timing_key, label in (
                ("task_failures", "failures"),
                ("task_retries", "retries"),
                ("task_timeouts", "timeouts"),
            ):
                value = int(report.timings.get(timing_key, 0))
                if value:
                    notes.append(f"{value} {label}")
            note = f" ({', '.join(notes)})" if notes else ""
            progress(f"[suite:{scale}]   {experiment_id} done in {wall:.1f}s{note}")
        if out_path is not None:
            (out_path / f"{experiment_id}.txt").write_text(report.text + "\n")
            if report.rows:
                from repro.experiments.export import write_report_csv

                write_report_csv(report, out_path)
    if out_path is not None:
        from repro.analysis.reporting import suite_markdown

        (out_path / "SUMMARY.md").write_text(
            suite_markdown(reports, title=f"Suite report ({scale})")
        )
    totals = {
        label: sum(
            int(report.timings.get(timing_key, 0))
            for report in reports.values()
        )
        for timing_key, label in (
            ("task_failures", "failures"),
            ("task_retries", "retries"),
            ("task_timeouts", "timeouts"),
        )
    }
    health = ""
    if any(totals.values()):
        health = " (" + ", ".join(
            f"{value} {label}" for label, value in totals.items() if value
        ) + ")"
    progress(f"[suite:{scale}] done: {len(reports)} experiments{health}")
    return reports
