"""Experiment registry: id -> driver, matching the DESIGN.md index.

Usage::

    from repro.experiments import run_experiment, EXPERIMENTS
    report = run_experiment("thm51_wakeup")
    print(report.text)

Every driver accepts keyword overrides (``ks``, ``reps``, ``seed``, ...)
and returns an :class:`~repro.experiments.harness.ExperimentReport`.
"""

from __future__ import annotations

import inspect
import time
from collections.abc import Callable
from typing import Optional

from repro.engine.dispatch import use_engine
from repro.engine.plan import use_tiling
from repro.experiments.checkpoint import CheckpointJournal, use_checkpoint
from repro.faults import fault_model, use_faults
from repro.experiments.executor import (
    execution_stats,
    resolve_jobs,
    use_batch_size,
    use_failure_policy,
    use_jobs,
)
from repro.telemetry import registry as telemetry

from repro.experiments.ablation import run_ablation
from repro.experiments.adaptive_adversary_exp import run_adaptive_adversary_check
from repro.experiments.anatomy_exp import run_adaptive_anatomy
from repro.experiments.baselines_exp import run_baseline_compare
from repro.experiments.cd_row_exp import run_cd_row
from repro.experiments.estimate_exp import run_estimate_robustness
from repro.experiments.figures import (
    run_fig1_clocks,
    run_fig2_schedule,
    run_fig4_schedule,
)
from repro.experiments.global_clock_exp import run_global_clock
from repro.experiments.harness import ExperimentReport
from repro.experiments.instability_exp import run_aloha_instability
from repro.experiments.jamming_exp import run_jamming
from repro.experiments.lemma_exp import run_lemma_validation
from repro.experiments.lower_bound_exp import run_lower_bound_instance
from repro.experiments.search_exp import run_adversary_search
from repro.experiments.static_constants_exp import run_static_constants
from repro.experiments.separation import run_separation
from repro.experiments.suniform_exp import run_suniform_static
from repro.experiments.table1 import run_table1_energy, run_table1_latency
from repro.experiments.throughput_exp import run_throughput
from repro.experiments.tradeoff_exp import run_tradeoff
from repro.experiments.robustness_exp import run_robustness
from repro.experiments.traffic_phase_exp import run_traffic_phase
from repro.experiments.wakeup import run_wakeup
from repro.experiments.wakeup_variants_exp import run_wakeup_variants
from repro.experiments.whp_exp import run_whp_validation

__all__ = ["EXPERIMENTS", "run_experiment"]

EXPERIMENTS: dict[str, Callable[..., ExperimentReport]] = {
    "table1_latency": run_table1_latency,
    "table1_energy": run_table1_energy,
    "table1_cd_row": run_cd_row,
    "fig1_clocks": run_fig1_clocks,
    "fig2_probability_schedule": run_fig2_schedule,
    "fig3_lower_bound_instance": run_lower_bound_instance,
    "fig4_sublinear_schedule": run_fig4_schedule,
    "thm51_wakeup": run_wakeup,
    "thm52_suniform": run_suniform_static,
    "sep_known_unknown": run_separation,
    "baseline_compare": run_baseline_compare,
    "ablation_constants": run_ablation,
    "estimate_robustness": run_estimate_robustness,
    "static_constants": run_static_constants,
    "whp_validation": run_whp_validation,
    "lemma_validation": run_lemma_validation,
    "adaptive_anatomy": run_adaptive_anatomy,
    "adaptive_adversary_check": run_adaptive_adversary_check,
    # Model extensions beyond the paper's main results (Discussion /
    # related-work sections); prefixed ext_.
    "ext_global_clock": run_global_clock,
    "ext_jamming": run_jamming,
    "ext_throughput": run_throughput,
    "ext_wakeup_variants": run_wakeup_variants,
    "ext_adversary_search": run_adversary_search,
    "ext_tradeoff": run_tradeoff,
    "ext_aloha_instability": run_aloha_instability,
    # Dynamic-arrival traffic layer: λ-sweep stability phase diagrams.
    "traffic_phase": run_traffic_phase,
    # Fault-injection subsystem: graceful degradation under channel
    # noise, ack loss, and energy budgets.
    "robustness": run_robustness,
}


def run_experiment(
    experiment_id: str,
    *,
    jobs: Optional[int] = None,
    resume_dir: Optional[str] = None,
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
    **overrides,
) -> ExperimentReport:
    """Run one experiment from the registry by its DESIGN.md id.

    ``jobs`` (worker process count; ``0`` = all cores) applies to every
    harness call the driver makes, via the executor's process default;
    results are bit-identical for any worker count.  ``task_timeout`` /
    ``max_retries`` set the failure policy the same way (see
    :mod:`repro.experiments.executor`).  ``batch_size`` (``1`` = no
    batching) bounds the harness's chunked batch submission the same way;
    results are byte-identical for every batch size.

    ``engine`` overrides the dispatch default for every run the driver
    makes (``"auto"``, ``"object"``, ``"vectorized"``, ``"cross-check"``;
    see :mod:`repro.engine.dispatch`) — ``"cross-check"`` shadows each
    admissible run with the reference engine and asserts agreement without
    changing any reported number.

    ``noise`` / ``ack_loss`` / ``energy_budget`` (the CLI's fault flags)
    compose a process-default :class:`~repro.faults.FaultModel` folded
    into every harness-built spec, so any experiment can be re-run on a
    degraded channel; drivers that set their own per-spec fault models
    (the robustness experiment) are unaffected.

    ``resume_dir`` activates crash-safe checkpointing: every completed run
    is journaled to ``<resume_dir>/<experiment_id>.runs.jsonl`` and runs
    already journaled there are skipped, reproducing the report
    byte-identically after any interruption (the configuration — scale,
    overrides, seed — must match the interrupted invocation).

    The report's ``timings`` gains the driver's wall-clock (``wall_s``),
    the worker count (``jobs``), the executor's failure accounting
    (``task_failures`` / ``task_retries`` / ``task_timeouts``) and, under
    ``resume_dir``, the journal traffic (``runs_resumed`` /
    ``runs_journaled``).
    """
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    driver = EXPERIMENTS[experiment_id]
    accepted = inspect.signature(driver).parameters
    for key, value in overrides.items():
        if key not in accepted:
            raise ValueError(
                f"{experiment_id} has no option {key!r}; accepted: "
                f"{', '.join(sorted(accepted)) or '(none)'}"
            )
        # A one-value sequence option (CLI ``--ks 8``) arrives as a scalar.
        if isinstance(accepted[key].default, tuple) and not isinstance(
            value, (tuple, list)
        ):
            overrides[key] = (value,)
    if overrides.get("reps", 1) < 1:
        raise ValueError(f"{experiment_id}: reps must be >= 1")
    journal: Optional[CheckpointJournal] = None
    if resume_dir is not None:
        journal = CheckpointJournal.for_experiment(resume_dir, experiment_id)
        journal.load()
    stats_before = execution_stats()
    start = time.perf_counter()
    with use_jobs(jobs), use_failure_policy(task_timeout, max_retries), \
            use_batch_size(batch_size), use_checkpoint(journal), \
            use_engine(engine), use_tiling(
                memory_budget=memory_budget,
                tile_reps=tile_reps,
                tile_rounds=tile_rounds,
            ), use_faults(fault_model(
                noise=noise,
                ack_loss=ack_loss,
                energy_budget=energy_budget,
            )):
        with telemetry.span("experiment.run"):
            report = driver(**overrides)
    report.timings["wall_s"] = time.perf_counter() - start
    if telemetry.enabled():
        telemetry.count("experiment.runs")
        telemetry.event(
            "experiment.completed",
            {
                "experiment_id": experiment_id,
                "wall_s": report.timings["wall_s"],
                "jobs": resolve_jobs(jobs),
            },
        )
    report.timings["jobs"] = float(resolve_jobs(jobs))
    stats_after = execution_stats()
    for stat_key, timing_key in (
        ("failures", "task_failures"),
        ("retries", "task_retries"),
        ("timeouts", "task_timeouts"),
    ):
        delta = stats_after[stat_key] - stats_before[stat_key]
        if delta:
            report.timings[timing_key] = float(delta)
    if journal is not None:
        report.timings["runs_resumed"] = float(journal.hits)
        report.timings["runs_journaled"] = float(journal.records_written)
    return report
