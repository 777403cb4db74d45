"""Every registered experiment replays from its journal without simulating.

Each experiment runs at tiny scale into a resume directory, then again
from that directory with telemetry on.  The replay must select no engine
and fuse no batch — except for ``record_trace`` runs, which the journal
cannot hold and which ``run_grid`` counts as ``harness.runs_unjournaled``
— and every report (text and CSV) must be byte-identical fresh vs
replayed and at ``jobs=1`` vs ``jobs=2``.
"""

from __future__ import annotations

import pytest

from repro.experiments.executor import parallelism_available
from repro.experiments.export import rows_to_csv
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.telemetry import registry as telemetry

#: Smallest kwargs that still exercise every cell kind of each driver.
TINY: dict[str, dict[str, object]] = {
    "ablation_constants": {"k": 12, "cs": (2, 4), "bs": (2,), "qs": (2.0,), "reps": 2},
    "adaptive_adversary_check": {"k": 12, "reps": 1},
    "adaptive_anatomy": {"k": 12, "batch": 4, "gap": 40},
    "baseline_compare": {"k": 12, "reps": 1},
    "estimate_robustness": {"k": 16, "factors": (0.25, 1.0), "reps": 2},
    "ext_adversary_search": {"k": 12, "budget": 3, "eval_reps": 2},
    "ext_aloha_instability": {"k": 40, "rates": (0.1, 0.4), "drain_cap": 2000},
    "ext_global_clock": {"ks": (8, 16), "reps": 1},
    "ext_jamming": {"k": 12, "rates": (0.0, 0.3), "reps": 2},
    "ext_throughput": {"k": 12, "batch": 4, "gap": 40},
    "ext_tradeoff": {"k": 12, "reps": 2},
    "ext_wakeup_variants": {"k": 12, "reps": 2},
    "fig1_clocks": {},
    "fig2_probability_schedule": {"k": 8},
    "fig3_lower_bound_instance": {"k": 64, "reps": 1},
    "fig4_sublinear_schedule": {"b": 2, "segments": 2},
    "lemma_validation": {"k": 16, "reps": 2},
    "robustness": {"k": 8, "fault_rates": (0.0, 0.1), "reps": 1, "energy_charges": 16},
    "sep_known_unknown": {"ks": (8, 16), "reps": 1, "include_adaptive": False},
    "static_constants": {"ks": (8, 16), "reps": 1},
    "table1_cd_row": {"ks": (8, 16), "reps": 1},
    "table1_energy": {"ks": (8, 16), "reps": 1, "include_adaptive": False},
    "table1_latency": {"ks": (8, 16), "reps": 1, "include_adaptive": False},
    "thm51_wakeup": {"ks": (8, 16), "reps": 2},
    "thm52_suniform": {"ks": (8,), "reps": 2, "large_ks": (32,)},
    "traffic_phase": {
        "stations": 4, "lams": (0.1, 0.7), "horizon": 300, "reps": 1, "window": 64,
    },
    "whp_validation": {"k": 16, "runs": 6},
}

#: The drivers whose runs record a trace (and so are never journaled).
TRACED = {"adaptive_anatomy", "ext_throughput", "lemma_validation"}


def report_bytes(report) -> bytes:
    return report.text.encode() + b"\0" + rows_to_csv(report.rows).encode()


def run_all(resume_dir, *, jobs: int) -> dict[str, bytes]:
    return {
        experiment_id: report_bytes(
            run_experiment(experiment_id, jobs=jobs, resume_dir=str(resume_dir), **kwargs)
        )
        for experiment_id, kwargs in TINY.items()
    }


def replay_counters(resume_dir) -> tuple[dict[str, bytes], dict[str, dict[str, float]]]:
    """Replay every experiment with telemetry on; per-experiment counters."""
    reports, counters = {}, {}
    telemetry.reset()
    telemetry.enable()
    try:
        for experiment_id, kwargs in TINY.items():
            before = dict(telemetry.snapshot()["counters"])
            reports[experiment_id] = report_bytes(
                run_experiment(experiment_id, jobs=1, resume_dir=str(resume_dir), **kwargs)
            )
            after = telemetry.snapshot()["counters"]
            counters[experiment_id] = {
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value != before.get(key, 0)
            }
    finally:
        telemetry.disable()
        telemetry.reset()
    return reports, counters


def test_tiny_kwargs_cover_every_experiment():
    assert set(TINY) == set(EXPERIMENTS)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    resume_dir = tmp_path_factory.mktemp("journal")
    return resume_dir, run_all(resume_dir, jobs=1)


def test_replay_simulates_only_trace_runs(fresh):
    resume_dir, fresh_reports = fresh
    replayed, counters = replay_counters(resume_dir)
    assert replayed == fresh_reports
    traced = set()
    for experiment_id, delta in counters.items():
        unjournaled = delta.get("harness.runs_unjournaled", 0)
        selected = {
            key: value for key, value in delta.items()
            if key.startswith("engine.select.")
        }
        assert delta.get("engine.batch_fused_runs", 0) == 0, experiment_id
        # A traced run has exactly one way to run: the object engine.
        assert selected == (
            {"engine.select.object": unjournaled} if unjournaled else {}
        ), experiment_id
        if unjournaled:
            traced.add(experiment_id)
    assert traced == TRACED


@pytest.mark.skipif(not parallelism_available(), reason="fork start method unavailable")
def test_reports_are_jobs_invariant(fresh, tmp_path):
    _resume_dir, fresh_reports = fresh
    assert run_all(tmp_path, jobs=2) == fresh_reports
