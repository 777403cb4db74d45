"""Smoke + shape tests for the experiment drivers (tiny configurations).

Heavier, paper-scale runs live in benchmarks/; these tests pin that every
registry entry executes, returns well-formed rows and prints something a
human can read.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import EXPERIMENTS, ExperimentReport, run_experiment
from repro.experiments.harness import worst_sample
from repro.experiments.suite import SCALES
from repro.analysis.metrics import MetricSample


class TestRegistry:
    def test_all_design_md_ids_registered(self):
        core = {
            "table1_latency",
            "table1_energy",
            "table1_cd_row",
            "fig1_clocks",
            "fig2_probability_schedule",
            "fig3_lower_bound_instance",
            "fig4_sublinear_schedule",
            "thm51_wakeup",
            "thm52_suniform",
            "sep_known_unknown",
            "baseline_compare",
            "ablation_constants",
            "estimate_robustness",
            "static_constants",
            "whp_validation",
            "lemma_validation",
            "adaptive_anatomy",
            "adaptive_adversary_check",
        }
        extensions = {
            "ext_global_clock",
            "ext_jamming",
            "ext_throughput",
            "ext_wakeup_variants",
            "ext_adversary_search",
            "ext_tradeoff",
            "ext_aloha_instability",
        }
        # Dynamic-arrival traffic layer (queued stations, λ sweeps).
        traffic = {"traffic_phase"}
        # Fault-injection subsystem (channel noise / ack loss / energy).
        faults = {"robustness"}
        assert core | extensions | traffic | faults == set(EXPERIMENTS)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("nope")


class TestFigureExperiments:
    def test_fig1_matches_paper_example(self):
        report = run_experiment("fig1_clocks")
        # Paper: at reference time 5 there are three active stations.
        row5 = next(r for r in report.rows if r["reference_round"] == 5)
        active = [v for key, v in row5.items() if key != "reference_round" and v is not None]
        assert len(active) == 3

    def test_fig2_rows_and_mismatch(self):
        report = run_experiment("fig2_probability_schedule", k=8, c=1, offset=1)
        assert isinstance(report, ExperimentReport)
        assert report.rows[0]["u1_p"] == pytest.approx(1 / 16)
        assert "different probabilities" in report.text

    def test_fig4_ladder_values(self):
        import math

        report = run_experiment("fig4_sublinear_schedule", b=2, segments=2)
        assert report.rows[0]["u1_p"] == pytest.approx(math.log(3) / 3)
        assert report.rows[2]["u1_p"] == pytest.approx(math.log(4) / 4)


class TestLowerBoundExperiment:
    def test_blocking_separation(self):
        report = run_experiment("fig3_lower_bound_instance", k=512, reps=2, seed=9)
        adversarial = [
            r for r in report.rows if r["instance"] == "J(k) adversarial"
        ]
        benign = [r for r in report.rows if r["instance"] == "trickle benign"]
        assert adversarial and benign
        adv = sum(r["successes_in_prefix"] for r in adversarial)
        ben = sum(r["successes_in_prefix"] for r in benign)
        # The pump blocks (near-)completely; the trickle delivers steadily.
        assert adv <= 2
        assert ben >= 5 * max(1, adv)


class TestSweepExperiments:
    def test_wakeup_report(self):
        report = run_experiment("thm51_wakeup", ks=(16, 32), reps=2, seed=1)
        assert {r["k"] for r in report.rows} == {16, 32}
        assert "best fit" in report.text

    def test_suniform_report(self):
        report = run_experiment("thm52_suniform", ks=(8, 16), reps=2, seed=1)
        assert all(r["latency_over_k"] < 30 for r in report.rows)

    def test_table1_latency_small(self):
        report = run_experiment(
            "table1_latency", ks=(8, 16), reps=2, seed=3, include_adaptive=False
        )
        assert {r["k"] for r in report.rows} == {8, 16}
        for row in report.rows:
            assert row["NonAdaptiveWithK"] > 0
            assert row["SublinearDecrease(ack)"] > 0

    def test_table1_energy_small(self):
        report = run_experiment(
            "table1_energy", ks=(8, 16), reps=2, seed=3, include_adaptive=False
        )
        assert all(row["NonAdaptiveWithK"] > 0 for row in report.rows)

    def test_separation_small(self):
        report = run_experiment(
            "sep_known_unknown", ks=(8, 16), reps=2, include_adaptive=False
        )
        assert all("ratio_unknown/known" in r for r in report.rows)

    def test_ablation_small(self):
        report = run_experiment(
            "ablation_constants", k=16, cs=(2, 4), bs=(2,), qs=(2.0,), reps=2
        )
        protocols = {r["protocol"] for r in report.rows}
        assert protocols == {
            "NonAdaptiveWithK", "SublinearDecrease", "DecreaseSlowly(wakeup)",
        }


class TestExtensionExperiments:
    """Tiny-config smoke tests for the ext_* drivers (paper-scale runs
    live in benchmarks/)."""

    def test_jamming_small(self):
        report = run_experiment("ext_jamming", k=24, rates=(0.0, 0.3), reps=2)
        zero = [r for r in report.rows if r["jam_rate"] == 0.0]
        assert all(r["failures"] == 0 for r in zero)

    def test_throughput_small(self):
        report = run_experiment("ext_throughput", k=24, batch=6, gap=60)
        names = {r["protocol"] for r in report.rows}
        assert "AdaptiveNoK" in names

    def test_global_clock_small(self):
        report = run_experiment("ext_global_clock", ks=(8, 16), reps=2)
        assert all(r["failures"] == 0 for r in report.rows)

    def test_wakeup_variants_small(self):
        report = run_experiment("ext_wakeup_variants", k=32, reps=3)
        harmonic = [
            r for r in report.rows
            if r.get("task") == "wake-up" and r["schedule"].startswith("DecreaseSlowly")
        ]
        assert all(r["failures"] == 0 for r in harmonic)

    def test_search_small(self):
        report = run_experiment("ext_adversary_search", k=24, budget=4, eval_reps=1)
        assert any(r["source"] == "searched worst" for r in report.rows)

    def test_tradeoff_small(self):
        report = run_experiment("ext_tradeoff", k=32, reps=2)
        assert any(r["pareto"] for r in report.rows)

    def test_instability_small(self):
        report = run_experiment(
            "ext_aloha_instability", k=100, rates=(0.05, 0.4),
            drain_cap=6000,
        )
        overload = [
            r for r in report.rows
            if r["arrival_rate"] == 0.4 and r["protocol"].startswith("Sublinear")
        ]
        assert overload[0]["delivered_fraction"] == 1.0

    def test_whp_small(self):
        report = run_experiment("whp_validation", k=32, runs=20)
        assert len(report.rows) == 3

    def test_lemma_small(self):
        report = run_experiment("lemma_validation", k=32, reps=2)
        assert any(r["lemma"].startswith("3.6") for r in report.rows)

    def test_cd_row_small(self):
        report = run_experiment("table1_cd_row", ks=(8, 16), reps=2)
        assert all(r["cd_latency"] > 0 for r in report.rows)

    def test_static_constants_small(self):
        report = run_experiment("static_constants", ks=(16, 32), reps=2)
        static = [r for r in report.rows if r["workload"] == "static"]
        assert all(r["failures"] == 0 for r in static)

    def test_estimate_small(self):
        report = run_experiment(
            "estimate_robustness", k=32, factors=(0.5, 1.0, 2.0), reps=2
        )
        assert {r["k_hat_over_k"] for r in report.rows} == {0.5, 1.0, 2.0}

    def test_estimate_quick_scale_reports_unsolved_runs_as_failures(self):
        # At k_hat = k/16 every station exhausts its ladder and switches
        # off unsolved: the run completes, but it must count as a failure
        # rather than feed a missing latency into the mean.
        report = run_experiment(
            "estimate_robustness", **SCALES["quick"]["estimate_robustness"]
        )
        worst = next(r for r in report.rows if r["k_hat_over_k"] == 0.0625)
        assert worst["delivered_fraction"] < 1.0
        assert worst["failures"] == worst["runs"]
        assert math.isnan(worst["latency"])
        for row in report.rows:
            if row["failures"] < row["runs"]:
                assert row["latency"] > 0

    def test_adaptive_adversary_check_small(self):
        report = run_experiment("adaptive_adversary_check", k=24, reps=1)
        assert {r["protocol"] for r in report.rows} == {
            "NonAdaptiveWithK", "SublinearDecrease", "AdaptiveNoK",
        }

    def test_traffic_phase_small(self):
        report = run_experiment(
            "traffic_phase", stations=4, lams=(0.1, 0.7), horizon=400,
            reps=2, window=128,
        )
        assert len(report.rows) == 4
        # A light load is stable, a saturating one is not — the phase
        # boundary falls inside this two-point sweep for both protocols.
        by_lam = {
            lam: {r["stable"] for r in report.rows if r["lam"] == lam}
            for lam in (0.1, 0.7)
        }
        assert by_lam[0.1] == {"S"}
        assert by_lam[0.7] == {"U"}
        assert "phase diagram" in report.text


class TestWorstSample:
    def test_picks_largest(self):
        a = MetricSample("a", k=1)
        a.max_latency = [10.0]
        b = MetricSample("b", k=1)
        b.max_latency = [20.0]
        assert worst_sample([a, b]).label == "b"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            worst_sample([])
