"""Tests for the telemetry registry, exporters, stats renderer and CLI."""

from __future__ import annotations

import json

import pytest

from repro.adversary.oblivious import UniformRandomSchedule
from repro.channel.results import StopCondition
from repro.cli import main
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.core.spec import RunSpec
from repro.engine.dispatch import execute
from repro.experiments.executor import RunExecutor, parallelism_available
from repro.telemetry import export as tel_export
from repro.telemetry import registry as telemetry
from repro.telemetry.stats import read_openmetrics, read_spans, render_stats


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts and ends with a disabled, empty registry."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestDisabledPath:
    def test_instruments_are_noops(self):
        telemetry.count("c")
        telemetry.gauge("g", 1.0)
        telemetry.observe("h", 0.5)
        telemetry.event("e", {"x": 1})
        snap = telemetry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["hist_counts"] == {}
        assert snap["spans"] == {}
        assert telemetry.drain_events() == []

    def test_span_is_shared_singleton(self):
        first = telemetry.span("a")
        second = telemetry.span("b")
        assert first is second  # no per-call allocation when disabled
        with first:
            pass
        assert telemetry.snapshot()["spans"] == {}

    def test_timer_is_none(self):
        assert telemetry.timer() is None

    def test_trace_sample_zero(self):
        assert telemetry.trace_sample() == 0
        telemetry.enable(trace_sample=10)
        assert telemetry.trace_sample() == 10
        telemetry.disable()
        assert telemetry.trace_sample() == 0


class TestInstruments:
    def test_counter_accumulates(self):
        telemetry.enable()
        telemetry.count("hits")
        telemetry.count("hits", 4)
        assert telemetry.snapshot()["counters"]["hits"] == 5

    def test_gauge_last_write_wins(self):
        telemetry.enable()
        telemetry.gauge("depth", 7)
        telemetry.gauge("depth", 3)
        assert telemetry.snapshot()["gauges"]["depth"] == 3.0

    def test_histogram_counts_and_stats(self):
        telemetry.enable()
        for value in (0.001, 0.002, 1.5):
            telemetry.observe("secs", value)
        snap = telemetry.snapshot()
        count, total, lo, hi = snap["hist_stats"]["secs"]
        assert count == 3
        assert total == pytest.approx(1.503)
        assert lo == pytest.approx(0.001)
        assert hi == pytest.approx(1.5)
        assert sum(snap["hist_counts"]["secs"]) == 3

    def test_histogram_bucket_monotone(self):
        telemetry.enable()
        telemetry.observe("h", float("inf"))
        counts = telemetry.snapshot()["hist_counts"]["h"]
        assert counts[-1] == 1  # lands in the +Inf bucket

    def test_span_records_aggregate_and_event(self):
        telemetry.enable()
        with telemetry.span("work"):
            pass
        snap = telemetry.snapshot()
        count, total, lo, hi = snap["spans"]["work"]
        assert count == 1
        assert 0 <= lo <= total
        events = telemetry.drain_events()
        assert [e["name"] for e in events] == ["work"]
        assert events[0]["kind"] == "span"

    def test_phase_timer_laps(self):
        telemetry.enable()
        t = telemetry.timer()
        assert t is not None
        t.lap("phase.a")
        t.lap("phase.b")
        spans = telemetry.snapshot()["spans"]
        assert set(spans) == {"phase.a", "phase.b"}
        assert spans["phase.a"][0] == 1

    def test_event_buffer_is_bounded(self, monkeypatch):
        telemetry.enable()
        monkeypatch.setattr(telemetry, "MAX_EVENTS", 3)
        for i in range(5):
            telemetry.event("e", {"i": i})
        events = telemetry.drain_events()
        assert len(events) == 3
        # The overflow is counted, never silent.
        assert telemetry.snapshot()["counters"]["telemetry.events_dropped"] == 2


class TestDeltaAndMerge:
    def test_delta_since_isolates_new_activity(self):
        telemetry.enable()
        telemetry.count("old", 10)
        before = telemetry.snapshot()
        telemetry.count("old", 2)
        telemetry.count("new", 1)
        telemetry.observe("h", 0.5)
        with telemetry.span("s"):
            pass
        delta = telemetry.delta_since(before)
        assert delta["counters"] == {"old": 2, "new": 1}
        assert delta["hist_stats"]["h"][0] == 1
        assert delta["spans"]["s"][0] == 1
        assert [e["name"] for e in delta["events"]] == ["s"]

    def test_merge_round_trip(self):
        telemetry.enable()
        telemetry.count("shared", 3)
        before = telemetry.snapshot()
        telemetry.count("shared", 4)
        telemetry.observe("h", 1.0)
        delta = telemetry.delta_since(before)
        # Rewind to the "parent" state and fold the delta back in.
        telemetry.reset()
        telemetry.count("shared", 3)
        telemetry.merge(delta)
        snap = telemetry.snapshot()
        assert snap["counters"]["shared"] == 7
        assert snap["hist_stats"]["h"][0] == 1

    def test_merge_while_disabled_still_lands(self):
        telemetry.enable()
        before = telemetry.snapshot()
        telemetry.count("c", 5)
        delta = telemetry.delta_since(before)
        telemetry.reset()
        telemetry.disable()
        telemetry.merge(delta)  # a worker may report after the parent stops
        assert telemetry.snapshot()["counters"]["c"] == 5


def _spec(k: int = 4, seed: int = 11) -> RunSpec:
    return RunSpec(
        k=k,
        protocol=NonAdaptiveWithK(k, 4),
        adversary=UniformRandomSchedule(span=lambda k: 2 * k),
        stop=StopCondition.ALL_SUCCEEDED,
        max_rounds=60 * k,
        seed=seed,
    )


class TestForkMerge:
    @pytest.mark.skipif(
        not parallelism_available(), reason="fork pool unavailable"
    )
    def test_worker_metrics_merge_into_parent(self):
        telemetry.enable()
        baseline = telemetry.snapshot()["counters"].get("engine.select.vectorized", 0)
        executor = RunExecutor(jobs=2)
        specs = [_spec(seed=100 + i) for i in range(6)]
        results = executor.map([lambda s=s: execute(s) for s in specs])
        assert len(results) == 6
        counters = telemetry.snapshot()["counters"]
        # Engine selection happened inside forked workers; without the
        # delta piggyback the parent registry would never see it.
        assert counters.get("engine.select.vectorized", 0) - baseline == 6
        assert counters["executor.tasks"] == 6

    def test_serial_map_counts_tasks(self):
        telemetry.enable()
        executor = RunExecutor(jobs=1)
        executor.map([lambda: execute(_spec(seed=5))])
        counters = telemetry.snapshot()["counters"]
        assert counters["executor.tasks"] == 1
        assert telemetry.snapshot()["hist_stats"]["executor.task_seconds"][0] == 1


class TestCompiledCapabilityCounters:
    def _adaptive_spec(self, **overrides):
        from repro.adversary.adaptive import BurstOnQuietAdversary
        from repro.core.protocols import AdaptiveNoK

        factory = lambda: AdaptiveNoK()  # noqa: E731
        factory.protocol_name = "AdaptiveNoK"
        base = dict(
            k=4,
            protocol=factory,
            adversary=BurstOnQuietAdversary(burst=2, quiet=3),
            stop=StopCondition.ALL_SUCCEEDED,
            max_rounds=400,
            seed=7,
        )
        base.update(overrides)
        return RunSpec(**base)

    def test_adaptive_and_cd_selections_are_counted(self):
        from repro.channel.feedback import FeedbackModel

        telemetry.enable()
        execute(self._adaptive_spec())
        execute(self._adaptive_spec(
            feedback=FeedbackModel.COLLISION_DETECTION, seed=8,
        ))
        counters = telemetry.snapshot()["counters"]
        assert counters["engine.select.compiled"] == 2
        assert counters["engine.select.compiled.adaptive"] == 2
        assert counters["engine.select.compiled.cd"] == 1

    def test_capability_counters_render_in_stats(self, tmp_path):
        from repro.channel.feedback import FeedbackModel

        telemetry.enable()
        execute(self._adaptive_spec(
            feedback=FeedbackModel.COLLISION_DETECTION,
        ))
        tel_export.export_to_dir(tmp_path)
        text = render_stats(tmp_path)
        assert "engine.select.compiled.adaptive" in text
        assert "engine.select.compiled.cd" in text


class TestExport:
    def test_export_round_trip(self, tmp_path):
        telemetry.enable()
        telemetry.count("engine.cache.hit", 3)
        telemetry.gauge("executor.queue_depth", 2)
        telemetry.observe("executor.task_seconds", 0.25)
        with telemetry.span("batched.sort"):
            pass
        jsonl_path, prom_path = tel_export.export_to_dir(tmp_path)
        lines = [
            json.loads(line)
            for line in jsonl_path.read_text().splitlines()
        ]
        assert any(e["name"] == "batched.sort" for e in lines)
        text = prom_path.read_text()
        assert "repro_engine_cache_hit_total 3" in text
        assert 'repro_executor_task_seconds_bucket{le="+Inf"}' in text
        assert 'repro_span_seconds_count{span="batched.sort"}' in text
        assert text.rstrip().endswith("# EOF")
        parsed = read_openmetrics(prom_path)
        assert parsed["counters"]["repro_engine_cache_hit"] == 3.0
        assert parsed["gauges"]["repro_executor_queue_depth"] == 2.0
        spans = read_spans(jsonl_path)
        assert spans["batched.sort"]["count"] == 1

    def test_jsonl_is_append_only(self, tmp_path):
        telemetry.enable()
        telemetry.event("first")
        tel_export.export_to_dir(tmp_path)
        telemetry.event("second")
        jsonl_path, _ = tel_export.export_to_dir(tmp_path)
        names = [
            json.loads(line)["name"]
            for line in jsonl_path.read_text().splitlines()
        ]
        assert names == ["first", "second"]

    def test_metric_name_sanitised(self):
        assert tel_export.metric_name("a.b-c/d") == "repro_a_b_c_d"


class TestStats:
    def test_render_stats(self, tmp_path):
        telemetry.enable()
        telemetry.count("engine.cache.hit", 9)
        with telemetry.span("batched.resolve"):
            pass
        tel_export.export_to_dir(tmp_path)
        text = render_stats(tmp_path)
        assert "engine.cache.hit" in text
        assert "batched.resolve" in text
        assert "## Top spans" in text

    def test_fixpoint_counters_render(self, tmp_path):
        from repro.adversary.oblivious import UniformRandomSchedule
        from repro.channel.batched import run_batch
        from repro.core.protocols import SublinearDecrease
        from repro.core.spec import RunSpec

        telemetry.enable()
        spec = RunSpec(
            32, SublinearDecrease(4), UniformRandomSchedule(64), max_rounds=960
        )
        run_batch(spec, seeds=[1, 2, 3, 4])
        counters = telemetry.snapshot()["counters"]
        assert counters["batched.fixpoint_passes"] >= 3
        assert 0 < counters["batched.fixpoint_events"] <= counters["batched.events"]
        tel_export.export_to_dir(tmp_path)
        text = render_stats(tmp_path)
        assert "## Batched ack fixpoint" in text
        assert "re-examined events/batch" in text

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            render_stats(tmp_path / "nope")


class TestCli:
    def test_run_with_telemetry_and_stats(self, capsys, tmp_path):
        out_dir = tmp_path / "tel"
        code = main(
            ["run", "thm51_wakeup", "--ks", "8,16", "--reps", "2",
             "--telemetry", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry written to" in out
        assert (out_dir / tel_export.JSONL_NAME).exists()
        assert (out_dir / tel_export.OPENMETRICS_NAME).exists()
        assert main(["stats", str(out_dir)]) == 0
        stats_out = capsys.readouterr().out
        assert "Telemetry summary" in stats_out
        assert "## Metrics" in stats_out

    def test_trace_sample_emits_round_events(self, capsys, tmp_path):
        out_dir = tmp_path / "tel"
        # The object engine drives the round loop; sample every round.
        code = main(
            ["run", "thm51_wakeup", "--ks", "8,16", "--reps", "1",
             "--engine", "object",
             "--telemetry", str(out_dir), "--trace-sample", "1"]
        )
        assert code == 0
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in (out_dir / tel_export.JSONL_NAME).read_text().splitlines()
        ]
        rounds = [e for e in events if e["name"] == "simulator.round"]
        assert rounds
        assert {"round", "outcome", "transmitters"} <= set(rounds[0])

    def test_stats_on_empty_dir_fails_cleanly(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr().err


class TestSuiteSummary:
    def test_failure_counters_surface_in_progress_lines(self, monkeypatch):
        from repro.experiments import suite as suite_mod
        from repro.experiments.harness import ExperimentReport

        def fake_run_experiment(experiment_id, **kwargs):
            return ExperimentReport(
                experiment_id,
                experiment_id,
                timings={
                    "wall_s": 0.5,
                    "jobs": 1.0,
                    "task_failures": 3.0,
                    "task_retries": 2.0,
                    "task_timeouts": 1.0,
                },
            )

        monkeypatch.setattr(suite_mod, "run_experiment", fake_run_experiment)
        lines: list[str] = []
        suite_mod.run_suite(
            "quick", only=["fig1_clocks"], progress=lines.append
        )
        per_experiment = next(line for line in lines if "done in" in line)
        assert "3 failures" in per_experiment
        assert "2 retries" in per_experiment
        assert "1 timeouts" in per_experiment
        final = lines[-1]
        assert "3 failures" in final and "2 retries" in final

    def test_clean_suite_stays_quiet(self, monkeypatch):
        from repro.experiments import suite as suite_mod
        from repro.experiments.harness import ExperimentReport

        monkeypatch.setattr(
            suite_mod,
            "run_experiment",
            lambda experiment_id, **kwargs: ExperimentReport(
                experiment_id, experiment_id,
                timings={"wall_s": 0.1, "jobs": 1.0},
            ),
        )
        lines: list[str] = []
        suite_mod.run_suite("quick", only=["fig1_clocks"], progress=lines.append)
        assert not any("failures" in line for line in lines)
