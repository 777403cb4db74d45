"""Checkpoint/resume: the run journal and the end-to-end resume contract.

The tentpole guarantee under test: an experiment interrupted at any point
and rerun with ``--resume <dir>`` re-executes only the missing runs and
produces a **byte-identical** report, because every run is a pure function
of its pre-assigned seed and the journal replays completed runs in fold
order.  Interruption is injected by wrapping ``RunExecutor.map`` so a
``KeyboardInterrupt`` fires after N journaled runs — the same observable
state a real Ctrl-C or SIGKILL leaves behind (an append-only journal with
N complete lines, possibly followed by a torn one).
"""

from __future__ import annotations

import json

import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule
from repro.channel.simulator import SlotSimulator
from repro.core.protocol import ScheduleProtocol
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK
from repro.experiments.checkpoint import (
    CheckpointJournal,
    config_fingerprint,
    current_checkpoint,
    payload_to_result,
    result_to_payload,
    use_checkpoint,
)
from repro.experiments.executor import RunExecutor, parallelism_available
from repro.experiments.harness import repeat_schedule_runs
from repro.experiments.registry import run_experiment
from repro.cli import main


def small_run_result():
    """A real RunResult with a rich record set (successes + switch-offs)."""
    return SlotSimulator(
        4,
        lambda: ScheduleProtocol(NonAdaptiveWithK(4, 4)),
        FixedSchedule([0, 2, 5, 9]),
        max_rounds=400,
        seed=11,
    ).run()


class TestPayloadRoundTrip:
    def test_result_survives_serialisation(self):
        result = small_run_result()
        payload = json.loads(json.dumps(result_to_payload(result)))
        restored = payload_to_result(payload, seed=result.seed)
        assert restored.rounds_executed == result.rounds_executed
        assert restored.completed == result.completed
        assert restored.stop == result.stop
        assert restored.seed == result.seed
        assert restored.records == result.records
        # Derived metrics are functions of the records, so they follow.
        assert restored.success_count == result.success_count
        assert restored.total_transmissions == result.total_transmissions
        assert sorted(restored.latencies) == sorted(result.latencies)


class TestConfigFingerprint:
    def test_order_and_value_sensitivity(self):
        assert config_fingerprint(1, 2) != config_fingerprint(2, 1)
        assert config_fingerprint("a", None) != config_fingerprint("a", "None")
        assert config_fingerprint(b"xy") != config_fingerprint("xy")

    def test_stable_across_equivalent_instances(self):
        """Fresh objects with equal configuration fingerprint identically —
        the property that makes journal keys survive process restarts."""
        from repro.core.spec import RunSpec

        def fingerprint():
            k, horizon = 16, 200
            schedule = NonAdaptiveWithK(k, 4)
            return RunSpec(
                k=k,
                protocol=schedule,
                adversary=FixedSchedule([0, 3]),
                stop=small_run_result().stop,
                max_rounds=horizon,
            ).fingerprint(prob_table=schedule.probabilities(horizon))

        assert fingerprint() == fingerprint()


class TestCheckpointJournal:
    def test_record_then_get(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.runs.jsonl")
        result = small_run_result()
        journal.record("fp0", 42, result, 0.125)
        assert journal.records_written == 1

        fresh = CheckpointJournal(journal.path)
        assert fresh.load() == 1
        assert fresh.get("fp0", 41) is None
        assert fresh.get("fp1", 42) is None
        got = fresh.get("fp0", 42)
        assert got is not None
        restored, seconds = got
        assert seconds == 0.125
        assert restored.records == result.records
        assert fresh.hits == 1

    def test_duplicate_keys_keep_last(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.runs.jsonl")
        first = small_run_result()
        journal.record("fp", 7, first, 0.1)
        journal.record("fp", 7, first, 0.9)
        fresh = CheckpointJournal(journal.path)
        assert fresh.load() == 1
        _, seconds = fresh.get("fp", 7)
        assert seconds == 0.9

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.runs.jsonl")
        journal.record("fp", 1, small_run_result(), 0.1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 999, "fp": "other", "seed": 2, "r": {}}\n')
            handle.write("not json at all\n")
            # A line torn mid-write by a crash:
            handle.write('{"v": 1, "fp": "torn", "se')
        fresh = CheckpointJournal(journal.path)
        assert fresh.load() == 1
        assert fresh.get("fp", 1) is not None

    def test_missing_file_loads_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "absent.runs.jsonl")
        assert journal.load() == 0
        assert len(journal) == 0

    def test_for_experiment_creates_directory(self, tmp_path):
        journal = CheckpointJournal.for_experiment(
            tmp_path / "nested" / "resume", "thm51_wakeup"
        )
        assert journal.path.name == "thm51_wakeup.runs.jsonl"
        assert journal.path.parent.is_dir()

    def test_use_checkpoint_scoping(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.runs.jsonl")
        assert current_checkpoint() is None
        with use_checkpoint(journal):
            assert current_checkpoint() is journal
        assert current_checkpoint() is None


class TestHarnessResume:
    def test_repeat_runs_resume_identical(self, tmp_path):
        kwargs = dict(
            reps=3,
            seed=5,
            max_rounds=lambda k: 40 * k,
        )

        def run():
            return repeat_schedule_runs(
                8, lambda k: NonAdaptiveWithK(k, 4), StaticSchedule(), **kwargs
            )

        clean = run()
        journal = CheckpointJournal(tmp_path / "j.runs.jsonl")
        with use_checkpoint(journal):
            journaling = run()
        assert journal.records_written == 3
        assert journal.hits == 0

        resumed_journal = CheckpointJournal(journal.path)
        resumed_journal.load()
        with use_checkpoint(resumed_journal):
            resumed = run()
        assert resumed_journal.hits == 3
        assert resumed_journal.records_written == 0

        for sample in (journaling, resumed):
            assert sample.row() == clean.row()
            assert sample.run_retries == clean.run_retries


class _InterruptAfter:
    """Wrap ``RunExecutor.map`` so KeyboardInterrupt fires after N runs
    have been journaled.  Only journaling map calls (``on_result`` set by
    ``_execute_runs``) count: ``run_pool``'s outer sample-level map does
    not touch the journal, so interrupting there proves nothing."""

    def __init__(self, runs: int):
        self.remaining = runs
        self.original = RunExecutor.map

    def install(self, monkeypatch):
        original = self.original

        def interrupting_map(executor, tasks, on_result=None):
            if on_result is None:
                return original(executor, tasks)

            def wrapped(i, result, seconds):
                on_result(i, result, seconds)
                self.remaining -= 1
                if self.remaining <= 0:
                    raise KeyboardInterrupt

            return original(executor, tasks, on_result=wrapped)

        monkeypatch.setattr(RunExecutor, "map", interrupting_map)


EXPERIMENT = "thm51_wakeup"
OVERRIDES = dict(ks=(8, 12), reps=2)


class TestRegistryResume:
    def test_interrupt_then_resume_byte_identical(self, tmp_path, monkeypatch):
        # batch_size=1 keeps one executor task == one journaled run, so the
        # interrupt counter below maps exactly to journal lines (the batched
        # path's resume folding is covered by tests/test_batched.py).
        clean = run_experiment(EXPERIMENT, batch_size=1, **OVERRIDES)

        interrupter = _InterruptAfter(3)
        interrupter.install(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(
                EXPERIMENT, resume_dir=str(tmp_path), batch_size=1, **OVERRIDES
            )
        monkeypatch.setattr(RunExecutor, "map", interrupter.original)

        journal_path = tmp_path / f"{EXPERIMENT}.runs.jsonl"
        assert len(journal_path.read_text().splitlines()) == 3

        resumed = run_experiment(
            EXPERIMENT, resume_dir=str(tmp_path), batch_size=1, **OVERRIDES
        )
        assert resumed.text == clean.text
        assert resumed.rows == clean.rows
        assert resumed.timings["runs_resumed"] == 3.0
        assert resumed.timings["runs_journaled"] > 0

        again = run_experiment(EXPERIMENT, resume_dir=str(tmp_path), **OVERRIDES)
        assert again.text == clean.text
        assert again.timings["runs_journaled"] == 0.0
        assert again.timings["runs_resumed"] == (
            resumed.timings["runs_resumed"] + resumed.timings["runs_journaled"]
        )

    @pytest.mark.skipif(
        not parallelism_available(), reason="fork start method unavailable"
    )
    def test_pool_workers_journal_and_resume(self, tmp_path):
        """Pool drivers journal *inside* forked workers; the counters ride
        back to the parent so the report still says what was resumed."""
        clean = run_experiment(EXPERIMENT, **OVERRIDES)
        first = run_experiment(
            EXPERIMENT, resume_dir=str(tmp_path), jobs=2, **OVERRIDES
        )
        assert first.text == clean.text
        assert first.timings["runs_journaled"] > 0
        resumed = run_experiment(
            EXPERIMENT, resume_dir=str(tmp_path), jobs=2, **OVERRIDES
        )
        assert resumed.text == clean.text
        assert resumed.timings["runs_journaled"] == 0.0
        assert resumed.timings["runs_resumed"] == first.timings["runs_journaled"]


def report_body(cli_output: str, experiment_id: str) -> str:
    """The report text portion of ``repro run`` output, without the
    timing summary line (wall-clock differs between invocations)."""
    return "\n".join(
        line
        for line in cli_output.splitlines()
        if not line.startswith(f"[{experiment_id}:")
    )


class TestCliResume:
    def test_cli_interrupt_then_resume_round_trip(
        self, tmp_path, monkeypatch, capsys
    ):
        # --batch-size 1: one executor task == one journaled run, so the
        # interrupt-after-3 counter means exactly 3 resumable runs.
        base = ["run", EXPERIMENT, "--ks", "8,12", "--reps", "2",
                "--batch-size", "1"]
        assert main(base) == 0
        clean_out = report_body(capsys.readouterr().out, EXPERIMENT)

        resume = base + ["--resume", str(tmp_path)]
        interrupter = _InterruptAfter(3)
        interrupter.install(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            main(resume)
        monkeypatch.setattr(RunExecutor, "map", interrupter.original)
        capsys.readouterr()

        assert main(resume) == 0
        resumed_raw = capsys.readouterr().out
        assert report_body(resumed_raw, EXPERIMENT) == clean_out
        assert "resumed=3" in resumed_raw
