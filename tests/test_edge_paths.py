"""Edge-path tests: branches the main suites do not reach."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import FixedSchedule
from repro.adversary.oblivious import StaticSchedule
from repro.channel.events import RoundOutcome
from repro.channel.feedback import FeedbackModel, Observation
from repro.channel.jamming import RandomJammer
from repro.channel.results import StopCondition
from repro.channel.simulator import SlotSimulator
from repro.channel.trace_tools import render_timeline
from repro.channel.vectorized import VectorizedSimulator
from repro.cli import main
from repro.core.protocol import ProbabilitySchedule, ScheduleProtocol
from repro.core.protocols.adaptive_no_k import LISTEN_WINDOW, AdaptiveNoK, Mode
from repro.core.protocols.non_adaptive_with_k import NonAdaptiveWithK


class Constant(ProbabilitySchedule):
    def __init__(self, p):
        self.p = p
        self.name = f"const({p})"

    def probability(self, local_round: int) -> float:
        return self.p


class TestVectorizedEdges:
    def test_first_success_with_offset_wakes(self):
        class OneShot(ProbabilitySchedule):
            """Transmit exactly at local round 1, then stop."""

            name = "one-shot"

            def probability(self, local_round: int) -> float:
                return 1.0

            def horizon(self) -> int:
                return 1

        result = VectorizedSimulator(
            3, OneShot(), FixedSchedule([5, 5, 50]),
            stop=StopCondition.FIRST_SUCCESS, max_rounds=200, seed=1,
        ).run()
        # The two round-5 stations collide at round 6 and are spent; the
        # third transmits alone at 51.
        assert result.completed
        assert result.first_success_round == 51

    def test_jam_plus_no_ack(self):
        result = VectorizedSimulator(
            1, Constant(1.0), StaticSchedule(),
            switch_off_on_ack=False, stop=StopCondition.ALL_SUCCEEDED,
            max_rounds=10, seed=2, jam_rounds=[1, 2, 3],
        ).run()
        record = result.records[0]
        # Jammed attempts cost energy; the run stops at the first success
        # (ALL_SUCCEEDED with one station), i.e. at round 4.
        assert result.completed
        assert record.first_success_round == 4
        assert record.transmissions == 4
        assert record.switch_off_round is None  # no-ack: never off

    def test_empty_jam_iterable(self):
        result = VectorizedSimulator(
            1, Constant(1.0), StaticSchedule(), max_rounds=5, seed=3,
            jam_rounds=[],
        ).run()
        assert result.records[0].first_success_round == 1


class TestSimulatorEdges:
    def test_cd_listeners_see_collision_outcomes(self):
        observed = []

        class Recorder(ScheduleProtocol):
            def observe(self, observation):
                observed.append(observation.channel)
                super().observe(observation)

        SlotSimulator(
            3,
            lambda: Recorder(Constant(0.8)),
            StaticSchedule(),
            feedback=FeedbackModel.COLLISION_DETECTION,
            max_rounds=30,
            seed=4,
        ).run()
        assert RoundOutcome.COLLISION in observed

    def test_jammer_with_cd_reports_collision(self):
        # A jammed round carrying a transmission reads as COLLISION under
        # CD feedback (indistinguishable from a real collision).
        observed = []

        class Recorder(ScheduleProtocol):
            def observe(self, observation):
                observed.append(observation.channel)
                super().observe(observation)

        SlotSimulator(
            1,
            lambda: Recorder(Constant(1.0)),
            StaticSchedule(),
            feedback=FeedbackModel.COLLISION_DETECTION,
            max_rounds=5,
            seed=5,
            jammer=RandomJammer(0.999999),
        ).run()
        assert observed
        assert all(o is RoundOutcome.COLLISION for o in observed)

    def test_jammer_with_cd_empty_round_is_silence(self):
        # A jam with no transmitters destroys nothing: CD stations hear
        # SILENCE, exactly as the vectorised engine accounts it.
        observed = []

        class Recorder(ScheduleProtocol):
            def observe(self, observation):
                observed.append(observation.channel)
                super().observe(observation)

        SlotSimulator(
            1,
            lambda: Recorder(Constant(0.0)),
            StaticSchedule(),
            feedback=FeedbackModel.COLLISION_DETECTION,
            max_rounds=5,
            seed=5,
            jammer=RandomJammer(0.999999),
        ).run()
        assert observed
        assert all(o is RoundOutcome.SILENCE for o in observed)

    def test_stop_first_success_never_met_incomplete(self):
        result = SlotSimulator(
            2,
            lambda: ScheduleProtocol(Constant(1.0)),  # permanent collision
            StaticSchedule(),
            stop=StopCondition.FIRST_SUCCESS,
            max_rounds=20,
            seed=6,
        ).run()
        assert not result.completed


class TestAdaptiveNoKEdges:
    def test_election_probability_decays_with_q(self):
        protocol = AdaptiveNoK(q=1.0)
        protocol.begin(0, np.random.default_rng(0))
        protocol.mode = Mode.ELECTION
        # Probability at step i is q/(2q+i) = 1/(2+i).
        ps = []
        for i in range(3):
            before = protocol._election_i
            protocol._decide_election()
            ps.append(1.0 / (2.0 + before))
        assert ps == [pytest.approx(1 / 2), pytest.approx(1 / 3), pytest.approx(1 / 4)]

    def test_waiting_window_resets_after_each_window(self):
        from repro.channel.messages import DModeAnnouncement

        protocol = AdaptiveNoK()
        protocol.begin(0, np.random.default_rng(1))
        # Window 1: sees a D-mode bit -> stays waiting.
        for i in range(1, LISTEN_WINDOW + 1):
            protocol.decide(i)
            protocol.observe(
                Observation(
                    local_round=i, transmitted=False, acked=False,
                    message=DModeAnnouncement() if i == 2 else None,
                )
            )
        assert protocol.mode is Mode.WAITING
        # Window 2: silence -> election (the old bit must not linger).
        for i in range(LISTEN_WINDOW + 1, 2 * LISTEN_WINDOW + 1):
            protocol.decide(i)
            protocol.observe(
                Observation(local_round=i, transmitted=False, acked=False)
            )
        assert protocol.mode is Mode.ELECTION

    def test_election_control_message_returns_to_waiting(self):
        from repro.channel.messages import DModeAnnouncement

        protocol = AdaptiveNoK()
        protocol.begin(0, np.random.default_rng(2))
        protocol.mode = Mode.ELECTION
        protocol.observe(
            Observation(
                local_round=9, transmitted=False, acked=False,
                message=DModeAnnouncement(),
            )
        )
        assert protocol.mode is Mode.WAITING


class TestCliEdges:
    def test_suite_unknown_only(self, capsys):
        assert main(["suite", "--only", "bogus"]) == 2

    def test_suite_quick_subset(self, capsys, tmp_path):
        code = main(
            ["suite", "--scale", "quick", "--only", "fig1_clocks",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig1_clocks.txt").exists()


class TestTraceToolsEdges:
    def test_render_width_validated(self):
        with pytest.raises(ValueError):
            render_timeline([], width=0)

    def test_empty_trace_renders_empty(self):
        assert render_timeline([]) == ""
