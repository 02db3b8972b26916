"""Tests for behaviour models, trace generation, and sessions."""

import pytest

from repro.android.dispatch import EventLoop
from repro.android.events import EventType
from repro.errors import UnknownGameError
from repro.games.registry import GAME_CONTENT_SEED, GAME_NAMES, create_game
from repro.rng import ReproRng
from repro.soc.soc import snapdragon_821
from repro.users.behavior import behavior_for
from repro.users.sessions import estimate_trace_energy, run_baseline_session
from repro.users.tracegen import TICK_HZ, generate_events, generate_trace


class TestBehaviorModels:
    def test_every_game_has_a_model(self):
        for name in GAME_NAMES:
            assert behavior_for(name).game_name == name

    def test_unknown_game_rejected(self):
        with pytest.raises(UnknownGameError):
            behavior_for("pong")

    def test_gestures_deterministic_per_seed(self):
        model = behavior_for("ab_evolution")
        first = model.gestures(ReproRng(5), 10.0)
        second = behavior_for("ab_evolution").gestures(ReproRng(5), 10.0)
        assert len(first) == len(second)
        assert all(a == b for a, b in zip(first, second))

    def test_gestures_within_duration(self):
        for name in GAME_NAMES:
            events = behavior_for(name).gestures(ReproRng(3), 5.0)
            assert all(0.0 <= event.timestamp < 5.0 for event in events)

    def test_gestures_match_handled_types(self):
        from repro.games.registry import create_game

        for name in GAME_NAMES:
            handled = set(create_game(name).handled_event_types)
            produced = {e.event_type for e in behavior_for(name).gestures(ReproRng(3), 8.0)}
            assert produced <= handled

    def test_chase_produces_camera_stream(self):
        events = behavior_for("chase_whisply").gestures(ReproRng(3), 3.0)
        cameras = [e for e in events if e.event_type is EventType.CAMERA_FRAME]
        assert len(cameras) == pytest.approx(90, abs=3)


class TestTraceGen:
    def test_sequences_strictly_increase(self):
        events = generate_events("colorphun", seed=1, duration_s=3.0)
        sequences = [event.sequence for event in events]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_timestamps_sorted(self):
        events = generate_events("race_kings", seed=1, duration_s=3.0)
        stamps = [event.timestamp for event in events]
        assert stamps == sorted(stamps)

    def test_tick_rate(self):
        events = generate_events("candy_crush", seed=1, duration_s=4.0)
        ticks = [e for e in events if e.event_type is EventType.FRAME_TICK]
        assert len(ticks) == int(4.0 * TICK_HZ)

    def test_chase_has_no_ticks(self):
        events = generate_events("chase_whisply", seed=1, duration_s=3.0)
        assert not any(e.event_type is EventType.FRAME_TICK for e in events)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            generate_events("colorphun", seed=1, duration_s=0.0)

    def test_trace_wraps_events(self):
        trace = generate_trace("colorphun", seed=2, duration_s=2.0)
        events = generate_events("colorphun", seed=2, duration_s=2.0)
        assert len(trace) == len(events)
        assert trace.game_name == "colorphun"
        assert trace.seed == 2

    def test_different_seeds_different_streams(self):
        first = generate_events("greenwall", seed=1, duration_s=5.0)
        second = generate_events("greenwall", seed=2, duration_s=5.0)
        firsts = [e for e in first if e.event_type is EventType.SWIPE]
        seconds = [e for e in second if e.event_type is EventType.SWIPE]
        assert [e.values for e in firsts] != [e.values for e in seconds]


class TestSessions:
    def test_session_result_consistency(self, colorphun_session):
        result = colorphun_session
        assert result.duration_s == 30.0
        assert result.event_count == len(generate_events("colorphun", 1, 30.0))
        assert result.report.total_joules > 0
        assert result.average_watts == pytest.approx(
            result.report.total_joules / 30.0
        )

    def test_session_is_reproducible(self, colorphun_session):
        again = run_baseline_session("colorphun", seed=1, duration_s=30.0)
        assert again.report.total_joules == pytest.approx(
            colorphun_session.report.total_joules
        )

    def test_user_events_exclude_ticks(self, colorphun_session):
        events = generate_events("colorphun", 1, 30.0)
        ticks = sum(1 for e in events if e.event_type is EventType.FRAME_TICK)
        assert colorphun_session.user_events == len(events) - ticks
        assert 0 < colorphun_session.user_events < colorphun_session.event_count

    def test_useless_fraction_in_unit_interval(self, colorphun_session):
        assert 0.0 < colorphun_session.useless_user_fraction < 1.0
        assert 0.0 <= colorphun_session.wasted_energy_fraction < 1.0

    def test_estimate_trace_energy_positive(self):
        soc = snapdragon_821()
        loop = EventLoop(soc, create_game("colorphun", seed=GAME_CONTENT_SEED))
        traces = [loop.deliver(event) for event in generate_events("colorphun", 1, 30.0)[:50]]
        assert all(estimate_trace_energy(soc, trace) > 0 for trace in traces)

    def test_battery_hours_plausible(self, colorphun_session):
        assert 5.0 < colorphun_session.battery_hours < 15.0
