"""End-to-end integration tests across the whole SNIP pipeline."""

import pytest

from repro import (
    CloudProfiler,
    GAME_CONTENT_SEED,
    GAME_NAMES,
    SnipConfig,
    SnipRuntime,
    create_game,
    generate_events,
    generate_trace,
    run_baseline_session,
    snapdragon_821,
)
from repro.android.emulator import Emulator
from repro.android.events import EventType
from repro.games import handler_memo
from repro.games.handler_memo import MemoBaselineLoop
from repro.games.registry import fresh_game
from repro.soc.energy import ColumnarMeter


class TestPublicApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestEveryGameEndToEnd:
    """The full pipeline must work on every catalogue game."""

    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_baseline_session_runs(self, game_name):
        result = run_baseline_session(game_name, seed=3, duration_s=10.0)
        assert result.report.total_joules > 0
        assert result.event_count > 100

    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_replay_is_deterministic(self, game_name):
        trace = generate_trace(game_name, seed=3, duration_s=8.0)
        game = create_game(game_name, seed=GAME_CONTENT_SEED)
        # verify=True replays twice and raises on divergence.
        records = Emulator(verify=True).replay(game, trace)
        assert len(records) == len(trace)

    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_snip_pipeline_saves_energy(self, game_name):
        profiler = CloudProfiler(SnipConfig())
        package = profiler.build_package_from_sessions(
            game_name, seeds=[1, 2], duration_s=25.0
        )
        soc = snapdragon_821()
        game = create_game(game_name, seed=GAME_CONTENT_SEED)
        runtime = SnipRuntime(soc, game, package.table, profiler.config)
        clock = 0.0
        duration = 25.0
        for event in generate_events(game_name, seed=9, duration_s=duration):
            if event.timestamp > clock:
                soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runtime.deliver(event)
        soc.advance_time(max(0.0, duration - clock))
        baseline = run_baseline_session(game_name, seed=9, duration_s=duration)
        savings = 1.0 - soc.meter.total_joules / baseline.report.total_joules
        assert savings > 0.10, f"{game_name}: only {savings:.1%} saved"
        assert runtime.stats.hit_rate > 0.25
        # Necessary-input keys stay scalar-sized on every game: no
        # kilobyte state blob may survive into the comparisons.
        for event_type in package.selection.by_event_type:
            assert package.selection.comparison_bytes(event_type) < 4096, (
                game_name, event_type)


class TestSessionDeterminism:
    def test_identical_runs_produce_identical_energy(self):
        first = run_baseline_session("greenwall", seed=5, duration_s=10.0)
        second = run_baseline_session("greenwall", seed=5, duration_s=10.0)
        assert first.report.total_joules == pytest.approx(
            second.report.total_joules, rel=1e-12
        )

    def test_device_and_emulator_agree(self, monkeypatch):
        """The cloud replay sees exactly the outputs the device saw, from
        handlers the device ran (cold memo) and from replayed entries
        (warm memo)."""
        trace = generate_trace("candy_crush", seed=4, duration_s=10.0)
        game = create_game("candy_crush", seed=GAME_CONTENT_SEED)
        records = Emulator(verify=False).replay(game, trace)
        expected = [record.trace.output_signature() for record in records]
        events = trace.events
        monkeypatch.setattr(handler_memo, "_MEMOS", {})
        for memo_state in ("cold", "warm"):
            loop = MemoBaselineLoop(
                snapdragon_821(meter=ColumnarMeter()),
                fresh_game("candy_crush", seed=GAME_CONTENT_SEED),
            )
            device = [loop.deliver(event).signature for event in events]
            assert device == expected, memo_state


class TestCrossGameShape:
    def test_event_type_ownership(self):
        """Each game only ever sees the event types it registered for."""
        for game_name in GAME_NAMES:
            game = create_game(game_name)
            handled = set(game.handled_event_types)
            for event in generate_events(game_name, seed=2, duration_s=5.0):
                assert event.event_type in handled

    def test_games_do_not_share_state(self):
        a = create_game("colorphun")
        b = create_game("colorphun")
        a.state.write("score", 99)
        assert b.state.peek("score") == 0

    def test_frame_tick_subscription_split(self):
        with_ticks = set()
        for game_name in GAME_NAMES:
            game = create_game(game_name)
            if EventType.FRAME_TICK in game.handled_event_types:
                with_ticks.add(game_name)
        assert "chase_whisply" not in with_ticks  # renders on camera frames
        assert len(with_ticks) == 6
