"""End-to-end device-side recording: play, record, profile, snip.

Exercises the exact loop of the paper's Fig. 10: the tracer rides the
live event loop while the user plays; the recording (not the generator!)
feeds the cloud; and the table built from it works back on the device.
"""

import pytest

from repro.android.dispatch import EventLoop
from repro.android.tracing import EventTracer
from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.core.runtime import SnipRuntime
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_events


def play_and_record(game_name, seed, duration_s):
    """One live session with the logcat-style tracer attached."""
    soc = snapdragon_821()
    game = create_game(game_name, seed=GAME_CONTENT_SEED)
    tracer = EventTracer(game_name, seed=seed)
    loop = EventLoop(soc, game, tracer=tracer)
    clock = 0.0
    for event in generate_events(game_name, seed, duration_s):
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        loop.deliver(event)
    return soc, game, tracer.trace


class TestDeviceRecording:
    @pytest.fixture(scope="class")
    def recording(self):
        return play_and_record("candy_crush", seed=5, duration_s=20.0)

    def test_recording_matches_play(self, recording):
        _, game, trace = recording
        assert len(trace) == game.events_processed
        assert trace.uplink_bytes < 20_000  # negligible client overhead

    def test_cloud_profile_from_device_recording(self, recording):
        _, live_game, trace = recording
        config = SnipConfig()
        profiler = CloudProfiler(config)
        records = profiler.replay_traces("candy_crush", [trace])
        # The emulator reconstructed the exact outputs the device saw:
        # final state digests agree.
        emu_game = create_game("candy_crush", seed=GAME_CONTENT_SEED)
        for event in trace.events:
            emu_game.advance_engine(event)
            emu_game.process(event)
        assert emu_game.state.snapshot() == live_game.state.snapshot()
        assert len(records) == len(trace)

    def test_table_from_recording_serves_future_play(self, recording):
        _, _, trace = recording
        config = SnipConfig()
        profiler = CloudProfiler(config)
        # Two recorded sessions (second from a different day's play).
        _, _, second = play_and_record("candy_crush", seed=6, duration_s=20.0)
        package = profiler.build_package("candy_crush", [trace, second])
        soc = snapdragon_821()
        runtime = SnipRuntime(
            soc, create_game("candy_crush", GAME_CONTENT_SEED),
            package.table, config,
        )
        clock = 0.0
        for event in generate_events("candy_crush", seed=9, duration_s=15.0):
            if event.timestamp > clock:
                soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runtime.deliver(event)
        assert runtime.stats.hit_rate > 0.3
