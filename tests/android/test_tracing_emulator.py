"""Tests for device-side tracing and emulator replay."""

import pytest

from repro.android.emulator import Emulator
from repro.android.events import EventType, make_touch
from repro.android.tracing import EventTracer, RecordedTrace
from repro.errors import TraceError
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.users.tracegen import generate_trace


class TestTracer:
    def test_record_preserves_order_and_values(self):
        tracer = EventTracer("colorphun", seed=1)
        tracer.record(make_touch(100, 200, sequence=1, timestamp=0.1))
        tracer.record(make_touch(300, 400, sequence=2, timestamp=0.2))
        trace = tracer.trace
        assert len(trace) == 2
        assert trace.events[0].field("x") == make_touch(100, 200).field("x")

    def test_sequence_regression_rejected(self):
        tracer = EventTracer("colorphun", seed=1)
        tracer.record(make_touch(1, 2, sequence=5))
        with pytest.raises(TraceError):
            tracer.record(make_touch(1, 2, sequence=5))

    def test_uplink_bytes_sum_event_sizes(self):
        tracer = EventTracer("colorphun", seed=1)
        tracer.record(make_touch(1, 2, sequence=1))
        assert tracer.trace.uplink_bytes == make_touch(1, 2).nbytes


class TestTraceSerialization:
    def test_roundtrip(self):
        trace = generate_trace("colorphun", seed=3, duration_s=2.0)
        rebuilt = RecordedTrace.from_dict(trace.to_dict())
        assert rebuilt.game_name == trace.game_name
        assert rebuilt.seed == trace.seed
        assert len(rebuilt) == len(trace)
        assert rebuilt.uplink_bytes == trace.uplink_bytes
        for original, copy in zip(trace.events, rebuilt.events):
            assert copy == original
            assert copy.sequence == original.sequence
            assert copy.timestamp.hex() == original.timestamp.hex()

    def test_malformed_payload_rejected(self):
        good = generate_trace("colorphun", seed=3, duration_s=1.0).to_dict()
        touch = next(e for e in good["events"] if e["event_type"] == "touch")

        def with_event(**changes):
            return dict(good, events=[dict(touch, **changes)])

        malformed = [
            {"events": [{"bad": 1}]},
            [],
            "trace",
            dict(good, events=5),
            dict(good, events=["event"]),
            with_event(event_type="teleport"),
            with_event(values=list(touch["values"].values())),
            with_event(values={"x": 1}),
            with_event(values=dict(touch["values"], extra=1)),
            with_event(sequence="first"),
            with_event(timestamp=None),
            dict(good, events=[touch, touch]),
        ]
        for payload in malformed:
            with pytest.raises(TraceError):
                RecordedTrace.from_dict(payload)


class TestEmulator:
    def test_replay_produces_record_per_event(self, ab_trace, ab_records):
        assert len(ab_records) == len(ab_trace)

    def test_replay_verifies_determinism(self, ab_trace):
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        records = Emulator(verify=True).replay(game, ab_trace)
        assert len(records) == len(ab_trace)

    def test_replay_rejects_wrong_game(self, ab_trace):
        game = create_game("colorphun", seed=GAME_CONTENT_SEED)
        with pytest.raises(TraceError):
            Emulator().replay(game, ab_trace)

    def test_replay_does_not_mutate_template(self, ab_trace):
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        before = game.state.snapshot()
        Emulator(verify=False).replay(game, ab_trace)
        assert game.state.snapshot() == before
        assert game.screen == {}

    def test_records_carry_session_id(self, ab_trace):
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        records = Emulator(verify=False).replay(game, ab_trace, session=4)
        assert {record.session for record in records} == {4}

    def test_snapshot_covers_all_state(self, ab_records):
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        expected = set(game.state.field_names())
        snapshot_names = {name for name, _ in ab_records[0].state_snapshot}
        assert snapshot_names == expected

    def test_replay_is_reproducible(self, ab_trace, ab_records):
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        again = Emulator(verify=False).replay(game, ab_trace)
        for first, second in zip(ab_records, again):
            assert first.trace.output_signature() == second.trace.output_signature()

    def test_event_value_accessor(self, ab_records):
        drag = next(r for r in ab_records if r.event_type is EventType.MULTI_TOUCH)
        assert drag.event_value("gesture") in (0, 1, 2)
        with pytest.raises(KeyError):
            drag.event_value("missing")

    def test_state_value_accessor(self, ab_records):
        value, nbytes = ab_records[0].state_value("stretch")
        assert nbytes == 2
        with pytest.raises(KeyError):
            ab_records[0].state_value("missing")
