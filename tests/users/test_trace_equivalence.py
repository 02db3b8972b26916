"""The production trace generators against their scalar references.

:func:`generate_trace` and :meth:`Population.iter_columnar_sessions`
build every session the profiler, the figures and the fleet play; the
scalar chains (:func:`generate_events`, :meth:`Population.user_trace`)
build the same events one validated :class:`Event` at a time. These
tests compare the two event by event, bit for bit, and check the upload
size every trace stores against its events.
"""

from __future__ import annotations

import pytest

from repro.android.tracing import EventTracer, RecordedTrace
from repro.core.learning import truncate_trace
from repro.games.registry import GAME_NAMES
from repro.users.population import DEFAULT_ARCHETYPES, Population
from repro.users.tracegen import generate_events, generate_trace

#: Users 0..7 of ``Population(seed=5)`` are dealt every default archetype.
USERS = range(8)


def _assert_same_events(fast, reference):
    assert len(fast) == len(reference)
    for event, expected in zip(fast, reference):
        assert event.event_type is expected.event_type
        assert event.values == expected.values
        assert list(event.values) == list(expected.values)
        assert event.sequence == expected.sequence
        assert event.timestamp.hex() == expected.timestamp.hex()


@pytest.mark.parametrize("game_name", GAME_NAMES)
def test_generate_trace_matches_generate_events(game_name):
    trace = generate_trace(game_name, 1, 20.0)
    _assert_same_events(trace.events, generate_events(game_name, 1, 20.0))
    assert (trace.game_name, trace.seed) == (game_name, 1)


@pytest.mark.parametrize("game_name", GAME_NAMES)
def test_columnar_sessions_match_user_traces(game_name):
    population = Population(seed=5)
    dealt = {population.archetype_of(user).name for user in USERS}
    assert dealt == {archetype.name for archetype in DEFAULT_ARCHETYPES}
    for user in USERS:
        sessions = population.iter_columnar_sessions(game_name, user, 2, 10.0)
        for session, trace in enumerate(sessions):
            reference = population.user_trace(game_name, user, session, 10.0)
            _assert_same_events(trace.events, reference.events)
            assert (trace.game_name, trace.seed) == (game_name, reference.seed)
            assert trace.uplink_bytes == reference.uplink_bytes


def _traces_from_every_builder():
    generated = generate_trace("chase_whisply", 2, 5.0)
    yield "generate_trace", generate_trace("candy_crush", 2, 5.0)
    yield "generate_trace (camera)", generated
    yield "iter_columnar_sessions", next(
        Population(seed=5).iter_columnar_sessions("race_kings", 3, 1, 5.0)
    )
    tracer = EventTracer("greenwall", seed=4)
    for event in generate_events("greenwall", 4, 5.0):
        tracer.record(event)
    yield "EventTracer", tracer.trace
    yield "from_dict", RecordedTrace.from_dict(generated.to_dict())
    yield "truncate_trace", truncate_trace(generated, 40)


def test_uplink_bytes_counts_every_event():
    for builder, trace in _traces_from_every_builder():
        assert trace.events, builder
        expected = sum(event.nbytes for event in trace.events)
        assert trace.uplink_bytes == expected, builder
