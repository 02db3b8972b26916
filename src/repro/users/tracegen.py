"""Session event-trace generation.

Combines a game's user-behaviour gestures with the choreographer frame
ticks the game subscribes to, orders everything by timestamp, and
assigns sequence numbers — producing the :class:`RecordedTrace` the
device-side tracer would record during real play.

:func:`generate_trace` is the one production generator. The scalar
chain (:func:`generate_events` over :func:`assemble_events`) builds the
same events one validated :class:`Event` at a time; it is kept as the
reference the equivalence suites and the ``*_reference`` session
runners play.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.android.events import (
    EVENT_SCHEMAS,
    Event,
    EventType,
    fast_event,
    make_frame_tick,
)
from repro.android.tracing import RecordedTrace
from repro.games.registry import game_info
from repro.rng import ReproRng
from repro.users.behavior import behavior_for

#: Choreographer callback rate for subscribed games.
TICK_HZ = 60.0

_TICK_SCHEMA = EVENT_SCHEMAS[EventType.FRAME_TICK]
#: Frame ticks cycle through 4 vsync slots with a constant delta; the
#: four value dicts are interned (events never mutate their values).
_TICK_VALUES = {slot: {"delta_ms": 16, "slot": slot} for slot in range(4)}


def _frame_ticks(duration_s: float) -> List[Event]:
    """The vsync tick stream for one session."""
    ticks = []
    count = int(duration_s * TICK_HZ)
    for index in range(count):
        ticks.append(
            make_frame_tick(delta_ms=16, slot=index % 4, timestamp=index / TICK_HZ)
        )
    return ticks


def assemble_events(
    game_name: str, gestures: List[Event], duration_s: float
) -> List[Event]:
    """Merge user gestures with the game's frame ticks and order them.

    Events carry strictly increasing sequence numbers; ties in timestamp
    are broken deterministically by event type. The scalar reference
    for :func:`assemble_columnar`.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    events = [event for event in gestures if event.timestamp < duration_s]
    if EventType.FRAME_TICK in game_info(game_name).cls.handled_event_types:
        events.extend(_frame_ticks(duration_s))
    events.sort(key=lambda event: (event.timestamp, event.event_type.value))
    ordered = []
    for sequence, event in enumerate(events, start=1):
        ordered.append(
            Event(event.event_type, event.values, sequence=sequence,
                  timestamp=event.timestamp)
        )
    return ordered


def generate_events(game_name: str, seed: int, duration_s: float) -> List[Event]:
    """The full ordered event stream for one session, event by event.

    The scalar reference for :func:`generate_trace`: the same events in
    type, values, sequence and timestamp.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    rng = ReproRng(seed).fork(f"user:{game_name}")
    gestures = behavior_for(game_name).gestures(rng, duration_s)
    return assemble_events(game_name, gestures, duration_s)


def assemble_columnar(
    game_name: str,
    gestures: Sequence[Tuple[float, Event]],
    duration_s: float,
    seed: int = 0,
) -> RecordedTrace:
    """Merge gestures with frame ticks into one session's trace.

    ``gestures`` carries ``(timestamp, event)`` pairs so archetype tempo
    compression needs no intermediate event copies; the events' value
    dicts are adopted as-is (already quantised and schema-ordered), so
    each event is materialised exactly once, and the upload size is
    counted per type as the events are collected. Ordering,
    tie-breaking, and sequence numbering replicate
    :func:`assemble_events` exactly.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    pending: List[Tuple[float, str, EventType, Event]] = [
        (timestamp, event.event_type.value, event.event_type, event)
        for timestamp, event in gestures
        if timestamp < duration_s
    ]
    uplink = sum(event.schema.nbytes for _, _, _, event in pending)
    if EventType.FRAME_TICK in game_info(game_name).cls.handled_event_types:
        tick_type = EventType.FRAME_TICK
        tick_value = tick_type.value
        count = int(duration_s * TICK_HZ)
        for index in range(count):
            pending.append((index / TICK_HZ, tick_value, tick_type, None))
        uplink += count * _TICK_SCHEMA.nbytes
    pending.sort(key=lambda item: (item[0], item[1]))
    events: List[Event] = []
    for sequence, (timestamp, _, event_type, source) in enumerate(pending, start=1):
        if source is None:
            # Frame ticks are synthesised arithmetically; the slot index
            # recovers from the timestamp without a per-tick constructor.
            slot = round(timestamp * TICK_HZ) % 4
            events.append(
                fast_event(_TICK_SCHEMA, _TICK_VALUES[slot], sequence, timestamp)
            )
        else:
            events.append(
                fast_event(source.schema, source.values, sequence, timestamp)
            )
    return RecordedTrace(
        game_name=game_name,
        seed=seed,
        events=events,
        uplink_bytes=uplink,
    )


def generate_trace(game_name: str, seed: int, duration_s: float) -> RecordedTrace:
    """One session as the device records it, ready for the cloud.

    The production generator: the profiler, the figures and the session
    runners play the events built here, and
    :meth:`~repro.users.population.Population.iter_columnar_sessions`
    builds the fleet's sessions through the same :func:`assemble_columnar`.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    rng = ReproRng(seed).fork(f"user:{game_name}")
    gestures = behavior_for(game_name).gestures(rng, duration_s)
    return assemble_columnar(
        game_name,
        [(event.timestamp, event) for event in gestures],
        duration_s,
        seed=seed,
    )
