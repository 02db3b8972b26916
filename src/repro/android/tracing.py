"""Device-side event recording (the logcat-like tracer).

The first stage of the SNIP methodology (Fig. 10): while the user plays,
the phone records only the *event inputs* — cheap, a few hundred bytes
per event — and ships them to the cloud, where the emulator replays them
to regenerate the full input/output profile. This module is that
recorder plus the serializable trace format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from repro.android.events import Event, EventType
from repro.errors import EventError, TraceError


@dataclass
class RecordedTrace:
    """A full session recording: ordered events plus metadata.

    ``events`` are the live events the session delivers, in sequence
    order; the emulator, the fleet and every session runner replay them
    as they are.
    """

    game_name: str
    seed: int
    events: List[Event] = field(default_factory=list)
    #: Total bytes the phone must upload for ``events``, counted once
    #: by whatever builds the trace (a property would re-walk every
    #: event on each read). The paper's Sec. VII-C point: client-side
    #: collection overhead is negligible because only In.Event data is
    #: shipped.
    uplink_bytes: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serialisable) for storage/transfer."""
        return {
            "game_name": self.game_name,
            "seed": self.seed,
            "events": [
                {
                    "sequence": event.sequence,
                    "timestamp": event.timestamp,
                    "event_type": event.event_type.value,
                    "values": dict(sorted(event.values.items())),
                }
                for event in self.events
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RecordedTrace":
        """Inverse of :meth:`to_dict`.

        Every event is rebuilt through :class:`Event`'s schema
        validation and recorded through :class:`EventTracer`, so a
        payload that could not replay raises :class:`TraceError` here.
        """
        try:
            tracer = EventTracer(payload["game_name"], payload["seed"])
            for entry in payload["events"]:
                tracer.record(
                    Event(
                        EventType(entry["event_type"]),
                        entry["values"],
                        sequence=int(entry["sequence"]),
                        timestamp=float(entry["timestamp"]),
                    )
                )
        except (KeyError, ValueError, TypeError, EventError) as exc:
            raise TraceError(f"malformed trace payload: {exc}") from exc
        return tracer.trace


class EventTracer:
    """Records the event stream of one live session."""

    def __init__(self, game_name: str, seed: int) -> None:
        self._trace = RecordedTrace(game_name=game_name, seed=seed)

    def record(self, event: Event) -> None:
        """Append one event to the trace, preserving arrival order."""
        events = self._trace.events
        if events and event.sequence <= events[-1].sequence:
            raise TraceError(
                f"event sequence regressed: {event.sequence} after "
                f"{events[-1].sequence}"
            )
        events.append(event)
        self._trace.uplink_bytes += event.nbytes

    @property
    def trace(self) -> RecordedTrace:
        """The trace accumulated so far."""
        return self._trace
