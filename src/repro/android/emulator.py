"""AOSP-emulator-like deterministic replay with full I/O capture.

The cloud half of the paper's Fig. 10 methodology: the device uploads
only the recorded event stream; the emulator replays it against a fresh
copy of the game "as if the user is playing the game once again" and
dumps, per event, the complete input/output record — a memory snapshot
of all state locations (the heap-profiler dump), the event's fields, any
external fetches, and the handler's reads/writes/work trace.

Replay is verified: handlers are required to be deterministic functions
of their context inputs, and :meth:`Emulator.replay` can re-run the
trace and compare output signatures, raising
:class:`~repro.errors.ReplayDivergenceError` on mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Tuple

from repro.android.events import EventType
from repro.android.tracing import RecordedTrace
from repro.errors import ReplayDivergenceError, TraceError

if TYPE_CHECKING:  # pragma: no cover - layering: games sit above android
    from repro.games.base import Game, ProcessingTrace


@dataclass(frozen=True)
class ProfileRecord:
    """The complete I/O record of one replayed event.

    Attributes
    ----------
    sequence / event_type / event_values:
        The triggering event.
    state_snapshot:
        ``{field: (value, nbytes)}`` for *every* state location at the
        moment the event arrived — the union-of-locations view the
        naive lookup table needs (Sec. III).
    extern_reads:
        ``{key: (content_id, nbytes)}`` for assets fetched during
        processing.
    trace:
        The handler's reads/writes/work record.
    """

    sequence: int
    event_type: EventType
    event_values: Tuple[Tuple[str, Any], ...]
    state_snapshot: Tuple[Tuple[str, Tuple[Any, int]], ...]
    extern_reads: Tuple[Tuple[str, Tuple[Any, int]], ...]
    trace: "ProcessingTrace"
    #: Which recorded session this event came from (generalization
    #: across sessions/users is judged on this).
    session: int = 0

    def event_value(self, name: str) -> Any:
        """Value of one event field."""
        for key, value in self.event_values:
            if key == name:
                return value
        raise KeyError(name)

    def state_value(self, name: str) -> Tuple[Any, int]:
        """(value, nbytes) of one state field at event time."""
        for key, pair in self.state_snapshot:
            if key == name:
                return pair
        raise KeyError(name)


class Emulator:
    """Replays recorded traces against fresh game instances."""

    def __init__(self, verify: bool = True) -> None:
        self.verify = verify

    def replay(
        self, game: "Game", trace: RecordedTrace, session: int = 0
    ) -> List[ProfileRecord]:
        """Replay ``trace`` on a fresh copy of ``game``; return records.

        The passed game instance is used as a template only (its
        :meth:`~repro.games.base.Game.fresh` clone is what runs), so
        callers can reuse a live game without contaminating the profile.
        """
        if trace.game_name != game.name:
            raise TraceError(
                f"trace was recorded on {trace.game_name!r}, not {game.name!r}"
            )
        records = self._run_once(game.fresh(), trace, session)
        if self.verify:
            second = self._run_once(game.fresh(), trace, session)
            for first_rec, second_rec in zip(records, second):
                if (
                    first_rec.trace.output_signature()
                    != second_rec.trace.output_signature()
                ):
                    raise ReplayDivergenceError(
                        f"event {first_rec.sequence}: replay produced different "
                        f"outputs across runs — handler is not deterministic"
                    )
        return records

    def _run_once(
        self, game: "Game", trace: RecordedTrace, session: int = 0
    ) -> List[ProfileRecord]:
        from repro.games.base import InputCategory

        records: List[ProfileRecord] = []
        for event in trace.events:
            # The engine's pre-handler bookkeeping runs first, exactly
            # as the device's delivery path does; the memory dump is
            # taken at probe time (post-engine, pre-handler).
            game.advance_engine(event)
            snapshot = game.state.snapshot()
            processing = game.process(event)
            extern_reads = tuple(
                (read.name.partition(":")[2], (read.value, read.nbytes))
                for read in processing.reads_in(InputCategory.EXTERN)
            )
            records.append(
                ProfileRecord(
                    sequence=event.sequence,
                    event_type=event.event_type,
                    event_values=tuple(sorted(event.values.items())),
                    state_snapshot=tuple(sorted(snapshot.items())),
                    extern_reads=extern_reads,
                    trace=processing,
                    session=session,
                )
            )
        return records
