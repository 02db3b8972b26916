"""One process-wide handler memo per (game, content seed).

A handler touches the world only through
:class:`~repro.games.base.HandlerContext`: event fields, state reads,
screen compares and seed-pure extern fetches. For games of one content
seed, ``(event type, event values, state cells, screen contents)``
therefore captures every input a handler can observe: two runs with
equal keys produce identical traces and identical mutations — the same
property SNIP exploits on the device (paper Sec. III).

Three kinds of pass look each event up here right after the engine
tick: the baseline sessions (:class:`MemoBaselineLoop`: the fleet's
baseline pass, and :func:`~repro.users.sessions.run_baseline_session`
behind Figs. 2-4 and the registry's eval baseline), the federated fold
(:meth:`~repro.core.federated.ContributionBuilder.add_session_events`),
and the misses of :class:`~repro.core.runtime.SnipRuntime` on a
columnar SoC. A hit replays the recorded writes with
:meth:`Game.apply_outputs` instead of running the handler; only novel
(state, event) pairs pay for it. The fold follows the baseline pass over the same session, so
it finds an entry for every event the baseline pass could key.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.android.dispatch import DeliveryPatterns, Pattern, Work, charge_work, handler_work
from repro.android.events import Event
from repro.errors import SimulationError
from repro.games.base import FieldWrite, Game, InputCategory, ProcessingTrace
from repro.soc.power_profiles import PowerProfiles
from repro.soc.soc import Soc

#: Entries per memo; events past the cap still run, they just record
#: nothing.
MEMO_CAP = 65_536


class MemoEntry:
    """What one handler run leaves for later events with the same key.

    Only what the memo's consumers read, never the trace itself: the
    writes, the output signature, the total cycles, the extern read
    values (``None`` when there were none) and the handler's work
    (:func:`~repro.android.dispatch.handler_work`). Two single-slot
    caches are filled on first use: ``pattern``, the columnar charges
    of the work priced with ``pattern_profiles``, and ``fold_record``,
    the federated fold's record under the key plans ``fold_plans``.
    """

    __slots__ = (
        "writes", "signature", "total_cycles", "extern_values", "work",
        "pattern_profiles", "pattern", "fold_plans", "fold_record",
    )

    def __init__(self, trace: ProcessingTrace, work: Work) -> None:
        self.writes: Tuple[FieldWrite, ...] = tuple(trace.writes)
        self.signature = trace.output_signature()
        self.total_cycles = trace.total_cycles
        self.extern_values: Optional[Dict[str, Any]] = {
            read.name.partition(":")[2]: read.value
            for read in trace.reads
            if read.category is InputCategory.EXTERN
        } or None
        self.work = work
        self.pattern_profiles: Optional[PowerProfiles] = None
        self.pattern: Optional[Pattern] = None
        self.fold_plans: Optional[object] = None
        self.fold_record: Optional[tuple] = None


class HandlerMemo:
    """Memo entries of one game under one content seed, capped."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple, MemoEntry] = {}
        #: Entries share equal works: a game's handlers do a handful of
        #: distinct works across thousands of (state, event) keys.
        self._works: Dict[Work, Work] = {}
        #: One instance per distinct power-profile set, so a pattern
        #: slot is checked by identity instead of by walking every
        #: constant.
        self._profiles: Dict[PowerProfiles, PowerProfiles] = {}

    def lookup(self, game: Game, event: Event) -> Tuple[Optional[Tuple], Optional[MemoEntry]]:
        """``(key, entry)`` for ``event`` in the game's current state.

        Call after the engine tick and before the handler. The key is
        ``None`` when a value in it is unhashable: such an event runs
        its handler and records nothing.
        """
        key = (
            event.event_type.value,
            tuple(event.values.items()),
            tuple([(cell.value, cell.nbytes) for cell in game.state]),
            tuple(game.screen.items()),
        )
        try:
            return key, self._entries.get(key)
        except TypeError:
            return None, None

    def canonical(self, profiles: PowerProfiles) -> PowerProfiles:
        """The instance this memo's pattern slots use for ``profiles``."""
        return self._profiles.setdefault(profiles, profiles)

    def record(self, key: Optional[Tuple], trace: ProcessingTrace) -> MemoEntry:
        """An entry for ``trace``, stored under ``key`` while below the cap."""
        work = handler_work(trace)
        if key is None or len(self._entries) >= MEMO_CAP:
            return MemoEntry(trace, work)
        entry = self._entries[key] = MemoEntry(trace, self._works.setdefault(work, work))
        return entry


_MEMOS: Dict[Tuple[str, int], HandlerMemo] = {}


def handler_memo(game: Game) -> HandlerMemo:
    """The process-wide memo of ``game``'s name and content seed."""
    key = (game.name, game.seed)
    memo = _MEMOS.get(key)
    if memo is None:
        memo = _MEMOS[key] = HandlerMemo()
    return memo


class MemoBaselineLoop:
    """The baseline event loop, minus the handlers the memo has run.

    Charges what :class:`~repro.android.dispatch.EventLoop` charges —
    delivery and upkeep (as one static pattern), then the handler's
    work — but on a memo hit it applies the recorded writes and pours
    the entry's charge pattern into the meter instead of running the
    handler and pricing its trace. :meth:`deliver` returns the entry it
    applied, which holds everything the figures read of an event: its
    writes (Fig. 4's useless test) and its work (the handler energy).

    A pattern is the work priced on IDLE components (the direct
    ``Soc.charge_*`` path), so it replays exactly only on a columnar SoC
    whose components are all IDLE — the precondition the delivery
    patterns rely on too. The loop checks it before every event and
    raises :class:`~repro.errors.SimulationError` rather than pour a
    pattern into a SoC with a component asleep, off or active.
    """

    def __init__(self, soc: Soc, game: Game) -> None:
        if not soc.columnar:
            raise SimulationError("the memoised baseline loop needs a columnar SoC")
        self.soc = soc
        self.game = game
        self._meter = soc.meter
        self._patterns = DeliveryPatterns(soc, game)
        self._memo = handler_memo(game)
        self._profiles = self._memo.canonical(soc.profiles)

    def deliver(self, event: Event) -> MemoEntry:
        """Run one event end to end, charging every stage to the SoC.

        Returns the entry whose writes and work the event applied.
        """
        soc = self.soc
        if not soc.idle:
            raise SimulationError(
                "the memoised baseline loop replays charges priced on IDLE "
                "components; a component of this SoC is not IDLE"
            )
        self._patterns.charge(event)
        game = self.game
        key, entry = self._memo.lookup(game, event)
        if entry is None:
            entry = self._memo.record(key, game.process(event))
        elif entry.writes:
            game.apply_outputs(entry.writes)
        meter = self._meter
        if entry.pattern_profiles is self._profiles:
            meter.extend(*entry.pattern)
        else:
            start = meter.record_count
            charge_work(soc, entry.work)
            entry.pattern_profiles = self._profiles
            entry.pattern = meter.records_since(start)
        return entry
