"""SNIP device runtime: probe the table, short-circuit or execute.

Sec. V-B, last stage: "the lookup table is loaded as a hash table during
app initialization. During execution, on any event, the table is indexed
with the event hash-code and if hit, all the other necessary inputs are
loaded and compared ... If the comparisons lead to a match, the
execution is directly short-circuited. Else, process the event as
baseline."

The probe is not free (Fig. 11c): every event pays the hash plus a
comparison over the necessary-input bytes, charged under the
``lookup`` energy tag so the overhead analysis can slice it out.

On a columnar SoC those charges come from patterns cached per event
type and per table entry, and a miss runs through the process-wide
handler memo (see :meth:`SnipRuntime.deliver`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.android.binder import Binder
from repro.android.dispatch import (
    Pattern,
    charge_delivery,
    charge_trace,
    charge_upkeep,
    charge_work,
    delivery_upkeep_pattern,
)
from repro.android.events import Event, EventType
from repro.android.sensor_hub import SensorHub
from repro.android.sensor_manager import SensorManager
from repro.core.config import SnipConfig
from repro.core.fields import FieldInfo
from repro.core.table import SnipTable, TableEntry
from repro.errors import SimulationError
from repro.games.base import FieldWrite, Game
from repro.games.handler_memo import handler_memo
from repro.soc.energy import TAG_LOOKUP
from repro.soc.soc import IP_DISPLAY, Soc

#: Event types whose hits still pay a display scan-out: the panel shows
#: this vsync/camera frame; only producing new pixels was avoided.
_SCANOUT_TYPES = (EventType.FRAME_TICK, EventType.CAMERA_FRAME)


@dataclass
class _OnlineEntry:
    """A key being confirmed by on-device continuous learning."""

    signature: Tuple
    writes: Tuple
    consecutive: int
    cycles_sum: float
    occurrences: int


class _TypeCharges:
    """One event type's charges on a columnar SoC, cached per runtime.

    ``delivery`` is the type's delivery + upkeep pattern. ``probe`` is
    that pattern followed by the probe's charges, recorded on the
    type's first probe, which also yields ``compare_bytes``. ``hits``
    maps ``id(entry)`` to ``(entry, pattern)``: the probe pattern
    followed by that table entry's hit charges. Holding the entry keeps
    it alive, so no later entry can take its id while the pattern is
    cached.
    """

    __slots__ = ("delivery", "upkeep_cycles", "known", "probe", "compare_bytes", "hits")

    def __init__(self, delivery: Pattern, upkeep_cycles: int, known: bool) -> None:
        self.delivery = delivery
        self.upkeep_cycles = upkeep_cycles
        self.known = known
        self.probe: Optional[Pattern] = None
        self.compare_bytes = 0
        self.hits: Dict[int, Tuple[TableEntry, Pattern]] = {}


@dataclass
class RuntimeStats:
    """Counters the Fig. 11 analyses read off the runtime."""

    events: int = 0
    hits: int = 0
    misses: int = 0
    online_promotions: int = 0
    evictions: int = 0
    avoided_cycles: float = 0.0
    executed_cycles: float = 0.0
    compared_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of events short-circuited."""
        return self.hits / self.events if self.events else 0.0

    @property
    def coverage(self) -> float:
        """Cycle-weighted fraction of execution short-circuited."""
        total = self.avoided_cycles + self.executed_cycles
        return self.avoided_cycles / total if total else 0.0


def _field_reader(info: FieldInfo, game: Game) -> Callable[[Event], object]:
    """Resolve one necessary input's kind into a direct reader."""
    kind, _, name = info.name.partition(":")
    if kind == "event":
        def read(event: Event) -> object:
            return event.values.get(name)
    elif kind == "hist":
        def read(event: Event) -> object:
            return game.state.get(name)
    elif kind == "extern":
        def read(event: Event) -> object:
            return game.extern_source.peek(name)[0]
    else:
        raise ValueError(f"unknown field kind in {info.name!r}")
    return read


def key_readers(
    table: SnipTable, game: Game
) -> Dict[EventType, Tuple[Callable[[Event], object], ...]]:
    """Per-event-type readers of a table's necessary inputs on ``game``.

    The ``event:``/``hist:``/``extern:`` kind of every selected field is
    resolved once here, so reading a key does no string parsing and no
    selection lookup: an event's key is ``tuple(read(event) for read in
    readers[event.event_type])``, read from the event, the game's live
    state and its RAM-cached extern assets. Event types the table does
    not know have no readers.
    """
    return {
        event_type: tuple(
            _field_reader(info, game) for info in table.fields_for(event_type)
        )
        for event_type in table.selection.by_event_type
    }


class SnipRuntime:
    """Event loop with SNIP short-circuiting installed."""

    def __init__(
        self,
        soc: Soc,
        game: Game,
        table: SnipTable,
        config: Optional[SnipConfig] = None,
    ) -> None:
        self.soc = soc
        self.game = game
        self.table = table
        self.config = config or SnipConfig()
        self.hub = SensorHub(soc)
        self.manager = SensorManager(soc)
        self.binder = Binder(soc)
        self.stats = RuntimeStats()
        self._online: dict = {}
        #: Per-event-type field readers, compiled at install time.
        self._probes = key_readers(table, game)
        #: Event types whose selected fields are all ``event:``-kind —
        #: their probe keys depend only on the event object, never on
        #: game state or extern caches, so whole-session key columns can
        #: be precomputed (see :meth:`session_keys`).
        self._event_only = frozenset(
            event_type
            for event_type in self._probes
            if all(
                info.name.partition(":")[0] == "event"
                for info in self.table.fields_for(event_type)
            )
        )
        #: On a columnar SoC every event's charges are poured from
        #: cached patterns (byte-identical order and values) and misses
        #: run through the handler memo; a plain meter keeps the scalar
        #: per-charge path (see :meth:`deliver`).
        self._meter = soc.meter if soc.columnar else None
        self._charges: Dict[EventType, _TypeCharges] = {}
        if self._meter is not None:
            self._memo = handler_memo(game)
            self._profiles = self._memo.canonical(soc.profiles)
        #: Kill switch (Sec. VII-B): when False every event takes the
        #: baseline path; probes, hits, and online learning all stop.
        self.enabled = True

    # -- key gathering -----------------------------------------------------

    def live_key(self, event: Event) -> Tuple:
        """Current values of the necessary inputs for ``event``.

        Event fields come from the event object; history fields are the
        game's live state; extern fields read the RAM-cached copy of the
        last fetched asset. Each field is read by a closure compiled at
        table-install time (see :func:`key_readers`); event types absent
        from the selection yield the empty key, exactly as
        :meth:`repro.core.table.SnipTable.fields_for` would report.
        """
        return tuple([read(event) for read in self._probes.get(event.event_type, ())])

    def live_key_reference(self, event: Event) -> Tuple:
        """Uncompiled key gathering (golden reference for the tests).

        Re-resolves the field kind and the selection per event, like the
        runtime originally did; the equivalence suite asserts the
        compiled probes agree with this on every event.
        """
        key = []
        for info in self.table.fields_for(event.event_type):
            key.append(self._live_value(event, info))
        return tuple(key)

    def _live_value(self, event: Event, info: FieldInfo):
        kind, _, name = info.name.partition(":")
        if kind == "event":
            return event.values.get(name)
        if kind == "hist":
            if self.game.state.has(name):
                return self.game.state.peek(name)
            return None
        if kind == "extern":
            return self.game.extern_source.peek(name)[0]
        raise ValueError(f"unknown field kind in {info.name!r}")  # pragma: no cover

    # -- probe cost ----------------------------------------------------------

    def _charge_probe(self, event: Event) -> int:
        """Charge the table probe for one event; returns bytes compared.

        On a columnar SoC this runs once per event type and its charges
        and return value are replayed for every later probe of the type
        (see :meth:`deliver`), so an override must keep both a function
        of the event type. :meth:`_charge_hit` is recorded likewise, once
        per event type and table entry.
        """
        compare_bytes = self.table.comparison_bytes(event.event_type)
        cycles = (
            self.config.lookup_base_cycles
            + self.config.lookup_cycles_per_byte * compare_bytes
        )
        self.soc.charge_cycles(cycles, big=True, tag=TAG_LOOKUP)
        # The entry and the live inputs both cross memory once.
        self.soc.charge_transfer(2 * compare_bytes, tag=TAG_LOOKUP)
        return compare_bytes

    def _charge_hit(self, event: Event, entry: TableEntry) -> None:
        """Charge what a hit still costs: a frame event's scan-out, and
        the entry's outputs crossing memory into the game state."""
        self._charge_scanout(event)
        applied_bytes = sum(write.nbytes for write in entry.writes)
        if applied_bytes:
            self.soc.charge_transfer(applied_bytes, tag=TAG_LOOKUP)

    def _charge_scanout(self, event: Event) -> None:
        """A frame or camera event still reaches the display on a hit."""
        if event.event_type in _SCANOUT_TYPES:
            self.soc.charge_invocation(IP_DISPLAY, 1.0, bytes_in=512 * 1024)

    # -- session keys -------------------------------------------------------

    def session_keys(self, events: Sequence[Event]) -> List[Optional[Tuple]]:
        """Precomputed probe keys for the event-only types in ``events``.

        Keys over ``event:`` fields alone are state-independent — the
        same tuple falls out of :meth:`live_key` before processing and
        of the online-learning re-read after it — so they are valid for
        the whole session regardless of when each event executes.
        State-dependent types (and types the table does not know) get
        ``None``; :meth:`deliver` falls back to live reads for those.
        """
        probes = self._probes
        event_only = self._event_only
        if not event_only:
            return [None] * len(events)
        keys: List[Optional[Tuple]] = []
        for event in events:
            event_type = event.event_type
            if event_type in event_only:
                keys.append(tuple(read(event) for read in probes[event_type]))
            else:
                keys.append(None)
        return keys

    # -- event loop -------------------------------------------------------------

    def deliver(self, event: Event, precomputed_key: Optional[Tuple] = None) -> None:
        """Run one event: probe the table, then short-circuit or execute.

        ``precomputed_key`` must come from :meth:`session_keys` (only
        event-only types yield one); it replaces both the probe's live
        key gather and the online-learning re-read.

        On a columnar SoC each event's charges are poured with one
        :meth:`~repro.soc.energy.ColumnarMeter.extend` from patterns
        cached per event type (delivery + upkeep + probe) and per table
        entry (that, plus the hit's scan-out and write-back), each
        recorded once through :meth:`_charge_probe` and
        :meth:`_charge_hit`; a miss then runs through the handler memo
        and pours its entry's work pattern. Those patterns are priced on
        IDLE components, so, as :class:`~repro.games.handler_memo.MemoBaselineLoop`
        does, this raises :class:`~repro.errors.SimulationError`,
        charging nothing, when a component is not IDLE. A plain meter
        takes every charge one by one (:meth:`_deliver_scalar`).
        """
        meter = self._meter
        if meter is None:
            self._deliver_scalar(event, precomputed_key)
            return
        if not self.soc.idle:
            raise SimulationError(
                "the SNIP runtime pours charges priced on IDLE components; "
                "a component of this SoC is not IDLE"
            )
        game = self.game
        game.advance_engine(event)
        event_type = event.event_type
        charges = self._charges.get(event_type)
        if charges is None:
            charges = self._charges[event_type] = _TypeCharges(
                delivery_upkeep_pattern(game, event, self.soc.profiles),
                game.upkeep_cycles_for(event_type),
                self.table.knows(event_type),
            )
        stats = self.stats
        stats.executed_cycles += charges.upkeep_cycles
        stats.events += 1
        if not (self.enabled and charges.known):
            meter.extend(*charges.delivery)
        else:
            key = (
                precomputed_key
                if precomputed_key is not None
                else self.live_key(event)
            )
            entry = self.table.lookup(event_type, key)
            if entry is None:
                self._pour_probe(event, charges)
            else:
                cached = charges.hits.get(id(entry))
                if cached is None:
                    start = meter.record_count
                    self._pour_probe(event, charges)
                    self._charge_hit(event, entry)
                    charges.hits[id(entry)] = (entry, meter.records_since(start))
                else:
                    meter.extend(*cached[1])
            stats.compared_bytes += charges.compare_bytes
            if entry is not None:
                # Hit: substitute the stored outputs, skip all processing.
                game.apply_outputs(entry.writes)
                stats.hits += 1
                stats.avoided_cycles += entry.avg_cycles
                return
        memo = self._memo
        memo_key, handled = memo.lookup(game, event)
        if handled is None:
            handled = memo.record(memo_key, game.process(event))
        elif handled.writes:
            game.apply_outputs(handled.writes)
        if handled.pattern_profiles is self._profiles:
            meter.extend(*handled.pattern)
        else:
            start = meter.record_count
            charge_work(self.soc, handled.work)
            handled.pattern_profiles = self._profiles
            handled.pattern = meter.records_since(start)
        stats.misses += 1
        stats.executed_cycles += handled.total_cycles
        if self.enabled and self.config.online_warmup > 0 and charges.known:
            self._learn_online(
                event, handled.signature, handled.writes, handled.total_cycles,
                key=precomputed_key,
            )

    def _pour_probe(self, event: Event, charges: _TypeCharges) -> None:
        """Pour the type's delivery + upkeep + probe pattern.

        The first time, pours the delivery pattern, charges the probe
        through :meth:`_charge_probe` and keeps the two as the pattern.
        """
        meter = self._meter
        if charges.probe is not None:
            meter.extend(*charges.probe)
            return
        start = meter.record_count
        meter.extend(*charges.delivery)
        charges.compare_bytes = self._charge_probe(event)
        charges.probe = meter.records_since(start)

    def _deliver_scalar(self, event: Event, precomputed_key: Optional[Tuple]) -> None:
        """:meth:`deliver` on a plain meter, charge by charge.

        The scalar oracle of the poured path: every stage charges the
        SoC as it happens, and a miss runs the handler and prices its
        trace.
        """
        charge_delivery(self.soc, self.hub, self.manager, self.binder, event)
        self.stats.executed_cycles += charge_upkeep(self.soc, self.game, event)
        self.stats.events += 1
        if self.enabled and self.table.knows(event.event_type):
            self.stats.compared_bytes += self._charge_probe(event)
            key = (
                precomputed_key
                if precomputed_key is not None
                else self.live_key(event)
            )
            entry = self.table.lookup(event.event_type, key)
            if entry is not None:
                # Hit: substitute the stored outputs, skip all processing.
                self._charge_hit(event, entry)
                self.game.apply_outputs(entry.writes)
                self.stats.hits += 1
                self.stats.avoided_cycles += entry.avg_cycles
                return
        trace = self.game.process(event)
        charge_trace(self.soc, trace)
        self.stats.misses += 1
        self.stats.executed_cycles += trace.total_cycles
        if (
            self.enabled
            and self.config.online_warmup > 0
            and self.table.knows(event.event_type)
        ):
            self._learn_online(
                event, trace.output_signature(), tuple(trace.writes),
                trace.total_cycles, key=precomputed_key,
            )

    def _learn_online(
        self,
        event: Event,
        signature: Tuple,
        writes: Tuple[FieldWrite, ...],
        cycles: int,
        key: Optional[Tuple] = None,
    ) -> None:
        """Continuous learning, Option 2 at its finest granularity.

        Every miss contributes evidence for its necessary-input key; a
        key whose outputs agree ``config.online_warmup`` times in a row
        is promoted to a live table entry. The necessary inputs (what
        to key on) still come from the cloud's PFI — this loop only
        fills values the shipped profile had not seen. ``signature``,
        ``writes`` and ``cycles`` describe the handler run that missed.

        ``key`` short-circuits the live re-read when the caller already
        holds this event's (state-independent) precomputed key. The
        re-read runs after the handler, so a history-keyed selection
        learns under the post-handler state while it probes under the
        pre-handler state: a known defect, kept until it is fixed on
        purpose, since the fix changes every report that learns online.
        """
        if key is None:
            key = self.live_key(event)
        slot = (event.event_type, key)
        entry = self._online.get(slot)
        if entry is None or entry.signature != signature:
            self._online[slot] = _OnlineEntry(
                signature=signature,
                writes=writes,
                consecutive=1,
                cycles_sum=float(cycles),
                occurrences=1,
            )
            return
        entry.consecutive += 1
        entry.occurrences += 1
        entry.cycles_sum += cycles
        if entry.consecutive >= self.config.online_warmup:
            capacity = self.config.table_capacity_entries
            if capacity and self.table.entry_count >= capacity:
                # The device table is full: make room by evicting the
                # lowest-confidence entry (a phone cannot grow its hash
                # table without bound).
                self.table.evict_weakest()
                self.stats.evictions += 1
            self.table.install_entry(
                event.event_type,
                key,
                TableEntry(
                    writes=entry.writes,
                    avg_cycles=entry.cycles_sum / entry.occurrences,
                    profile_weight=entry.cycles_sum,
                ),
            )
            self.stats.online_promotions += 1
            del self._online[slot]

    # -- offline correctness evaluation ------------------------------------------

    def would_be_correct(self, event: Event) -> Optional[bool]:
        """Whether a hit on ``event`` would reproduce the true outputs.

        Evaluation-only helper: processes the event on a *fresh clone*
        of the live state so neither path pollutes the session. Returns
        ``None`` on a miss (nothing would be substituted).
        """
        entry = self.table.lookup(event.event_type, self.live_key(event))
        if entry is None:
            return None
        shadow = self.game.fresh()
        # Recreate the live state on the shadow instance.
        for field in self.game.state:
            shadow.state.write(field.name, field.value, nbytes=field.nbytes)
        shadow.screen.update(self.game.screen)
        truth = shadow.process(event)
        predicted = {write.name: write.value for write in entry.writes}
        actual = {write.name: write.value for write in truth.writes}
        return predicted == actual
