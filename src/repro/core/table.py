"""The shipped SNIP lookup table.

Keys each event type on its *necessary inputs* (the PFI selection) and
stores, per key, the cycle-majority output writes plus the average
handler cost — everything the runtime needs to short-circuit an event
and everything the accounting needs to credit the savings.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.android.emulator import ProfileRecord
from repro.android.events import EventType
from repro.core.config import SnipConfig
from repro.core.fields import FieldInfo, record_inputs
from repro.core.selection import SelectedInputs
from repro.errors import MemoizationError
from repro.games.base import FieldWrite
from repro.memo.stats import total_output_bytes


@dataclass(frozen=True)
class TableEntry:
    """One key's stored prediction."""

    writes: Tuple[FieldWrite, ...]
    avg_cycles: float       # mean handler cycles this key's events took
    profile_weight: float   # cycle mass behind this entry (confidence)


class SnipTable:
    """Necessary-input-keyed lookup table for one game."""

    def __init__(self, selection: SelectedInputs) -> None:
        self.selection = selection
        self._entries: Dict[EventType, Dict[Tuple, TableEntry]] = defaultdict(dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        records: Sequence[ProfileRecord],
        selection: SelectedInputs,
        config: Optional[SnipConfig] = None,
    ) -> "SnipTable":
        """Build the table from a replayed profile.

        Entries are confidence-gated: a key ships only if it recurred
        ``config.table_min_count`` times with a majority output holding
        ``table_consistency`` of its weight. The gate is what keeps
        short-circuiting nearly error free even when the necessary-input
        selection is imperfect.
        """
        if not records:
            raise MemoizationError("cannot build a SNIP table from an empty profile")
        config = config or SnipConfig()
        table = cls(selection)
        votes: Dict[Tuple[EventType, Tuple], Counter] = defaultdict(Counter)
        writes_by_signature: Dict[Tuple, Tuple[FieldWrite, ...]] = {}
        cycles: Dict[Tuple[EventType, Tuple], List[float]] = defaultdict(list)
        for record in records:
            if record.event_type not in selection.by_event_type:
                continue  # event type absent from the profile used for PFI
            fields = selection.fields_for(record.event_type)
            key = table.key_for_record(record, fields)
            signature = record.trace.output_signature()
            votes[(record.event_type, key)][signature] += record.trace.total_cycles
            writes_by_signature.setdefault(signature, tuple(record.trace.writes))
            cycles[(record.event_type, key)].append(float(record.trace.total_cycles))
        for (event_type, key), counter in votes.items():
            if len(cycles[(event_type, key)]) < config.table_min_count:
                continue
            majority_signature, weight = counter.most_common(1)[0]
            group_weight = sum(counter.values())
            if group_weight <= 0 or weight / group_weight < config.table_consistency:
                continue
            key_cycles = cycles[(event_type, key)]
            table._entries[event_type][key] = TableEntry(
                writes=writes_by_signature[majority_signature],
                avg_cycles=sum(key_cycles) / len(key_cycles),
                profile_weight=float(weight),
            )
        return table

    @staticmethod
    def key_for_record(
        record: ProfileRecord, fields: Sequence[FieldInfo]
    ) -> Tuple:
        """A profile record's key over the selected fields."""
        inputs = record_inputs(record)
        return tuple(inputs.get(info.name) for info in fields)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, event_type: EventType, key: Tuple) -> Optional[TableEntry]:
        """The stored entry for a key, or ``None`` on a miss."""
        return self._entries.get(event_type, {}).get(key)

    def evict_weakest(self) -> bool:
        """Drop the lowest-confidence entry; returns False when empty.

        Confidence is the cycle mass behind the entry's majority output
        (``profile_weight``): fresh online promotions are evicted before
        heavily-confirmed profile entries.
        """
        weakest = None
        for event_type, entries in self._entries.items():
            for key, entry in entries.items():
                if weakest is None or entry.profile_weight < weakest[2].profile_weight:
                    weakest = (event_type, key, entry)
        if weakest is None:
            return False
        del self._entries[weakest[0]][weakest[1]]
        return True

    def clear(self) -> None:
        """Drop every entry (the profiler-directed reset of Sec. VII-B).

        The necessary-input selection survives — only the learned
        key->output mappings are discarded, so online learning rebuilds
        from a clean slate.
        """
        self._entries = defaultdict(dict)

    def install_entry(self, event_type: EventType, key: Tuple, entry: TableEntry) -> None:
        """Insert (or replace) one entry — the online-learning path."""
        self._entries.setdefault(event_type, {})[key] = entry

    def clone(self) -> "SnipTable":
        """Fresh copy sharing the selection but not the entry dicts.

        Scheme runners hand each session its own copy so on-device
        online learning cannot leak between sessions.
        """
        copy = SnipTable(self.selection)
        copy._entries = {
            event_type: dict(entries)
            for event_type, entries in self._entries.items()
        }
        return copy

    def knows(self, event_type: EventType) -> bool:
        """Whether the table covers this event type at all.

        A known type with an *empty* selected-field list is legitimate:
        it means one output signature fits (almost) every instance, so
        the key is the event type itself.
        """
        return event_type in self.selection.by_event_type

    def fields_for(self, event_type: EventType) -> List[FieldInfo]:
        """Necessary inputs for one event type."""
        return self.selection.fields_for(event_type)

    def comparison_bytes(self, event_type: EventType) -> int:
        """Bytes the runtime compares per probe of this event type."""
        return self.selection.comparison_bytes(event_type)

    # -- size accounting -------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Total entries across all event types."""
        return sum(len(entries) for entries in self._entries.values())

    def entries_for(self, event_type: EventType) -> int:
        """Entry count for one event type."""
        return len(self._entries.get(event_type, {}))

    @property
    def total_bytes(self) -> int:
        """Shipped table size: keys plus stored outputs."""
        total = 0
        for event_type, entries in self._entries.items():
            key_bytes = self.selection.comparison_bytes(event_type)
            for entry in entries.values():
                total += key_bytes + total_output_bytes(entry.writes)
        return total

    def event_types(self) -> List[EventType]:
        """Event types that have at least one entry."""
        return sorted(self._entries, key=lambda event_type: event_type.value)
