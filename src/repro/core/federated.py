"""Federated table building (paper Sec. VII-C future direction).

The paper's backend is expensive — "processing 2 minutes game play ...
could take around 2 days" on a 48-core server — and it names federated
learning [45] as the way out. This module implements that direction for
the lookup-table half of the pipeline:

* each **device** replays its own sessions locally against the shipped
  necessary-input selection and uploads only *sufficient statistics*
  per key (output-signature weights, occurrence counts, average cycles)
  — never raw events;
* the **cloud** merges contributions from many users and re-derives the
  confidence-gated table, with cross-*user* support standing in for the
  cross-session gate.

Collective learning falls out for free: a context only one user ever
reaches still ships to everyone once enough of that user's sessions
agree, and popular contexts are confirmed across the whole fleet.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.android.emulator import Emulator
from repro.android.events import Event, EventType
from repro.android.tracing import RecordedTrace
from repro.core.config import SnipConfig
from repro.core.selection import SelectedInputs
from repro.core.table import SnipTable, TableEntry
from repro.errors import ProfilerError
from repro.games.base import FieldWrite
from repro.games.handler_memo import MemoEntry, MemoWalk, Signature, event_signature
from repro.games.registry import GAME_CONTENT_SEED, create_game, fresh_game

#: (event_type, key) — the federated aggregation unit.
Slot = Tuple[EventType, Tuple]

#: One folded event: ``(slot, signature, total_cycles, writes)`` — the
#: exact operands the scalar fold feeds its dicts, in event order.
FoldRecord = Tuple[Slot, Tuple, float, Tuple[FieldWrite, ...]]

#: One session's fold, compacted for replay: per-slot groups in
#: first-occurrence order, so applying a session costs a handful of
#: dict lookups per *slot* instead of several per *record*. Layout:
#: ``(observed, per_slot, writes_firsts)`` where ``per_slot`` rows are
#: ``(slot, count, cycles, votes_groups)`` — ``cycles`` the slot's
#: per-record cycle operands in event order, ``votes_groups`` the
#: slot's ``(signature, sig_cycles)`` groups in first-occurrence
#: order — and ``writes_firsts`` holds each distinct signature's first
#: writes tuple in session record order. Every contribution dict
#: accumulates each key independently, so grouping a key's operands
#: (while keeping them in order) reproduces the scalar fold's float
#: additions and dict insertion orders bit for bit.
SessionFold = Tuple[int, Tuple, Tuple]

#: An event type's fold key recipe: the ``event:``/``hist:``/``extern:``
#: kind and the name of each necessary input, resolved once per
#: selection so the per-event key build does no string parsing.
KeyPlans = Dict[EventType, Tuple[Tuple[str, str], ...]]

#: Per-(selection, game) fold state: the selection's key plans and a
#: cache of session folds keyed by the session's signature stream
#: (:func:`~repro.games.handler_memo.event_signature` per event).
#: The fold replays every session on a fresh content-seed game, so its
#: records are a pure function of ``(game_name, selection,
#: [(event_type, values)...])`` — timestamps and sequence numbers never
#: reach the statistics. Selections are identified by content
#: fingerprint, so equal selections built by different shards share one
#: entry, and their plans are one object: the handler memo's fold-record
#: slot (:class:`~repro.games.handler_memo.MemoEntry`) is checked by
#: identity against it.
_FOLD_CACHES: Dict[Tuple[Tuple, str], Tuple[KeyPlans, Dict[Tuple, SessionFold]]] = {}
#: Streams cached per (selection, game); sessions beyond the cap still
#: fold correctly, they just stop populating the cache.
_FOLD_CACHE_CAP = 4096


def _selection_fingerprint(selection: SelectedInputs) -> Tuple:
    """Hashable content identity for a selection (cache partitioning)."""
    return tuple(
        (event_type.value, tuple(fields))
        for event_type, fields in selection.by_event_type.items()
    )

#: A key confirmed by this many distinct devices ships without needing
#: to clear the per-device occurrence gate.
MIN_CONFIRMING_DEVICES = 2


@dataclass
class DeviceContribution:
    """One device's uploaded statistics (no raw events).

    ``signature_weight`` carries cycle-weighted output votes per key;
    ``writes`` carries the concrete output record for each signature the
    device observed (needed once, fleet-wide, to materialise entries).
    """

    device_id: int
    game_name: str
    events_observed: int = 0
    signature_weight: Dict[Slot, Counter] = field(default_factory=dict)
    occurrences: Dict[Slot, int] = field(default_factory=dict)
    cycle_sums: Dict[Slot, float] = field(default_factory=dict)
    writes: Dict[Tuple, Tuple[FieldWrite, ...]] = field(default_factory=dict)

    @property
    def upload_bytes(self) -> int:
        """Rough uplink size: keys, votes, and counters."""
        total = 0
        for (event_type, key), votes in self.signature_weight.items():
            total += 8 * len(key) + 24 * len(votes) + 16
        return total


class ContributionBuilder:
    """Incremental device-side pass: fold one session at a time.

    The fleet engine streams session traces through this instead of
    materialising a device's whole session list — each trace is
    replayed, folded into the statistics, and dropped, so device-side
    memory is bounded by a single session however many sessions the
    spec plays. Sessions must be added in session order; the emitted
    statistics are identical to the batch
    :func:`build_device_contribution` over the same traces.
    """

    def __init__(
        self, device_id: int, game_name: str, selection: SelectedInputs
    ) -> None:
        self.contribution = DeviceContribution(
            device_id=device_id, game_name=game_name
        )
        self._selection = selection
        self._emulator = Emulator(verify=False)
        self._sessions = 0
        cache_key = (_selection_fingerprint(selection), game_name)
        cached = _FOLD_CACHES.get(cache_key)
        if cached is None:
            plans: KeyPlans = {
                event_type: tuple(
                    (info.name.partition(":")[0], info.name.partition(":")[2])
                    for info in selection.fields_for(event_type)
                )
                for event_type in selection.by_event_type
            }
            cached = _FOLD_CACHES[cache_key] = (plans, {})
        self._plans, self._fold_cache = cached

    def add_session(self, trace: RecordedTrace, session: int) -> None:
        """Replay one session through the emulator and fold its statistics.

        The scalar reference for :meth:`add_session_events`; only
        :func:`~repro.fleet.work.run_device_reference` folds through it.
        """
        contribution = self.contribution
        selection = self._selection
        game = create_game(contribution.game_name, seed=GAME_CONTENT_SEED)
        for record in self._emulator.replay(game, trace, session=session):
            if record.event_type not in selection.by_event_type:
                continue
            fields = selection.fields_for(record.event_type)
            key = SnipTable.key_for_record(record, fields)
            slot: Slot = (record.event_type, key)
            signature = record.trace.output_signature()
            contribution.signature_weight.setdefault(slot, Counter())[
                signature
            ] += record.trace.total_cycles
            contribution.occurrences[slot] = contribution.occurrences.get(slot, 0) + 1
            contribution.cycle_sums[slot] = (
                contribution.cycle_sums.get(slot, 0.0) + record.trace.total_cycles
            )
            contribution.writes.setdefault(signature, tuple(record.trace.writes))
            contribution.events_observed += 1
        self._sessions += 1

    def add_session_events(
        self,
        events: Sequence[Event],
        session: int,
        signatures: Optional[Sequence[Signature]] = None,
    ) -> None:
        """Fused fast-path fold: one pass, no emulator, no re-replay.

        Statistics-identical to :meth:`add_session` over a trace of the
        same events: the emulator's per-event
        ``ProfileRecord`` exists only to be torn back apart into a key
        and a trace, so this folds straight from a walk over the
        handler memo. ``signatures`` holds each event's
        :func:`~repro.games.handler_memo.event_signature`, when the
        caller has them.

        Session folds are memoised on the signature stream: two
        devices whose sessions carry the same ``(type, values)``
        sequence replay to the same fold records (the content-seed game
        makes the trajectory a pure function of the stream), so only
        the first pays the walk. The cached
        :data:`SessionFold` holds the exact operands — grouped per
        slot, each group in event order — that the scalar fold feeds
        its dicts, so replaying it reproduces every float addition and
        every dict insertion bit for bit.
        """
        contribution = self.contribution
        if signatures is None:
            signatures = [event_signature(event) for event in events]
        stream = tuple(signatures)
        cache = self._fold_cache
        cached = cache.get(stream)
        if cached is None:
            cached = _compact_fold(self._fold_events(events, signatures))
            if len(cache) < _FOLD_CACHE_CAP:
                cache[stream] = cached
        observed, per_slot, writes_firsts = cached
        signature_weight = contribution.signature_weight
        occurrences = contribution.occurrences
        cycle_sums = contribution.cycle_sums
        writes = contribution.writes
        for slot, count, cycles, votes_groups in per_slot:
            votes = signature_weight.get(slot)
            if votes is None:
                votes = signature_weight[slot] = Counter()
            for signature, sig_cycles in votes_groups:
                total = votes.get(signature, 0)
                for value in sig_cycles:
                    total += value
                votes[signature] = total
            occurrences[slot] = occurrences.get(slot, 0) + count
            total = cycle_sums.get(slot, 0.0)
            for value in cycles:
                total += value
            cycle_sums[slot] = total
        for signature, record_writes in writes_firsts:
            if signature not in writes:
                writes[signature] = record_writes
        contribution.events_observed += observed
        self._sessions += 1

    def _fold_events(
        self, events: Sequence[Event], signatures: Sequence[Signature]
    ) -> Tuple[Tuple[FoldRecord, ...], int]:
        """Walk one session over the handler memo and extract its fold
        records.

        The walk (:class:`~repro.games.handler_memo.MemoWalk`) yields
        the entry each event applies, with the engine tick → handler
        sequencing the emulator snapshots. Known transitions — the
        fleet's baseline pass has usually just walked the same session
        — cost a dict probe; the rest run the handler or replay a memo
        entry on a live game. Each entry caches its fold record under
        this selection's plans; a new record reads history inputs from
        the state the entry's handler ran on.
        """
        plans = self._plans
        game = fresh_game(self.contribution.game_name, seed=GAME_CONTENT_SEED)
        step = MemoWalk(game).step
        fields = {name: index for index, name in enumerate(game.state.field_names())}
        records: List[FoldRecord] = []
        for event, signature in zip(events, signatures):
            entry = step(event, signature)
            if entry.fold_plans is plans:
                record = entry.fold_record
            else:
                record = _fold_record(event, plans.get(event.event_type), fields, entry)
                entry.fold_plans, entry.fold_record = plans, record
            if record is not None:
                records.append(record)
        return tuple(records), len(records)

    def finish(self) -> DeviceContribution:
        """The device's upload; raises if no sessions were folded."""
        if self._sessions == 0:
            raise ProfilerError(
                f"device {self.contribution.device_id}: no sessions to contribute"
            )
        return self.contribution


def _fold_record(
    event: Event,
    plan: Optional[Tuple[Tuple[str, str], ...]],
    fields: Dict[str, int],
    entry: MemoEntry,
) -> Optional[FoldRecord]:
    """One event's fold record under its type's key plan.

    ``None`` for a type outside the selection. History key values come
    from the state the entry's handler ran on (``fields`` gives each
    field's position among its values; an unknown field yields ``None``),
    extern key values from the handler's extern reads (absent reads
    yield ``None``), mirroring ``record_inputs``.
    """
    if plan is None:
        return None
    event_values = event.values
    values = entry.state[0]
    extern_values = entry.extern_values or {}
    key_parts = []
    for kind, name in plan:
        if kind == "event":
            key_parts.append(event_values.get(name))
        elif kind == "hist":
            index = fields.get(name)
            key_parts.append(None if index is None else values[index])
        else:
            key_parts.append(extern_values.get(name))
    return (
        (event.event_type, tuple(key_parts)),
        entry.signature,
        entry.total_cycles,
        entry.writes,
    )


def _compact_fold(fold: Tuple[Tuple[FoldRecord, ...], int]) -> SessionFold:
    """Group one session's fold records into replay-efficient form.

    Dicts preserve insertion order, so iterating the groupings walks
    slots/signatures in first-occurrence record order — exactly the
    insertion order the scalar per-record fold produces.
    """
    records, observed = fold
    per_slot: Dict[Slot, list] = {}
    writes_firsts: Dict[Tuple, Tuple[FieldWrite, ...]] = {}
    for slot, signature, total_cycles, record_writes in records:
        entry = per_slot.get(slot)
        if entry is None:
            entry = per_slot[slot] = [0, [], {}]
        entry[0] += 1
        entry[1].append(total_cycles)
        groups = entry[2]
        sig_cycles = groups.get(signature)
        if sig_cycles is None:
            sig_cycles = groups[signature] = []
        sig_cycles.append(total_cycles)
        if signature not in writes_firsts:
            writes_firsts[signature] = record_writes
    per_slot_rows = tuple(
        (
            slot,
            count,
            tuple(cycles),
            tuple((sig, tuple(vals)) for sig, vals in groups.items()),
        )
        for slot, (count, cycles, groups) in per_slot.items()
    )
    return observed, per_slot_rows, tuple(writes_firsts.items())


def build_device_contribution(
    device_id: int,
    game_name: str,
    traces: Iterable[RecordedTrace],
    selection: SelectedInputs,
) -> DeviceContribution:
    """Device-side pass: replay own sessions, emit statistics.

    The replay runs on the phone (it is the same deterministic app), so
    the cloud's emulation cost disappears — the paper's stated goal for
    the federated direction. ``traces`` is consumed exactly once, so
    generators are fine.
    """
    builder = ContributionBuilder(device_id, game_name, selection)
    for session, trace in enumerate(traces):
        builder.add_session_events(trace.events, session)
    return builder.finish()


def _note_device(seen: List[int], device_id: int, cap: int) -> None:
    """Record a distinct device id, stopping once ``cap`` are known.

    The confirmation gates only ever ask "did at least *cap* distinct
    devices confirm this?", so tracking the first ``cap`` distinct ids
    answers them exactly while keeping per-slot memory O(cap) — a full
    id set would grow with the fleet (10^6 devices x live slots was the
    aggregator's memory wall).
    """
    if len(seen) < cap and device_id not in seen:
        seen.append(device_id)


class FederatedAggregator:
    """Cloud-side merge: many devices' statistics -> one gated table.

    Memory is bounded by the number of distinct slots (game content),
    never by the number of devices merged: per-slot device support is
    tracked only up to the confirmation threshold.
    """

    def __init__(self, selection: SelectedInputs, config: SnipConfig) -> None:
        self.selection = selection
        self.config = config
        self._votes: Dict[Slot, Counter] = defaultdict(Counter)
        #: First MIN_CONFIRMING_DEVICES distinct confirming ids per slot.
        self._confirming: Dict[Slot, List[int]] = defaultdict(list)
        #: First two distinct contributing ids fleet-wide.
        self._contributors: List[int] = []
        self._occurrences: Dict[Slot, int] = defaultdict(int)
        self._cycle_sums: Dict[Slot, float] = defaultdict(float)
        self._writes: Dict[Tuple, Tuple[FieldWrite, ...]] = {}
        self._contributions = 0

    @property
    def contribution_count(self) -> int:
        """How many device uploads have been merged."""
        return self._contributions

    def merge(self, contribution: DeviceContribution) -> None:
        """Fold one device's statistics into the fleet aggregate."""
        for slot, votes in contribution.signature_weight.items():
            self._votes[slot].update(votes)
            _note_device(
                self._confirming[slot],
                contribution.device_id,
                MIN_CONFIRMING_DEVICES,
            )
            self._occurrences[slot] += contribution.occurrences[slot]
            self._cycle_sums[slot] += contribution.cycle_sums[slot]
        if contribution.signature_weight:
            _note_device(self._contributors, contribution.device_id, 2)
        for signature, writes in contribution.writes.items():
            self._writes.setdefault(signature, writes)
        self._contributions += 1

    def build_table(self) -> SnipTable:
        """Materialise the gated table from the fleet aggregate.

        The support gate counts distinct *devices* when more than one
        contributed, otherwise raw occurrences — the federated analogue
        of the per-profile session gate.
        """
        if not self._votes:
            raise ProfilerError("no contributions merged yet")
        multi_device = len(self._contributors) >= 2
        table = SnipTable(self.selection)
        for slot, votes in self._votes.items():
            if multi_device and len(self._confirming[slot]) >= MIN_CONFIRMING_DEVICES:
                pass  # fleet-confirmed context
            elif self._occurrences[slot] < self.config.table_min_count:
                continue
            majority_signature, majority_weight = votes.most_common(1)[0]
            group_weight = sum(votes.values())
            if majority_weight / group_weight < self.config.table_consistency:
                continue
            event_type, key = slot
            table.install_entry(
                event_type,
                key,
                TableEntry(
                    writes=self._writes[majority_signature],
                    avg_cycles=self._cycle_sums[slot] / self._occurrences[slot],
                    profile_weight=float(majority_weight),
                ),
            )
        return table


def federate_contributions(
    contributions: Sequence[DeviceContribution],
    selection: SelectedInputs,
    config: SnipConfig,
) -> Tuple[SnipTable, int]:
    """Cloud-side merge of already-computed device statistics.

    This is the entry point the fleet engine uses: workers return
    :class:`DeviceContribution` payloads from their shards and the
    reducer hands them here. Contributions are merged in device-id
    order so the built table is identical however the shards were
    scheduled.
    """
    aggregator = FederatedAggregator(selection, config)
    uplink = 0
    for contribution in sorted(contributions, key=lambda c: c.device_id):
        uplink += contribution.upload_bytes
        aggregator.merge(contribution)
    return aggregator.build_table(), uplink


def federate(
    game_name: str,
    per_device_traces: Dict[int, Iterable[RecordedTrace]],
    selection: SelectedInputs,
    config: SnipConfig,
) -> Tuple[SnipTable, int]:
    """End-to-end federation: devices compute, cloud merges.

    Returns the fleet table and the total uplink bytes (the quantity the
    federated design minimises against shipping raw profiles).
    """
    contributions = [
        build_device_contribution(device_id, game_name, traces, selection)
        for device_id, traces in per_device_traces.items()
    ]
    return federate_contributions(contributions, selection, config)
