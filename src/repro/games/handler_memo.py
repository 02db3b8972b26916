"""One process-wide handler memo per (game, content seed), walked as a
trajectory.

A handler touches the world only through
:class:`~repro.games.base.HandlerContext`: event fields, state reads,
screen compares and seed-pure extern fetches. For games of one content
seed, an event's *signature* (its type and values) and the game's
*state* (every cell's value and size in bytes, plus the screen's items)
therefore capture every input a handler can observe: two runs with
equal ``(signature, state)`` keys produce identical traces and
identical mutations — the same property SNIP exploits on the device
(paper Sec. III).

The memo holds two maps over that key.

* **Entries**: ``(signature, state after the engine tick)`` to the
  :class:`MemoEntry` a handler run left. A hit replays the recorded
  writes with :meth:`Game.apply_outputs` instead of running the
  handler; only novel (state, event) pairs pay for it.
* **Transitions**: every state a walk meets is interned once as a
  :class:`StateNode`, whose state tuple is also the snapshot a Game is
  restored from, and each node maps a signature to the entry the event
  applies from that state (engine tick included) and the node it
  leads to. Sessions of one game pass through few distinct states, so
  most events of a session follow a transition some earlier walk took.

:class:`MemoWalk` steps one session over the transitions. A known
transition returns its entry and moves on without touching the Game.
A transition miss brings the Game to the node's state (restoring it
from the snapshot when known transitions left it behind), ticks the
engine, looks the full key up in the entries (running the handler on a
memo miss), interns the state the event leaves and records the
transition. Two passes walk: the baseline sessions
(:class:`MemoBaselineLoop`: the fleet's baseline pass, and
:func:`~repro.users.sessions.run_baseline_session` behind Figs. 2-4 and
the registry's eval baseline) and the federated fold
(:meth:`~repro.core.federated.ContributionBuilder.add_session_events`).
The fold follows the baseline pass over the same session, so it finds
a transition for every event. The misses of
:class:`~repro.core.runtime.SnipRuntime` on a columnar SoC use the
entries alone (:meth:`HandlerMemo.lookup`), keyed on their live game.

Entries, nodes and transitions are each capped at :data:`MEMO_CAP`; a
state that is unhashable or new past the cap gets no node, and the walk
runs on the live Game until it meets a known state again.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.android.dispatch import DeliveryPatterns, Pattern, Work, charge_work, handler_work
from repro.android.events import Event
from repro.errors import SimulationError
from repro.games.base import FieldWrite, Game, InputCategory, ProcessingTrace, writes_signature
from repro.soc.power_profiles import PowerProfiles
from repro.soc.soc import Soc

#: Entries, nodes and transitions per memo, each; events past the cap
#: still run, they just record nothing.
MEMO_CAP = 65_536

#: An event as a handler can observe it: ``(type value, values items)``.
Signature = Tuple[str, Tuple[Tuple[str, Any], ...]]
#: A game's state as the memo keys it: the cells' values and sizes in
#: declaration order (:meth:`~repro.games.state.StateStore.cells`), and
#: the screen's items in insertion order.
State = Tuple[Tuple[Any, ...], Tuple[int, ...], Tuple[Tuple[str, Any], ...]]
#: An entry's key: the event's signature and the state its handler sees.
Key = Tuple[Signature, State]


def event_signature(event: Event) -> Signature:
    """What a handler can observe of ``event``."""
    return event.event_type.value, tuple(event.values.items())


def game_state(game: Game) -> State:
    """``game``'s state as the memo keys and interns it."""
    values, sizes = game.state.cells()
    return values, sizes, tuple(game.screen.items())


class MemoEntry:
    """What one handler run leaves for later events with the same key.

    Only what the memo's consumers read, never the trace itself: the
    writes, the total cycles, the extern read values (``None`` when
    there were none), the handler's work
    (:func:`~repro.android.dispatch.handler_work`), the state the
    handler ran on (its key's :data:`State`, from which the federated
    fold reads history inputs) and, built on first read, the output
    signature. Two single-slot caches are filled on first use:
    ``pattern``, the columnar charges of the work priced with
    ``pattern_profiles``, and ``fold_record``, the federated fold's
    record under the key plans ``fold_plans``.
    """

    __slots__ = (
        "writes", "_signature", "total_cycles", "extern_values", "work", "state",
        "pattern_profiles", "pattern", "fold_plans", "fold_record",
    )

    def __init__(self, trace: ProcessingTrace, work: Work, state: State) -> None:
        self.writes: Tuple[FieldWrite, ...] = tuple(trace.writes)
        self._signature: Optional[Tuple] = None
        self.total_cycles = trace.total_cycles
        self.extern_values: Optional[Dict[str, Any]] = {
            read.name.partition(":")[2]: read.value
            for read in trace.reads
            if read.category is InputCategory.EXTERN
        } or None
        self.work = work
        self.state = state
        self.pattern_profiles: Optional[PowerProfiles] = None
        self.pattern: Optional[Pattern] = None
        self.fold_plans: Optional[object] = None
        self.fold_record: Optional[tuple] = None

    @property
    def signature(self) -> Tuple:
        """The trace's :meth:`~repro.games.base.ProcessingTrace.output_signature`.

        Only the federated fold and the SNIP runtime's online learning
        read it, so a baseline session never sorts its writes.
        """
        if self._signature is None:
            self._signature = writes_signature(self.writes)
        return self._signature


class StateNode:
    """One interned game state and the transitions walks took from it.

    ``transitions`` maps an event signature to the entry that event
    applies from this state and the node it leads to.
    """

    __slots__ = ("state", "transitions")

    def __init__(self, state: State) -> None:
        self.state = state
        self.transitions: Dict[Signature, Tuple[MemoEntry, StateNode]] = {}

    def restore(self, game: Game) -> None:
        """Put ``game`` in this state."""
        values, sizes, screen = self.state
        game.state.restore(values, sizes)
        game.screen.clear()
        game.screen.update(screen)


class HandlerMemo:
    """Memo entries, state nodes and transitions of one game under one
    content seed, each capped."""

    def __init__(self) -> None:
        self._entries: Dict[Key, MemoEntry] = {}
        self._nodes: Dict[State, StateNode] = {}
        #: Transitions recorded in all nodes, which walks keep below
        #: the cap.
        self.transition_count = 0
        #: Entries share equal works: a game's handlers do a handful of
        #: distinct works across thousands of (state, event) keys.
        self._works: Dict[Work, Work] = {}
        #: One instance per distinct power-profile set, so a pattern
        #: slot is checked by identity instead of by walking every
        #: constant.
        self._profiles: Dict[PowerProfiles, PowerProfiles] = {}

    def lookup(self, game: Game, event: Event) -> Tuple[Key, Optional[MemoEntry]]:
        """``(key, entry)`` for ``event`` in the game's current state.

        Call after the engine tick and before the handler. An
        unhashable key finds nothing, and :meth:`record` stores nothing
        under it: such an event runs its handler every time.
        """
        key = (event_signature(event), game_state(game))
        return key, self.find(key)

    def find(self, key: Key) -> Optional[MemoEntry]:
        """The entry stored under ``key``, if any."""
        try:
            return self._entries.get(key)
        except TypeError:
            return None

    def canonical(self, profiles: PowerProfiles) -> PowerProfiles:
        """The instance this memo's pattern slots use for ``profiles``."""
        return self._profiles.setdefault(profiles, profiles)

    def record(self, key: Key, trace: ProcessingTrace) -> MemoEntry:
        """An entry for ``trace``, stored under a hashable ``key`` while
        below the cap."""
        entry = MemoEntry(trace, handler_work(trace), key[1])
        entries = self._entries
        if len(entries) < MEMO_CAP:
            try:
                entries[key] = entry
            except TypeError:
                return entry
            entry.work = self._works.setdefault(entry.work, entry.work)
        return entry

    def node(self, state: State) -> Optional[StateNode]:
        """The node interning ``state``; ``None`` when it is unhashable
        or new past the cap."""
        nodes = self._nodes
        try:
            if len(nodes) < MEMO_CAP:
                return nodes.setdefault(state, StateNode(state))
            return nodes.get(state)
        except TypeError:
            return None


_MEMOS: Dict[Tuple[str, int], HandlerMemo] = {}


def handler_memo(game: Game) -> HandlerMemo:
    """The process-wide memo of ``game``'s name and content seed."""
    key = (game.name, game.seed)
    memo = _MEMOS.get(key)
    if memo is None:
        memo = _MEMOS[key] = HandlerMemo()
    return memo


class MemoWalk:
    """One session of ``game`` walked over its memo's transitions.

    :meth:`step` returns the entry each event applies, in event order.
    The Game holds the walk's state only right after a transition miss:
    known transitions leave it behind, and the next miss restores it
    from its node first.
    """

    __slots__ = ("_game", "_memo", "_ticks", "_live", "_node", "_at")

    def __init__(self, game: Game) -> None:
        self._game = game
        self._memo = handler_memo(game)
        #: Without an engine tick, the state a node holds is also the
        #: state its events' handlers see.
        self._ticks = type(game).advance_engine is not Game.advance_engine
        #: The Game's state as of the last miss; read only while
        #: ``_node`` is ``None``, when the Game is live.
        self._live = game_state(game)
        #: The walk's node, and the node whose state the Game holds.
        self._node = self._at = self._memo.node(self._live)

    def step(self, event: Event, signature: Signature) -> MemoEntry:
        """Apply ``event``, whose :func:`event_signature` is ``signature``."""
        node = self._node
        if node is not None:
            known = node.transitions.get(signature)
            if known is not None:
                entry, self._node = known
                return entry
            if self._at is not node:
                node.restore(self._game)
            state = node.state
        else:
            state = self._live
        game = self._game
        memo = self._memo
        if self._ticks:
            game.advance_engine(event)
            state = game_state(game)
        key = (signature, state)
        entry = memo.find(key)
        if entry is None:
            entry = memo.record(key, game.process(event))
        elif entry.writes:
            game.apply_outputs(entry.writes)
        self._live = game_state(game)
        after = memo.node(self._live)
        if node is not None and after is not None and memo.transition_count < MEMO_CAP:
            node.transitions[signature] = (entry, after)
            memo.transition_count += 1
        self._node = self._at = after
        return entry


class MemoBaselineLoop:
    """The baseline event loop, minus the handlers the memo has run.

    Charges what :class:`~repro.android.dispatch.EventLoop` charges —
    delivery and upkeep (as one static pattern), then the handler's
    work — but walks the events over the memo (:class:`MemoWalk`)
    instead of running every handler, and pours each entry's charge
    pattern into the meter instead of pricing its trace.
    :meth:`deliver` returns the entry the event applied, which holds
    everything the figures read of an event: its writes (Fig. 4's
    useless test) and its work (the handler energy). ``game`` holds the
    session's state only right after an event the memo had no
    transition for.

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
        self._step = MemoWalk(game).step
        self._profiles = handler_memo(game).canonical(soc.profiles)

    def deliver(self, event: Event, signature: Optional[Signature] = None) -> MemoEntry:
        """Run one event end to end, charging every stage to the SoC.

        ``signature`` is the event's :func:`event_signature`, when the
        caller has it. Returns the entry whose writes and work the
        event applied.
        """
        soc = self.soc
        if not soc.idle:
            raise SimulationError(
                "the memoised baseline loop replays charges priced on IDLE "
                "components; a component of this SoC is not IDLE"
            )
        self._patterns.charge(event)
        entry = self._step(event, event_signature(event) if signature is None else signature)
        meter = self._meter
        if entry.pattern_profiles is self._profiles:
            meter.extend(*entry.pattern)
        else:
            start = meter.record_count
            charge_work(soc, entry.work)
            entry.pattern_profiles = self._profiles
            entry.pattern = meter.records_since(start)
        return entry
