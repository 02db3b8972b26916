"""Game framework: traced, deterministic event handlers.

Every game is a set of event handlers written against
:class:`HandlerContext`. The context is the *only* way a handler may
read inputs (event fields, history state, external assets) or produce
effects (temporary outputs, history writes, external sends, CPU/IP/memory
work), which gives us a complete per-event I/O record — the
:class:`ProcessingTrace` — for free. That record is simultaneously:

* the energy bill of the event (cycles, IP invocations, bytes moved);
* the memoization input/output record (Sec. III);
* the ML training row (Sec. V);
* the useless-event detector (Fig. 4).

Handlers must be pure functions of the inputs they read through the
context; the emulator's replay determinism (and therefore the entire
cloud-profiling methodology) rests on that contract.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.android.events import Event, EventType
from repro.errors import GameError
from repro.games.state import StateStore


class InputCategory(enum.Enum):
    """Paper Sec. IV-A input taxonomy."""

    EVENT = "in_event"
    HISTORY = "in_history"
    EXTERN = "in_extern"

    def __str__(self) -> str:
        return self.value


class OutputCategory(enum.Enum):
    """Paper Sec. IV-B output taxonomy."""

    TEMP = "out_temp"
    HISTORY = "out_history"
    EXTERN = "out_extern"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class FieldRead:
    """One input consumed by a handler."""

    name: str
    category: InputCategory
    value: Any
    nbytes: int


@dataclass(frozen=True, slots=True)
class FieldWrite:
    """One output produced by a handler.

    ``changed`` records whether the write differed from the value the
    destination already held — the per-field ingredient of the paper's
    useless-event metric.
    """

    name: str
    category: OutputCategory
    value: Any
    nbytes: int
    changed: bool


@dataclass(frozen=True, slots=True)
class IpCall:
    """One accelerator invocation requested by a handler.

    ``key`` identifies the invocation's inputs; when a later invocation
    of the same IP carries the same key, its output would be identical,
    which is what the Max-IP baseline exploits. ``None`` marks calls
    whose inputs are not memoizable (e.g. live camera frames).
    """

    ip_name: str
    work_units: float
    bytes_in: int
    bytes_out: int
    key: Optional[Tuple[Any, ...]] = None


@dataclass(frozen=True, slots=True)
class CpuFuncCall:
    """One pure CPU sub-function executed by a handler.

    The Max-CPU baseline (Sodani/Sohi-style instruction/function reuse
    [3, 14, 42]) memoizes at this granularity: a call whose
    ``(name, key)`` repeats can be skipped. Cycles recorded here are in
    addition to the handler's unstructured glue cycles.
    """

    name: str
    key: Tuple[Any, ...]
    cycles: int
    big: bool = True
    #: Register-pure kernels (inputs are a handful of scalars) can be
    #: reused by hardware/function-level schemes; kernels that walk
    #: memory structures (scene graphs, boards, layouts) cannot — their
    #: inputs are exactly what needs SNIP's lookup table to identify.
    reusable: bool = True


@dataclass(slots=True)
class ProcessingTrace:
    """Everything one event's processing consumed and produced."""

    event_sequence: int
    event_type: EventType
    reads: List[FieldRead] = field(default_factory=list)
    writes: List[FieldWrite] = field(default_factory=list)
    ip_calls: List[IpCall] = field(default_factory=list)
    cpu_funcs: List[CpuFuncCall] = field(default_factory=list)
    cpu_big_cycles: int = 0
    cpu_little_cycles: int = 0
    memory_bytes: int = 0

    # -- input/output views --------------------------------------------

    def reads_in(self, category: InputCategory) -> List[FieldRead]:
        """Reads restricted to one input category."""
        return [read for read in self.reads if read.category is category]

    def writes_in(self, category: OutputCategory) -> List[FieldWrite]:
        """Writes restricted to one output category."""
        return [write for write in self.writes if write.category is category]

    def input_bytes(self, category: Optional[InputCategory] = None) -> int:
        """Bytes of input consumed (optionally one category)."""
        reads = self.reads if category is None else self.reads_in(category)
        return sum(read.nbytes for read in reads)

    def output_bytes(self, category: Optional[OutputCategory] = None) -> int:
        """Bytes of output produced (optionally one category)."""
        writes = self.writes if category is None else self.writes_in(category)
        return sum(write.nbytes for write in writes)

    # -- semantics ------------------------------------------------------

    @property
    def useless(self) -> bool:
        """True when processing changed nothing observable (Fig. 4).

        An event is useless when every write re-stored the value its
        destination already held (or it wrote nothing at all).
        """
        return not any(write.changed for write in self.writes)

    def output_signature(self) -> Tuple[Tuple[str, str, Any], ...]:
        """Hashable description of all outputs, for equivalence classes."""
        return writes_signature(self.writes)

    def output_class(self) -> int:
        """Stable 64-bit label of the output signature (ML target)."""
        digest = hashlib.blake2b(
            repr(self.output_signature()).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    @property
    def func_cycles(self) -> int:
        """Cycles spent inside named (memoizable) CPU sub-functions."""
        return sum(call.cycles for call in self.cpu_funcs)

    @property
    def total_cycles(self) -> int:
        """Dynamic cycles on any core — the Fig. 6 coverage weight."""
        return self.cpu_big_cycles + self.cpu_little_cycles + self.func_cycles


def writes_signature(writes: Sequence[FieldWrite]) -> Tuple[Tuple[str, str, Any], ...]:
    """:meth:`ProcessingTrace.output_signature` of a trace with ``writes``."""
    return tuple(
        sorted((write.name, write.category.value, write.value) for write in writes)
    )


class ExternSource:
    """Deterministic external-data provider (cloud, CDN, network).

    Fetches are pure functions of ``(seed, key)`` so replay sees the
    same bytes the device saw. Asset payloads are large (the ~1 MB
    In.Extern spikes of Fig. 7a) but rare.
    """

    def __init__(self, seed: int, payload_bytes: int = 1_048_576) -> None:
        self._seed = seed
        self.payload_bytes = payload_bytes

    def peek(self, key: str) -> Tuple[int, int]:
        """Return ``(content_id, nbytes)`` for an asset key.

        A handler's fetch and the SNIP runtime's necessary-input
        comparison read the same asset: the runtime compares against
        the copy already cached in RAM, which costs memory traffic, not
        a network round trip.
        """
        digest = hashlib.blake2b(
            f"{self._seed}:{key}".encode("utf-8"), digest_size=8
        ).digest()
        return (int.from_bytes(digest, "little") & 0xFFFF, self.payload_bytes)


class HandlerContext:
    """The only door between a game handler and the outside world."""

    __slots__ = ("_event", "_state", "_screen", "_extern", "trace")

    def __init__(
        self,
        event: Event,
        state: StateStore,
        screen: Dict[str, Any],
        extern: ExternSource,
    ) -> None:
        self._event = event
        self._state = state
        self._screen = screen
        self._extern = extern
        self.trace = ProcessingTrace(
            event_sequence=event.sequence, event_type=event.event_type
        )

    # -- inputs ----------------------------------------------------------

    def ev(self, name: str) -> Any:
        """Read one In.Event field."""
        value = self._event.field(name)
        spec = self._event.schema.spec(name)
        self.trace.reads.append(
            FieldRead(name=f"event:{name}", category=InputCategory.EVENT,
                      value=value, nbytes=spec.nbytes)
        )
        return value

    def hist(self, name: str) -> Any:
        """Read one In.History field from game state."""
        value = self._state.peek(name)
        self.trace.reads.append(
            FieldRead(name=f"hist:{name}", category=InputCategory.HISTORY,
                      value=value, nbytes=self._state.size_of(name))
        )
        return value

    def extern(self, key: str) -> int:
        """Fetch an external asset; returns its content id."""
        content_id, nbytes = self._extern.peek(key)
        self.trace.reads.append(
            FieldRead(name=f"extern:{key}", category=InputCategory.EXTERN,
                      value=content_id, nbytes=nbytes)
        )
        # Fetched assets transit memory on their way into the heap.
        self.mem(nbytes)
        return content_id

    # -- work ------------------------------------------------------------

    def cpu(self, cycles: int, big: bool = True) -> None:
        """Account ``cycles`` of CPU work for this event."""
        if cycles < 0:
            raise GameError(f"negative cycle count {cycles}")
        if big:
            self.trace.cpu_big_cycles += cycles
        else:
            self.trace.cpu_little_cycles += cycles

    def cpu_func(
        self,
        name: str,
        key: Tuple[Any, ...],
        cycles: int,
        big: bool = True,
        reusable: bool = True,
    ) -> None:
        """Account a pure, memoizable CPU sub-function call.

        ``key`` must capture every input the sub-function depends on;
        the Max-CPU baseline will skip repeats of ``(name, key)`` when
        ``reusable`` (register-pure inputs). Pass ``reusable=False`` for
        kernels whose inputs live in memory structures.
        """
        if cycles < 0:
            raise GameError(f"negative cycle count {cycles} in {name!r}")
        self.trace.cpu_funcs.append(
            CpuFuncCall(name=name, key=key, cycles=cycles, big=big, reusable=reusable)
        )

    def ip(
        self,
        ip_name: str,
        work_units: float,
        bytes_in: int = 0,
        bytes_out: int = 0,
        key: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        """Account one accelerator invocation for this event.

        Pass ``key`` when the invocation's output is a pure function of
        identifiable inputs (enables Max-IP skipping of exact repeats).
        """
        if work_units < 0 or bytes_in < 0 or bytes_out < 0:
            raise GameError(f"negative IP invocation parameters for {ip_name!r}")
        self.trace.ip_calls.append(
            IpCall(ip_name=ip_name, work_units=work_units,
                   bytes_in=bytes_in, bytes_out=bytes_out, key=key)
        )

    def mem(self, num_bytes: int) -> None:
        """Account ``num_bytes`` of memory traffic for this event."""
        if num_bytes < 0:
            raise GameError(f"negative memory traffic {num_bytes}")
        self.trace.memory_bytes += num_bytes

    # -- outputs ---------------------------------------------------------

    def out_temp(self, name: str, value: Any, nbytes: int) -> None:
        """Emit a temporary output (frame tile, haptic, sound cue).

        Compared against the last value shown for ``name`` to decide
        whether anything observable changed.
        """
        changed = self._screen.get(name) != value
        self._screen[name] = value
        self.trace.writes.append(
            FieldWrite(name=f"temp:{name}", category=OutputCategory.TEMP,
                       value=value, nbytes=nbytes, changed=changed)
        )

    def out_hist(self, name: str, value: Any, nbytes: Optional[int] = None) -> None:
        """Write a history output (game state consumed by later events)."""
        previous = self._state.peek(name)
        self._state.write(name, value, nbytes=nbytes)
        self.trace.writes.append(
            FieldWrite(name=f"hist:{name}", category=OutputCategory.HISTORY,
                       value=value, nbytes=self._state.size_of(name),
                       changed=previous != value)
        )

    def out_extern(self, name: str, value: Any, nbytes: int) -> None:
        """Send an output to the network/cloud (always a visible change)."""
        self.trace.writes.append(
            FieldWrite(name=f"extern:{name}", category=OutputCategory.EXTERN,
                       value=value, nbytes=nbytes, changed=True)
        )
        self.mem(nbytes)


class Game:
    """Base class for the seven game workloads.

    Subclasses declare their initial state in :meth:`build_state` and
    implement :meth:`on_event`. The framework guarantees subclasses a
    fresh :class:`HandlerContext` per event and applies no other magic.
    """

    #: Subclasses set these class attributes.
    name: str = "abstract"
    handled_event_types: Sequence[EventType] = ()
    #: Unavoidable engine work per event type: input plumbing, engine
    #: bookkeeping, GC pressure — work the platform performs *before*
    #: the app handler runs, so no short-circuiting scheme can skip it.
    #: Big-core cycles, charged by every event loop for every event.
    upkeep_cycles: Mapping[EventType, int] = {}
    #: Unavoidable IP work per event type, ``{event_type: {ip: units}}``:
    #: the system compositor (SurfaceFlinger) re-composites every frame
    #: whether or not the app redrew anything, and the camera ISP
    #: processes every frame before the handler ever sees it — energy
    #: outside any scheme's reach.
    upkeep_ip_units: Mapping[EventType, Mapping[str, float]] = {}

    @classmethod
    def upkeep_cycles_for(cls, event_type: EventType) -> int:
        """Unavoidable pre-handler cycles for one event type."""
        return cls.upkeep_cycles.get(event_type, 0)

    @classmethod
    def upkeep_ip_units_for(cls, event_type: EventType) -> Mapping[str, float]:
        """Unavoidable IP work for one event type, per IP block."""
        return cls.upkeep_ip_units.get(event_type, {})

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.state = StateStore()
        self.screen: Dict[str, Any] = {}
        self.extern_source = ExternSource(seed=seed)
        self.build_state()

    # -- subclass API -----------------------------------------------------

    def build_state(self) -> None:
        """Declare every state field with its initial value."""
        raise NotImplementedError

    def on_event(self, ctx: HandlerContext) -> None:
        """Handle one event through the context (pure in ctx inputs)."""
        raise NotImplementedError

    def advance_engine(self, event: Event) -> None:
        """Engine-side bookkeeping that runs before the app handler.

        Real engines maintain scroll counters, timers, and cached
        digests outside the event handler (their cost sits in the
        per-event upkeep). State written here is ordinary game state —
        deterministic, replayed identically by the emulator — but it is
        not part of the handler's traced output, exactly like a system
        service's counters.
        """

    # -- framework ----------------------------------------------------------

    def process(self, event: Event) -> ProcessingTrace:
        """Run the handler for ``event`` and return its full trace."""
        if event.event_type not in self.handled_event_types:
            raise GameError(
                f"{self.name}: does not handle {event.event_type} events"
            )
        ctx = HandlerContext(event, self.state, self.screen, self.extern_source)
        self.on_event(ctx)
        return ctx.trace

    def apply_outputs(self, writes: Sequence[FieldWrite]) -> None:
        """Apply stored outputs without running the handler.

        This is the short-circuit path: a memoization hit replays the
        recorded writes directly into state/screen.
        """
        for write in writes:
            kind, _, name = write.name.partition(":")
            if kind == "hist":
                self.state.write(name, write.value, nbytes=write.nbytes)
            elif kind == "temp":
                self.screen[name] = write.value
            elif kind != "extern":
                raise GameError(f"cannot apply stored write {write.name!r}")

    def fresh(self) -> "Game":
        """A brand-new instance with identical initial conditions."""
        return type(self)(seed=self.seed)


#: Memoised :func:`mix_values` digests, keyed by the exact repr text
#: that is hashed — the same mixes recur heavily across devices (shared
#: state prefixes before each user's first gesture diverges them).
_MIX_CACHE: Dict[str, int] = {}
_MIX_CACHE_CAP = 262_144


def mix_values(*values: Any) -> int:
    """Deterministic pseudo-random mix of handler inputs.

    Games use this instead of an RNG wherever play needs variety (new
    candy colours, spawn positions): the result depends only on values
    the handler read through the context, preserving replayability.
    """
    text = repr(values)
    mixed = _MIX_CACHE.get(text)
    if mixed is None:
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        mixed = int.from_bytes(digest, "little")
        if len(_MIX_CACHE) < _MIX_CACHE_CAP:
            _MIX_CACHE[text] = mixed
    return mixed
