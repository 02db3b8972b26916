"""Addressable game-state store.

Game state is the home of the paper's ``In.History`` / ``Out.History``
categories: values produced by earlier event processing and consumed by
later events. Fields are named, typed, and carry an explicit byte size
that may change on write — the camera surface map of an AR game grows
with scene clutter (paper Fig. 7c), which is exactly why History inputs
cannot be indexed from static locations.

Reads and writes can be observed through a registered observer; the
handler context uses this to build the per-event I/O trace without the
game logic having to do any bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import StateError


@dataclass
class StateField:
    """One named state cell: current value and its byte size."""

    name: str
    value: Any
    nbytes: int

    def snapshot(self) -> Tuple[Any, int]:
        """Immutable (value, nbytes) pair."""
        return (self.value, self.nbytes)


#: Observer signature: (kind, name, value, nbytes) with kind in
#: {"read", "write"}.
StateObserver = Callable[[str, str, Any, int], None]


class StateStore:
    """Named, observed, byte-accounted game-state cells."""

    def __init__(self) -> None:
        self._fields: Dict[str, StateField] = {}
        self._observer: Optional[StateObserver] = None
        #: Every field's size in declaration order, kept until a size
        #: changes: sizes rarely do, so :meth:`cells` states share one.
        self._sizes: Optional[Tuple[int, ...]] = None

    # -- declaration ---------------------------------------------------

    def declare(self, name: str, value: Any, nbytes: int) -> None:
        """Create a field with its initial value (not observed)."""
        if name in self._fields:
            raise StateError(f"state field {name!r} already declared")
        if nbytes <= 0:
            raise StateError(f"state field {name!r} needs a positive size, got {nbytes}")
        self._fields[name] = StateField(name=name, value=value, nbytes=nbytes)
        self._sizes = None

    def has(self, name: str) -> bool:
        """Whether a field exists."""
        return name in self._fields

    @classmethod
    def from_cells(cls, cells: "Tuple[Tuple[str, Any, int], ...]") -> "StateStore":
        """Rebuild a store from ``(name, value, nbytes)`` triples.

        The game-template clone path uses this to restore a cached
        initial state without re-running ``build_state`` (which may
        regenerate expensive content like dealt boards). Cells must come
        from a store built through :meth:`declare`, so the invariants
        (unique names, positive sizes) already hold.
        """
        store = cls()
        fields = store._fields
        for name, value, nbytes in cells:
            fields[name] = StateField(name=name, value=value, nbytes=nbytes)
        return store

    # -- observation ---------------------------------------------------

    def set_observer(self, observer: Optional[StateObserver]) -> None:
        """Install (or clear) the read/write observer."""
        self._observer = observer

    # -- access --------------------------------------------------------

    def read(self, name: str) -> Any:
        """Read a field's value, notifying the observer."""
        field = self._require(name)
        if self._observer is not None:
            self._observer("read", name, field.value, field.nbytes)
        return field.value

    def peek(self, name: str) -> Any:
        """Read a field's value without notifying the observer.

        Used by the emulator's memory-dump snapshots and by the
        useless-event detector; never by game logic.
        """
        return self._require(name).value

    def get(self, name: str, default: Any = None) -> Any:
        """Unobserved read returning ``default`` for unknown fields.

        The SNIP runtime's compiled ``hist:`` key readers use this where
        the scalar path goes through a full :meth:`snapshot` dict and
        ``.get`` — one probe instead of materialising every field.
        """
        field = self._fields.get(name)
        return default if field is None else field.value

    def size_of(self, name: str) -> int:
        """Current byte size of a field."""
        return self._require(name).nbytes

    def write(self, name: str, value: Any, nbytes: Optional[int] = None) -> None:
        """Write a field, optionally resizing it, notifying the observer."""
        field = self._require(name)
        if nbytes is not None and nbytes != field.nbytes:
            if nbytes <= 0:
                raise StateError(f"state field {name!r} resize must be positive, got {nbytes}")
            field.nbytes = nbytes
            self._sizes = None
        field.value = value
        if self._observer is not None:
            self._observer("write", name, field.value, field.nbytes)

    # -- bulk ----------------------------------------------------------

    def cells(self) -> Tuple[Tuple[Any, ...], Tuple[int, ...]]:
        """Every field's value and every field's size, in declaration
        order (not observed): the handler memo's view of the store. The
        sizes tuple is shared until a size changes."""
        fields = self._fields.values()
        sizes = self._sizes
        if sizes is None:
            sizes = self._sizes = tuple([field.nbytes for field in fields])
        return tuple([field.value for field in fields]), sizes

    def restore(self, values: Iterable[Any], sizes: Tuple[int, ...]) -> None:
        """Set every field from :meth:`cells` of a store with the same
        fields (not observed)."""
        for field, value, nbytes in zip(self._fields.values(), values, sizes):
            field.value = value
            field.nbytes = nbytes
        self._sizes = sizes

    def field_names(self) -> Tuple[str, ...]:
        """All declared field names, in declaration order."""
        return tuple(self._fields)

    def snapshot(self) -> Dict[str, Tuple[Any, int]]:
        """Full memory dump: {name: (value, nbytes)} (not observed).

        This is the emulator's stand-in for the Android heap-profiler
        dump the paper takes per event.
        """
        return {name: field.snapshot() for name, field in self._fields.items()}

    def total_bytes(self) -> int:
        """Current total state size."""
        return sum(field.nbytes for field in self._fields.values())

    def __iter__(self) -> Iterator[StateField]:
        return iter(self._fields.values())

    def __len__(self) -> int:
        return len(self._fields)

    def _require(self, name: str) -> StateField:
        try:
            return self._fields[name]
        except KeyError:
            raise StateError(f"unknown state field {name!r}") from None
