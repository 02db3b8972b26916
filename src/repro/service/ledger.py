"""The daemon's cycle ledger: a replayable journal of every cycle.

One ``ledger.json`` per service run directory records, for each cycle,
the payload of every completed stage. The ledger is the daemon's
single source of truth for resume: a stage whose record exists is
*replayed* from the ledger instead of re-executed, so a run killed at
any point and restarted converges on the same document.

The bytes are part of the determinism contract: canonical JSON (sorted
keys, fixed indentation, trailing newline) with **no wall-clock
fields** — wall time is telemetry, never ledger. An interrupted-and-
resumed run must produce a ledger byte-identical to an uninterrupted
one, which is what the crash-resume tests pin.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ServiceError
from repro.storage import atomic_write

#: Bump on incompatible changes to the ledger document layout.
LEDGER_FORMAT_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Render a JSON document in the ledger's canonical byte form."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def canonicalize(payload: Any) -> Any:
    """Round-trip a payload through JSON so equality means byte equality.

    Tuples become lists, dict key order stops mattering, and anything
    non-serialisable (which must never reach the ledger) fails loudly
    here instead of at persist time.
    """
    try:
        return json.loads(json.dumps(payload, sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"ledger payload is not JSON-serialisable: {exc}") from exc


class CycleLedger:
    """Persistent per-cycle stage journal for one service run."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._cycles: List[Dict[str, Any]] = []
        if self.path.exists():
            self._load()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ServiceError(f"unreadable cycle ledger {self.path}: {exc}") from exc
        if document.get("format_version") != LEDGER_FORMAT_VERSION:
            raise ServiceError(
                f"cycle ledger format {document.get('format_version')!r} does "
                f"not match this build ({LEDGER_FORMAT_VERSION})"
            )
        cycles = document.get("cycles")
        if not isinstance(cycles, list):
            raise ServiceError(f"malformed cycle ledger {self.path}")
        for position, cycle in enumerate(cycles):
            if cycle.get("index") != position:
                raise ServiceError(
                    f"cycle ledger {self.path} is not dense at position {position}"
                )
        self._cycles = cycles

    def _persist(self) -> None:
        atomic_write(self.path, canonical_json(self.to_dict()).encode("utf-8"))

    def to_dict(self) -> Dict[str, Any]:
        """The full canonical document."""
        return {
            "format_version": LEDGER_FORMAT_VERSION,
            "cycles": self._cycles,
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (the byte-identity surface)."""
        return canonical_json(self.to_dict())

    # -- cycle lifecycle ---------------------------------------------------

    @property
    def cycle_count(self) -> int:
        """Cycles begun so far (complete or not)."""
        return len(self._cycles)

    def completed_count(self) -> int:
        """Cycles marked complete."""
        return sum(1 for cycle in self._cycles if cycle.get("complete"))

    def next_index(self) -> int:
        """The cycle the daemon should run next.

        The in-flight (last, incomplete) cycle if there is one — resume
        picks up exactly where the crash happened — otherwise one past
        the last complete cycle.
        """
        if self._cycles and not self._cycles[-1].get("complete"):
            return self._cycles[-1]["index"]
        return len(self._cycles)

    def cycle(self, index: int) -> Optional[Dict[str, Any]]:
        """One cycle's record, or ``None`` if never begun."""
        if 0 <= index < len(self._cycles):
            return self._cycles[index]
        return None

    def begin_cycle(self, index: int) -> Dict[str, Any]:
        """Open (or reopen) the record for one cycle."""
        existing = self.cycle(index)
        if existing is not None:
            return existing
        if index != len(self._cycles):
            raise ServiceError(
                f"cannot begin cycle {index}: ledger holds "
                f"{len(self._cycles)} cycles"
            )
        record: Dict[str, Any] = {"index": index, "complete": False, "stages": {}}
        self._cycles.append(record)
        self._persist()
        return record

    def complete_cycle(self, index: int) -> None:
        """Mark one cycle finished (idempotent)."""
        record = self.cycle(index)
        if record is None:
            raise ServiceError(f"cannot complete cycle {index}: never begun")
        if not record["complete"]:
            record["complete"] = True
            self._persist()

    # -- stage records -----------------------------------------------------

    def stage(self, index: int, name: str) -> Optional[Any]:
        """A stage's recorded payload, or ``None`` if not yet recorded."""
        record = self.cycle(index)
        if record is None:
            return None
        return record["stages"].get(name)

    def record_stage(self, index: int, name: str, payload: Any) -> Any:
        """Journal one stage's payload; returns the canonicalised form.

        Recording is the stage's commit point: every side effect the
        stage performs must be durable (or idempotently re-executable)
        *before* this call, because a resumed run replays recorded
        stages from the ledger instead of re-running them.
        """
        record = self.cycle(index)
        if record is None:
            raise ServiceError(f"cannot record stage for cycle {index}: never begun")
        if record["complete"]:
            raise ServiceError(f"cycle {index} is already complete")
        payload = canonicalize(payload)
        record["stages"][name] = payload
        self._persist()
        return payload
