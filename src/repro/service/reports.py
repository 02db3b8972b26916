"""The replayable on-disk device-report queue.

Devices (simulated by the ship-stage fleet) report per-session probe
outcomes — hits, misses, event counts — and the daemon's ingest stage
consumes them to decide which sessions to re-profile. The queue is a
directory of numbered batch files, written atomically and deleted only
on acknowledgement, so a daemon killed between producing and consuming
a batch replays it instead of losing it.

Batches carry a ``sequence`` chosen by the producer (the daemon uses
its cycle index), which makes re-enqueueing after a crash an idempotent
overwrite with identical bytes rather than a duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import ServiceError
from repro.storage import read_json, write_json

#: Bump on incompatible changes to the batch-file layout.
BATCH_FORMAT_VERSION = 1

_BATCH_PREFIX = "batch_"
_BATCH_SUFFIX = ".json"


@dataclass(frozen=True)
class DeviceReport:
    """What one device uplinks to the service after its sessions."""

    device_id: int
    archetype: str
    cohort: str
    sessions: int
    events: int
    hits: int
    misses: int

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {
            "device_id": self.device_id,
            "archetype": self.archetype,
            "cohort": self.cohort,
            "sessions": self.sessions,
            "events": self.events,
            "hits": self.hits,
            "misses": self.misses,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DeviceReport":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                device_id=int(payload["device_id"]),
                archetype=str(payload["archetype"]),
                cohort=str(payload["cohort"]),
                sessions=int(payload["sessions"]),
                events=int(payload["events"]),
                hits=int(payload["hits"]),
                misses=int(payload["misses"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed device report: {exc}") from exc

    @classmethod
    def from_result(cls, result) -> "DeviceReport":
        """Distil one fleet :class:`~repro.fleet.work.DeviceResult`."""
        return cls(
            device_id=result.device_id,
            archetype=result.archetype,
            cohort=result.cohort,
            sessions=result.sessions,
            events=result.events,
            hits=result.hits,
            misses=result.misses,
        )


@dataclass(frozen=True)
class ReportBatch:
    """One queue entry: every device report from one producing cycle."""

    sequence: int
    producer_cycle: int
    reports: Tuple[DeviceReport, ...]

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {
            "format_version": BATCH_FORMAT_VERSION,
            "sequence": self.sequence,
            "producer_cycle": self.producer_cycle,
            "reports": [report.to_dict() for report in self.reports],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReportBatch":
        """Inverse of :meth:`to_dict`."""
        if payload.get("format_version") != BATCH_FORMAT_VERSION:
            raise ServiceError(
                f"unsupported report-batch format "
                f"{payload.get('format_version')!r}"
            )
        try:
            return cls(
                sequence=int(payload["sequence"]),
                producer_cycle=int(payload["producer_cycle"]),
                reports=tuple(
                    DeviceReport.from_dict(report)
                    for report in payload["reports"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed report batch: {exc}") from exc


class ReportQueue:
    """Directory-backed batch queue with at-least-once delivery."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, sequence: int) -> Path:
        """The file holding one batch."""
        return self.root / f"{_BATCH_PREFIX}{sequence:08d}{_BATCH_SUFFIX}"

    def enqueue(
        self,
        reports: Sequence[DeviceReport],
        producer_cycle: int,
        sequence: int,
    ) -> ReportBatch:
        """Write one batch atomically.

        An existing file at the same sequence is overwritten — the
        producer owns its sequence numbers, so a crash-replayed enqueue
        lands the same bytes instead of duplicating the batch.
        """
        batch = ReportBatch(
            sequence=sequence,
            producer_cycle=producer_cycle,
            reports=tuple(reports),
        )
        write_json(self.path(sequence), batch.to_dict())
        return batch

    def pending(self) -> List[int]:
        """Unacknowledged batch sequences, oldest first."""
        sequences = []
        for path in self.root.glob(f"{_BATCH_PREFIX}*{_BATCH_SUFFIX}"):
            stem = path.name[len(_BATCH_PREFIX):-len(_BATCH_SUFFIX)]
            try:
                sequences.append(int(stem))
            except ValueError:
                raise ServiceError(f"stray file in report queue: {path}") from None
        return sorted(sequences)

    def depth(self) -> int:
        """How many batches are waiting (the backpressure signal)."""
        return len(self.pending())

    def load(self, sequence: int) -> ReportBatch:
        """Read one pending batch."""
        path = self.path(sequence)
        batch = ReportBatch.from_dict(read_json(path, ServiceError, "report batch"))
        if batch.sequence != sequence:
            raise ServiceError(
                f"report batch {path} carries sequence {batch.sequence}"
            )
        return batch

    def ack(self, sequence: int) -> None:
        """Acknowledge (delete) one batch; already-gone is a no-op.

        Idempotence matters for resume: the ingest stage acks its
        claimed sequences after journalling them, so a replayed ingest
        re-acks sequences that may already be deleted.
        """
        try:
            self.path(sequence).unlink()
        except OSError:
            pass
