"""Fleet telemetry bus: progress, throughput, and failure counters.

The engine and executors publish structured events here instead of
printing; anything that wants live progress (the CLI, a test, a future
dashboard) subscribes. Telemetry is *observability only* — nothing in
the deterministic aggregate report may come from this module, because
wall-clock throughput and worker-failure counts legitimately differ
between runs of the same spec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

#: Event kinds the engine/executors emit.
RUN_STARTED = "run_started"
SHARD_STARTED = "shard_started"
SHARD_FINISHED = "shard_finished"
SHARD_RETRIED = "shard_retried"
WORKER_FAILURE = "worker_failure"
RUN_FINISHED = "run_finished"
#: Gauge kinds — instantaneous values whose peaks the bus tracks.
#: ``queue_depth`` (payload ``depth``): work submitted or backlogged
#: but not yet reduced, emitted by the executors; ``live_shards``
#: (payload ``count``): shard results the engine holds in memory;
#: ``peak_rss_bytes`` (payload ``bytes``): the process's resident-set
#: high-water mark sampled by the engine.
QUEUE_DEPTH = "queue_depth"
LIVE_SHARDS = "live_shards"
PEAK_RSS = "peak_rss_bytes"
#: Service-loop lifecycle events (see :mod:`repro.service.daemon`).
CYCLE_STARTED = "cycle_started"
STAGE_FINISHED = "stage_finished"
CYCLE_FINISHED = "cycle_finished"

#: Below this elapsed wall time the throughput rate is meaningless:
#: dividing a nonzero event count by a few nanoseconds of clock skew
#: reports absurd rates on the first snapshot of a run or cycle.
MIN_RATE_ELAPSED_S = 1e-6


@dataclass(frozen=True)
class TelemetryEvent:
    """One bus message."""

    kind: str
    shard_index: Optional[int]
    payload: Mapping[str, Any]
    elapsed_s: float


@dataclass
class FleetCounters:
    """Monotonic counters accumulated over one run."""

    shards_total: int = 0
    shards_done: int = 0
    devices_done: int = 0
    events_processed: int = 0
    worker_failures: int = 0
    retries: int = 0
    #: High-water marks of the streaming gauges (see QUEUE_DEPTH,
    #: LIVE_SHARDS, PEAK_RSS): deepest executor queue, most shard
    #: results held live by the engine, largest resident set sampled.
    peak_queue_depth: int = 0
    peak_live_shards: int = 0
    peak_rss_bytes: int = 0

    @property
    def shards_pending(self) -> int:
        """Shards not yet completed."""
        return max(0, self.shards_total - self.shards_done)


class TelemetryBus:
    """Pub/sub fan-out with built-in progress counters.

    The bus keeps no event history: counters are folded as events
    arrive and each event is handed to the subscribers, so a run of any
    length holds constant telemetry memory. A caller that wants the
    events subscribes (``bus.subscribe(events.append)``).

    Parameters
    ----------
    clock:
        Monotonic time source; injectable so tests can assert
        throughput math without sleeping.
    """

    # Wall-clock default is the point of the bus: throughput display is
    # observability-only and excluded from the deterministic report.
    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,  # lint: ignore[det-wallclock]
    ) -> None:
        self._clock = clock
        self._start = clock()
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []
        self.counters = FleetCounters()

    # -- subscription ------------------------------------------------------

    def subscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        """Register a callback invoked for every emitted event."""
        self._subscribers.append(callback)

    # -- emission ----------------------------------------------------------

    def emit(
        self, kind: str, shard_index: Optional[int] = None, **payload: Any
    ) -> TelemetryEvent:
        """Publish one event, updating the counters it implies."""
        event = TelemetryEvent(
            kind=kind,
            shard_index=shard_index,
            payload=dict(payload),
            elapsed_s=self.elapsed_seconds(),
        )
        if kind == RUN_STARTED:
            self.counters.shards_total = int(payload.get("shards", 0))
        elif kind == SHARD_FINISHED:
            self.counters.shards_done += 1
            self.counters.devices_done += int(payload.get("devices", 0))
            self.counters.events_processed += int(payload.get("events", 0))
        elif kind == WORKER_FAILURE:
            self.counters.worker_failures += 1
        elif kind == SHARD_RETRIED:
            self.counters.retries += 1
        elif kind == QUEUE_DEPTH:
            self.counters.peak_queue_depth = max(
                self.counters.peak_queue_depth, int(payload.get("depth", 0))
            )
        elif kind == LIVE_SHARDS:
            self.counters.peak_live_shards = max(
                self.counters.peak_live_shards, int(payload.get("count", 0))
            )
        elif kind == PEAK_RSS:
            self.counters.peak_rss_bytes = max(
                self.counters.peak_rss_bytes, int(payload.get("bytes", 0))
            )
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    # -- derived metrics ---------------------------------------------------

    def elapsed_seconds(self) -> float:
        """Wall time since the bus was created."""
        return self._clock() - self._start

    def events_per_second(self) -> float:
        """Fleet-wide simulated-event throughput so far.

        Returns 0.0 (rather than a division error or a nonsense
        rate) until at least :data:`MIN_RATE_ELAPSED_S` of wall time
        has elapsed.
        """
        elapsed = self.elapsed_seconds()
        if elapsed < MIN_RATE_ELAPSED_S:
            return 0.0
        return self.counters.events_processed / elapsed

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of the counters (for logs and tests)."""
        return {
            "shards_total": self.counters.shards_total,
            "shards_done": self.counters.shards_done,
            "devices_done": self.counters.devices_done,
            "events_processed": self.counters.events_processed,
            "worker_failures": self.counters.worker_failures,
            "retries": self.counters.retries,
            "peak_queue_depth": self.counters.peak_queue_depth,
            "peak_live_shards": self.counters.peak_live_shards,
            "peak_rss_bytes": self.counters.peak_rss_bytes,
            "events_per_second": self.events_per_second(),
        }


def progress_printer(out) -> Callable[[TelemetryEvent], None]:
    """A subscriber that renders one line per lifecycle event.

    Intended for the CLI's stderr; deliberately excluded from stdout so
    the deterministic report remains byte-comparable across runs.
    """

    def _print(event: TelemetryEvent) -> None:
        if event.kind == RUN_STARTED:
            print(
                f"[fleet] run started: {event.payload.get('devices', '?')} devices "
                f"in {event.payload.get('shards', '?')} shards "
                f"x {event.payload.get('jobs', '?')} jobs",
                file=out,
            )
        elif event.kind == SHARD_FINISHED:
            print(
                f"[fleet] shard {event.shard_index} done "
                f"({event.payload.get('events', 0)} events, "
                f"{event.payload.get('wall_s', 0.0):.2f}s)",
                file=out,
            )
        elif event.kind == WORKER_FAILURE:
            print(
                f"[fleet] worker failure on shard {event.shard_index}: "
                f"{event.payload.get('error', 'unknown')}",
                file=out,
            )
        elif event.kind == SHARD_RETRIED:
            print(f"[fleet] retrying shard {event.shard_index}", file=out)
        elif event.kind == RUN_FINISHED:
            print(
                f"[fleet] run finished: {event.payload.get('events', 0)} events "
                f"in {event.elapsed_s:.2f}s "
                f"({event.payload.get('events_per_second', 0.0):.0f} ev/s)",
                file=out,
            )

    return _print
