"""TelemetryBus counters, throughput math, and the progress printer."""

from __future__ import annotations

import io
import tracemalloc

import pytest

from repro.fleet.telemetry import (
    LIVE_SHARDS,
    PEAK_RSS,
    QUEUE_DEPTH,
    RUN_FINISHED,
    RUN_STARTED,
    SHARD_FINISHED,
    SHARD_RETRIED,
    WORKER_FAILURE,
    TelemetryBus,
    progress_printer,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_counters_accumulate_by_kind():
    bus = TelemetryBus(clock=FakeClock())
    bus.emit(RUN_STARTED, devices=8, shards=4, jobs=2)
    bus.emit(SHARD_FINISHED, shard_index=0, events=50, devices=2)
    bus.emit(WORKER_FAILURE, shard_index=1, error="boom")
    bus.emit(SHARD_RETRIED, shard_index=1)
    bus.emit(SHARD_FINISHED, shard_index=1, events=30, devices=2)
    counters = bus.counters
    assert counters.shards_total == 4
    assert counters.shards_done == 2
    assert counters.shards_pending == 2
    assert counters.devices_done == 4
    assert counters.events_processed == 80
    assert counters.worker_failures == 1
    assert counters.retries == 1


def test_events_per_second_uses_injected_clock():
    clock = FakeClock()
    bus = TelemetryBus(clock=clock)
    bus.emit(SHARD_FINISHED, shard_index=0, events=200)
    clock.now += 4.0
    assert bus.events_per_second() == 50.0
    snapshot = bus.snapshot()
    assert snapshot["events_processed"] == 200
    assert snapshot["events_per_second"] == 50.0


def test_events_per_second_is_zero_at_zero_elapsed():
    """Regression: ~0 elapsed used to yield astronomically large (or
    ZeroDivisionError-adjacent) rates when snapshotting right after
    construction; the rate now clamps to 0.0 below the floor."""
    clock = FakeClock()
    bus = TelemetryBus(clock=clock)
    bus.emit(SHARD_FINISHED, shard_index=0, events=10_000)
    assert bus.events_per_second() == 0.0
    assert bus.snapshot()["events_per_second"] == 0.0
    clock.now += 1e-9  # still inside the floor
    assert bus.events_per_second() == 0.0
    clock.now += 0.5
    assert bus.events_per_second() == pytest.approx(10_000 / 0.5000000010)


def test_subscribers_see_every_event_in_order():
    bus = TelemetryBus(clock=FakeClock())
    seen = []
    bus.subscribe(seen.append)
    started = bus.emit(RUN_STARTED, shards=1)
    finished = bus.emit(SHARD_FINISHED, shard_index=0, events=1)
    assert seen == [started, finished]
    assert [event.kind for event in seen] == [RUN_STARTED, SHARD_FINISHED]


def test_bus_retains_no_events():
    # A fleet emits five events per shard and ``serve`` runs unbounded,
    # so the bus must not keep what it emits: 50,000 emits stay under
    # 1 MB (a retained history held ~16 MB).
    bus = TelemetryBus(clock=FakeClock())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(50_000):
            bus.emit(SHARD_FINISHED, shard_index=index, events=10, devices=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert bus.counters.shards_done == 50_000
    assert bus.counters.events_processed == 500_000


def test_gauges_track_high_water_marks():
    bus = TelemetryBus(clock=FakeClock())
    bus.emit(QUEUE_DEPTH, depth=3)
    bus.emit(QUEUE_DEPTH, depth=7)
    bus.emit(QUEUE_DEPTH, depth=2)  # falling edge must not lower the peak
    bus.emit(LIVE_SHARDS, count=4)
    bus.emit(LIVE_SHARDS, count=1)
    bus.emit(PEAK_RSS, bytes=1_000_000)
    bus.emit(PEAK_RSS, bytes=900_000)
    counters = bus.counters
    assert counters.peak_queue_depth == 7
    assert counters.peak_live_shards == 4
    assert counters.peak_rss_bytes == 1_000_000
    snapshot = bus.snapshot()
    assert snapshot["peak_queue_depth"] == 7
    assert snapshot["peak_live_shards"] == 4
    assert snapshot["peak_rss_bytes"] == 1_000_000


def test_fleet_engine_reports_gauges_through_the_bus(small_spec, small_package):
    from repro.fleet import FleetEngine

    bus = TelemetryBus()
    events = []
    bus.subscribe(events.append)
    FleetEngine(small_spec, package=small_package, cache=None, telemetry=bus).run()
    kinds = [event.kind for event in events]
    assert QUEUE_DEPTH in kinds
    assert LIVE_SHARDS in kinds
    assert PEAK_RSS in kinds
    assert bus.counters.peak_rss_bytes > 0
    finished = next(event for event in events if event.kind == RUN_FINISHED)
    assert finished.payload["peak_rss_bytes"] == bus.counters.peak_rss_bytes
    assert finished.payload["peak_live_shards"] == bus.counters.peak_live_shards


def test_progress_printer_renders_lifecycle_lines():
    bus = TelemetryBus(clock=FakeClock())
    out = io.StringIO()
    bus.subscribe(progress_printer(out))
    bus.emit(RUN_STARTED, devices=4, shards=2, jobs=2)
    bus.emit(SHARD_FINISHED, shard_index=0, events=10, wall_s=0.5)
    bus.emit(WORKER_FAILURE, shard_index=1, error="ValueError('x')")
    bus.emit(SHARD_RETRIED, shard_index=1)
    bus.emit(RUN_FINISHED, events=10, events_per_second=20.0)
    text = out.getvalue()
    assert "run started: 4 devices in 2 shards" in text
    assert "shard 0 done (10 events" in text
    assert "worker failure on shard 1" in text
    assert "retrying shard 1" in text
    assert "run finished: 10 events" in text
