"""Executor contract: ordering, error propagation, and pool recovery.

The worker functions live at module level so the process pool can
pickle them; the failing ones coordinate through marker files because a
process pool cannot share in-memory state with the test.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import FleetError, WorkerCrashError
from repro.fleet import executors
from repro.fleet.executors import (
    PREFETCH,
    QueueFleetExecutor,
    SerialExecutor,
    make_executor,
)
from repro.fleet.telemetry import QUEUE_DEPTH, TelemetryBus


def _square(value):
    return value * value


def _slow_square(payload):
    value, delay_s = payload
    time.sleep(delay_s)
    return value * value


def _always_fails(payload):
    """Raise on every call, logging one line per call to a marker file."""
    value, marker_dir = payload
    with open(marker_dir / f"calls_{value}", "a") as log:
        log.write("called\n")
    raise ValueError(f"payload {value} is cursed")


def _fails_at_once_or_sleeps(payload):
    """Payload 0 raises at once; any other sleeps for its delay."""
    value, delay_s = payload
    if value == 0:
        raise ValueError("payload 0 fails at once")
    time.sleep(delay_s)
    return value


def _calls(marker_dir):
    """How many times ``_always_fails`` ran, over every payload."""
    return sum(
        len(path.read_text().splitlines())
        for path in marker_dir.glob("calls_*")
    )


def _crash_once(payload):
    """Kill the worker outright the first time the marker is seen.

    ``os._exit`` skips every handler, like an OOM kill or a segfault:
    the pool breaks and every future still in flight fails with it.
    """
    value, marker = payload
    if marker is not None and not marker.exists():
        marker.write_text("crashed")
        os._exit(1)
    return value * value


def _crash_payloads(marker_dir):
    """Six payloads; the worker that picks up the third one dies."""
    return [
        (value, marker_dir / "crashed" if value == 2 else None)
        for value in range(6)
    ]


def test_make_executor_dispatch():
    assert isinstance(make_executor(1), SerialExecutor)
    pool = make_executor(3)
    assert isinstance(pool, QueueFleetExecutor)
    assert pool.jobs == 3
    with pytest.raises(FleetError):
        make_executor(0)


def test_stream_yields_indexed_results():
    pairs = list(SerialExecutor().stream(_square, [3, 1, 2]))
    assert pairs == [(0, 9), (1, 1), (2, 4)]


def test_serial_returns_results_in_payload_order():
    assert SerialExecutor().run(_square, [3, 1, 2]) == [9, 1, 4]


def test_serial_raises_the_payload_error_without_retry(tmp_path):
    # A payload is a pure function of its input: a retry would raise
    # the same error again, so it surfaces at once, as itself.
    telemetry = TelemetryBus()
    with pytest.raises(ValueError, match="payload 1 is cursed"):
        SerialExecutor().run(
            _always_fails, [(1, tmp_path), (2, tmp_path)], telemetry=telemetry
        )
    assert _calls(tmp_path) == 1
    assert telemetry.counters.worker_failures == 0
    assert telemetry.counters.retries == 0


def test_shard_finished_carries_parent_measured_wall_time():
    # Wall time rides on the telemetry event, never on the result
    # object (results are pickled into checkpoints, which must stay
    # byte-stable across identical runs).
    telemetry = TelemetryBus()
    events = []
    telemetry.subscribe(events.append)
    SerialExecutor().run(_square, [2, 3], telemetry=telemetry)
    finished = [event for event in events if event.kind == "shard_finished"]
    assert len(finished) == 2
    for event in finished:
        assert event.payload["wall_s"] >= 0.0


def test_queue_executor_window_bounds_submission():
    assert QueueFleetExecutor(jobs=3).window == 3 * PREFETCH
    with pytest.raises(FleetError):
        QueueFleetExecutor(0)


def test_queue_executor_orders_results_despite_completion_order():
    executor = QueueFleetExecutor(jobs=3)
    payloads = [(4, 0.3), (3, 0.15), (2, 0.0)]
    results = executor.run(_slow_square, payloads)
    assert results == [16, 9, 4]


def _stream_within_window(executor, fn, payloads, **kwargs):
    """Consume ``executor.stream``, checking every yielded index is below
    (the oldest index not yet yielded) + ``executor.window``."""
    results, oldest = {}, 0
    for index, result in executor.stream(fn, payloads, **kwargs):
        assert index < oldest + executor.window, (index, oldest)
        results[index] = result
        while oldest in results:
            oldest += 1
    return results


def test_queue_window_holds_behind_a_slow_head():
    # The oldest payload sleeps while the rest return at once: the
    # window must wait for it rather than run the backlog past it.
    payloads = [(0, 1.0)] + [(value, 0.0) for value in range(1, 24)]
    results = _stream_within_window(
        QueueFleetExecutor(jobs=2), _slow_square, payloads
    )
    assert results == {value: value * value for value in range(24)}


def test_queue_window_holds_behind_a_retried_head(tmp_path):
    # The worker running the oldest payload dies: the rebuilt pool gets
    # it back at the head of the backlog, so the retry runs before any
    # index past the window is submitted.
    payloads = [(0, tmp_path / "crashed")] + [
        (value, None) for value in range(1, 24)
    ]
    telemetry = TelemetryBus()
    results = _stream_within_window(
        QueueFleetExecutor(jobs=2), _crash_once, payloads, telemetry=telemetry
    )
    assert results == {value: value * value for value in range(24)}
    assert telemetry.counters.worker_failures == 1
    assert telemetry.counters.retries >= 1


def test_queue_executor_emits_queue_depth_within_window():
    executor = QueueFleetExecutor(jobs=2)
    telemetry = TelemetryBus()
    events = []
    telemetry.subscribe(events.append)
    results = executor.run(_square, list(range(9)), telemetry=telemetry)
    assert results == [v * v for v in range(9)]
    depths = [
        event.payload["depth"] for event in events if event.kind == QUEUE_DEPTH
    ]
    assert depths, "queue executor must report its backlog"
    assert telemetry.counters.peak_queue_depth == max(depths)


def test_queue_executor_raises_the_payload_error_without_retry(tmp_path):
    # Both payloads fail; completion order decides which error the
    # worker pool reports first, and neither is run a second time.
    telemetry = TelemetryBus()
    with pytest.raises(ValueError, match="payload [12] is cursed"):
        QueueFleetExecutor(jobs=2).run(
            _always_fails, [(1, tmp_path), (2, tmp_path)], telemetry=telemetry
        )
    assert _calls(tmp_path) <= 2
    assert telemetry.counters.worker_failures == 0
    assert telemetry.counters.retries == 0


def test_queue_executor_raises_a_payload_error_without_waiting_out_the_window():
    # Payload 0 fails at once while payload 1 sleeps for 3 s: the error
    # surfaces as it arrives, and the sleeping worker is stopped.
    before = set(multiprocessing.active_children())
    started = time.monotonic()
    with pytest.raises(ValueError, match="payload 0 fails at once"):
        QueueFleetExecutor(jobs=2).run(
            _fails_at_once_or_sleeps, [(0, 0.0), (1, 3.0)]
        )
    assert time.monotonic() - started < 1.0
    assert set(multiprocessing.active_children()) - before == set()


def test_queue_executor_recovers_every_payload_from_a_pool_crash(tmp_path):
    telemetry = TelemetryBus()
    pairs = list(
        QueueFleetExecutor(jobs=2).stream(
            _crash_once, _crash_payloads(tmp_path), telemetry=telemetry
        )
    )
    # Every payload exactly once, including the one whose worker died.
    assert sorted(index for index, _ in pairs) == list(range(6))
    assert dict(pairs) == {value: value * value for value in range(6)}
    # The crash is one failure, charged once however many it took down.
    assert telemetry.counters.worker_failures == 1


def test_queue_executor_pool_crash_spends_the_retry_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(executors, "DEFAULT_RETRY_BUDGET", 0)
    with pytest.raises(WorkerCrashError, match="retry budget exhausted"):
        QueueFleetExecutor(jobs=2).run(_crash_once, _crash_payloads(tmp_path))
