"""Executor contract: ordering, retries, budgets, and pool recovery.

The worker functions live at module level so the process pool can
pickle them; the flaky ones coordinate through marker files because a process
pool cannot share in-memory state with the test.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import FleetError, WorkerCrashError
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


def _always_fails(value):
    raise ValueError(f"payload {value} is cursed")


def _flaky(payload):
    """Fail the first time each payload is seen, succeed after."""
    value, marker_dir = payload
    marker = marker_dir / f"seen_{value}"
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError(f"first attempt at {value}")
    return value * value


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
    executor = SerialExecutor()
    collected = []
    results = executor.run(
        _square, [3, 1, 2], on_result=lambda i, r: collected.append((i, r))
    )
    assert results == [9, 1, 4]
    assert collected == [(0, 9), (1, 1), (2, 4)]


def test_serial_retries_and_counts_failures(tmp_path):
    executor = SerialExecutor()
    telemetry = TelemetryBus()
    results = executor.run(
        _flaky, [(2, tmp_path), (5, tmp_path)], telemetry=telemetry
    )
    assert results == [4, 25]
    assert telemetry.counters.worker_failures == 2
    assert telemetry.counters.retries == 2


def test_shard_finished_carries_parent_measured_wall_time():
    # Wall time rides on the telemetry event, never on the result
    # object (results are pickled into checkpoints, which must stay
    # byte-stable across identical runs).
    telemetry = TelemetryBus()
    SerialExecutor().run(_square, [2, 3], telemetry=telemetry)
    finished = [
        event for event in telemetry.history if event.kind == "shard_finished"
    ]
    assert len(finished) == 2
    for event in finished:
        assert event.payload["wall_s"] >= 0.0


def test_serial_raises_when_budget_exhausted():
    executor = SerialExecutor()
    with pytest.raises(WorkerCrashError, match="retry budget exhausted"):
        executor.run(_always_fails, [1], retry_budget=2)


def test_negative_budget_rejected():
    with pytest.raises(FleetError):
        SerialExecutor().run(_square, [1], retry_budget=-1)


def test_queue_executor_window_bounds_submission():
    assert QueueFleetExecutor(jobs=3).window == 3 * PREFETCH
    with pytest.raises(FleetError):
        QueueFleetExecutor(0)


def test_queue_executor_orders_results_despite_completion_order():
    executor = QueueFleetExecutor(jobs=3)
    payloads = [(4, 0.3), (3, 0.15), (2, 0.0)]
    results = executor.run(_slow_square, payloads)
    assert results == [16, 9, 4]


def test_queue_executor_emits_queue_depth_within_window():
    executor = QueueFleetExecutor(jobs=2)
    telemetry = TelemetryBus()
    results = executor.run(_square, list(range(9)), telemetry=telemetry)
    assert results == [v * v for v in range(9)]
    depths = [
        event.payload["depth"]
        for event in telemetry.history
        if event.kind == QUEUE_DEPTH
    ]
    assert depths, "queue executor must report its backlog"
    assert telemetry.counters.peak_queue_depth == max(depths)


def test_queue_executor_retries_worker_exceptions(tmp_path):
    executor = QueueFleetExecutor(jobs=2)
    telemetry = TelemetryBus()
    results = executor.run(
        _flaky,
        [(2, tmp_path), (3, tmp_path), (4, tmp_path)],
        telemetry=telemetry,
        retry_budget=3,
    )
    assert results == [4, 9, 16]
    assert telemetry.counters.worker_failures == 3
    assert telemetry.counters.retries == 3


def test_queue_executor_raises_when_budget_exhausted():
    executor = QueueFleetExecutor(jobs=2)
    with pytest.raises(WorkerCrashError, match="retry budget exhausted"):
        executor.run(_always_fails, [1, 2], retry_budget=1)


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


def test_queue_executor_pool_crash_spends_the_retry_budget(tmp_path):
    with pytest.raises(WorkerCrashError, match="retry budget exhausted"):
        QueueFleetExecutor(jobs=2).run(
            _crash_once, _crash_payloads(tmp_path), retry_budget=0
        )
