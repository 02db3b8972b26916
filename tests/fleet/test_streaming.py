"""Streaming reduction: equivalence, resume, labels, and gauges.

The acceptance property of the streaming engine: however shard results
are scheduled, buffered, or resumed, the rendered :class:`FleetReport`
(text and JSON) is byte-identical to the serial in-order run — and the
engine only re-executes work that was never folded.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.fleet import (
    CensusAccumulator,
    CheckpointStore,
    FleetEngine,
    QueueFleetExecutor,
    SerialExecutor,
    TelemetryBus,
    TotalsAccumulator,
    canonical_device_results,
    make_executor,
)
from repro.fleet.telemetry import (
    LIVE_SHARDS,
    PEAK_RSS,
    RUN_STARTED,
    SHARD_FINISHED,
    SHARD_STARTED,
)
from repro.fleet.work import run_shard


class ReversingExecutor(SerialExecutor):
    """Serial executor that reports results in *reverse* completion
    order — the worst case for the engine's reorder buffer."""

    def stream(self, fn, payloads, telemetry=None):
        collected = list(super().stream(fn, payloads, telemetry=telemetry))
        yield from reversed(collected)


class InterruptingExecutor(SerialExecutor):
    """Dies after streaming ``limit`` payloads (ctrl-C mid-sweep)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def stream(self, fn, payloads, telemetry=None):
        inner = super().stream(fn, payloads, telemetry=telemetry)
        for count, item in enumerate(inner):
            if count >= self.limit:
                raise KeyboardInterrupt("simulated interrupt")
            yield item


def _run_shard_slow_head(task):
    """``run_shard`` with shard 0 held back, so later shards finish first."""
    if task.shard_index == 0:
        time.sleep(1.0)
    return run_shard(task)


class SlowHeadQueueExecutor(QueueFleetExecutor):
    """Pool executor whose first shard completes after the others."""

    def stream(self, fn, payloads, telemetry=None):
        assert fn is run_shard
        return super().stream(_run_shard_slow_head, payloads, telemetry=telemetry)


@pytest.fixture(scope="module")
def reference(small_spec, small_package):
    """The serial in-order run every schedule must reproduce."""
    return FleetEngine(small_spec, package=small_package, cache=None).run()


def _run(small_spec, small_package, **kwargs):
    return FleetEngine(
        small_spec, package=small_package, cache=None, **kwargs
    ).run()


def test_parallel_jobs_render_identically(small_spec, small_package, reference):
    parallel = _run(small_spec, small_package, executor=make_executor(4))
    assert parallel.to_text() == reference.to_text()
    assert parallel.to_json() == reference.to_json()


def test_queue_executor_renders_identically(small_spec, small_package, reference):
    queued = _run(
        small_spec, small_package, executor=QueueFleetExecutor(jobs=2)
    )
    assert queued.to_text() == reference.to_text()
    assert queued.to_json() == reference.to_json()


def test_reversed_completion_folds_through_the_buffer_and_matches(
    small_spec, small_package, reference
):
    # Reverse completion order forces every shard through the reorder
    # buffer before the first one can fold.
    report = _run(small_spec, small_package, executor=ReversingExecutor())
    assert report.to_text() == reference.to_text()
    assert report.to_json() == reference.to_json()


def test_queue_window_bounds_the_reorder_buffer(
    small_spec, small_package, reference
):
    # One device per shard and a slow first shard: later shards finish
    # first and wait in the buffer, which the executor's anchored window
    # keeps at most ``window`` deep.
    executor = SlowHeadQueueExecutor(jobs=2)
    telemetry = TelemetryBus()
    report = _run(
        dataclasses.replace(small_spec, shard_size=1),
        small_package,
        executor=executor,
        telemetry=telemetry,
    )
    assert report.to_json() == reference.to_json()
    assert 1 <= telemetry.counters.peak_live_shards <= executor.window


def test_shard_observer_sees_every_shard_in_fold_order(
    small_spec, small_package, reference
):
    # The observer hangs off the fold site, so even reverse completion
    # (every shard through the reorder buffer) yields index order —
    # this is what hands the serve daemon a deterministic report
    # stream.
    seen = []
    report = _run(
        small_spec,
        small_package,
        executor=ReversingExecutor(),
        shard_observer=lambda shard: seen.append(shard.shard_index),
    )
    assert seen == list(range(small_spec.shard_count))
    assert report.to_json() == reference.to_json()


def test_shard_observer_covers_resumed_shards(
    tmp_path, small_spec, small_package
):
    run_dir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        _run(
            small_spec,
            small_package,
            executor=InterruptingExecutor(limit=2),
            checkpoint=run_dir,
        )
    # Resume replays the checkpointed shards through the same fold
    # path, so the observer still sees the complete, ordered stream.
    seen = []
    _run(
        small_spec,
        small_package,
        checkpoint=run_dir,
        shard_observer=lambda shard: seen.append(shard.shard_index),
    )
    assert seen == list(range(small_spec.shard_count))


def test_streamed_report_matches_batch_reduction(
    small_shards, small_spec, reference
):
    totals, census = TotalsAccumulator(), CensusAccumulator()
    for device in canonical_device_results(small_shards, small_spec):
        totals.update(device)
        census.update(device)
    assert reference.totals == totals.finalize()
    assert reference.census == census.finalize()


def test_resume_folds_checkpointed_shards_without_rerunning(
    tmp_path, small_spec, small_package, reference
):
    run_dir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        _run(
            small_spec,
            small_package,
            executor=InterruptingExecutor(limit=2),
            checkpoint=run_dir,
        )
    assert len(CheckpointStore(run_dir).completed_indices()) == 2

    telemetry = TelemetryBus()
    events = []
    telemetry.subscribe(events.append)
    resumed = _run(
        small_spec, small_package, checkpoint=run_dir, telemetry=telemetry
    )
    assert resumed.to_text() == reference.to_text()
    assert resumed.to_json() == reference.to_json()
    started = next(event for event in events if event.kind == RUN_STARTED)
    assert started.payload["resumed"] == 2
    # Only the unfolded shards were re-executed.
    assert telemetry.counters.shards_done == small_spec.shard_count - 2


def test_resumed_run_labels_telemetry_with_shard_indices(
    tmp_path, small_spec, small_package
):
    # The resumed task list skips the checkpointed shards 0-1, so its
    # positions are not shard numbers; telemetry must name the shards.
    run_dir = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        _run(
            small_spec,
            small_package,
            executor=InterruptingExecutor(limit=2),
            checkpoint=run_dir,
        )
    telemetry = TelemetryBus()
    events = []
    telemetry.subscribe(events.append)
    _run(small_spec, small_package, checkpoint=run_dir, telemetry=telemetry)
    fresh = list(range(2, small_spec.shard_count))
    for kind in (SHARD_STARTED, SHARD_FINISHED):
        labels = [event.shard_index for event in events if event.kind == kind]
        assert labels == fresh, kind


def test_corrupt_checkpoint_shard_is_evicted_and_rerun(
    tmp_path, small_spec, small_package, reference
):
    run_dir = tmp_path / "run"
    first = _run(small_spec, small_package, checkpoint=run_dir)
    assert first.to_text() == reference.to_text()
    store = CheckpointStore(run_dir)
    store.shard_path(1).write_bytes(b"truncated garbage")

    telemetry = TelemetryBus()
    events = []
    telemetry.subscribe(events.append)
    rerun = _run(
        small_spec, small_package, checkpoint=run_dir, telemetry=telemetry
    )
    assert rerun.to_text() == reference.to_text()
    started = next(event for event in events if event.kind == RUN_STARTED)
    assert started.payload["corrupt_evictions"] == 1
    assert started.payload["resumed"] == small_spec.shard_count - 1
    assert telemetry.counters.shards_done == 1  # only the evicted shard


def test_engine_emits_live_shard_and_rss_gauges(small_spec, small_package):
    telemetry = TelemetryBus()
    events = []
    telemetry.subscribe(events.append)
    _run(small_spec, small_package, telemetry=telemetry)
    kinds = {event.kind for event in events}
    assert LIVE_SHARDS in kinds
    assert PEAK_RSS in kinds
    assert telemetry.counters.shards_done == small_spec.shard_count
    assert telemetry.counters.peak_rss_bytes > 0
    # High-water gauging: every insert is sampled before the drain, so
    # the serial executor's in-order results peak at exactly 1.
    assert telemetry.counters.peak_live_shards == 1

