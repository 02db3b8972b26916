"""Every payload that crosses a worker process boundary must pickle.

A process pool serialises the task going out and the result coming
back; a type that silently loses state (or fails to pickle at all)
would only surface as a crash — or worse, a wrong aggregate — deep in a
fleet run. Each round-trip here also checks semantic equality, not just
"no exception".
"""

from __future__ import annotations

import pickle

from repro.core.config import SnipConfig
from repro.core.federated import ContributionBuilder
from repro.fleet.spec import FleetSpec
from repro.fleet.work import DeviceResult, ShardResult, ShardTask, run_shard
from repro.users.population import Population
from repro.users.sessions import run_baseline_session


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def test_spec_roundtrips():
    spec = FleetSpec(game_name="candy_crush", devices=4, seed=9)
    assert _roundtrip(spec) == spec


def test_trace_roundtrips():
    trace = Population(seed=3).user_trace("candy_crush", 0, 0, 5.0)
    copy = _roundtrip(trace)
    assert copy.game_name == trace.game_name
    assert len(copy) == len(trace)
    assert copy.uplink_bytes == trace.uplink_bytes
    assert [e.values for e in copy.events] == [e.values for e in trace.events]


def test_energy_report_roundtrips():
    report = run_baseline_session("candy_crush", seed=1, duration_s=5.0).report
    copy = _roundtrip(report)
    assert copy.total_joules == report.total_joules
    assert copy.by_component == report.by_component


def test_table_and_selection_roundtrip(small_package):
    table = _roundtrip(small_package.table)
    assert table.entry_count == small_package.table.entry_count
    assert table.total_bytes == small_package.table.total_bytes
    selection = _roundtrip(small_package.selection)
    assert selection.total_bytes == small_package.selection.total_bytes
    assert set(selection.by_event_type) == set(
        small_package.selection.by_event_type
    )


def test_contribution_roundtrips(small_spec, small_package):
    trace = Population(seed=small_spec.seed).user_trace(
        small_spec.game_name, 0, 0, small_spec.duration_s
    )
    builder = ContributionBuilder(0, small_spec.game_name, small_package.selection)
    builder.add_session_events(trace.events, 0)
    contribution = builder.finish()
    copy = _roundtrip(contribution)
    assert copy.device_id == contribution.device_id
    assert copy.upload_bytes == contribution.upload_bytes
    assert copy.events_observed == contribution.events_observed
    assert copy.signature_weight == contribution.signature_weight
    assert copy.writes == contribution.writes


def test_shard_task_and_result_roundtrip(small_spec, small_package):
    task = ShardTask(
        shard_index=0,
        spec=small_spec,
        device_ids=(0, 1),
        selection=small_package.selection,
        table=small_package.table,
        config=SnipConfig(),
    )
    task_copy = _roundtrip(task)
    assert task_copy.spec == small_spec
    assert task_copy.device_ids == (0, 1)

    result = run_shard(task_copy)
    assert isinstance(result, ShardResult)
    result_copy = _roundtrip(result)
    assert result_copy.shard_index == result.shard_index
    assert result_copy.spec_fingerprint == result.spec_fingerprint
    assert result_copy.device_count == result.device_count
    assert result_copy.events_processed == result.events_processed
    for original, copied in zip(result.device_results, result_copy.device_results):
        assert isinstance(copied, DeviceResult)
        assert copied.device_id == original.device_id
        assert copied.snip_joules == original.snip_joules
        assert copied.baseline_joules == original.baseline_joules
        assert copied.hits == original.hits


def test_identical_shard_runs_pickle_byte_equal(small_spec, small_package):
    """Checkpoint stability: no wall-clock state may leak into results.

    ShardResults are checkpointed to disk as pickle bytes, so two runs
    of the same task must serialise identically — the regression this
    pins is a wall-time field on ShardResult, which made every
    checkpoint byte-unique.
    """
    def shard_bytes():
        task = ShardTask(
            shard_index=0,
            spec=small_spec,
            device_ids=(0, 1),
            selection=small_package.selection,
            table=small_package.table,
            config=SnipConfig(),
        )
        return pickle.dumps(
            run_shard(task), protocol=pickle.HIGHEST_PROTOCOL
        )

    assert shard_bytes() == shard_bytes()
    assert not hasattr(ShardResult(0, ""), "wall_seconds")
