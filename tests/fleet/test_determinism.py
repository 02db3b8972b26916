"""The tentpole property: scheduling can never change a fleet's results.

``--jobs 1`` and ``--jobs N`` must produce byte-identical aggregate
reports, and the aggregate must be invariant under the shard size (how
devices are dealt into work units). Both are checked on the rendered
report text — the strongest form, covering float sums, census ordering,
the federated table, and formatting in one comparison.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import FleetError
from repro.fleet import FleetEngine, SerialExecutor, make_executor
from repro.fleet.reducers import canonical_device_results
from repro.fleet.work import run_shard


def _report_text(spec, executor=None):
    return FleetEngine(spec, executor=executor).run().to_text()


def test_parallel_report_matches_serial_byte_for_byte(small_spec):
    serial = _report_text(small_spec, SerialExecutor())
    parallel = _report_text(small_spec, make_executor(4))
    assert parallel == serial


def test_report_invariant_under_shard_size(small_spec):
    reference = _report_text(replace(small_spec, shard_size=2))
    for shard_size in (1, 3, 6, 50):
        assert _report_text(replace(small_spec, shard_size=shard_size)) == reference


def test_serial_run_is_repeatable(small_spec):
    assert _report_text(small_spec) == _report_text(small_spec)


def test_device_results_do_not_depend_on_shard_neighbours(
    small_spec, small_package
):
    """A device computes the same numbers wherever it is dealt."""
    from repro.core.config import SnipConfig
    from repro.fleet.work import ShardTask

    config = SnipConfig()

    def shard_of(device_ids):
        return run_shard(
            ShardTask(
                shard_index=0,
                spec=small_spec,
                device_ids=device_ids,
                selection=small_package.selection,
                table=small_package.table,
                config=config,
            )
        )

    alone = shard_of((2,)).device_results[0]
    accompanied = next(
        device
        for device in shard_of((0, 1, 2, 3)).device_results
        if device.device_id == 2
    )
    assert alone.snip_joules == accompanied.snip_joules
    assert alone.baseline_joules == accompanied.baseline_joules
    assert alone.hits == accompanied.hits
    assert alone.events == accompanied.events
    assert alone.archetype == accompanied.archetype


def test_reducers_reject_incomplete_or_duplicated_populations(
    small_spec, small_package
):
    from repro.core.config import SnipConfig
    from repro.fleet.work import ShardTask

    task = ShardTask(
        shard_index=0,
        spec=small_spec,
        device_ids=(0, 1),
        selection=small_package.selection,
        table=small_package.table,
        config=SnipConfig(),
    )
    shard = run_shard(task)
    with pytest.raises(FleetError, match="missing"):
        canonical_device_results([shard], small_spec)
    with pytest.raises(FleetError, match="twice"):
        canonical_device_results([shard, shard], small_spec)
    with pytest.raises(FleetError, match="different"):
        wrong_spec = replace(small_spec, seed=small_spec.seed + 1)
        canonical_device_results([shard], wrong_spec)
