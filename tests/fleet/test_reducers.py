"""Accumulator contract: fold == batch, merge == fold, strict ordering.

The streaming engine's byte-identity guarantee rests on these
equivalences: accumulators, fed devices one at a time in canonical
order, must reproduce independent batch computations exactly (floats
included); :class:`FleetFold`, fed shards in order, must reproduce one
accumulator pass over the canonical device list; and :class:`FleetFold`
must refuse anything that would change the fold order.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import pickle

import pytest

from repro.core.config import SnipConfig
from repro.errors import FleetError
from repro.fleet.reducers import (
    CensusAccumulator,
    CohortTotalsAccumulator,
    ContributionsAccumulator,
    EnergyAccumulator,
    FleetFold,
    FleetTotals,
    TotalsAccumulator,
    canonical_device_results,
    reduce_contributions,
)


@pytest.fixture(scope="module")
def devices(small_shards, small_spec):
    return canonical_device_results(small_shards, small_spec)


def test_totals_fold_matches_batch(devices):
    accumulator = TotalsAccumulator()
    for device in devices:
        accumulator.update(device)

    def batch(attribute):
        # Left-to-right in canonical order: the fold's float add order
        # (builtin sum() compensates float error on 3.12+, so not that).
        values = (getattr(device, attribute) for device in devices)
        return functools.reduce(operator.add, values, 0)

    assert accumulator.finalize() == FleetTotals(
        devices=len(devices),
        sessions=batch("sessions"),
        events=batch("events"),
        snip_joules=batch("snip_joules"),
        baseline_joules=batch("baseline_joules"),
        hits=batch("hits"),
        misses=batch("misses"),
        avoided_cycles=batch("avoided_cycles"),
        executed_cycles=batch("executed_cycles"),
        raw_uplink_bytes=batch("raw_uplink_bytes"),
    )


def _assert_totals_close(merged, folded):
    """Merged partials agree with a single fold: ints exactly, floats to
    rounding (splitting changes the float summation tree — which is why
    the engine folds with ``update`` only; see the reducers docstring).
    """
    for field in dataclasses.fields(type(folded)):
        mine = getattr(merged, field.name)
        theirs = getattr(folded, field.name)
        if isinstance(theirs, float):
            assert mine == pytest.approx(theirs), field.name
        else:
            assert mine == theirs, field.name


def test_merge_of_split_halves_matches_single_fold(devices):
    half = len(devices) // 2
    whole, left, right = (
        TotalsAccumulator(), TotalsAccumulator(), TotalsAccumulator()
    )
    for device in devices:
        whole.update(device)
    for device in devices[:half]:
        left.update(device)
    for device in devices[half:]:
        right.update(device)
    left.merge(right)
    _assert_totals_close(left.finalize(), whole.finalize())


def test_census_merge_matches_single_fold(devices):
    half = len(devices) // 2
    whole, left, right = (
        CensusAccumulator(), CensusAccumulator(), CensusAccumulator()
    )
    for device in devices:
        whole.update(device)
    for device in devices[:half]:
        left.update(device)
    for device in devices[half:]:
        right.update(device)
    left.merge(right)
    assert left.finalize() == whole.finalize()


def test_cohort_merge_matches_single_fold(devices):
    half = len(devices) // 2
    whole, left, right = (
        CohortTotalsAccumulator(),
        CohortTotalsAccumulator(),
        CohortTotalsAccumulator(),
    )
    for device in devices:
        whole.update(device)
    for device in devices[:half]:
        left.update(device)
    for device in devices[half:]:
        right.update(device)
    left.merge(right)
    merged, folded = left.finalize(), whole.finalize()
    assert merged.keys() == folded.keys()
    for cohort in folded:
        _assert_totals_close(merged[cohort], folded[cohort])


def test_energy_merge_matches_single_fold(devices):
    half = len(devices) // 2
    whole, left, right = (
        EnergyAccumulator(), EnergyAccumulator(), EnergyAccumulator()
    )
    for device in devices:
        whole.update(device)
    for device in devices[:half]:
        left.update(device)
    for device in devices[half:]:
        right.update(device)
    left.merge(right)
    merged, folded = left.finalize(), whole.finalize()
    assert merged is not None and folded is not None
    assert merged.by_component.keys() == folded.by_component.keys()
    assert merged.total_joules == pytest.approx(folded.total_joules)


def test_empty_energy_accumulator_finalizes_to_none():
    assert EnergyAccumulator().finalize() is None
    empty = EnergyAccumulator()
    empty.merge(EnergyAccumulator())
    assert empty.finalize() is None


def test_contributions_fold_matches_batch(devices, small_package):
    config = SnipConfig()
    accumulator = ContributionsAccumulator(small_package.selection, config)
    for device in devices:
        accumulator.update(device)
    streamed = accumulator.finalize()
    batch = reduce_contributions(
        iter(devices), small_package.selection, config
    )
    assert streamed is not None and batch is not None
    streamed_table, streamed_uplink = streamed
    batch_table, batch_uplink = batch
    assert streamed_uplink == batch_uplink
    assert pickle.dumps(streamed_table) == pickle.dumps(batch_table)


def test_contributions_merge_matches_single_fold(devices, small_package):
    config = SnipConfig()
    half = len(devices) // 2
    whole = ContributionsAccumulator(small_package.selection, config)
    left = ContributionsAccumulator(small_package.selection, config)
    right = ContributionsAccumulator(small_package.selection, config)
    for device in devices:
        whole.update(device)
    for device in devices[:half]:
        left.update(device)
    for device in devices[half:]:
        right.update(device)
    left.merge(right)
    merged, folded = left.finalize(), whole.finalize()
    assert merged is not None and folded is not None
    assert merged[1] == folded[1]
    assert merged[0].entry_count == folded[0].entry_count


def test_contributions_without_federation_finalize_to_none(
    devices, small_package
):
    stripped = [
        dataclasses.replace(device, contribution=None) for device in devices
    ]
    config = SnipConfig()
    accumulator = ContributionsAccumulator(small_package.selection, config)
    for device in stripped:
        accumulator.update(device)
    assert accumulator.finalize() is None
    assert reduce_contributions(stripped, small_package.selection, config) is None


# -- FleetFold ordering and validation ------------------------------------


def test_fleet_fold_matches_batch_reducers(
    small_shards, small_spec, small_package, devices
):
    fold = FleetFold(small_spec, small_package.selection, SnipConfig())
    for shard in small_shards:
        fold.fold(shard)
    assert fold.complete
    reduction = fold.finalize()
    totals, census, energy = (
        TotalsAccumulator(), CensusAccumulator(), EnergyAccumulator()
    )
    for device in devices:
        totals.update(device)
        census.update(device)
        energy.update(device)
    assert reduction.totals == totals.finalize()
    assert reduction.census == census.finalize()
    assert reduction.energy.total_joules == energy.finalize().total_joules
    assert reduction.cohorts is None  # no challenger cohort in small_spec


def test_fleet_fold_rejects_out_of_order_shards(
    small_shards, small_spec, small_package
):
    fold = FleetFold(small_spec, small_package.selection, SnipConfig())
    with pytest.raises(FleetError, match="out of order"):
        fold.fold(small_shards[1])


def test_fleet_fold_rejects_foreign_fingerprint(
    small_shards, small_spec, small_package
):
    fold = FleetFold(small_spec, small_package.selection, SnipConfig())
    alien = dataclasses.replace(small_shards[0], spec_fingerprint="deadbeef")
    with pytest.raises(FleetError, match="different"):
        fold.fold(alien)


def test_fleet_fold_rejects_misdealt_devices(
    small_shards, small_spec, small_package
):
    fold = FleetFold(small_spec, small_package.selection, SnipConfig())
    swapped = dataclasses.replace(
        small_shards[0],
        device_results=list(reversed(small_shards[0].device_results)),
    )
    with pytest.raises(FleetError, match="misdealt"):
        fold.fold(swapped)


def test_fleet_fold_finalize_requires_every_shard(
    small_shards, small_spec, small_package
):
    fold = FleetFold(small_spec, small_package.selection, SnipConfig())
    fold.fold(small_shards[0])
    assert not fold.complete
    assert fold.next_index == 1
    with pytest.raises(FleetError, match="incomplete"):
        fold.finalize()
