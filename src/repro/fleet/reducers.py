"""Incremental, order-canonical reduction of fleet shard outputs.

Every fleet aggregate is produced by a fold-style **accumulator**
(``init`` via the constructor, then ``update`` per device, ``finalize``
once) so the engine can consume :class:`~repro.fleet.work.ShardResult`\\ s
as the executor completes them and drop each one immediately — constant
memory in the number of devices. :func:`reduce_contributions` stays as an independent
collect-sort-federate reference for :class:`ContributionsAccumulator`.

Determinism contract: floating-point addition is not associative, so
byte-identical reports require folding devices in **canonical device-id
order**. :class:`FleetFold` enforces that by accepting shards strictly
in shard-index order (shards hold contiguous ascending device ranges,
so shard order *is* device order); the engine's reorder buffer feeds it
that way however the scheduler completes the work. There is no merge
of partial accumulators: splitting the fold would change the float
summation tree, so the engine folds with ``update`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Iterable, List, Optional, Tuple, TypeVar

from repro.core.config import SnipConfig
from repro.core.federated import FederatedAggregator, federate_contributions
from repro.core.selection import SelectedInputs
from repro.core.table import SnipTable
from repro.errors import FleetError
from repro.fleet.spec import FleetSpec
from repro.fleet.work import DeviceResult, ShardResult
from repro.soc.energy import EnergyReport, merge_reports

R = TypeVar("R")


def canonical_device_results(
    shard_results: Iterable[ShardResult], spec: FleetSpec
) -> List[DeviceResult]:
    """Flatten shards into the device-id order every reducer folds in.

    Raises :class:`FleetError` when devices are missing or duplicated —
    a scheduler bug must never silently skew an aggregate. This is the
    batch path; the engine streams through :class:`FleetFold` instead.
    """
    flat: Dict[int, DeviceResult] = {}
    for shard in shard_results:
        if shard.spec_fingerprint != spec.fingerprint():
            raise FleetError(
                f"shard {shard.shard_index} was computed under a different "
                f"spec (fingerprint mismatch)"
            )
        for device in shard.device_results:
            if device.device_id in flat:
                raise FleetError(f"device {device.device_id} reported twice")
            flat[device.device_id] = device
    expected = set(range(spec.devices))
    missing = expected - set(flat)
    if missing:
        raise FleetError(f"devices missing from fleet results: {sorted(missing)}")
    extra = set(flat) - expected
    if extra:
        raise FleetError(f"unexpected device ids in fleet results: {sorted(extra)}")
    return [flat[device_id] for device_id in sorted(flat)]


class Accumulator(Generic[R]):
    """The fold contract every fleet reducer implements.

    ``__init__`` is the *init* step; ``update`` folds one device in
    canonical order; ``finalize`` emits the aggregate. ``finalize`` may
    be called once only — accumulators are single-shot.
    """

    def update(self, device: DeviceResult) -> None:
        """Fold one device result into the running aggregate."""
        raise NotImplementedError

    def finalize(self) -> R:
        """Emit the aggregate this accumulator was folding toward."""
        raise NotImplementedError


@dataclass(frozen=True)
class FleetTotals:
    """Scalar aggregates folded over the canonical device order."""

    devices: int
    sessions: int
    events: int
    snip_joules: float
    baseline_joules: float
    hits: int
    misses: int
    avoided_cycles: float
    executed_cycles: float
    raw_uplink_bytes: int

    @property
    def savings(self) -> float:
        """Fleet-wide energy saved by SNIP vs the baseline fleet."""
        if self.baseline_joules <= 0:
            return 0.0
        return 1.0 - self.snip_joules / self.baseline_joules

    @property
    def hit_rate(self) -> float:
        """Fraction of delivered events that short-circuited."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def coverage(self) -> float:
        """Cycle-weighted fraction of execution short-circuited."""
        total = self.avoided_cycles + self.executed_cycles
        return self.avoided_cycles / total if total else 0.0


class TotalsAccumulator(Accumulator[FleetTotals]):
    """Folds the scalar counters device by device."""

    def __init__(self) -> None:
        self._devices = 0
        self._sessions = 0
        self._events = 0
        self._snip_joules = 0.0
        self._baseline_joules = 0.0
        self._hits = 0
        self._misses = 0
        self._avoided = 0.0
        self._executed = 0.0
        self._raw_bytes = 0

    def update(self, device: DeviceResult) -> None:
        self._devices += 1
        self._sessions += device.sessions
        self._events += device.events
        self._snip_joules += device.snip_joules
        self._baseline_joules += device.baseline_joules
        self._hits += device.hits
        self._misses += device.misses
        self._avoided += device.avoided_cycles
        self._executed += device.executed_cycles
        self._raw_bytes += device.raw_uplink_bytes

    def finalize(self) -> FleetTotals:
        return FleetTotals(
            devices=self._devices,
            sessions=self._sessions,
            events=self._events,
            snip_joules=self._snip_joules,
            baseline_joules=self._baseline_joules,
            hits=self._hits,
            misses=self._misses,
            avoided_cycles=self._avoided,
            executed_cycles=self._executed,
            raw_uplink_bytes=self._raw_bytes,
        )


class EnergyAccumulator(Accumulator[Optional[EnergyReport]]):
    """Folds per-device energy ledgers into one fleet ledger.

    Each device's ledger is merged into the running one through
    :func:`repro.soc.energy.merge_reports`. ``0.0 + x`` is exact and the
    running ledger's keys come first, so the streamed ledger has the
    float additions and the first-seen key order of one batch merge.
    """

    def __init__(self) -> None:
        self._report: Optional[EnergyReport] = None

    def update(self, device: DeviceResult) -> None:
        if device.report:
            running = [] if self._report is None else [self._report]
            self._report = merge_reports(running + [device.report])

    def finalize(self) -> Optional[EnergyReport]:
        return self._report


class CensusAccumulator(Accumulator[Dict[str, int]]):
    """Archetype head-count, keys sorted at finalize for stable rendering."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def update(self, device: DeviceResult) -> None:
        self._counts[device.archetype] = self._counts.get(device.archetype, 0) + 1

    def finalize(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))


class CohortTotalsAccumulator(Accumulator[Dict[str, FleetTotals]]):
    """Per-rollout-cohort scalar aggregates.

    Routing preserves the canonical device order within each cohort
    (cohort membership is a pure function of the device id), so the
    per-cohort float sums inherit the same bit-identical guarantee as
    the fleet-wide totals. Keys are sorted at finalize.
    """

    def __init__(self) -> None:
        self._by_cohort: Dict[str, TotalsAccumulator] = {}

    def update(self, device: DeviceResult) -> None:
        accumulator = self._by_cohort.get(device.cohort)
        if accumulator is None:
            accumulator = self._by_cohort[device.cohort] = TotalsAccumulator()
        accumulator.update(device)

    def finalize(self) -> Dict[str, FleetTotals]:
        return {
            cohort: accumulator.finalize()
            for cohort, accumulator in sorted(self._by_cohort.items())
        }


class ContributionsAccumulator(
    Accumulator[Optional[Tuple[SnipTable, int]]]
):
    """Merges device statistics into the fleet table as they arrive.

    Devices must be folded in canonical id order (the engine guarantees
    it) so the aggregator sees contributions exactly as the batch
    :func:`~repro.core.federated.federate_contributions` would. Returns
    ``(table, uplink_bytes)`` or ``None`` when the run did not federate.
    """

    def __init__(self, selection: SelectedInputs, config: SnipConfig) -> None:
        self._aggregator = FederatedAggregator(selection, config)
        self._uplink = 0
        self._seen = False

    def update(self, device: DeviceResult) -> None:
        contribution = device.contribution
        if not contribution:
            return
        self._seen = True
        self._uplink += contribution.upload_bytes
        self._aggregator.merge(contribution)

    def finalize(self) -> Optional[Tuple[SnipTable, int]]:
        if not self._seen:
            return None
        return self._aggregator.build_table(), self._uplink


@dataclass
class FleetReduction:
    """Everything :class:`FleetFold` emits for one completed fleet."""

    totals: FleetTotals
    census: Dict[str, int]
    energy: Optional[EnergyReport]
    federated: Optional[Tuple[SnipTable, int]]
    cohorts: Optional[Dict[str, FleetTotals]]


class FleetFold:
    """Folds shard results strictly in shard-index order.

    Shards hold contiguous ascending device-id ranges, so index order
    is device-id order and the float sums match one accumulator pass
    over :func:`canonical_device_results` bit for bit. Each shard's
    population is validated against the spec's shard plan (missing,
    duplicated, or foreign devices raise), which replaces the batch
    path's whole-fleet set arithmetic with an O(1)-memory check.
    """

    def __init__(
        self, spec: FleetSpec, selection: SelectedInputs, config: SnipConfig
    ) -> None:
        self.spec = spec
        self._fingerprint = spec.fingerprint()
        self._next_index = 0
        self.totals = TotalsAccumulator()
        self.census = CensusAccumulator()
        self.energy = EnergyAccumulator()
        self.contributions = ContributionsAccumulator(selection, config)
        self.cohorts: Optional[CohortTotalsAccumulator] = (
            CohortTotalsAccumulator() if spec.challenger_fraction > 0 else None
        )

    @property
    def next_index(self) -> int:
        """The shard index the fold will accept next."""
        return self._next_index

    @property
    def complete(self) -> bool:
        """True once every shard has been folded."""
        return self._next_index >= self.spec.shard_count

    def fold(self, shard: ShardResult) -> None:
        """Fold the next shard (must be ``next_index``) and forget it."""
        if shard.shard_index != self._next_index:
            raise FleetError(
                f"shard {shard.shard_index} folded out of order "
                f"(expected {self._next_index})"
            )
        if shard.spec_fingerprint != self._fingerprint:
            raise FleetError(
                f"shard {shard.shard_index} was computed under a different "
                f"spec (fingerprint mismatch)"
            )
        expected = self.spec.shard_at(shard.shard_index).device_ids
        reported = tuple(
            device.device_id for device in shard.device_results
        )
        if reported != expected:
            raise FleetError(
                f"shard {shard.shard_index} reported devices "
                f"{reported[:4]}...x{len(reported)}, expected the range "
                f"{expected[0]}..{expected[-1]} — devices missing, "
                f"duplicated, or misdealt"
            )
        for device in shard.device_results:
            self.totals.update(device)
            self.census.update(device)
            self.energy.update(device)
            self.contributions.update(device)
            if self.cohorts is not None:
                self.cohorts.update(device)
        self._next_index += 1

    def finalize(self) -> FleetReduction:
        """Emit the aggregates; raises unless every shard was folded."""
        if not self.complete:
            raise FleetError(
                f"fleet reduction incomplete: folded {self._next_index} of "
                f"{self.spec.shard_count} shards"
            )
        return FleetReduction(
            totals=self.totals.finalize(),
            census=self.census.finalize(),
            energy=self.energy.finalize(),
            federated=self.contributions.finalize(),
            cohorts=(
                self.cohorts.finalize() if self.cohorts is not None else None
            ),
        )


# -- independent reference ------------------------------------------------


def reduce_contributions(
    device_results: Iterable[DeviceResult],
    selection: SelectedInputs,
    config: SnipConfig,
) -> Optional[Tuple[SnipTable, int]]:
    """Merge device statistics into the fleet table.

    Single-pass over ``device_results`` (generators welcome); the
    collected contributions are sorted by device id before merging, so
    unsorted inputs still produce the canonical table. Returns
    ``(table, uplink_bytes)`` or ``None`` when the run did not federate.
    """
    contributions = [
        device.contribution for device in device_results if device.contribution
    ]
    if not contributions:
        return None
    return federate_contributions(contributions, selection, config)
