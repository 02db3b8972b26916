"""The fleet engine: shard, execute, stream-reduce, report.

:class:`FleetEngine` drives one :class:`~repro.fleet.spec.FleetSpec`
end to end: build the shipped profile once, deal devices into shards,
run the shards on any :class:`~repro.fleet.executors.FleetExecutor`
(serial or queue — same results either way), and **fold** each
:class:`~repro.fleet.work.ShardResult` into the aggregates as the
executor completes it. Results are consumed through
:class:`~repro.fleet.reducers.FleetFold` strictly in shard-index order
(a reorder buffer bridges completion order to fold order), then
dropped. The executor's window bounds the buffer — one result on the
serial executor, at most ``QueueFleetExecutor.window`` on the pool —
so peak RSS is bounded by the shard size and the window, not the
fleet size. The rendered :class:`FleetReport` stays byte-identical
across ``--jobs`` settings, executors, shard sizes, and
interrupt/resume cycles.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Set, Union

from repro.core.config import SnipConfig
from repro.core.package_cache import PackageCache
from repro.core.profiler import CloudProfiler, SnipPackage
from repro.core.table import SnipTable
from repro.errors import FleetError
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.executors import FleetExecutor, SerialExecutor
from repro.fleet.reducers import FleetFold, FleetTotals
from repro.fleet.spec import FleetSpec
from repro.fleet.telemetry import (
    LIVE_SHARDS,
    PEAK_RSS,
    RUN_FINISHED,
    RUN_STARTED,
    TelemetryBus,
)
from repro.fleet.work import ShardResult, ShardTask, run_shard
from repro.soc.component import ComponentGroup
from repro.soc.energy import EnergyReport
from repro.units import format_bytes

def peak_rss_bytes() -> int:
    """This process's resident-set high-water mark, in bytes.

    Includes finished worker children (their peak counts toward the
    sweep's footprint). ``ru_maxrss`` is kilobytes on Linux but bytes
    on macOS.
    """
    scale = 1 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, children) * scale)


@dataclass
class FleetReport:
    """Deterministic aggregate of one fleet run."""

    spec: FleetSpec
    totals: FleetTotals
    census: Dict[str, int]
    energy: Optional[EnergyReport]
    fleet_table: Optional[SnipTable]
    uplink_bytes: int
    #: Per-rollout-cohort totals; populated only for staged rollouts
    #: (``spec.challenger_fraction > 0``).
    cohorts: Optional[Dict[str, FleetTotals]] = None

    @property
    def table_entries(self) -> int:
        """Entries in the merged federated table (0 when not federated)."""
        return self.fleet_table.entry_count if self.fleet_table else 0

    @property
    def table_bytes(self) -> int:
        """Shipped size of the merged federated table."""
        return self.fleet_table.total_bytes if self.fleet_table else 0

    def to_text(self) -> str:
        """Render the aggregate report.

        Deliberately free of wall-clock and worker facts: two runs of
        the same spec must render byte-identically however they were
        scheduled (the acceptance property the tests pin).
        """
        spec = self.spec
        lines = [
            f"fleet: {spec.game_name} | {spec.devices} devices x "
            f"{spec.sessions_per_device} sessions x {spec.duration_s:g}s | "
            f"seed {spec.seed}",
            "census: "
            + ", ".join(f"{name}={count}" for name, count in self.census.items()),
            f"events: {self.totals.events} across {self.totals.sessions} sessions",
        ]
        if spec.measure_energy:
            lines.append(
                f"energy: snip {self.totals.snip_joules:.6f} J vs baseline "
                f"{self.totals.baseline_joules:.6f} J -> "
                f"savings {self.totals.savings:.2%}"
            )
            lines.append(
                f"coverage: {self.totals.coverage:.2%} | "
                f"hit rate: {self.totals.hit_rate:.2%}"
            )
            if self.energy is not None:
                shares = ", ".join(
                    f"{group.value}={self.energy.group_fraction(group):.1%}"
                    for group in ComponentGroup
                )
                lines.append(f"fleet ledger: {shares}")
        if self.cohorts is not None:
            lines.append(
                f"rollout: challenger fraction "
                f"{spec.challenger_fraction:g}"
                + (
                    f" | challenger {spec.challenger_digest}"
                    if spec.challenger_digest else ""
                )
            )
            for cohort, totals in self.cohorts.items():
                line = (
                    f"  cohort {cohort}: {totals.devices} devices, "
                    f"{totals.events} events"
                )
                if spec.measure_energy:
                    line += (
                        f" | savings {totals.savings:.2%} | "
                        f"hit rate {totals.hit_rate:.2%}"
                    )
                lines.append(line)
        if self.fleet_table is not None:
            lines.append(
                f"fleet table: {self.table_entries} entries, "
                f"{format_bytes(self.table_bytes)}"
            )
            lines.append(
                f"uplink (statistics only): {format_bytes(self.uplink_bytes)} "
                f"(raw events would be "
                f"{format_bytes(self.totals.raw_uplink_bytes)})"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-safe view of the deterministic aggregates."""
        energy = None
        if self.energy is not None:
            energy = {
                "total_joules": self.energy.total_joules,
                "by_component": dict(self.energy.by_component),
                "by_group": {
                    group.value: joules
                    for group, joules in self.energy.by_group.items()
                },
                "by_tag": dict(self.energy.by_tag),
            }
        # Shard size is a scheduling knob, not part of what was
        # computed (spec.fingerprint() excludes it too); leaving it out
        # keeps the JSON byte-identical across shard sizes.
        spec_dict = dataclasses.asdict(self.spec)
        spec_dict.pop("shard_size", None)
        return {
            "spec": spec_dict,
            "totals": dataclasses.asdict(self.totals),
            "savings": self.totals.savings,
            "hit_rate": self.totals.hit_rate,
            "coverage": self.totals.coverage,
            "census": dict(self.census),
            "energy": energy,
            "table_entries": self.table_entries,
            "table_bytes": self.table_bytes,
            "uplink_bytes": self.uplink_bytes,
            "cohorts": (
                {
                    cohort: dataclasses.asdict(totals)
                    for cohort, totals in self.cohorts.items()
                }
                if self.cohorts is not None
                else None
            ),
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys, stable float repr).

        Shares the text report's byte-identity guarantee across jobs,
        executors, shard sizes, and resume cycles.
        """
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class _ShardTasks(SequenceABC):
    """Lazily materialising task sequence for the executors.

    Planning a million-device sweep must not allocate a million device
    ids upfront: executors index payloads on submission, so each
    :class:`ShardTask` (and its device-id range) is constructed on
    demand and garbage-collected once the worker result lands.
    """

    def __init__(
        self,
        spec: FleetSpec,
        indices: Sequence[int],
        package: SnipPackage,
        challenger: Optional[SnipPackage],
        config: SnipConfig,
    ) -> None:
        self._spec = spec
        self._indices = indices
        self._package = package
        self._challenger = challenger
        self._config = config

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, position: int) -> ShardTask:
        shard = self._spec.shard_at(self._indices[position])
        challenger = self._challenger
        return ShardTask(
            shard_index=shard.index,
            spec=self._spec,
            device_ids=shard.device_ids,
            selection=self._package.selection,
            table=self._package.table,
            config=self._config,
            challenger_selection=(
                challenger.selection if challenger else None
            ),
            challenger_table=challenger.table if challenger else None,
        )


class FleetEngine:
    """Orchestrates one fleet simulation."""

    def __init__(
        self,
        spec: FleetSpec,
        executor: Optional[FleetExecutor] = None,
        config: Optional[SnipConfig] = None,
        telemetry: Optional[TelemetryBus] = None,
        checkpoint: Optional[Union[str, Path, CheckpointStore]] = None,
        cache: Union[PackageCache, None, str] = "auto",
        package: Optional[SnipPackage] = None,
        challenger: Optional[SnipPackage] = None,
        shard_observer: Optional[Callable[[ShardResult], None]] = None,
    ) -> None:
        """``package``/``challenger`` inject pre-built artifacts.

        The registry's staged-rollout driver resolves both cohorts'
        packages from registered digests and passes them here; without
        an injected ``package`` the engine profiles its own from the
        spec's profile seeds. A spec with ``challenger_fraction > 0``
        requires a ``challenger``. ``shard_observer`` is called with
        each shard result in strict shard-index order (the fold order),
        so consumers see a deterministic stream regardless of executor
        or completion order.
        """
        self.spec = spec
        self.executor = executor or SerialExecutor()
        self.config = config or SnipConfig()
        self.telemetry = telemetry or TelemetryBus()
        if checkpoint is not None and not isinstance(checkpoint, CheckpointStore):
            checkpoint = CheckpointStore(checkpoint)
        self.checkpoint = checkpoint
        self.cache = cache
        self._package = package
        self.challenger = challenger
        self.shard_observer = shard_observer
        if spec.challenger_fraction > 0 and challenger is None:
            raise FleetError(
                "spec deals devices into a challenger cohort "
                f"(challenger_fraction={spec.challenger_fraction:g}) but no "
                "challenger package was provided"
            )

    # -- shipped artifacts -------------------------------------------------

    def build_package(self) -> SnipPackage:
        """Profile once centrally; every device receives the result.

        Cached: the profile is a pure function of the spec's profile
        seeds/duration, so resumes and repeated calls agree. With the
        on-disk package cache enabled (the default), interrupted runs
        and sibling shards on the same host also skip re-profiling.
        """
        if self._package is None:
            profiler = CloudProfiler(self.config, cache=self.cache)
            self._package = profiler.build_package_from_sessions(
                self.spec.game_name,
                seeds=list(self.spec.profile_seeds),
                duration_s=self.spec.profile_duration_s,
            )
        return self._package

    # -- execution ---------------------------------------------------------

    def run(self) -> FleetReport:
        """Execute the sweep (resuming checkpointed shards), fold, report.

        Results are folded in shard-index order as they complete and
        dropped immediately after folding, so memory stays bounded by
        the executor's window however large the fleet is.
        """
        spec = self.spec
        package = self.build_package()
        fold = FleetFold(spec, package.selection, self.config)
        on_disk: Set[int] = set()
        corrupt = 0
        if self.checkpoint is not None:
            self.checkpoint.initialise(spec)
            on_disk.update(self.checkpoint.resumable_indices())
            # Running total kept in the run directory: a resumed run
            # reports evictions from every attempt, not just this one.
            corrupt = self.checkpoint.corrupt_evictions
        remaining = [
            index for index in range(spec.shard_count) if index not in on_disk
        ]
        self.telemetry.emit(
            RUN_STARTED,
            devices=spec.devices,
            shards=spec.shard_count,
            resumed=len(on_disk),
            corrupt_evictions=corrupt,
            jobs=self.executor.jobs,
        )
        tasks = _ShardTasks(
            spec, remaining, package, self.challenger, self.config
        )
        buffer: Dict[int, ShardResult] = {}
        for _, result in self.executor.stream(
            run_shard, tasks, telemetry=self.telemetry
        ):
            if self.checkpoint is not None:
                self.checkpoint.save(result)
            buffer[result.shard_index] = result
            # Gauge the buffer at its high-water mark — after the
            # insert, before the in-order drain empties it — otherwise
            # peak_live_shards reads 0 on every run that folds shards
            # as fast as they arrive.
            self.telemetry.emit(LIVE_SHARDS, count=len(buffer))
            self._drain(fold, buffer, on_disk)
            self.telemetry.emit(PEAK_RSS, bytes=peak_rss_bytes())
        # Anything still unfolded is a resumed shard past the last
        # fresh one, waiting in the checkpoint.
        self._drain(fold, buffer, on_disk)
        reduction = fold.finalize()
        fleet_table, uplink = (
            reduction.federated if reduction.federated else (None, 0)
        )
        report = FleetReport(
            spec=spec,
            totals=reduction.totals,
            census=reduction.census,
            energy=reduction.energy,
            fleet_table=fleet_table,
            uplink_bytes=uplink,
            cohorts=reduction.cohorts,
        )
        self.telemetry.emit(PEAK_RSS, bytes=peak_rss_bytes())
        self.telemetry.emit(
            RUN_FINISHED,
            events=self.telemetry.counters.events_processed,
            events_per_second=self.telemetry.events_per_second(),
            failures=self.telemetry.counters.worker_failures,
            peak_live_shards=self.telemetry.counters.peak_live_shards,
            peak_queue_depth=self.telemetry.counters.peak_queue_depth,
            peak_rss_bytes=self.telemetry.counters.peak_rss_bytes,
        )
        return report

    # -- streaming fold plumbing -------------------------------------------

    def _drain(
        self,
        fold: FleetFold,
        buffer: Dict[int, ShardResult],
        on_disk: Set[int],
    ) -> None:
        """Fold every shard that is ready, in strict index order."""
        while not fold.complete:
            index = fold.next_index
            if index in buffer:
                result = buffer.pop(index)
            elif index in on_disk:
                assert self.checkpoint is not None  # on_disk is filled from it
                result = self.checkpoint.load(index)
                on_disk.discard(index)
            else:
                return
            if self.shard_observer is not None:
                self.shard_observer(result)
            fold.fold(result)
