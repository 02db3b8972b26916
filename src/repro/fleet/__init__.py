"""Parallel fleet-simulation engine (the ROADMAP's scale substrate).

Shards a device population into chunks, executes per-device game
sessions across a ``multiprocessing`` worker pool (serial fallback and
bounded-queue backend share the same interface), and **streams** shard
results through fold-style reducers in canonical device order — each
result is folded and dropped as it completes, so memory stays bounded
by ``max_live_shards`` at any fleet size. Supports checkpoint/resume
of partially completed sweeps (corrupt shard files are evicted as
resumable misses). Seeded per-device RNG derivation plus the ordered
fold make aggregates byte-identical across ``--jobs`` settings,
executors, and shard sizes.
"""

from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.engine import (
    DEFAULT_MAX_LIVE_SHARDS,
    FleetEngine,
    FleetReport,
    peak_rss_bytes,
    run_fleet,
)
from repro.fleet.executors import (
    DEFAULT_RETRY_BUDGET,
    FleetExecutor,
    QueueFleetExecutor,
    SerialExecutor,
    make_executor,
)
from repro.fleet.reducers import (
    Accumulator,
    CensusAccumulator,
    CohortTotalsAccumulator,
    ContributionsAccumulator,
    EnergyAccumulator,
    FleetFold,
    FleetReduction,
    FleetTotals,
    TotalsAccumulator,
    canonical_device_results,
    reduce_contributions,
)
from repro.fleet.spec import FleetSpec, Shard
from repro.fleet.telemetry import TelemetryBus, TelemetryEvent, progress_printer
from repro.fleet.work import DeviceResult, ShardResult, ShardTask, run_device, run_shard

__all__ = [
    "Accumulator",
    "CensusAccumulator",
    "CheckpointStore",
    "CohortTotalsAccumulator",
    "ContributionsAccumulator",
    "DEFAULT_MAX_LIVE_SHARDS",
    "DEFAULT_RETRY_BUDGET",
    "DeviceResult",
    "EnergyAccumulator",
    "FleetEngine",
    "FleetExecutor",
    "FleetFold",
    "FleetReduction",
    "FleetReport",
    "FleetSpec",
    "FleetTotals",
    "QueueFleetExecutor",
    "SerialExecutor",
    "Shard",
    "ShardResult",
    "ShardTask",
    "TelemetryBus",
    "TelemetryEvent",
    "TotalsAccumulator",
    "canonical_device_results",
    "make_executor",
    "peak_rss_bytes",
    "progress_printer",
    "reduce_contributions",
    "run_device",
    "run_fleet",
    "run_shard",
]
