"""The ``repro-snip serve`` supervisor loop.

Each cycle runs five stages — ingest, profile, publish, plan, ship —
and journals every stage's outcome in the run directory's
:class:`~repro.service.ledger.CycleLedger` before moving on:

ingest
    Claim up to ``max_batches_per_cycle`` pending report batches from
    the on-disk queue (a deeper backlog is *merged* into later cycles —
    the backpressure rule), and adopt the worst-missing devices'
    sessions as new profile seeds.
profile
    Re-run the cloud profiler over the base corpus plus the adopted
    seeds. The profiler is content-cached, so an unchanged corpus is a
    cache hit and a resumed cycle rebuilds the identical package.
publish
    Measure the candidate on a held-out session and publish it into
    the package registry (digest-deduplicated).
plan
    Decide how to ship, *from the ledger's own champion lineage* (never
    the live registry, which a crash may have left mid-mutation):
    steady (candidate already champion), offline gated promotion, or a
    staged rollout when a challenger fraction is configured.
ship
    Run the fleet with the shipped package(s) — checkpointed per
    cycle, so a killed ship resumes shard-by-shard — apply the rollout
    verdict if any, and enqueue the devices' miss reports for the next
    cycle's ingest.

Every stage either *executes then records*, or — when its record
already exists — *replays* from the ledger. All side effects ahead of
a record are idempotent (cached profile, deduplicating publish,
idempotent promotion, sequence-keyed enqueue), which is what makes a
kill at any point resumable to a byte-identical ledger. SIGTERM and
SIGINT set a flag checked between stages: the daemon stops cleanly at
the next stage boundary, leaving a resumable run directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.config import SnipConfig
from repro.core.package_cache import package_digest
from repro.core.profiler import CloudProfiler, SnipPackage
from repro.errors import ServiceError
from repro.fleet.engine import (
    DEFAULT_MAX_LIVE_SHARDS,
    FleetEngine,
    peak_rss_bytes,
)
from repro.fleet.executors import FleetExecutor
from repro.fleet.spec import FleetSpec
from repro.fleet.telemetry import (
    CYCLE_FINISHED,
    CYCLE_STARTED,
    PEAK_RSS,
    QUEUE_DEPTH,
    STAGE_FINISHED,
    TelemetryBus,
    TelemetryEvent,
)
from repro.fleet.work import DeviceResult, ShardResult
from repro.registry.metrics import measure_package
from repro.registry.promotion import PromotionPolicy
from repro.registry.rollout import judge_cohorts
from repro.registry.store import PackageRegistry
from repro.service.ledger import CycleLedger, canonical_json
from repro.service.reports import DeviceReport, ReportQueue
from repro.storage import exclusive_create

#: Bump on incompatible changes to the run-directory layout.
SERVICE_FORMAT_VERSION = 1

MANIFEST_NAME = "service.json"
LEDGER_NAME = "ledger.json"
QUEUE_DIR = "queue"
FLEET_DIR = "fleet"
REGISTRY_DIR = "registry"

#: Stage names, in execution order.
STAGE_INGEST = "ingest"
STAGE_PROFILE = "profile"
STAGE_PUBLISH = "publish"
STAGE_PLAN = "plan"
STAGE_SHIP = "ship"
STAGES = (STAGE_INGEST, STAGE_PROFILE, STAGE_PUBLISH, STAGE_PLAN, STAGE_SHIP)

#: Plan modes.
MODE_STEADY = "steady"      # candidate is already the champion
MODE_OFFLINE = "offline"    # metric-gated promotion before the fleet
MODE_ROLLOUT = "rollout"    # champion/challenger cohort split


class _StopRequested(Exception):
    """Internal: a signal asked the supervisor to stop at a boundary."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one service run depends on (pinned in the manifest).

    The daemon's outputs — ledger, registry state, report batches —
    are pure functions of this config plus the policy; job counts,
    executors, and restarts never change them.
    """

    game_name: str
    devices: int = 8
    sessions_per_device: int = 1
    session_duration_s: float = 5.0
    seed: int = 0
    shard_size: int = 4
    #: Profiling corpus: the developer's base seeds plus a sliding
    #: window of seeds adopted from the worst-missing devices.
    base_profile_seeds: Tuple[int, ...] = (1,)
    profile_duration_s: float = 8.0
    max_profile_seeds: int = 8
    seeds_per_cycle: int = 1
    #: Backpressure: a cycle ingests at most this many queued batches;
    #: a deeper backlog is merged into subsequent cycles.
    max_batches_per_cycle: int = 4
    #: Early cycles promote with permissive floors, reproducing the
    #: paper's bootstrap from an insufficient initial profile.
    ungated_cycles: int = 1
    #: 0 ships offline-gated promotions; > 0 runs a staged rollout
    #: dealing this fleet fraction into the challenger cohort.
    challenger_fraction: float = 0.0
    #: The ship fleet always runs the SNIP pass (misses feed ingest);
    #: this gates the candidate's held-out *energy* measurement, the
    #: expensive half of publish.
    measure_candidate_energy: bool = False
    eval_seed: int = 7919
    eval_duration_s: float = 20.0

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ServiceError(f"devices must be positive, got {self.devices}")
        if self.session_duration_s <= 0 or self.profile_duration_s <= 0:
            raise ServiceError("durations must be positive")
        if self.eval_duration_s <= 0:
            raise ServiceError("eval_duration_s must be positive")
        if not self.base_profile_seeds:
            raise ServiceError("base_profile_seeds must not be empty")
        if self.max_profile_seeds < len(self.base_profile_seeds):
            raise ServiceError(
                "max_profile_seeds must cover the base corpus "
                f"({len(self.base_profile_seeds)} seeds)"
            )
        if self.seeds_per_cycle < 0:
            raise ServiceError(
                f"seeds_per_cycle must be non-negative, got {self.seeds_per_cycle}"
            )
        if self.max_batches_per_cycle < 1:
            raise ServiceError(
                f"max_batches_per_cycle must be positive, "
                f"got {self.max_batches_per_cycle}"
            )
        if self.ungated_cycles < 0:
            raise ServiceError(
                f"ungated_cycles must be non-negative, got {self.ungated_cycles}"
            )
        if not 0.0 <= self.challenger_fraction <= 1.0:
            raise ServiceError(
                f"challenger_fraction must be within [0, 1], "
                f"got {self.challenger_fraction}"
            )

    def fingerprint(self, policy: PromotionPolicy) -> str:
        """Stable digest of the (config, policy) pair a run dir serves."""
        payload = {
            "format_version": SERVICE_FORMAT_VERSION,
            "config": dataclasses.asdict(self),
            "policy": dataclasses.asdict(policy),
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class ServiceResult:
    """What one :meth:`SnipService.run` invocation accomplished."""

    cycles_completed: int
    stopped: bool           # a signal ended the run at a stage boundary
    run_dir: Path
    ledger_path: Path


def service_progress_printer(out) -> Callable[[TelemetryEvent], None]:
    """A subscriber rendering one line per daemon lifecycle event.

    Intended for stderr: ``serve --format json`` keeps stdout as a
    single parseable document while this narrates the cycles.
    """

    def _print(event: TelemetryEvent) -> None:
        if event.kind == CYCLE_STARTED:
            print(
                f"[serve] cycle {event.payload.get('cycle', '?')} started "
                f"(queue depth {event.payload.get('queue_depth', '?')})",
                file=out,
            )
        elif event.kind == STAGE_FINISHED:
            print(
                f"[serve] cycle {event.payload.get('cycle', '?')} "
                f"{event.payload.get('stage', '?')} done "
                f"({event.payload.get('wall_s', 0.0):.2f}s)",
                file=out,
            )
        elif event.kind == CYCLE_FINISHED:
            verdict = event.payload.get("mode", "?")
            promoted = event.payload.get("promoted")
            print(
                f"[serve] cycle {event.payload.get('cycle', '?')} finished "
                f"({verdict}, "
                f"{'promoted' if promoted else 'champion kept'}, "
                f"{event.payload.get('wall_s', 0.0):.2f}s)",
                file=out,
            )

    return _print


class SnipService:
    """The continuous profile -> train -> ship supervisor."""

    def __init__(
        self,
        config: ServiceConfig,
        run_dir: Union[str, Path],
        snip_config: Optional[SnipConfig] = None,
        policy: Optional[PromotionPolicy] = None,
        registry: Optional[PackageRegistry] = None,
        executor: Optional[FleetExecutor] = None,
        telemetry: Optional[TelemetryBus] = None,
        max_live_shards: int = DEFAULT_MAX_LIVE_SHARDS,
        stage_hook: Optional[Callable[[int, str, str], None]] = None,
    ) -> None:
        """``stage_hook(cycle, stage, phase)`` fires around live stages.

        ``phase`` is ``"pre"`` before a stage executes and ``"post"``
        after its ledger record lands; replayed stages skip the hook.
        The crash-resume tests use it to kill the daemon at precise
        points.
        """
        self.config = config
        self.run_dir = Path(run_dir)
        self.snip_config = snip_config or SnipConfig()
        self.policy = policy or PromotionPolicy()
        self.executor = executor
        self.telemetry = telemetry or TelemetryBus()
        self.max_live_shards = max_live_shards
        self.stage_hook = stage_hook
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._init_manifest()
        self.registry = registry or PackageRegistry(self.run_dir / REGISTRY_DIR)
        self.ledger = CycleLedger(self.run_dir / LEDGER_NAME)
        self.queue = ReportQueue(self.run_dir / QUEUE_DIR)
        #: In-memory package staging between profile and publish/ship;
        #: resume falls back to the cache, then to rebuilding.
        self._packages: Dict[str, SnipPackage] = {}
        self._stop = False
        self._previous_handlers: Dict[int, Any] = {}

    # -- run directory -----------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Where the run manifest lives."""
        return self.run_dir / MANIFEST_NAME

    @property
    def ledger_path(self) -> Path:
        """Where the cycle ledger lives."""
        return self.run_dir / LEDGER_NAME

    def _init_manifest(self) -> None:
        fingerprint = self.config.fingerprint(self.policy)
        if not self.manifest_path.exists():
            manifest = {
                "format_version": SERVICE_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "config": dataclasses.asdict(self.config),
                "policy": dataclasses.asdict(self.policy),
            }
            try:
                exclusive_create(
                    self.manifest_path,
                    canonical_json(manifest).encode("utf-8"),
                )
                return
            except FileExistsError:
                pass  # lost a create race; validate the winner's below
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"unreadable service manifest {self.manifest_path}: {exc}"
            ) from exc
        if manifest.get("format_version") != SERVICE_FORMAT_VERSION:
            raise ServiceError(
                f"service run format {manifest.get('format_version')!r} does "
                f"not match this build ({SERVICE_FORMAT_VERSION})"
            )
        if manifest.get("fingerprint") != fingerprint:
            raise ServiceError(
                f"run dir {self.run_dir} was created for a different service "
                f"config or promotion policy; use a fresh --run-dir or the "
                f"original parameters"
            )

    # -- signals -----------------------------------------------------------

    def _handle_signal(self, signum, frame) -> None:
        self._stop = True

    def _install_signals(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous_handlers[signum] = signal.signal(
                    signum, self._handle_signal
                )
            except ValueError:
                pass  # not the main thread (tests drive run() directly)

    def _restore_signals(self) -> None:
        for signum, handler in self._previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        self._previous_handlers.clear()

    # -- supervisor loop ---------------------------------------------------

    def run(self, cycles: Optional[int] = None) -> ServiceResult:
        """Run until ``cycles`` total cycles are complete (or a signal).

        ``cycles`` counts *completed cycles in the ledger*, so resuming
        an interrupted ``run(cycles=4)`` finishes the in-flight cycle
        and stops at the same place the uninterrupted run would have.
        ``None`` loops until SIGTERM/SIGINT.
        """
        self._stop = False
        self._install_signals()
        stopped = False
        try:
            while not self._stop:
                if cycles is not None and self.ledger.completed_count() >= cycles:
                    break
                try:
                    self._run_cycle(self.ledger.next_index())
                except _StopRequested:
                    stopped = True
                    break
            else:
                stopped = True
        finally:
            self._restore_signals()
        return ServiceResult(
            cycles_completed=self.ledger.completed_count(),
            stopped=stopped,
            run_dir=self.run_dir,
            ledger_path=self.ledger_path,
        )

    def _run_cycle(self, index: int) -> None:
        self.ledger.begin_cycle(index)
        depth = self.queue.depth()
        started = self.telemetry.elapsed_seconds()
        self.telemetry.emit(CYCLE_STARTED, cycle=index, queue_depth=depth)
        self.telemetry.emit(QUEUE_DEPTH, depth=depth)
        ingest = self._stage(index, STAGE_INGEST, lambda: self._ingest())
        # Ack outside the stage body so both fresh and replayed ingests
        # clear their claimed batches (ack is idempotent).
        for sequence in ingest["batches"]:
            self.queue.ack(sequence)
        profile = self._stage(
            index, STAGE_PROFILE, lambda: self._profile(index)
        )
        publish = self._stage(
            index, STAGE_PUBLISH, lambda: self._publish(profile)
        )
        plan = self._stage(
            index, STAGE_PLAN, lambda: self._plan(index, publish)
        )
        ship = self._stage(index, STAGE_SHIP, lambda: self._ship(index, plan))
        self.ledger.complete_cycle(index)
        shutil.rmtree(self._cycle_checkpoint_dir(index), ignore_errors=True)
        self._packages.clear()
        self.telemetry.emit(PEAK_RSS, bytes=peak_rss_bytes())
        self.telemetry.emit(
            CYCLE_FINISHED,
            cycle=index,
            mode=ship["mode"],
            promoted=ship["promoted"],
            champion_version=ship["champion_version_after"],
            wall_s=self.telemetry.elapsed_seconds() - started,
        )

    def _stage(
        self, index: int, name: str, execute: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Replay a recorded stage, or execute-and-record a fresh one."""
        recorded = self.ledger.stage(index, name)
        if recorded is not None:
            return recorded
        if self._stop:
            raise _StopRequested()
        if self.stage_hook is not None:
            self.stage_hook(index, name, "pre")
        started = self.telemetry.elapsed_seconds()
        payload = self.ledger.record_stage(index, name, execute())
        if self.stage_hook is not None:
            self.stage_hook(index, name, "post")
        self.telemetry.emit(
            STAGE_FINISHED,
            cycle=index,
            stage=name,
            wall_s=self.telemetry.elapsed_seconds() - started,
        )
        return payload

    # -- stages ------------------------------------------------------------

    def _ingest(self) -> Dict[str, Any]:
        """Claim queued report batches and adopt re-profiling seeds."""
        pending = self.queue.pending()
        claimed = pending[: self.config.max_batches_per_cycle]
        reports: List[DeviceReport] = []
        for sequence in claimed:
            reports.extend(self.queue.load(sequence).reports)
        offenders = sorted(
            (report for report in reports if report.misses > 0),
            key=lambda report: (-report.misses, report.device_id),
        )
        adopted = [
            {
                "device_id": report.device_id,
                "misses": report.misses,
                "seed": self._adopted_seed(report.device_id),
            }
            for report in offenders[: self.config.seeds_per_cycle]
        ]
        return {
            "batches": claimed,
            "deferred": len(pending) - len(claimed),
            "queue_depth": len(pending),
            "reports": len(reports),
            "adopted": adopted,
        }

    def _adopted_seed(self, device_id: int) -> int:
        """Trace seed for re-profiling one device's sessions.

        A pure hash of ``(config.seed, device_id)``, offset well away
        from the small hand-picked base seeds.
        """
        digest = hashlib.blake2b(
            f"serve-adopt:{self.config.seed}:{device_id}".encode("utf-8"),
            digest_size=8,
        ).digest()
        return 100_000 + int.from_bytes(digest, "big") % 1_000_000

    def _profile_corpus(self, index: int) -> Tuple[int, ...]:
        """Base seeds plus the sliding window of adopted seeds."""
        seeds = list(self.config.base_profile_seeds)
        for cycle in range(index + 1):
            record = self.ledger.stage(cycle, STAGE_INGEST)
            if record is None:
                continue
            for adopted in record["adopted"]:
                if adopted["seed"] not in seeds:
                    seeds.append(adopted["seed"])
        overflow = len(seeds) - self.config.max_profile_seeds
        if overflow > 0:
            # Evict the oldest *adopted* seeds; the base corpus stays.
            base = len(self.config.base_profile_seeds)
            seeds = seeds[:base] + seeds[base + overflow:]
        return tuple(seeds)

    def _profile(self, index: int) -> Dict[str, Any]:
        """Re-run the cached profiler over this cycle's corpus."""
        seeds = self._profile_corpus(index)
        profiler = CloudProfiler(self.snip_config, cache=self.registry.cache)
        package = profiler.build_package_from_sessions(
            self.config.game_name,
            seeds=list(seeds),
            duration_s=self.config.profile_duration_s,
        )
        digest = package_digest(
            self.config.game_name,
            self.snip_config,
            list(seeds),
            self.config.profile_duration_s,
            profiler.overrides,
        )
        self._packages[digest] = package
        return {
            "digest": digest,
            "seeds": list(seeds),
            "profile_events": package.profile_events,
            "table_entries": package.table.entry_count,
            "table_bytes": package.table_bytes,
        }

    def _resolve_package(self, digest: str, seeds: List[int]) -> SnipPackage:
        """A profiled package by digest: staged, cached, or rebuilt."""
        package = self._packages.get(digest)
        if package is not None:
            return package
        package = self.registry.cache.load(digest)
        if package is None and seeds:
            # The cache was cleared between crash and resume; the
            # profile is a pure function of its recorded seeds, so
            # rebuild it (the profiler re-caches under the same key).
            profiler = CloudProfiler(self.snip_config, cache=self.registry.cache)
            package = profiler.build_package_from_sessions(
                self.config.game_name,
                seeds=list(seeds),
                duration_s=self.config.profile_duration_s,
            )
        if package is None:
            raise ServiceError(
                f"package {digest} is missing from the cache at "
                f"{self.registry.cache.root} and cannot be rebuilt"
            )
        self._packages[digest] = package
        return package

    def _registered_package(self, digest: str) -> SnipPackage:
        """A previously registered package (must be in the cache)."""
        package = self._packages.get(digest) or self.registry.cache.load(digest)
        if package is None:
            raise ServiceError(
                f"registered package {digest} is missing from the cache at "
                f"{self.registry.cache.root}"
            )
        return package

    def _publish(self, profile: Dict[str, Any]) -> Dict[str, Any]:
        """Measure the candidate on a held-out session and register it."""
        package = self._resolve_package(profile["digest"], profile["seeds"])
        metrics = measure_package(
            package,
            self.snip_config,
            eval_seed=self.config.eval_seed,
            eval_duration_s=self.config.eval_duration_s,
            measure_energy=self.config.measure_candidate_energy,
        )
        entry, _created = self.registry.publish(
            self.config.game_name,
            self.snip_config,
            package,
            metrics,
            source="serve",
            source_digest=profile["digest"],
        )
        # ``created`` is deliberately NOT journalled: a resumed publish
        # deduplicates where the original created, and the ledger must
        # not see the difference.
        return {
            "version": entry.version,
            "digest": entry.digest,
            "metrics": metrics.to_dict(),
        }

    def _champion_lineage(self, index: int) -> Tuple[Optional[int], Optional[str]]:
        """Champion (version, digest) after the last shipped cycle.

        Derived from the ledger, never the live registry: a crash can
        leave the registry mid-mutation, but the ledger only records
        completed stages, so resume plans from consistent state.
        """
        version: Optional[int] = None
        digest: Optional[str] = None
        for cycle in range(index):
            record = self.ledger.stage(cycle, STAGE_SHIP)
            if record is not None and record["champion_version_after"] is not None:
                version = record["champion_version_after"]
                digest = record["champion_digest_after"]
        return version, digest

    def _plan(self, index: int, publish: Dict[str, Any]) -> Dict[str, Any]:
        """Pick the shipping mode from ledger state alone."""
        champion_version, champion_digest = self._champion_lineage(index)
        ungated = index < self.config.ungated_cycles
        candidate_version = publish["version"]
        if champion_version is None:
            mode = MODE_OFFLINE
        elif candidate_version == champion_version:
            mode = MODE_STEADY
        elif ungated:
            mode = MODE_OFFLINE
        elif self.config.challenger_fraction > 0:
            mode = MODE_ROLLOUT
        else:
            mode = MODE_OFFLINE
        return {
            "mode": mode,
            "ungated": ungated,
            "candidate_version": candidate_version,
            "candidate_digest": publish["digest"],
            "champion_version_before": champion_version,
            "champion_digest_before": champion_digest,
        }

    def _ungated_policy(self) -> PromotionPolicy:
        """The bootstrap policy: floors open, ranking weights kept."""
        return dataclasses.replace(
            self.policy,
            min_hit_rate=0.0,
            min_selection_accuracy=0.0,
            min_energy_saved_fraction=0.0,
            max_table_bytes=0,
        )

    def _cycle_checkpoint_dir(self, index: int) -> Path:
        """Per-cycle fleet checkpoint directory (gc'd on completion)."""
        return self.run_dir / FLEET_DIR / f"cycle_{index:04d}"

    def _cycle_seed(self, index: int) -> int:
        """Per-cycle fleet seed: fresh sessions each cycle (drift)."""
        digest = hashlib.blake2b(
            f"serve-cycle:{self.config.seed}:{index}".encode("utf-8"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") % 2**31

    def _fleet_spec(
        self, index: int, champion_digest: str, challenger_digest: str,
        challenger_fraction: float,
    ) -> FleetSpec:
        return FleetSpec(
            game_name=self.config.game_name,
            devices=self.config.devices,
            sessions_per_device=self.config.sessions_per_device,
            duration_s=self.config.session_duration_s,
            seed=self._cycle_seed(index),
            shard_size=self.config.shard_size,
            profile_seeds=self.config.base_profile_seeds,
            profile_duration_s=self.config.profile_duration_s,
            measure_energy=True,
            federate=False,
            challenger_fraction=challenger_fraction,
            champion_digest=champion_digest,
            challenger_digest=challenger_digest,
        )

    def _ship(self, index: int, plan: Dict[str, Any]) -> Dict[str, Any]:
        """Promote/roll out per the plan, run the fleet, queue reports."""
        mode = plan["mode"]
        game = self.config.game_name
        decision_dict: Optional[Dict[str, Any]] = None
        promoted = False
        if mode == MODE_OFFLINE:
            policy = self._ungated_policy() if plan["ungated"] else self.policy
            verdict = self.registry.promote(
                game, self.snip_config,
                version=plan["candidate_version"], policy=policy,
            )
            decision_dict = verdict.to_dict()
            promoted = verdict.promoted
        # What the champion cohort runs during this cycle's fleet:
        if promoted:
            shipped_version = plan["candidate_version"]
            shipped_digest = plan["candidate_digest"]
        elif plan["champion_version_before"] is not None:
            shipped_version = plan["champion_version_before"]
            shipped_digest = plan["champion_digest_before"]
        else:
            # Bootstrap rejection: no champion exists yet, but the
            # fleet must run *something* to generate the reports the
            # loop learns from — ship the candidate provisionally.
            shipped_version = plan["candidate_version"]
            shipped_digest = plan["candidate_digest"]
        champion_package = self._registered_package(shipped_digest)
        challenger_package: Optional[SnipPackage] = None
        fraction = 0.0
        challenger_digest = ""
        if mode == MODE_ROLLOUT:
            fraction = self.config.challenger_fraction
            challenger_digest = plan["candidate_digest"]
            challenger_package = self._registered_package(challenger_digest)
        spec = self._fleet_spec(index, shipped_digest, challenger_digest, fraction)
        collected: List[DeviceResult] = []

        def observe(shard: ShardResult) -> None:
            collected.extend(shard.device_results)

        engine = FleetEngine(
            spec,
            executor=self.executor,
            config=self.snip_config,
            telemetry=self.telemetry,
            checkpoint=self._cycle_checkpoint_dir(index),
            package=champion_package,
            challenger=challenger_package,
            max_live_shards=self.max_live_shards,
            shard_observer=observe,
        )
        report = engine.run()
        if mode == MODE_ROLLOUT:
            decision = judge_cohorts(
                challenger_version=plan["candidate_version"],
                champion_version=plan["champion_version_before"],
                cohorts=report.cohorts or {},
                policy=self.policy,
            )
            self.registry.apply_decision(game, self.snip_config, decision)
            decision_dict = decision.to_dict()
            promoted = decision.promoted
        if promoted:
            champion_after = plan["candidate_version"]
            champion_digest_after: Optional[str] = plan["candidate_digest"]
        else:
            champion_after = plan["champion_version_before"]
            champion_digest_after = plan["champion_digest_before"]
        self.queue.enqueue(
            [DeviceReport.from_result(result) for result in collected],
            producer_cycle=index,
            sequence=index,
        )
        return {
            "mode": mode,
            "promoted": promoted,
            "decision": decision_dict,
            "champion_version_after": champion_after,
            "champion_digest_after": champion_digest_after,
            "shipped_version": shipped_version,
            "shipped_digest": shipped_digest,
            "report_sequence": index,
            "devices": report.totals.devices,
            "events": report.totals.events,
            "hits": report.totals.hits,
            "misses": report.totals.misses,
            "savings": report.totals.savings,
            "hit_rate": report.totals.hit_rate,
            "spec_fingerprint": spec.fingerprint(),
        }
