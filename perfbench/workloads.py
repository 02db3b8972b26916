"""The benchmark's workloads: inputs from a seed, set-up, requests, checks.

A workload's inputs are :attr:`units` distinct requests, each a pure
function of the run seed and the unit's index. The runner executes the
units round-robin, every execution in a fresh process forked from the
set-up process, so every repeat of a unit does exactly the same work
from exactly the state set-up left (no memo or cache carries over from
an earlier measured request). Requests are issued one at a time
(closed loop, one client). A request is a list of steps, run in order
and timed one by one; the last step returns the request's
:class:`Outcome`.

Each workload takes its shape from an existing caller of the program
and scales down only the device or cycle count:

fleet-cli
    ``repro-snip fleet`` with its defaults: candy_crush, one 10 s
    session per device, shard size 8, energy replays (SNIP runtime and
    baseline event loop) and federation both on, a 15 s profile from
    seed 1. 16 devices instead of 50. Set-up profiles the package into
    the on-disk package cache, as the first invocation does; a request
    is a later invocation's fleet run, which loads the package from the
    cache and meets the process-wide memos as cold as a fresh process
    does (set-up runs no fleet).
fleet-scale
    The spec of ``benchmarks/bench_fleet_scaling.py``: candy_crush,
    0.25 s sessions, shard size 500, federation only, a 3 s profile
    from seed 1. 1,000 devices a request instead of 100,000-1,000,000.
    Set-up also runs a :data:`WARMUP_DEVICES`-device fleet, so requests
    meet the federated fold and event memos near the steady state that
    a long sweep reaches.
serve-loop
    The daemon configuration of ``benchmarks/bench_service.py --quick``
    (colorphun, 4 devices, 2 s sessions, shard size 2, 3 s profiles,
    offline gated promotion). A request is one fresh daemon run to
    :data:`SERVE_CYCLES` completed cycles (``repro-snip serve --cycles
    8``) on a private copy of the package store set-up profiled: every
    cycle ingests reports, re-profiles, publishes, plans and ships to a
    checkpointed fleet. Each cycle is a step of its own.
"""

from __future__ import annotations

import functools
import hashlib
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.config import SnipConfig
from repro.core.package_cache import PackageCache
from repro.core.profiler import CloudProfiler
from repro.fleet import FleetEngine, FleetSpec
from repro.registry.store import PackageRegistry
from repro.service import ServiceConfig, SnipService

#: The game of both fleet callers.
FLEET_GAME = "candy_crush"
#: Fleet run in fleet-scale's set-up, in shards of the request's size.
WARMUP_DEVICES = 4000

SERVE_GAME = "colorphun"
SERVE_CYCLES = 8
SERVE_UNITS = 16
#: Names a stage ledger record must carry for a cycle to count.
SERVE_STAGES = ("ingest", "profile", "publish", "plan", "ship")
#: Where verify crashes a daemon before resuming it.
SERVE_KILL_POINT = (SERVE_CYCLES // 2, "publish", "pre")


def derive_seed(*parts: object) -> int:
    """A 31-bit seed that is a pure function of ``parts``."""
    text = ":".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big") % 2**31


def digest_text(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class Outcome:
    """What one request did, and anything wrong with its output.

    ``fingerprint`` digests the request's output; every repeat of the
    same request must reproduce it.
    """

    devices: int = 0
    hits: int = 0
    misses: int = 0
    fingerprint: str = ""
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class FleetShape:
    """The fleet one request runs."""

    units: int
    devices: int
    duration_s: float
    shard_size: int
    profile_duration_s: float
    measure_energy: bool
    federate: bool
    warmup_devices: int


FLEET_SHAPES = {
    "fleet-cli": FleetShape(
        units=12, devices=16, duration_s=10.0, shard_size=8,
        profile_duration_s=15.0, measure_energy=True, federate=True,
        warmup_devices=0,
    ),
    "fleet-scale": FleetShape(
        units=8, devices=1000, duration_s=0.25, shard_size=500,
        profile_duration_s=3.0, measure_energy=False, federate=True,
        warmup_devices=WARMUP_DEVICES,
    ),
}


def _fleet_problems(spec: FleetSpec, report) -> List[str]:
    """Invariants any correct fleet report satisfies."""
    totals = report.totals
    where = f"{spec.game_name} seed {spec.seed}"
    problems = []
    if totals.devices != spec.devices:
        problems.append(f"{where}: {totals.devices} devices reported, {spec.devices} run")
    if totals.sessions != spec.total_sessions:
        problems.append(f"{where}: {totals.sessions} sessions, {spec.total_sessions} run")
    if sum(report.census.values()) != spec.devices:
        problems.append(f"{where}: census does not sum to the fleet size")
    if totals.events <= 0 or totals.raw_uplink_bytes <= 0:
        problems.append(f"{where}: no events simulated")
    if spec.measure_energy:
        if not (totals.snip_joules > 0 and totals.baseline_joules > 0):
            problems.append(f"{where}: non-positive energy")
        if totals.hits + totals.misses <= 0:
            problems.append(f"{where}: no table probes")
        if report.energy is None or not math.isclose(
            report.energy.total_joules, totals.snip_joules, rel_tol=1e-9
        ):
            problems.append(f"{where}: fleet ledger disagrees with device totals")
    if spec.federate:
        if report.fleet_table is None or report.uplink_bytes <= 0:
            problems.append(f"{where}: federation produced no table")
    return problems


class FleetWorkload:
    """fleet-cli and fleet-scale: one fleet run per request."""

    def __init__(self, name: str, seed: int, work_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.shape = FLEET_SHAPES[name]
        self.units = self.shape.units
        self.config = SnipConfig()
        self.store = work_dir / "packages"

    def setup(self) -> None:
        """Profile the package cold into an empty package cache, then
        run the warm-up fleet, if the shape has one."""
        shape = self.shape
        shutil.rmtree(self.store, ignore_errors=True)
        CloudProfiler(self.config, cache=PackageCache(self.store)).build_package_from_sessions(
            FLEET_GAME, seeds=[1], duration_s=shape.profile_duration_s
        )
        if shape.warmup_devices:
            self._run(self.spec("warm-up", shape.warmup_devices, shape.shard_size))

    def spec(self, unit: object, devices: int, shard_size: int) -> FleetSpec:
        shape = self.shape
        return FleetSpec(
            game_name=FLEET_GAME,
            devices=devices,
            sessions_per_device=1,
            duration_s=shape.duration_s,
            seed=derive_seed(self.seed, self.name, unit),
            shard_size=shard_size,
            profile_seeds=(1,),
            profile_duration_s=shape.profile_duration_s,
            measure_energy=shape.measure_energy,
            federate=shape.federate,
        )

    def prepare(self, unit: int) -> None:
        pass

    def finish(self, unit: int) -> None:
        pass

    def _run(self, spec: FleetSpec) -> Outcome:
        engine = FleetEngine(spec, config=self.config, cache=PackageCache(self.store))
        report = engine.run()
        return Outcome(
            devices=report.totals.devices,
            hits=report.totals.hits,
            misses=report.totals.misses,
            fingerprint=digest_text(report.to_json()),
            problems=_fleet_problems(spec, report),
        )

    def steps(self, unit: int) -> List[Callable[[], Outcome]]:
        spec = self.spec(unit, self.shape.devices, self.shape.shard_size)
        return [lambda: self._run(spec)]

    def verify(self, fingerprints: Dict[int, str]) -> List[str]:
        """Unit 0 again in one shard: the report must be byte-identical."""
        spec = self.spec(0, self.shape.devices, self.shape.devices)
        if self._run(spec).fingerprint != fingerprints.get(0):
            return ["unit 0: report changed with the shard size"]
        return []


class DaemonKilled(Exception):
    """Raised by verify's stage hook to crash a daemon mid-run."""


class ServeWorkload:
    """serve-loop: one fresh daemon run per request."""

    units = SERVE_UNITS

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.snip_config = SnipConfig()
        self.store = work_dir / "packages"
        self.run_dir = work_dir / "daemon"
        self._service: Optional[SnipService] = None

    def config(self, unit: int) -> ServiceConfig:
        return ServiceConfig(
            game_name=SERVE_GAME,
            devices=4,
            sessions_per_device=1,
            session_duration_s=2.0,
            seed=derive_seed(self.seed, "serve", unit),
            shard_size=2,
            base_profile_seeds=(1,),
            profile_duration_s=3.0,
            max_profile_seeds=4,
            seeds_per_cycle=1,
            ungated_cycles=1,
            eval_duration_s=3.0,
        )

    def setup(self) -> None:
        """Profile the base corpus cold into an empty package store.

        Every daemon starts from a copy of that store, as a deployment
        starts from the developer's initial profile.
        """
        shutil.rmtree(self.store, ignore_errors=True)
        CloudProfiler(
            self.snip_config, cache=PackageCache(self.store)
        ).build_package_from_sessions(SERVE_GAME, seeds=[1], duration_s=3.0)

    def _daemon(self, unit: int, **kwargs) -> SnipService:
        cache = PackageCache(self.run_dir / "packages")
        return SnipService(
            self.config(unit),
            self.run_dir,
            snip_config=self.snip_config,
            registry=PackageRegistry(self.run_dir / "registry", cache=cache),
            **kwargs,
        )

    def prepare(self, unit: int) -> None:
        """Untimed: a fresh run directory holding a copy of the store."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        shutil.copytree(self.store, self.run_dir / "packages")

    def finish(self, unit: int) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def steps(self, unit: int) -> List[Callable[[], Optional[Outcome]]]:
        return [
            functools.partial(self._cycle, unit, count)
            for count in range(1, SERVE_CYCLES + 1)
        ]

    def _cycle(self, unit: int, count: int) -> Optional[Outcome]:
        """Run the daemon to ``count`` cycles, starting it on the first."""
        if count == 1:
            self._service = self._daemon(unit)
        self._service.run(cycles=count)
        return self._outcome(unit, self._service) if count == SERVE_CYCLES else None

    def _outcome(self, unit: int, service: SnipService) -> Outcome:
        outcome = Outcome(fingerprint=digest_text(service.ledger.to_json()))
        for index in range(SERVE_CYCLES):
            where = f"unit {unit} cycle {index}"
            record = service.ledger.cycle(index)
            if record is None or not record.get("complete"):
                outcome.problems.append(f"{where}: not completed")
                continue
            missing = [name for name in SERVE_STAGES if name not in record["stages"]]
            if missing:
                outcome.problems.append(f"{where}: no {missing} record")
                continue
            ship = record["stages"]["ship"]
            outcome.devices += ship["devices"]
            outcome.hits += ship["hits"]
            outcome.misses += ship["misses"]
            if ship["devices"] != service.config.devices or ship["events"] <= 0:
                outcome.problems.append(f"{where}: ship ran no fleet")
        return outcome

    def verify(self, fingerprints: Dict[int, str]) -> List[str]:
        """Unit 0 crashed mid-run and resumed: the same ledger."""

        def kill(cycle: int, stage: str, phase: str) -> None:
            if (cycle, stage, phase) == SERVE_KILL_POINT:
                raise DaemonKilled()

        self.prepare(0)
        try:
            try:
                self._daemon(0, stage_hook=kill).run(cycles=SERVE_CYCLES)
                return [f"unit 0: the daemon never reached {SERVE_KILL_POINT}"]
            except DaemonKilled:
                pass
            resumed = self._daemon(0)
            resumed.run(cycles=SERVE_CYCLES)
            if digest_text(resumed.ledger.to_json()) != fingerprints.get(0):
                return ["unit 0: the resumed ledger differs from the uninterrupted one"]
            return []
        finally:
            self.finish(0)


def make_workload(name: str, seed: int, work_dir: Path):
    """The workload object for one ``--workload`` name."""
    if name == "serve-loop":
        return ServeWorkload(seed, work_dir)
    return FleetWorkload(name, seed, work_dir)
