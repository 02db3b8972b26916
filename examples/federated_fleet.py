#!/usr/bin/env python3
"""Federated SNIP across a fleet of heterogeneous users.

The paper's Sec. VII-C names federated learning as the way to cut the
multi-day backend cost and enable collective learning. This example
builds a fleet of users with different play styles, has every device
compute its own per-key statistics locally — sharded across the
``repro.fleet`` engine's worker pool — merges them in the cloud, and
shows that the fleet table serves a brand-new user out of the box.
"""

import sys

from repro.core.config import SnipConfig
from repro.core.runtime import SnipRuntime
from repro.fleet import FleetEngine, FleetSpec, make_executor
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.units import format_bytes
from repro.users.population import Population
from repro.users.sessions import run_baseline_session

GAME = "candy_crush"
DEVICES = 5
SESSIONS_PER_DEVICE = 2
SESSION_S = 30.0
POPULATION_SEED = 11
JOBS = 1


def main() -> None:
    print(f"== federated SNIP on {GAME} ({DEVICES} devices) ==\n")
    config = SnipConfig()

    # The whole fleet — trace generation, local replay, statistics
    # upload — runs through the fleet engine. The necessary-input
    # selection still comes from one centrally profiled seed session (a
    # development-time artifact, tiny and shareable), which the engine
    # builds once and ships to every device.
    spec = FleetSpec(
        game_name=GAME,
        devices=DEVICES,
        sessions_per_device=SESSIONS_PER_DEVICE,
        duration_s=SESSION_S,
        seed=POPULATION_SEED,
        profile_seeds=(1,),
        profile_duration_s=SESSION_S,
        measure_energy=False,   # this example federates; it does not meter
        federate=True,
    )
    engine = FleetEngine(spec, executor=make_executor(JOBS), config=config)
    package = engine.build_package()
    print(f"centrally selected necessary inputs: "
          f"{package.selection.total_bytes} B across "
          f"{len(package.selection.by_event_type)} event types")
    print(f"fleet mix: {Population(seed=POPULATION_SEED).census(DEVICES)}")

    report = engine.run()
    fleet_table = report.fleet_table
    print(f"\nfleet table: {fleet_table.entry_count} entries, "
          f"{format_bytes(fleet_table.total_bytes)}")
    print(f"statistics uploaded: {format_bytes(report.uplink_bytes)} "
          f"(raw events would be "
          f"{format_bytes(report.totals.raw_uplink_bytes)}; "
          f"no raw events leave any device)")
    print("cloud replay cost: none — devices replayed locally")

    # A brand-new user benefits immediately from the fleet's experience.
    soc = snapdragon_821()
    runtime = SnipRuntime(soc, create_game(GAME, seed=GAME_CONTENT_SEED),
                          fleet_table, config)
    clock = 0.0
    from repro.users.tracegen import generate_trace

    for event in generate_trace(GAME, seed=123, duration_s=SESSION_S).events:
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runtime.deliver(event)
    soc.advance_time(max(0.0, SESSION_S - clock))
    baseline = run_baseline_session(GAME, seed=123, duration_s=SESSION_S)
    savings = 1 - soc.meter.total_joules / baseline.report.total_joules
    print(f"\nnew user, first session: hit rate {runtime.stats.hit_rate:.1%}, "
          f"coverage {runtime.stats.coverage:.1%}, "
          f"energy saved {savings:.1%}")


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--jobs":
        JOBS = int(sys.argv[2])
    main()
