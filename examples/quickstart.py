#!/usr/bin/env python3
"""Quickstart: run the whole SNIP pipeline on one game in ~30 seconds.

The flow mirrors the paper's Fig. 10:

1. a user plays AB Evolution on the simulated phone (events recorded);
2. the cloud replays the recordings on the emulator, runs PFI, selects
   the necessary inputs, and builds the shrunken lookup table;
3. the table ships back and a fresh session runs under the SNIP
   runtime, short-circuiting redundant event processing;
4. we compare energy against the unmodified baseline.
"""

from repro import (
    CloudProfiler,
    GAME_CONTENT_SEED,
    SnipConfig,
    SnipRuntime,
    create_game,
    generate_trace,
    run_baseline_session,
    snapdragon_821,
)
from repro.units import format_bytes

GAME = "ab_evolution"
PROFILE_SESSIONS = (1, 2)   # two recorded play sessions feed the cloud
PROFILE_DURATION_S = 45.0
EVAL_SEED = 7               # a session the profile has never seen
EVAL_DURATION_S = 45.0


def main() -> None:
    print(f"== SNIP quickstart on {GAME} ==\n")

    # -- cloud side: record -> replay -> PFI -> necessary inputs -> table
    profiler = CloudProfiler(SnipConfig())
    package = profiler.build_package_from_sessions(
        GAME, seeds=PROFILE_SESSIONS, duration_s=PROFILE_DURATION_S
    )
    print(f"profiled events:      {package.profile_events}")
    print(f"uplink to cloud:      {format_bytes(package.uplink_bytes)}")
    print(f"naive record store:   {format_bytes(package.full_record_bytes)}")
    print(f"shipped SNIP table:   {format_bytes(package.table_bytes)} "
          f"({package.shrink_factor:.0f}x smaller)")
    for event_type, fields in sorted(
        package.selection.by_event_type.items(), key=lambda kv: kv[0].value
    ):
        names = ", ".join(info.name for info in fields) or "(event type alone)"
        print(f"  necessary inputs [{event_type.value}]: {names}")

    # -- device side: run an unseen session under the SNIP runtime
    soc = snapdragon_821()
    game = create_game(GAME, seed=GAME_CONTENT_SEED)
    runtime = SnipRuntime(soc, game, package.table, profiler.config)
    clock = 0.0
    eval_trace = generate_trace(GAME, seed=EVAL_SEED, duration_s=EVAL_DURATION_S)
    for event in eval_trace.events:
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runtime.deliver(event)
    soc.advance_time(max(0.0, EVAL_DURATION_S - clock))

    baseline = run_baseline_session(GAME, seed=EVAL_SEED, duration_s=EVAL_DURATION_S)
    snip_joules = soc.meter.total_joules
    savings = 1.0 - snip_joules / baseline.report.total_joules

    print("\n== results on an unseen session ==")
    print(f"baseline energy:      {baseline.report.total_joules:8.1f} J "
          f"({baseline.average_watts:.2f} W)")
    print(f"snip energy:          {snip_joules:8.1f} J "
          f"({snip_joules / EVAL_DURATION_S:.2f} W)")
    print(f"energy saved:         {savings:.1%}   (paper: 24-37%)")
    print(f"events short-circuited: {runtime.stats.hit_rate:.1%}")
    print(f"execution covered:    {runtime.stats.coverage:.1%}   (paper: 40-61%)")
    print(f"battery life:         {baseline.battery_hours:.1f} h -> "
          f"{soc.battery.hours_to_empty(snip_joules / EVAL_DURATION_S):.1f} h")


if __name__ == "__main__":
    main()
