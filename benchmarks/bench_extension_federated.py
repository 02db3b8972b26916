"""Extension bench: federated table building (paper Sec. VII-C).

The paper flags its backend cost (~2 days of Xeon time per 2 minutes of
trace) and proposes federated learning. This bench quantifies the
implemented direction: devices upload per-key statistics instead of raw
events, the cloud merges without any replay, and a brand-new user is
served by the fleet table immediately.
"""

from repro.core.config import SnipConfig
from repro.core.runtime import SnipRuntime
from repro.fleet import FleetEngine, FleetSpec
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.users.sessions import run_baseline_session
from repro.users.tracegen import generate_events

GAME = "candy_crush"
DEVICES = 4
SESSION_S = 30.0


def test_extension_federated_fleet(once):
    def run():
        config = SnipConfig()
        spec = FleetSpec(
            game_name=GAME,
            devices=DEVICES,
            sessions_per_device=2,
            duration_s=SESSION_S,
            seed=11,
            profile_duration_s=SESSION_S,
            measure_energy=False,
        )
        engine = FleetEngine(spec, config=config)
        report = engine.run()
        package = engine.build_package()
        fleet_table = report.fleet_table
        soc = snapdragon_821()
        runtime = SnipRuntime(
            soc, create_game(GAME, seed=GAME_CONTENT_SEED), fleet_table, config
        )
        clock = 0.0
        for event in generate_events(GAME, seed=123, duration_s=SESSION_S):
            if event.timestamp > clock:
                soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runtime.deliver(event)
        soc.advance_time(max(0.0, SESSION_S - clock))
        baseline = run_baseline_session(GAME, seed=123, duration_s=SESSION_S)
        savings = 1 - soc.meter.total_joules / baseline.report.total_joules
        return {
            "entries": fleet_table.entry_count,
            "uplink_bytes": report.uplink_bytes,
            "new_user_hit_rate": runtime.stats.hit_rate,
            "new_user_savings": savings,
            "centralized_backend_seconds": package.backend_seconds,
        }

    result = once(run)
    print("\n=== Extension: federated fleet (candy_crush) ===")
    for key, value in result.items():
        print(f"{key}: {value}")
    # A fresh user is served by collective experience out of the box...
    assert result["new_user_hit_rate"] > 0.5
    assert result["new_user_savings"] > 0.15
    # ...while the cloud does no emulation at all (vs days centrally).
    assert result["centralized_backend_seconds"] > 3600
    assert result["entries"] > 0
