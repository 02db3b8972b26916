"""The fast paths change nothing observable: golden equivalence.

Every optimisation in the PR — compiled runtime probes, vectorized
forests feeding PFI, the package cache — must leave selections, tables,
runtime counters, and energy byte-identical to the reference
implementations. These tests run both paths side by side on real
sessions and assert exact equality, not tolerances.
"""

import dataclasses

from repro.core.package_cache import PackageCache, package_digest
from repro.core.profiler import CloudProfiler
from repro.core.runtime import SnipRuntime
from repro.core.serialization import table_to_dict
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_events

GAME = "ab_evolution"
EVAL_SEED = 9
EVAL_DURATION_S = 30.0


def _run_session(package, config, use_reference_probes=False):
    """One evaluated session; returns (stats, joules)."""
    soc = snapdragon_821()
    game = create_game(GAME, seed=GAME_CONTENT_SEED)
    runtime = SnipRuntime(soc, game, package.table.clone(), config)
    if use_reference_probes:
        runtime.live_key = runtime.live_key_reference
    clock = 0.0
    for event in generate_events(GAME, seed=EVAL_SEED, duration_s=EVAL_DURATION_S):
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runtime.deliver(event)
    soc.advance_time(max(0.0, EVAL_DURATION_S - clock))
    return runtime.stats, soc.meter.total_joules


class TestCompiledProbeEquivalence:
    def test_live_key_matches_reference_on_every_event(self, ab_package, snip_config):
        soc = snapdragon_821()
        game = create_game(GAME, seed=GAME_CONTENT_SEED)
        runtime = SnipRuntime(soc, game, ab_package.table.clone(), snip_config)
        clock = 0.0
        checked = 0
        for event in generate_events(GAME, seed=EVAL_SEED,
                                     duration_s=EVAL_DURATION_S):
            if event.timestamp > clock:
                soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            # Probe both ways against the *same* live state, before the
            # delivery below mutates it.
            assert runtime.live_key(event) == runtime.live_key_reference(event)
            checked += 1
            runtime.deliver(event)
        assert checked > 100

    def test_unknown_event_types_yield_empty_key(self, ab_package, snip_config):
        runtime = SnipRuntime(
            snapdragon_821(), create_game(GAME, seed=GAME_CONTENT_SEED),
            ab_package.table.clone(), snip_config,
        )
        for event in generate_events(GAME, seed=EVAL_SEED, duration_s=5.0):
            if not ab_package.table.knows(event.event_type):
                assert runtime.live_key(event) == ()

    def test_session_counters_identical_under_reference_probes(
        self, ab_package, snip_config
    ):
        fast_stats, fast_joules = _run_session(ab_package, snip_config)
        ref_stats, ref_joules = _run_session(
            ab_package, snip_config, use_reference_probes=True
        )
        assert dataclasses.asdict(fast_stats) == dataclasses.asdict(ref_stats)
        assert fast_joules == ref_joules
        assert fast_stats.hits > 0  # the session actually exercised the table


class TestPipelineEquivalence:
    def test_cached_package_drives_identical_sessions(
        self, tmp_path, snip_config
    ):
        """A cache round-trip changes nothing the runtime can observe."""
        seeds, duration = [1], 10.0
        built = CloudProfiler(snip_config, cache=None).build_package_from_sessions(
            GAME, seeds=seeds, duration_s=duration
        )
        cache = PackageCache(tmp_path)
        cache.store(package_digest(GAME, snip_config, seeds, duration), built)
        loaded = CloudProfiler(snip_config, cache=cache).build_package_from_sessions(
            GAME, seeds=seeds, duration_s=duration
        )
        assert table_to_dict(loaded.table) == table_to_dict(built.table)
        assert loaded.selection.by_event_type == built.selection.by_event_type
        built_stats, built_joules = _run_session(built, snip_config)
        loaded_stats, loaded_joules = _run_session(loaded, snip_config)
        assert dataclasses.asdict(built_stats) == dataclasses.asdict(loaded_stats)
        assert built_joules == loaded_joules
