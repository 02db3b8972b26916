"""Tests for the SNIP table, device runtime, profiler, and learning."""

from collections import defaultdict

import pytest

from repro.android.events import EventType, make_frame_tick
from repro.core.config import SnipConfig
from repro.core.learning import run_epoch
from repro.core.profiler import CloudProfiler
from repro.core.runtime import SnipRuntime
from repro.core.table import SnipTable
from repro.errors import MemoizationError, ProfilerError, SchemeError
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.energy import TAG_LOOKUP
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_events, generate_trace


class TestSnipTable:
    def test_build_requires_records(self, ab_package):
        with pytest.raises(MemoizationError):
            SnipTable.build([], ab_package.selection)

    def test_entries_are_gated(self, ab_records, ab_package, snip_config):
        table = SnipTable.build(ab_records, ab_package.selection, snip_config)
        # A single 30 s session: every entry needed >= table_min_count
        # occurrences, so the entry count is far below the event count.
        assert 0 < table.entry_count < len(ab_records) / 2

    def test_knows_vs_lookup(self, ab_package):
        table = ab_package.table
        assert table.knows(EventType.FRAME_TICK)
        assert not table.knows(EventType.GPS)
        assert table.lookup(EventType.GPS, ()) is None

    def test_total_bytes_positive_and_small(self, ab_package):
        assert 0 < ab_package.table.total_bytes < ab_package.full_record_bytes / 100

    def test_event_types_listed(self, ab_package):
        assert EventType.FRAME_TICK in ab_package.table.event_types()

    def test_key_for_record_uses_selection_order(self, ab_records, ab_package):
        record = ab_records[0]
        fields = ab_package.selection.fields_for(record.event_type)
        key = SnipTable.key_for_record(record, fields)
        assert len(key) == len(fields)


class TestTableEntryMath:
    def test_avg_cycles_is_mean_over_occurrences(self, ab_records, ab_package,
                                                  snip_config):
        table = SnipTable.build(ab_records, ab_package.selection, snip_config)
        # Recompute one entry's mean by hand.
        sums = defaultdict(list)
        for record in ab_records:
            fields = ab_package.selection.fields_for(record.event_type)
            key = SnipTable.key_for_record(record, fields)
            sums[(record.event_type, key)].append(record.trace.total_cycles)
        checked = 0
        for (event_type, key), cycles in sums.items():
            entry = table.lookup(event_type, key)
            if entry is None:
                continue
            assert entry.avg_cycles == pytest.approx(sum(cycles) / len(cycles))
            checked += 1
            if checked > 20:
                break
        assert checked > 0


class TestSnipRuntime:
    @pytest.fixture()
    def runtime(self, ab_package, snip_config):
        soc = snapdragon_821()
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        return SnipRuntime(soc, game, ab_package.table, snip_config)

    def _run(self, runtime, seed=7, duration=20.0):
        clock = 0.0
        for event in generate_events("ab_evolution", seed, duration):
            if event.timestamp > clock:
                runtime.soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runtime.deliver(event)

    def test_short_circuits_most_events(self, runtime):
        self._run(runtime)
        assert runtime.stats.hit_rate > 0.5
        assert runtime.stats.events == runtime.stats.hits + runtime.stats.misses

    def test_saves_energy_vs_baseline(self, runtime):
        from repro.users.sessions import run_baseline_session

        self._run(runtime)
        runtime.soc.advance_time(max(0.0, 20.0 - runtime.soc.elapsed_seconds))
        baseline = run_baseline_session("ab_evolution", seed=7, duration_s=20.0)
        assert runtime.soc.meter.total_joules < baseline.report.total_joules

    def test_lookup_costs_tagged(self, runtime):
        self._run(runtime, duration=5.0)
        assert runtime.soc.meter.tag_joules(TAG_LOOKUP) > 0

    def test_engine_advances_even_on_hits(self, runtime):
        # Deliver many ticks; the AB engine has no tick bookkeeping, but
        # a snipped race tick must still advance the track.
        from repro.schemes.snip_scheme import SnipScheme

        scheme = SnipScheme(SnipConfig(), profile_seeds=(1,), profile_duration_s=20.0)
        soc = snapdragon_821()
        game = create_game("race_kings", seed=GAME_CONTENT_SEED)
        runner = scheme.make_runner(soc, game)
        for index in range(120):
            runner.deliver(make_frame_tick(slot=index % 4, sequence=index + 1))
        assert game.state.peek("track_pos") == 120

    def test_online_learning_promotes_entries(self, ab_package, snip_config):
        soc = snapdragon_821()
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        empty_table = SnipTable(ab_package.selection)
        runtime = SnipRuntime(soc, game, empty_table, snip_config)
        self._run(runtime, seed=11, duration=20.0)
        assert runtime.stats.online_promotions > 0
        assert runtime.stats.hits > 0  # promoted entries fire later

    def test_online_learning_disabled(self, ab_package):
        config = SnipConfig(online_warmup=0)
        soc = snapdragon_821()
        game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
        runtime = SnipRuntime(soc, game, SnipTable(ab_package.selection), config)
        self._run(runtime, seed=11, duration=10.0)
        assert runtime.stats.online_promotions == 0
        assert runtime.stats.hits == 0

    def test_would_be_correct_on_live_state(self, runtime):
        events = generate_events("ab_evolution", 7, 10.0)
        clock = 0.0
        checked = 0
        for event in events:
            if event.timestamp > clock:
                runtime.soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runtime.game.advance_engine(event)
            verdict = runtime.would_be_correct(event)
            if verdict is not None:
                checked += 1
                assert verdict in (True, False)
            runtime.game.process(event)
        assert checked > 0


class TestCloudProfiler:
    def test_package_accounting(self, ab_package):
        assert ab_package.profile_events > 0
        assert ab_package.uplink_bytes < ab_package.full_record_bytes / 1000
        assert ab_package.shrink_factor > 100
        assert ab_package.backend_seconds > 0

    def test_replay_requires_traces(self, snip_config):
        with pytest.raises(ProfilerError):
            CloudProfiler(snip_config).replay_traces("ab_evolution", [])

    def test_sessions_tagged_by_index(self, snip_config):
        profiler = CloudProfiler(snip_config)
        traces = [generate_trace("colorphun", s, 5.0) for s in (1, 2)]
        records = profiler.replay_traces("colorphun", traces)
        assert {record.session for record in records} == {0, 1}


class TestContinuousLearning:
    def test_fig12_shape_on_colorphun(self):
        # Insufficient initial profile -> heavy errors; more sessions ->
        # near-zero errors (the paper's Fig. 12 trajectory).
        results = [
            run_epoch(
                "colorphun", epoch, session_duration_s=15.0,
                initial_events=40, ramp=2.5,
            )[0]
            for epoch in range(4)
        ]
        assert len(results) == 4
        assert results[0].error_fraction > 0.10
        assert not results[0].confident
        assert results[-1].error_fraction < 0.01
        assert results[-1].error_fraction < results[0].error_fraction
        assert results[-1].training_events > results[0].training_events

    def test_errors_decay_on_ab_evolution(self):
        results = [
            run_epoch(
                "ab_evolution", epoch, session_duration_s=15.0,
                initial_events=50, ramp=2.5,
            )[0]
            for epoch in (0, 3)
        ]
        assert results[-1].error_fraction < max(0.01, results[0].error_fraction)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            run_epoch("colorphun", 0, initial_events=0)
        with pytest.raises(ValueError):
            run_epoch("colorphun", 0, ramp=1.0)


class TestSchemeGuards:
    def test_package_required_before_sessions(self):
        from repro.schemes.snip_scheme import SnipScheme

        with pytest.raises(SchemeError):
            SnipScheme().package_for("colorphun")
