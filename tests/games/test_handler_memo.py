"""The process-wide handler memo, its walk and the memoised baseline loop.

The memo replaces a handler run by the writes and work an earlier run
with the same ``(type, values, state, screen)`` key recorded, and a
walk follows the transitions earlier walks took between interned game
states. These tests hold the memo and the walk to what running every
handler, ``EventLoop`` and an unmemoised fold produce, and to their
limits: unhashable keys, the cap, a Game left behind by known
transitions, and the IDLE-components precondition of a cached charge
pattern.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter

import pytest

from repro.android.dispatch import EventLoop, handler_work
from repro.core import federated
from repro.core.config import SnipConfig
from repro.core.federated import ContributionBuilder
from repro.core.profiler import CloudProfiler
from repro.core.selection import SelectedInputs
from repro.errors import SimulationError
from repro.fleet import FleetEngine, FleetSpec
from repro.fleet.work import run_device
from repro.games import handler_memo
from repro.games.base import Game
from repro.games.handler_memo import (
    MemoBaselineLoop,
    MemoEntry,
    MemoWalk,
    StateNode,
    event_signature,
)
from repro.games.registry import GAME_CONTENT_SEED, GAME_NAMES, create_game, fresh_game
from repro.soc.component import PowerState
from repro.soc.energy import ColumnarMeter
from repro.soc.power_profiles import pixel_xl_profiles
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_trace

DURATION_S = 2.0


@pytest.fixture()
def cold_memos(monkeypatch):
    """Empty handler memos and session-fold caches for one test."""
    monkeypatch.setattr(handler_memo, "_MEMOS", {})
    monkeypatch.setattr(federated, "_FOLD_CACHES", {})


@pytest.fixture()
def handler_calls(monkeypatch):
    """Counts ``Game.process`` calls: ``"fold"`` inside the fold's replay."""
    counts: Counter = Counter()
    phase = ["outside"]
    process, fold_events = Game.process, ContributionBuilder._fold_events

    def counting_process(self, event):
        counts[phase[0]] += 1
        return process(self, event)

    def marked_fold(self, events, *rest):
        counts["folds"] += 1
        phase[0] = "fold"
        try:
            return fold_events(self, events, *rest)
        finally:
            phase[0] = "outside"

    monkeypatch.setattr(Game, "process", counting_process)
    monkeypatch.setattr(ContributionBuilder, "_fold_events", marked_fold)
    return counts


def _play(loop, events, duration_s=DURATION_S):
    """Deliver a session through ``loop`` on its SoC's clock; the report."""
    soc = loop.soc
    clock = 0.0
    for event in events:
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        loop.deliver(event)
    soc.advance_time(duration_s - clock)
    return soc.report()


def _columnar_soc(**kwargs):
    return snapdragon_821(meter=ColumnarMeter(), **kwargs)


def _memo_loop(game_name, game=None, **soc_kwargs):
    game = game or fresh_game(game_name, seed=GAME_CONTENT_SEED)
    return MemoBaselineLoop(_columnar_soc(**soc_kwargs), game)


def _event_loop_report(game_name, events, game=None):
    """The report of every handler run through :class:`EventLoop`."""
    game = game or fresh_game(game_name, seed=GAME_CONTENT_SEED)
    return _play(EventLoop(_columnar_soc(), game), events)


def _fleet_spec(**overrides) -> FleetSpec:
    settings = dict(
        game_name="candy_crush",
        devices=4,
        sessions_per_device=1,
        duration_s=DURATION_S,
        seed=23,
        shard_size=2,
        profile_seeds=(1,),
        profile_duration_s=2.0,
        measure_energy=True,
        federate=True,
    )
    settings.update(overrides)
    return FleetSpec(**settings)


class TestMemoBaselineLoop:
    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_cold_and_warm_memo_charge_what_the_event_loop_charges(
        self, cold_memos, handler_calls, game_name
    ):
        events = generate_trace(game_name, 3, DURATION_S).events
        expected = pickle.dumps(_event_loop_report(game_name, events))
        handler_calls.clear()
        cold = _play(_memo_loop(game_name), events)
        runs = handler_calls["outside"]
        warm = _play(_memo_loop(game_name), events)
        assert pickle.dumps(cold) == expected
        assert pickle.dumps(warm) == expected
        # The warm pass found every event the cold pass recorded.
        assert 0 < runs <= len(events)
        assert handler_calls["outside"] == runs

    def test_patterns_follow_the_socs_power_profiles(self, cold_memos):
        defaults = pixel_xl_profiles()
        custom = dataclasses.replace(
            defaults,
            cpu=dataclasses.replace(
                defaults.cpu, big_energy_per_cycle=2 * defaults.cpu.big_energy_per_cycle
            ),
        )
        events = generate_trace("candy_crush", 1, DURATION_S).events
        # Default-profile patterns first: an entry whose pattern slot
        # ignored the profiles would pour the default phone's prices.
        _play(_memo_loop("candy_crush"), events)
        memoised = _play(_memo_loop("candy_crush", profiles=custom), events)
        scalar = _play(
            EventLoop(
                snapdragon_821(profiles=custom),
                create_game("candy_crush", seed=GAME_CONTENT_SEED),
            ),
            events,
        )
        assert pickle.dumps(memoised) == pickle.dumps(scalar)

    def test_unhashable_state_runs_the_handler_and_records_nothing(
        self, cold_memos, handler_calls
    ):
        events = generate_trace("candy_crush", 1, DURATION_S).events

        def game_with_a_list():
            game = fresh_game("candy_crush", seed=GAME_CONTENT_SEED)
            game.state.declare("scratch", [0], 8)
            return game

        expected = _event_loop_report("candy_crush", events, game_with_a_list())
        handler_calls.clear()
        loop = _memo_loop("candy_crush", game_with_a_list())
        report = _play(loop, events)
        assert handler_calls["outside"] == len(events)
        assert len(handler_memo.handler_memo(loop.game)._entries) == 0
        assert pickle.dumps(report) == pickle.dumps(expected)

    def test_the_cap_holds(self, cold_memos, monkeypatch):
        monkeypatch.setattr(handler_memo, "MEMO_CAP", 5)
        events = generate_trace("candy_crush", 1, DURATION_S).events
        expected = pickle.dumps(_event_loop_report("candy_crush", events))
        for _ in range(2):
            loop = _memo_loop("candy_crush")
            assert pickle.dumps(_play(loop, events)) == expected
        assert len(handler_memo.handler_memo(loop.game)._entries) == 5

    def test_needs_a_columnar_soc(self):
        with pytest.raises(SimulationError):
            MemoBaselineLoop(snapdragon_821(), fresh_game("colorphun"))

    @pytest.mark.parametrize(
        "component, state",
        [
            ("cpu", PowerState.SLEEP),
            ("gpu", PowerState.SLEEP),
            ("display", PowerState.OFF),
            ("touch", PowerState.SLEEP),
        ],
    )
    def test_a_pattern_is_never_poured_into_a_soc_with_a_component_not_idle(
        self, cold_memos, component, state
    ):
        events = generate_trace("candy_crush", 1, DURATION_S).events
        _play(_memo_loop("candy_crush"), events)  # every entry has a pattern
        loop = _memo_loop("candy_crush")
        soc = loop.soc
        loop.deliver(events[0])
        soc.all_components()[component].transition(state)
        records = soc.meter.record_count
        with pytest.raises(SimulationError):
            loop.deliver(events[1])
        assert soc.meter.record_count == records
        soc.all_components()[component].transition(PowerState.IDLE)
        loop.deliver(events[1])
        assert soc.meter.record_count > records


class TestSharedWithTheFold:
    def test_the_fold_runs_no_handler_after_the_baseline_pass(
        self, cold_memos, handler_calls
    ):
        spec = _fleet_spec(devices=2)
        package = CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
            spec.game_name, seeds=list(spec.profile_seeds), duration_s=spec.profile_duration_s
        )
        handler_calls.clear()
        for device in range(spec.devices):
            run_device(device, spec, package.selection, package.table, SnipConfig())
        assert handler_calls["folds"] == spec.devices
        assert handler_calls["outside"] > 0
        assert handler_calls["fold"] == 0

    def test_the_fold_replays_what_the_baseline_pass_recorded(self, cold_memos):
        """Entries the baseline pass recorded fold like the fold's own."""
        spec = _fleet_spec(devices=2, measure_energy=False)
        package = CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
            spec.game_name, seeds=list(spec.profile_seeds), duration_s=spec.profile_duration_s
        )
        events = generate_trace(spec.game_name, 4, DURATION_S).events

        def contribution():
            builder = ContributionBuilder(0, spec.game_name, package.selection)
            builder.add_session_events(events, 0)
            return pickle.dumps(builder.finish())

        own = contribution()
        handler_memo._MEMOS.clear()
        federated._FOLD_CACHES.clear()
        _play(_memo_loop(spec.game_name), events)
        assert contribution() == own

    def test_each_selection_folds_its_own_records(self, cold_memos):
        package = CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
            "candy_crush", seeds=[1], duration_s=2.0
        )
        narrower = SelectedInputs(
            by_event_type={
                event_type: fields[:-1] or fields
                for event_type, fields in package.selection.by_event_type.items()
            }
        )
        assert narrower.by_event_type != package.selection.by_event_type
        events = generate_trace("candy_crush", 4, DURATION_S).events

        def contribution(selection):
            builder = ContributionBuilder(0, "candy_crush", selection)
            builder.add_session_events(events, 0)
            return pickle.dumps(builder.finish())

        own = contribution(narrower)
        handler_memo._MEMOS.clear()
        federated._FOLD_CACHES.clear()
        contribution(package.selection)  # entries now hold its records
        assert contribution(narrower) == own

    def test_energy_fleet_after_a_fold_only_fleet_matches_a_cold_memo(
        self, cold_memos, monkeypatch
    ):
        FleetEngine(_fleet_spec(measure_energy=False), cache=None).run()
        entries = [
            entry
            for memo in handler_memo._MEMOS.values()
            for entry in memo._entries.values()
        ]
        assert entries and all(entry.pattern is None for entry in entries)
        warm = FleetEngine(_fleet_spec(), cache=None).run().to_json()
        # The energy fleet's baseline pass priced the fold's entries.
        assert all(entry.pattern is not None for entry in entries)
        monkeypatch.setattr(handler_memo, "_MEMOS", {})
        monkeypatch.setattr(federated, "_FOLD_CACHES", {})
        cold = FleetEngine(_fleet_spec(), cache=None).run().to_json()
        assert warm == cold


#: Games whose sessions reuse almost no (state, event) pair, so their
#: walks take the transition-miss path at nearly every event.
REUSE_NOTHING = ("greenwall", "chase_whisply", "race_kings")


@pytest.fixture(scope="module")
def selections():
    """Each game's profiled necessary-input selection, built on first use."""
    built = {}

    def selection(game_name):
        if game_name not in built:
            built[game_name] = CloudProfiler(
                SnipConfig(), cache=None
            ).build_package_from_sessions(
                game_name, seeds=[1], duration_s=DURATION_S
            ).selection
        return built[game_name]

    return selection


def _clear_memos():
    handler_memo._MEMOS.clear()
    federated._FOLD_CACHES.clear()


def _entry_view(entry):
    """What an entry holds of its handler run."""
    return (
        entry.writes, entry.signature, entry.total_cycles,
        entry.extern_values, entry.work,
    )


def _expected(game_name, trace, selection, make_game):
    """What every handler run on a live game makes of a session: the
    entries, the ``EventLoop`` report, and the scalar fold's upload."""
    game = make_game()
    entries = []
    for event in trace.events:
        game.advance_engine(event)
        handled = game.process(event)
        entries.append(_entry_view(MemoEntry(handled, handler_work(handled), None)))
    report = _play(EventLoop(_columnar_soc(), make_game()), trace.events)
    builder = ContributionBuilder(0, game_name, selection)
    builder.add_session(trace, 0)
    return entries, pickle.dumps(report), pickle.dumps(builder.finish())


def _walked(game_name, events, selection, make_game, prepare):
    """The same three, from the walk, the memo loop and the fold, each
    on the memos ``prepare`` leaves (the fold with no session-fold
    cache, so it walks too)."""
    prepare()
    step = MemoWalk(make_game()).step
    entries = [_entry_view(step(event, event_signature(event))) for event in events]
    prepare()
    report = _play(MemoBaselineLoop(_columnar_soc(), make_game()), events)
    prepare()
    federated._FOLD_CACHES.clear()
    builder = ContributionBuilder(0, game_name, selection)
    builder.add_session_events(events, 0)
    return entries, pickle.dumps(report), pickle.dumps(builder.finish())


def _handlers_run(handler_calls):
    return handler_calls["outside"] + handler_calls["fold"]


def _game_maker(game_name):
    return lambda: fresh_game(game_name, seed=GAME_CONTENT_SEED)


class TestMemoWalk:
    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_cold_and_warm_walks_match_every_handler_run(
        self, cold_memos, handler_calls, selections, game_name
    ):
        trace = generate_trace(game_name, 3, DURATION_S)
        make_game = _game_maker(game_name)
        expected = _expected(game_name, trace, selections(game_name), make_game)
        handler_calls.clear()
        cold = _walked(
            game_name, trace.events, selections(game_name), make_game, _clear_memos
        )
        assert cold == expected
        if game_name in REUSE_NOTHING:
            # Each cold pass (walk, loop, fold) runs nearly every handler.
            assert _handlers_run(handler_calls) >= 0.9 * 3 * len(trace)
        handler_calls.clear()
        warm = _walked(
            game_name, trace.events, selections(game_name), make_game, lambda: None
        )
        assert warm == expected
        assert _handlers_run(handler_calls) == 0

    def test_race_kings_ticks_its_engine(self):
        assert type(fresh_game("race_kings")).advance_engine is not Game.advance_engine

    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_a_miss_after_known_transitions_restores_the_game(
        self, cold_memos, selections, monkeypatch, game_name
    ):
        trace = generate_trace(game_name, 3, DURATION_S)
        events = trace.events
        make_game = _game_maker(game_name)
        expected = _expected(game_name, trace, selections(game_name), make_game)
        restores = Counter()
        restore = StateNode.restore

        def counting_restore(node, game):
            restores["calls"] += 1
            restore(node, game)

        monkeypatch.setattr(StateNode, "restore", counting_restore)

        def first_half_walked():
            # The full walk hits every transition of the first half on
            # a Game it leaves behind, then misses.
            _clear_memos()
            step = MemoWalk(make_game()).step
            for event in events[: len(events) // 2]:
                step(event, event_signature(event))

        walked = _walked(
            game_name, events, selections(game_name), make_game, first_half_walked
        )
        assert walked == expected
        assert restores["calls"] >= 3

    def test_the_cap_holds(self, cold_memos, selections, monkeypatch):
        trace = generate_trace("candy_crush", 3, DURATION_S)
        make_game = _game_maker("candy_crush")
        expected = _expected(
            "candy_crush", trace, selections("candy_crush"), make_game
        )
        monkeypatch.setattr(handler_memo, "MEMO_CAP", 5)
        for prepare in (_clear_memos, lambda: None):
            walked = _walked(
                "candy_crush", trace.events, selections("candy_crush"), make_game, prepare
            )
            assert walked == expected
        memo = handler_memo.handler_memo(make_game())
        assert len(memo._entries) == 5
        assert len(memo._nodes) == 5
        assert memo.transition_count == 5

    def test_an_unhashable_state_cell_runs_every_handler(
        self, cold_memos, handler_calls, selections, monkeypatch
    ):
        def game_with_a_list(*args, **kwargs):
            game = fresh_game("candy_crush", seed=GAME_CONTENT_SEED)
            game.state.declare("scratch", [0], 8)
            return game

        trace = generate_trace("candy_crush", 3, DURATION_S)
        expected = _expected(
            "candy_crush", trace, selections("candy_crush"), game_with_a_list
        )
        monkeypatch.setattr(federated, "fresh_game", game_with_a_list)
        for prepare in (_clear_memos, lambda: None):
            handler_calls.clear()
            walked = _walked(
                "candy_crush", trace.events, selections("candy_crush"),
                game_with_a_list, prepare,
            )
            assert walked == expected
            assert _handlers_run(handler_calls) == 3 * len(trace)
        memo = handler_memo.handler_memo(game_with_a_list())
        assert not memo._entries and not memo._nodes and memo.transition_count == 0
