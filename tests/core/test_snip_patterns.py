"""The SNIP runtime's cached charge patterns on a columnar SoC.

On a columnar SoC, :meth:`SnipRuntime.deliver` pours each event's
charges from patterns cached per event type (delivery + upkeep +
probe) and per table entry (that, plus the hit's scan-out and
write-back), and runs its misses through the process-wide handler memo.
These tests hold that path to the plain-meter scalar session, and to
the limits of its caches: the IDLE-components precondition, the SoC's
power profiles, entries that leave the table, and a runtime whose
probe is free. Two strict xfails pin known defects in the keys the
runtime learns and audits under.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import Counter, defaultdict

import pytest

from repro.android.events import EventType
from repro.core.config import SnipConfig
from repro.core.profiler import CloudProfiler
from repro.core.quality import QualityController
from repro.core.runtime import SnipRuntime
from repro.core.selection import SelectedInputs
from repro.core.table import SnipTable, TableEntry
from repro.errors import SimulationError
from repro.games import handler_memo
from repro.games.base import FieldWrite, OutputCategory
from repro.games.registry import GAME_CONTENT_SEED, GAME_NAMES, create_game, fresh_game
from repro.schemes.no_overheads import _FreeLookupRuntime
from repro.soc.component import PowerState
from repro.soc.energy import TAG_EVENT, TAG_LOOKUP, ColumnarMeter
from repro.soc.power_profiles import pixel_xl_profiles
from repro.soc.soc import snapdragon_821
from repro.users.tracegen import generate_trace

#: colorphun's frame ticks on no necessary input: every tick shares the
#: key ``()``, and two ticks in a row agree on their outputs, so online
#: learning promotes them.
GAME = "colorphun"
FRAME_SELECTION = SelectedInputs(by_event_type={EventType.FRAME_TICK: []})


@pytest.fixture()
def cold_memos(monkeypatch):
    """Empty handler memos for one test."""
    monkeypatch.setattr(handler_memo, "_MEMOS", {})


def _custom_profiles():
    """The default phone with dearer CPU cycles, DRAM bytes and scan-outs:
    every charge a probe, a hit or a handler makes is priced differently."""
    defaults = pixel_xl_profiles()
    return dataclasses.replace(
        defaults,
        cpu=dataclasses.replace(
            defaults.cpu, big_energy_per_cycle=2 * defaults.cpu.big_energy_per_cycle
        ),
        memory=dataclasses.replace(
            defaults.memory, energy_per_byte=3 * defaults.memory.energy_per_byte
        ),
        display=dataclasses.replace(
            defaults.display,
            energy_per_work_unit=1.5 * defaults.display.energy_per_work_unit,
        ),
    )


def _entry(nbytes: int) -> TableEntry:
    write = FieldWrite("temp:banner", OutputCategory.TEMP, nbytes, nbytes, True)
    return TableEntry(writes=(write,), avg_cycles=1.0, profile_weight=1.0)


def _frame_runtime(soc, entry: TableEntry, runtime_cls=SnipRuntime):
    """A colorphun runtime whose table holds ``entry`` for frame ticks."""
    table = SnipTable(FRAME_SELECTION)
    table.install_entry(EventType.FRAME_TICK, (), entry)
    return runtime_cls(soc, fresh_game(GAME, seed=GAME_CONTENT_SEED), table)


def _play(runtime, events, duration_s, at=None, action=None):
    """Deliver a session on the SoC's clock, calling ``action(runtime)``
    before event ``at``; the pickled report and runtime counters."""
    soc = runtime.soc
    clock = 0.0
    for index, event in enumerate(events):
        if index == at:
            action(runtime)
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        runtime.deliver(event)
    soc.advance_time(duration_s - clock)
    return pickle.dumps(soc.report()), pickle.dumps(runtime.stats)


class TestIdlePrecondition:
    @pytest.mark.parametrize(
        "component, state", [("gpu", PowerState.SLEEP), ("display", PowerState.OFF)]
    )
    def test_a_component_not_idle_raises_and_charges_nothing(
        self, cold_memos, component, state
    ):
        events = generate_trace(GAME, 1, 2.0).events
        soc = snapdragon_821(meter=ColumnarMeter())
        runtime = _frame_runtime(soc, _entry(64))
        runtime.deliver(events[0])
        soc.all_components()[component].transition(state)
        records, delivered = soc.meter.record_count, runtime.stats.events
        with pytest.raises(SimulationError):
            runtime.deliver(events[1])
        assert soc.meter.record_count == records
        assert runtime.stats.events == delivered
        soc.all_components()[component].transition(PowerState.IDLE)
        runtime.deliver(events[1])
        assert soc.meter.record_count > records


class TestPouredMatchesScalar:
    @pytest.mark.parametrize("game_name", GAME_NAMES)
    def test_custom_profile_session_on_a_cold_and_a_warm_memo(
        self, cold_memos, game_name
    ):
        config = SnipConfig()
        package = CloudProfiler(config, cache=None).build_package_from_sessions(
            game_name, seeds=[1], duration_s=10.0
        )
        events = generate_trace(game_name, 9, 20.0).events
        custom = _custom_profiles()

        def session(soc):
            game = create_game(game_name, seed=GAME_CONTENT_SEED)
            return _play(SnipRuntime(soc, game, package.table.clone(), config), events, 20.0)

        scalar = session(snapdragon_821(profiles=custom))
        cold = session(snapdragon_821(profiles=custom, meter=ColumnarMeter()))
        # Warm the memo afresh with default-profile patterns: a cache
        # that ignored the profiles would then pour the default prices.
        handler_memo._MEMOS.clear()
        session(snapdragon_821(meter=ColumnarMeter()))
        warm = session(snapdragon_821(profiles=custom, meter=ColumnarMeter()))
        assert cold == scalar
        assert warm == scalar
        assert pickle.loads(scalar[1]).hits > 0


class TestHitPatternsFollowTheLiveEntry:
    @pytest.mark.parametrize("change", ["clear", "replace"])
    def test_no_stale_hit_pattern_is_poured(self, cold_memos, change):
        """Halfway through, the frame-tick entry leaves the table: cleared
        (online learning then promotes the handler's own outputs under
        the same key) or replaced by an entry that writes 4 kB."""
        events = generate_trace(GAME, 1, 4.0).events
        half = len(events) // 2

        def action(runtime):
            if change == "clear":
                runtime.table.clear()
            else:
                runtime.table.install_entry(EventType.FRAME_TICK, (), _entry(4096))

        def session(soc, at=half):
            runtime = _frame_runtime(soc, _entry(64))
            played = _play(runtime, events, 4.0, at=at, action=action)
            return played, runtime

        scalar, _ = session(snapdragon_821())
        poured, runtime = session(snapdragon_821(meter=ColumnarMeter()))
        unchanged, _ = session(snapdragon_821(), at=None)
        assert poured == scalar
        # The change shows in the ledger, so a stale pattern would too.
        assert scalar[0] != unchanged[0]
        stats = runtime.stats
        assert stats.hits > half
        if change == "clear":
            assert stats.online_promotions > 0


class TestFreeLookup:
    def test_the_free_lookup_runtime_charges_nothing_under_lookup(self, cold_memos):
        """Hits on an entry without writes and on one with writes: neither
        the probe nor the write-back is charged, and the frame's scan-out
        is."""
        events = generate_trace(GAME, 1, 4.0).events
        silent = TableEntry(writes=(), avg_cycles=1.0, profile_weight=1.0)
        for entry in (silent, _entry(64)):
            reports = {}
            for runtime_cls in (SnipRuntime, _FreeLookupRuntime):
                soc = snapdragon_821(meter=ColumnarMeter())
                runtime = _frame_runtime(soc, entry, runtime_cls)
                _play(runtime, events, 4.0)
                assert runtime.stats.hits > 0
                reports[runtime_cls] = soc.report()
            assert reports[SnipRuntime].by_tag.get(TAG_LOOKUP, 0.0) > 0
            assert TAG_LOOKUP not in reports[_FreeLookupRuntime].by_tag
            assert (
                reports[_FreeLookupRuntime].by_tag[TAG_EVENT]
                == reports[SnipRuntime].by_tag[TAG_EVENT]
            )


class _KeyLog(SnipRuntime):
    """A runtime that logs every live key it reads, per event."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.reads = defaultdict(list)

    def live_key(self, event):
        key = super().live_key(event)
        self.reads[event.sequence].append(key)
        return key


def _key_log(game_name: str) -> _KeyLog:
    config = SnipConfig()
    package = CloudProfiler(config, cache=None).build_package_from_sessions(
        game_name, seeds=[1], duration_s=15.0
    )
    soc = snapdragon_821(meter=ColumnarMeter())
    game = fresh_game(game_name, seed=GAME_CONTENT_SEED)
    return _KeyLog(soc, game, package.table.clone(), config)


class TestKnownKeyDefects:
    """Only the defect's assertion may fail (``raises=AssertionError``);
    a test that no longer observes both key reads fails outright."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="_learn_online re-reads live_key after the handler ran, so a "
        "history-keyed selection learns under the post-handler state",
    )
    @pytest.mark.parametrize("game_name", ["colorphun", "chase_whisply"])
    def test_online_learning_keys_on_the_probed_state(self, game_name):
        runtime = _key_log(game_name)
        events = generate_trace(game_name, 9, 30.0).events
        _play(runtime, events, 30.0)
        # A learning miss reads the key twice: the probe, then the re-read.
        learned = [keys for keys in runtime.reads.values() if len(keys) == 2]
        if not learned:
            pytest.fail(
                "no learning miss read its key twice: if _learn_online no longer "
                "re-reads, the defect is fixed and this xfail should go"
            )
        assert [keys for keys in learned if keys[0] != keys[1]] == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="QualityController.deliver audits before deliver runs "
        "advance_engine, so the audit keys on another state than the probe",
    )
    def test_the_audit_keys_on_the_probed_state(self):
        runtime = _key_log("race_kings")
        controller = QualityController(runtime, audit_rate=1.0)
        events = generate_trace("race_kings", 9, 30.0).events
        soc = runtime.soc
        clock = 0.0
        outcomes = Counter()
        for event in events:
            if event.timestamp > clock:
                soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            audited = runtime.enabled and runtime.table.knows(event.event_type)
            controller.deliver(event)
            if audited:
                reads = runtime.reads[event.sequence]
                if len(reads) < 2:
                    pytest.fail(f"event {event.sequence} read {len(reads)} keys, not 2")
                outcomes[reads[0] == reads[1]] += 1
        assert outcomes[False] == 0
