"""Tests for the quality controller and federated table building."""

import pytest

from repro.core.config import SnipConfig
from repro.core.federated import (
    ContributionBuilder,
    FederatedAggregator,
    federate_contributions,
)
from repro.core.quality import QualityController
from repro.core.runtime import SnipRuntime
from repro.core.table import TableEntry
from repro.errors import ProfilerError
from repro.games.base import FieldWrite, OutputCategory
from repro.games.registry import GAME_CONTENT_SEED, create_game
from repro.soc.soc import snapdragon_821
from repro.users.population import Population
from repro.users.tracegen import generate_events


def _runtime(table, config=None):
    soc = snapdragon_821()
    game = create_game("ab_evolution", seed=GAME_CONTENT_SEED)
    return SnipRuntime(soc, game, table, config or SnipConfig())


def _drive(controller, seed=7, duration=15.0):
    soc = controller.runtime.soc
    clock = 0.0
    for event in generate_events("ab_evolution", seed, duration):
        if event.timestamp > clock:
            soc.advance_time(event.timestamp - clock)
            clock = event.timestamp
        controller.deliver(event)


class TestQualityController:
    def test_healthy_runtime_stays_enabled(self, ab_package):
        controller = QualityController(
            _runtime(ab_package.table.clone()), audit_rate=0.2
        )
        _drive(controller)
        report = controller.report()
        assert report.snip_enabled
        assert report.audited_hits > 0
        assert report.rolling_error < 0.2

    def test_poisoned_table_triggers_clear(self, ab_package):
        # Corrupt every stored output: audits must catch it.
        poisoned = ab_package.table.clone()
        for event_type in list(poisoned._entries):
            for key, entry in list(poisoned._entries[event_type].items()):
                bad_writes = tuple(
                    FieldWrite(w.name, w.category, ("corrupt", w.value),
                               w.nbytes, w.changed)
                    for w in entry.writes
                ) or (FieldWrite("hist:fake", OutputCategory.HISTORY,
                                 1, 4, True),)
                poisoned.install_entry(
                    event_type, key,
                    TableEntry(bad_writes, entry.avg_cycles, entry.profile_weight),
                )
        controller = QualityController(
            _runtime(poisoned, SnipConfig(online_warmup=0)),
            audit_rate=0.5, window=20, clear_threshold=0.2, max_clears=1,
        )
        _drive(controller, duration=20.0)
        report = controller.report()
        assert report.clears >= 1 or not report.snip_enabled
        assert report.audit_errors > 0

    def test_user_complaints_disable_snip(self, ab_package):
        controller = QualityController(
            _runtime(ab_package.table.clone()), complaint_limit=2
        )
        controller.user_feedback(satisfied=False)
        assert controller.runtime.enabled
        controller.user_feedback(satisfied=False)
        assert not controller.runtime.enabled

    def test_satisfied_feedback_heals(self, ab_package):
        controller = QualityController(
            _runtime(ab_package.table.clone()), complaint_limit=2
        )
        controller.user_feedback(satisfied=False)
        controller.user_feedback(satisfied=True)
        controller.user_feedback(satisfied=False)
        assert controller.runtime.enabled  # never reached the limit

    def test_disabled_runtime_takes_baseline_path(self, ab_package):
        runtime = _runtime(ab_package.table.clone())
        runtime.enabled = False
        clock = 0.0
        for event in generate_events("ab_evolution", 7, 5.0):
            if event.timestamp > clock:
                runtime.soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runtime.deliver(event)
        assert runtime.stats.hits == 0
        assert runtime.soc.meter.tag_joules("lookup") == 0.0

    def test_parameters_validated(self, ab_package):
        runtime = _runtime(ab_package.table.clone())
        with pytest.raises(ValueError):
            QualityController(runtime, audit_rate=0.0)
        with pytest.raises(ValueError):
            QualityController(runtime, window=2)
        with pytest.raises(ValueError):
            QualityController(runtime, clear_threshold=1.0)


class TestFederated:
    @pytest.fixture(scope="class")
    def fleet(self, ab_package):
        """Three devices' uploads, two 20 s sessions each."""
        population = Population(seed=3)
        contributions = []
        for device_id in range(3):
            builder = ContributionBuilder(
                device_id, "ab_evolution", ab_package.selection
            )
            for session in range(2):
                trace = population.user_trace("ab_evolution", device_id, session, 20.0)
                builder.add_session_events(trace.events, session)
            contributions.append(builder.finish())
        return contributions

    def test_contribution_carries_statistics(self, ab_package, fleet):
        contribution = fleet[0]
        assert contribution.events_observed > 0
        assert contribution.signature_weight
        assert contribution.upload_bytes > 0

    def test_contribution_requires_sessions(self, ab_package):
        with pytest.raises(ProfilerError):
            ContributionBuilder(0, "ab_evolution", ab_package.selection).finish()

    def test_federate_builds_working_table(self, ab_package, fleet):
        table, uplink = federate_contributions(
            fleet, ab_package.selection, SnipConfig()
        )
        assert table.entry_count > 0
        assert uplink > 0
        # The fleet table must serve a fresh user.
        runtime = _runtime(table, SnipConfig())
        clock = 0.0
        for event in generate_events("ab_evolution", 99, 15.0):
            if event.timestamp > clock:
                runtime.soc.advance_time(event.timestamp - clock)
                clock = event.timestamp
            runtime.deliver(event)
        assert runtime.stats.hit_rate > 0.3

    def test_uplink_is_kilobytes_not_gigabytes(self, ab_package, fleet):
        _, uplink = federate_contributions(
            fleet, ab_package.selection, SnipConfig()
        )
        # The federated upload is per-key statistics: kilobytes, versus
        # the multi-gigabyte naive record store the central profiler
        # would otherwise have to materialise (and zero raw events).
        assert uplink < 2_000_000
        assert uplink < ab_package.full_record_bytes / 1000

    def test_aggregator_requires_contributions(self, ab_package):
        aggregator = FederatedAggregator(ab_package.selection, SnipConfig())
        with pytest.raises(ProfilerError):
            aggregator.build_table()

    def test_fleet_confirmation_promotes_keys(self, ab_package, fleet):
        config = SnipConfig()
        aggregator = FederatedAggregator(ab_package.selection, config)
        for contribution in fleet:
            aggregator.merge(contribution)
        assert aggregator.contribution_count == len(fleet)
        table = aggregator.build_table()
        assert table.entry_count > 0
