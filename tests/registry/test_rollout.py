"""Staged rollout: cohort dealing, determinism, and the online verdict."""

import pytest

from repro.errors import FleetError, PromotionError
from repro.fleet import FleetSpec, SerialExecutor, make_executor
from repro.fleet.engine import FleetEngine
from repro.fleet.spec import (
    COHORT_CHALLENGER,
    COHORT_CHAMPION,
    assign_cohort,
)
from repro.registry import (
    PackageRegistry,
    PromotionPolicy,
    STATUS_CHAMPION,
    judge_cohorts,
    run_staged_rollout,
)
from repro.registry.rollout import ACTION_PROMOTED, ACTION_ROLLED_BACK

from tests.registry.conftest import GAME, make_metrics


def rollout_spec(**overrides):
    payload = dict(
        game_name=GAME,
        devices=6,
        duration_s=4.0,
        seed=3,
        shard_size=2,
        profile_seeds=(1,),
        profile_duration_s=6.0,
        challenger_fraction=0.5,
    )
    payload.update(overrides)
    return FleetSpec(**payload)


class TestCohortAssignment:
    def test_pure_function_of_salt_and_device(self):
        for device_id in range(200):
            first = assign_cohort(device_id, 0.3, salt=7)
            assert assign_cohort(device_id, 0.3, salt=7) == first

    def test_extremes(self):
        assert assign_cohort(5, 0.0, salt=1) == COHORT_CHAMPION
        assert assign_cohort(5, 1.0, salt=1) == COHORT_CHALLENGER

    def test_fraction_growth_only_adds_testers(self):
        # Widening a rollout must never evict an enrolled device.
        for fraction, wider in ((0.1, 0.3), (0.3, 0.7)):
            for device_id in range(300):
                if assign_cohort(device_id, fraction, salt=3) == COHORT_CHALLENGER:
                    assert (
                        assign_cohort(device_id, wider, salt=3)
                        == COHORT_CHALLENGER
                    )

    def test_fraction_roughly_respected(self):
        dealt = sum(
            assign_cohort(device_id, 0.25, salt=9) == COHORT_CHALLENGER
            for device_id in range(2000)
        )
        assert 0.18 < dealt / 2000 < 0.32

    def test_salt_reshuffles(self):
        assignments = [
            tuple(assign_cohort(d, 0.5, salt=salt) for d in range(64))
            for salt in (1, 2)
        ]
        assert assignments[0] != assignments[1]

    def test_stable_across_shard_sizes(self, config, package_a, package_b):
        # Cohort membership lives in the per-device results, so the
        # census of each cohort must be invariant under resharding.
        def cohorts_text(shard_size, executor=None):
            engine = FleetEngine(
                rollout_spec(shard_size=shard_size),
                executor=executor,
                config=config,
                package=package_a,
                challenger=package_b,
            )
            return engine.run().to_text()

        reference = cohorts_text(2)
        assert "cohort challenger" in reference
        for shard_size in (1, 3, 6):
            assert cohorts_text(shard_size) == reference
        assert cohorts_text(2, make_executor(4)) == reference


class TestEngineCohorts:
    def test_challenger_fraction_requires_challenger(self, config, package_a):
        with pytest.raises(FleetError, match="challenger"):
            FleetEngine(rollout_spec(), config=config, package=package_a)

    def test_no_split_reports_no_cohorts(self, config, package_a):
        engine = FleetEngine(
            rollout_spec(challenger_fraction=0.0),
            config=config,
            package=package_a,
        )
        report = engine.run()
        assert report.cohorts is None
        assert "rollout:" not in report.to_text()

    def test_cohort_totals_partition_the_fleet(
        self, config, package_a, package_b
    ):
        report = FleetEngine(
            rollout_spec(), config=config,
            package=package_a, challenger=package_b,
        ).run()
        assert report.cohorts is not None
        assert sum(t.devices for t in report.cohorts.values()) == 6
        assert sum(t.events for t in report.cohorts.values()) == (
            report.totals.events
        )


class TestJudgeCohorts:
    def _totals(self, savings, hit_rate, devices=3):
        from repro.fleet.reducers import FleetTotals

        baseline = 100.0
        return FleetTotals(
            devices=devices,
            sessions=devices,
            events=100,
            snip_joules=baseline * (1 - savings),
            baseline_joules=baseline,
            hits=int(hit_rate * 1000),
            misses=1000 - int(hit_rate * 1000),
            avoided_cycles=1.0,
            executed_cycles=1.0,
            raw_uplink_bytes=0,
        )

    def test_better_cohort_promotes(self):
        decision = judge_cohorts(
            2, 1,
            {
                COHORT_CHAMPION: self._totals(0.30, 0.90),
                COHORT_CHALLENGER: self._totals(0.35, 0.95),
            },
            PromotionPolicy(),
        )
        assert decision.promoted

    def test_worse_cohort_rolls_back(self):
        decision = judge_cohorts(
            2, 1,
            {
                COHORT_CHAMPION: self._totals(0.35, 0.95),
                COHORT_CHALLENGER: self._totals(0.30, 0.90),
            },
            PromotionPolicy(),
        )
        assert not decision.promoted

    def test_energy_floor_gates_the_cohort(self):
        decision = judge_cohorts(
            2, 1,
            {
                COHORT_CHAMPION: self._totals(0.05, 0.50),
                COHORT_CHALLENGER: self._totals(0.10, 0.60),
            },
            PromotionPolicy(min_energy_saved_fraction=0.20),
        )
        assert not decision.promoted
        assert any("floor" in reason for reason in decision.reasons)

    def test_empty_challenger_cohort_keeps_champion(self):
        decision = judge_cohorts(
            2, 1,
            {COHORT_CHAMPION: self._totals(0.30, 0.90)},
            PromotionPolicy(),
        )
        assert not decision.promoted
        assert any("empty" in reason for reason in decision.reasons)


class TestStagedRollout:
    def _seeded_registry(self, root, config, package_a, package_b):
        registry = PackageRegistry(root)
        registry.publish(GAME, config, package_a, make_metrics())
        registry.promote(GAME, config)
        registry.publish(GAME, config, package_b, make_metrics())
        return registry

    def test_requires_cohort_split(
        self, tmp_path, config, package_a, package_b
    ):
        registry = self._seeded_registry(
            tmp_path, config, package_a, package_b
        )
        with pytest.raises(PromotionError, match="challenger_fraction"):
            run_staged_rollout(
                registry, GAME,
                rollout_spec(challenger_fraction=0.0), config=config,
            )

    def test_requires_champion(self, tmp_path, config, package_a):
        registry = PackageRegistry(tmp_path)
        registry.publish(GAME, config, package_a, make_metrics())
        with pytest.raises(PromotionError, match="no champion"):
            run_staged_rollout(registry, GAME, rollout_spec(), config=config)

    def test_verdict_is_recorded_and_applied(
        self, tmp_path, config, package_a, package_b
    ):
        registry = self._seeded_registry(
            tmp_path, config, package_a, package_b
        )
        result = run_staged_rollout(
            registry, GAME, rollout_spec(), config=config
        )
        state = registry.load_state(GAME, config)
        assert result.challenger_version == 2
        assert state.entries[2].decision == result.decision
        if result.action == ACTION_PROMOTED:
            assert state.champion_version == 2
            assert state.entries[2].status == STATUS_CHAMPION
        else:
            assert result.action == ACTION_ROLLED_BACK
            assert state.champion_version == 1
        assert "rollout verdict" in result.to_text()

    def test_registry_state_identical_across_jobs(
        self, tmp_path, config, package_a, package_b
    ):
        texts = []
        states = []
        for label, executor in (
            ("serial", SerialExecutor()),
            ("parallel", make_executor(4)),
        ):
            registry = self._seeded_registry(
                tmp_path / label, config, package_a, package_b
            )
            result = run_staged_rollout(
                registry, GAME, rollout_spec(), config=config,
                executor=executor,
            )
            texts.append(result.to_text())
            states.append(registry.state_path(GAME, config).read_bytes())
        assert texts[0] == texts[1]
        assert states[0] == states[1]
