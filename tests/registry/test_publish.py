"""Profiler/scheme integration: publishing candidates, serving champions."""

import pytest

from repro.core.package_cache import package_digest
from repro.core.serialization import table_to_dict
from repro.errors import SchemeError
from repro.registry import PackageRegistry, publish_candidate
from repro.schemes.snip_scheme import SnipScheme

from tests.registry.conftest import GAME, make_metrics


class TestPublishCandidate:
    def test_entry_keyed_by_profiler_digest(self, tmp_path, config):
        registry = PackageRegistry(tmp_path)
        entry, package, created = publish_candidate(
            registry, GAME, seeds=[1], duration_s=6.0, config=config,
            eval_duration_s=6.0, measure_energy=False,
        )
        assert created
        assert entry.digest == package_digest(GAME, config, [1], 6.0)
        assert registry.load_package(entry).table_bytes == package.table_bytes

    def test_republish_is_a_noop(self, tmp_path, config):
        registry = PackageRegistry(tmp_path)
        first, _, created = publish_candidate(
            registry, GAME, seeds=[1], duration_s=6.0, config=config,
            eval_duration_s=6.0, measure_energy=False,
        )
        again, _, created_again = publish_candidate(
            registry, GAME, seeds=[1], duration_s=6.0, config=config,
            eval_duration_s=6.0, measure_energy=False,
        )
        assert created and not created_again
        assert again.version == first.version

    def test_metrics_are_measured(self, tmp_path, config):
        registry = PackageRegistry(tmp_path)
        entry, _, _ = publish_candidate(
            registry, GAME, seeds=[1], duration_s=6.0, config=config,
            eval_duration_s=6.0,
        )
        assert 0.0 < entry.metrics.hit_rate <= 1.0
        assert 0.0 < entry.metrics.selection_accuracy <= 1.0
        assert entry.metrics.energy_saved_fraction is not None
        assert entry.metrics.table_bytes > 0


class TestSchemeRegistry:
    def test_prepare_serves_the_champion(
        self, tmp_path, config, package_a, package_b
    ):
        registry = PackageRegistry(tmp_path)
        registry.publish(GAME, config, package_a, make_metrics())
        registry.promote(GAME, config)
        # The scheme's own profile settings differ from the champion's,
        # so only the registry can explain serving package_a.
        scheme = SnipScheme(
            config=config,
            profile_seeds=(9,),
            profile_duration_s=5.0,
            cache=None,
            registry=registry,
        )
        served = scheme.prepare(GAME)
        assert table_to_dict(served.table) == table_to_dict(package_a.table)

    def test_prepare_falls_back_without_champion(self, tmp_path, config):
        registry = PackageRegistry(tmp_path)
        scheme = SnipScheme(
            config=config,
            profile_seeds=(1,),
            profile_duration_s=6.0,
            cache=None,
            registry=registry,
        )
        package = scheme.prepare(GAME)
        assert package.game_name == GAME

    def test_publish_registers_a_candidate(self, tmp_path, config):
        registry = PackageRegistry(tmp_path)
        scheme = SnipScheme(
            config=config,
            profile_seeds=(1,),
            profile_duration_s=6.0,
            registry=registry,
        )
        entry = scheme.publish(GAME, measure_energy=False)
        assert entry.version == 1
        state = registry.load_state(GAME, config)
        assert state.champion_version is None  # candidates still gated

    def test_publish_without_registry_raises(self):
        with pytest.raises(SchemeError, match="registry"):
            SnipScheme().publish(GAME)
