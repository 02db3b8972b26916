"""Profiler/registry integration: publishing profiled candidates."""

from repro.core.package_cache import package_digest
from repro.registry import PackageRegistry, publish_candidate

from tests.registry.conftest import GAME


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
