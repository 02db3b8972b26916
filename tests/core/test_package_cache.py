"""The content-addressed package cache: keys, round-trips, hygiene."""

import dataclasses

import pytest

from repro.core.config import SnipConfig
from repro.core.overrides import DeveloperOverrides
from repro.core.package_cache import (
    PackageCache,
    code_digest,
    default_cache_root,
    package_digest,
)
from repro.core.profiler import CloudProfiler, SnipPackage
from repro.core.serialization import (
    package_from_bytes,
    package_to_bytes,
    table_to_dict,
)
from repro.errors import MemoizationError
from repro.schemes.snip_scheme import SnipScheme

GAME = "candy_crush"
SEEDS = [1]
DURATION = 10.0


@pytest.fixture(scope="module")
def built_package():
    return CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
        GAME, seeds=SEEDS, duration_s=DURATION
    )


class TestPackageDigest:
    def test_stable_across_calls(self):
        config = SnipConfig()
        assert package_digest(GAME, config, SEEDS, DURATION) == package_digest(
            GAME, config, SEEDS, DURATION
        )

    def test_sensitive_to_every_input(self):
        config = SnipConfig()
        base = package_digest(GAME, config, SEEDS, DURATION)
        assert package_digest("ab_evolution", config, SEEDS, DURATION) != base
        assert package_digest(GAME, config, [2], DURATION) != base
        assert package_digest(GAME, config, SEEDS, DURATION + 1) != base
        tweaked = dataclasses.replace(config, forest_trees=config.forest_trees + 1)
        assert package_digest(GAME, tweaked, SEEDS, DURATION) != base
        forced = DeveloperOverrides(forced_everywhere={"score"})
        assert package_digest(GAME, config, SEEDS, DURATION, forced) != base

    def test_default_overrides_match_none(self):
        config = SnipConfig()
        assert package_digest(GAME, config, SEEDS, DURATION) == package_digest(
            GAME, config, SEEDS, DURATION, DeveloperOverrides()
        )

    def test_code_digest_memoized_and_hexadecimal(self):
        first = code_digest()
        assert first == code_digest()
        int(first, 16)


class TestPackageCacheStore:
    def test_round_trip_preserves_package(self, tmp_path, built_package):
        cache = PackageCache(tmp_path)
        key = package_digest(GAME, SnipConfig(), SEEDS, DURATION)
        cache.store(key, built_package)
        loaded = cache.load(key)
        assert isinstance(loaded, SnipPackage)
        assert loaded.game_name == built_package.game_name
        assert loaded.profile_events == built_package.profile_events
        assert loaded.uplink_bytes == built_package.uplink_bytes
        assert loaded.table_bytes == built_package.table_bytes
        assert table_to_dict(loaded.table) == table_to_dict(built_package.table)
        assert (
            loaded.selection.by_event_type == built_package.selection.by_event_type
        )

    def test_miss_returns_none(self, tmp_path):
        assert PackageCache(tmp_path).load("no-such-key") is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, built_package):
        cache = PackageCache(tmp_path)
        path = cache.store("key", built_package)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.load("key") is None
        assert not path.exists()

    def test_corrupt_evictions_are_counted(self, tmp_path, built_package):
        cache = PackageCache(tmp_path)
        assert cache.stats().corrupt_evictions == 0
        for round_ in range(2):
            path = cache.store("key", built_package)
            path.write_bytes(b"not a package")
            assert cache.load("key") is None
            assert cache.stats().corrupt_evictions == round_ + 1
        # A clean hit does not move the counter.
        cache.store("key", built_package)
        assert cache.load("key") is not None
        assert cache.corrupt_evictions() == 2

    def test_remove_returns_reclaimed_bytes(self, tmp_path, built_package):
        cache = PackageCache(tmp_path)
        path = cache.store("a", built_package)
        size = path.stat().st_size
        assert cache.remove("a") == size
        assert cache.remove("a") is None
        assert cache.load("a") is None

    def test_stats_and_clear(self, tmp_path, built_package):
        cache = PackageCache(tmp_path)
        assert cache.stats().entries == 0
        cache.store("a", built_package)
        cache.store("b", built_package)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.root == str(tmp_path)
        assert stats.to_dict()["entries"] == 2
        cleared = cache.clear()
        assert cleared.entries == 2
        assert cleared.bytes_reclaimed == stats.total_bytes
        assert cache.stats().entries == 0


class TestPackageFrame:
    def test_every_proper_prefix_is_malformed(self, built_package):
        payload = package_to_bytes(built_package)
        # Only the over-the-air artifact is framed, not the PFI analysis.
        assert len(payload) < 16_000
        for cut in range(len(payload)):
            with pytest.raises(MemoizationError):
                package_from_bytes(payload[:cut])
        assert isinstance(package_from_bytes(payload), SnipPackage)

    def test_an_older_frame_is_malformed(self, built_package):
        payload = package_to_bytes(built_package)
        with pytest.raises(MemoizationError):
            package_from_bytes(b"SNIPPKG1" + payload[8:])


class TestCacheConfiguration:
    def test_env_overrides_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNIP_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"

    def test_profiler_cache_none_disables(self):
        assert CloudProfiler(cache=None).cache is None


class TestCacheHits:
    def test_second_build_skips_profiling(self, tmp_path, monkeypatch):
        cache = PackageCache(tmp_path)
        builds = []
        original = CloudProfiler.build_package

        def counting(self, game_name, traces):
            builds.append(game_name)
            return original(self, game_name, traces)

        monkeypatch.setattr(CloudProfiler, "build_package", counting)
        first = CloudProfiler(cache=cache).build_package_from_sessions(
            GAME, seeds=SEEDS, duration_s=DURATION
        )
        second = CloudProfiler(cache=cache).build_package_from_sessions(
            GAME, seeds=SEEDS, duration_s=DURATION
        )
        assert builds == [GAME]
        assert table_to_dict(first.table) == table_to_dict(second.table)

    def test_scheme_prepare_hits_shared_cache(self, tmp_path, monkeypatch):
        cache = PackageCache(tmp_path)
        builds = []
        original = CloudProfiler.build_package

        def counting(self, game_name, traces):
            builds.append(game_name)
            return original(self, game_name, traces)

        monkeypatch.setattr(CloudProfiler, "build_package", counting)

        def prepare():
            # Fresh scheme each time: only the on-disk cache is shared.
            scheme = SnipScheme(
                profile_seeds=SEEDS, profile_duration_s=DURATION, cache=cache
            )
            return scheme.prepare(GAME)

        first = prepare()
        second = prepare()
        assert builds == [GAME]
        assert table_to_dict(first.table) == table_to_dict(second.table)

    def test_different_config_misses(self, tmp_path, monkeypatch):
        cache = PackageCache(tmp_path)
        builds = []
        original = CloudProfiler.build_package

        def counting(self, game_name, traces):
            builds.append(game_name)
            return original(self, game_name, traces)

        monkeypatch.setattr(CloudProfiler, "build_package", counting)
        CloudProfiler(cache=cache).build_package_from_sessions(
            GAME, seeds=SEEDS, duration_s=DURATION
        )
        other = SnipConfig(forest_trees=SnipConfig().forest_trees + 1)
        CloudProfiler(other, cache=cache).build_package_from_sessions(
            GAME, seeds=SEEDS, duration_s=DURATION
        )
        assert builds == [GAME, GAME]
