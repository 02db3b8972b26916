"""Content-addressed on-disk cache of cloud-profile packages.

Profiling the same ``(game, config, seeds, duration)`` combination is a
pure function of its inputs plus the pipeline code, so every fig
driver, fleet shard, and scheme ``prepare`` that asks for the same
package can reuse one profiling run across processes. The cache key is
a digest over exactly those inputs *and* a digest of the installed
``repro`` sources — any edit to the package invalidates every entry, so
a stale cache can never mask a code change.

Entries are whole :class:`~repro.core.profiler.SnipPackage` objects in
the storage layer's framed pickle, written atomically (temp file +
rename), so concurrent fleet shards racing on the same key at worst
both profile and one rename wins; readers never observe a half-written
package.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.core.config import SnipConfig
from repro.core.overrides import DeveloperOverrides
from repro.core.serialization import package_from_bytes, package_to_bytes
from repro.errors import CacheError, MemoizationError
from repro.storage import atomic_write, evict, evictions

#: Bump on incompatible changes to the cache entry layout itself (the
#: pipeline code is content-hashed separately, see :func:`code_digest`).
CACHE_FORMAT_VERSION = 1

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_SNIP_CACHE_DIR"

_CODE_DIGEST: Optional[str] = None


def code_digest() -> str:
    """Digest of every installed ``repro`` source file (memoized).

    This is the "code version" part of the cache key: rather than
    trusting a hand-bumped constant, the key hashes the sources, so any
    edit anywhere in the package — profiler, PFI, games, SoC model —
    invalidates all cached packages automatically.
    """
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_DIGEST = digest.hexdigest()
    return _CODE_DIGEST


def _overrides_payload(overrides: Optional[DeveloperOverrides]) -> dict:
    """Developer overrides as a canonical, JSON-stable structure."""
    if overrides is None:
        overrides = DeveloperOverrides()
    return {
        "forced_fields": {
            event_type.value: sorted(fields)
            for event_type, fields in sorted(
                overrides.forced_fields.items(), key=lambda item: item[0].value
            )
            if fields
        },
        "forced_everywhere": sorted(overrides.forced_everywhere),
        "tolerate_temp_errors": overrides.tolerate_temp_errors,
    }


def package_digest(
    game_name: str,
    config: SnipConfig,
    seeds: Sequence[int],
    duration_s: float,
    overrides: Optional[DeveloperOverrides] = None,
) -> str:
    """Cache key for one profiling run: inputs plus code version."""
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "code": code_digest(),
        "game": game_name,
        "config": asdict(config),
        "seeds": [int(seed) for seed in seeds],
        "duration_s": float(duration_s),
        "overrides": _overrides_payload(overrides),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """What ``repro-snip cache stats`` reports."""

    root: str
    entries: int
    total_bytes: int
    corrupt_evictions: int = 0

    def to_dict(self) -> dict:
        """JSON form for ``cache stats --format json``."""
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "corrupt_evictions": self.corrupt_evictions,
        }


@dataclass(frozen=True)
class ClearStats:
    """What one destructive cache sweep reclaimed."""

    entries: int
    bytes_reclaimed: int


class PackageCache:
    """Directory of pickled packages keyed by :func:`package_digest`."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        if root is None:
            root = default_cache_root()
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Where one key's package lives (whether or not it exists)."""
        return self.root / f"{key}.pkg"

    def load(self, key: str):
        """The cached package for a key, or ``None`` on a miss.

        A corrupt or truncated entry counts as a miss and is *evicted*
        (and counted in :attr:`CacheStats.corrupt_evictions`) instead of
        raising: the caller re-profiles and overwrites it, which is
        always safe because entries are pure functions of their key.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                return package_from_bytes(handle.read())
        except FileNotFoundError:
            return None
        except (OSError, MemoizationError):
            evict(path, self.root)
            return None

    def corrupt_evictions(self) -> int:
        """How many corrupt entries this cache directory ever evicted."""
        return evictions(self.root)

    def store(self, key: str, package) -> Path:
        """Atomically persist a package under its key; returns the path."""
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(path, package_to_bytes(package))
        except OSError as exc:
            raise CacheError(f"cannot write package cache entry {path}: {exc}") from exc
        return path

    def stats(self) -> CacheStats:
        """Entry count, on-disk footprint, and eviction history."""
        entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkg"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return CacheStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total_bytes,
            corrupt_evictions=self.corrupt_evictions(),
        )

    def remove(self, key: str) -> Optional[int]:
        """Delete one entry; returns the bytes reclaimed, ``None`` on a
        miss.

        This is the unit of size accounting that ``cache clear`` and
        the registry's ``gc`` both report through.
        """
        path = self.path_for(key)
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return None
        return size

    def clear(self) -> ClearStats:
        """Delete every entry; reports entries removed and bytes freed."""
        removed = 0
        reclaimed = 0
        if self.root.is_dir():
            for path in list(self.root.glob("*.pkg")):
                freed = self.remove(path.stem)
                if freed is None:
                    continue
                removed += 1
                reclaimed += freed
        return ClearStats(entries=removed, bytes_reclaimed=reclaimed)


def default_cache_root() -> Path:
    """Cache directory: ``$REPRO_SNIP_CACHE_DIR`` or ``~/.cache/repro-snip``."""
    # Cached packages are content-addressed, so *where* they live never
    # affects results — reading the environment here is configuration,
    # not a determinism hazard.
    override = os.environ.get(CACHE_DIR_ENV)  # lint: ignore[det-env-read]
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-snip"
