"""The on-disk SnipPackage registry.

Layout of the registry root::

    <root>/
      <game>/
        <config_fingerprint>/
          registry.json      # one RegistryState document

Registry entries never embed package payloads — they reference digests
in the content-addressed :class:`~repro.core.package_cache.PackageCache`,
so a package published here and cached by the profiler exists on disk
exactly once. State files are written atomically with sorted keys,
fixed indentation, and no wall-clock fields: the bytes are a pure
function of the publish/promotion history, which is what makes them
identical across ``--jobs`` settings and re-runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from repro.core.config import SnipConfig
from repro.core.package_cache import PackageCache
from repro.core.serialization import package_to_bytes
from repro.errors import PromotionError, RegistryError
from repro.registry.promotion import PromotionPolicy, judge
from repro.registry.records import (
    STATUS_CANDIDATE,
    STATUS_CHAMPION,
    STATUS_REJECTED,
    STATUS_RETIRED,
    STATUS_ROLLED_BACK,
    PackageMetrics,
    PromotionDecision,
    RegistryEntry,
    RegistryState,
    config_fingerprint,
)
from repro.storage import atomic_write

STATE_NAME = "registry.json"

#: Environment variable overriding the registry directory.
REGISTRY_DIR_ENV = "REPRO_SNIP_REGISTRY_DIR"


def default_registry_root() -> Path:
    """``$REPRO_SNIP_REGISTRY_DIR`` or ``~/.cache/repro-snip/registry``."""
    # Like the package cache, *where* the registry lives never affects
    # what gets decided — reading the environment is configuration.
    override = os.environ.get(REGISTRY_DIR_ENV)  # lint: ignore[det-env-read]
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-snip" / "registry"


def content_digest(package) -> str:
    """Content address for a package with no input-derived cache key.

    The profiler's cache keys packages by their *inputs*; publishers
    like the fig12 learning loop build packages from bespoke truncated
    traces, so the registry falls back to hashing the serialized
    package itself.
    """
    return hashlib.blake2b(
        package_to_bytes(package), digest_size=16
    ).hexdigest()


@dataclass(frozen=True)
class GcStats:
    """What ``repro-snip registry gc`` reclaimed."""

    entries_removed: int
    payloads_removed: int
    bytes_reclaimed: int


class PackageRegistry:
    """Versioned ledger of SnipPackages per ``(game, config)``."""

    def __init__(
        self,
        root: Optional[Union[str, os.PathLike]] = None,
        cache: Optional[PackageCache] = None,
    ) -> None:
        """``cache`` is where entry digests resolve to package payloads.

        Defaults to a ``packages`` store *inside* the registry root, so
        a relocated registry stays self-contained; pass the profiler's
        cache to share payloads with ordinary profiling runs.
        """
        self.root = Path(root) if root is not None else default_registry_root()
        self.cache = cache if cache is not None else PackageCache(
            self.root / "packages"
        )

    # -- state files -------------------------------------------------------

    def state_path(self, game_name: str, config: SnipConfig) -> Path:
        """Where one slot's state document lives."""
        return self.root / game_name / config_fingerprint(config) / STATE_NAME

    def load_state(self, game_name: str, config: SnipConfig) -> RegistryState:
        """The slot's state, or an empty one when never written."""
        path = self.state_path(game_name, config)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return RegistryState(
                game_name=game_name,
                config_fingerprint=config_fingerprint(config),
            )
        except (OSError, ValueError) as exc:
            raise RegistryError(f"unreadable registry state {path}: {exc}") from exc
        state = RegistryState.from_dict(payload)
        if state.game_name != game_name:
            raise RegistryError(
                f"registry state {path} belongs to {state.game_name!r}, "
                f"not {game_name!r}"
            )
        return state

    def _save_state(self, state: RegistryState, config: SnipConfig) -> Path:
        path = self.state_path(state.game_name, config)
        document = json.dumps(state.to_dict(), indent=2, sort_keys=True) + "\n"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(path, document.encode("utf-8"))
        except OSError as exc:
            raise RegistryError(f"cannot write registry state {path}: {exc}") from exc
        return path

    def slots(self) -> Iterator[Tuple[str, str, RegistryState]]:
        """Every persisted ``(game, fingerprint, state)``, sorted."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob(f"*/*/{STATE_NAME}")):
            fingerprint = path.parent.name
            game_name = path.parent.parent.name
            try:
                state = RegistryState.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError) as exc:
                raise RegistryError(
                    f"unreadable registry state {path}: {exc}"
                ) from exc
            yield game_name, fingerprint, state

    # -- publishing --------------------------------------------------------

    def publish(
        self,
        game_name: str,
        config: SnipConfig,
        package,
        metrics: PackageMetrics,
        source: str = "profiler",
        source_digest: Optional[str] = None,
    ) -> Tuple[RegistryEntry, bool]:
        """Record a candidate package; returns ``(entry, created)``.

        The payload is stored into the bound cache under its digest
        (``source_digest`` when the profiler already keyed it, a
        content digest otherwise). Publishing a digest the slot already
        holds is a no-op returning the existing entry — that is what
        keeps replayed pipelines (and re-runs of fig12 against the same
        registry) byte-identical.
        """
        digest = source_digest or content_digest(package)
        state = self.load_state(game_name, config)
        existing = state.by_digest(digest)
        if existing is not None:
            return existing, False
        if self.cache.load(digest) is None:
            self.cache.store(digest, package)
        entry = RegistryEntry(
            version=state.next_version,
            digest=digest,
            game_name=game_name,
            status=STATUS_CANDIDATE,
            metrics=metrics,
            source=source,
        )
        state.entries[entry.version] = entry
        self._save_state(state, config)
        return entry, True

    def load_package(self, entry: RegistryEntry):
        """Resolve an entry's digest to its cached package."""
        package = self.cache.load(entry.digest)
        if package is None:
            raise RegistryError(
                f"package payload {entry.digest} for version {entry.version} "
                f"is missing from the cache at {self.cache.root}"
            )
        return package

    # -- promotion / rollback ----------------------------------------------

    def promote(
        self,
        game_name: str,
        config: SnipConfig,
        version: Optional[int] = None,
        policy: Optional[PromotionPolicy] = None,
    ) -> PromotionDecision:
        """Judge one candidate (default: the latest) against the champion.

        On promotion the incumbent is retired and the candidate becomes
        the champion; on rejection the candidate is marked rejected. The
        decision — either way — is recorded on the entry. Promoting the
        current champion is an idempotent no-op returning its recorded
        decision.
        """
        policy = policy or PromotionPolicy()
        state = self.load_state(game_name, config)
        if version is None:
            candidates = [
                entry_version
                for entry_version in sorted(state.entries)
                if state.entries[entry_version].status == STATUS_CANDIDATE
            ]
            if not candidates:
                raise PromotionError(
                    f"no pending candidates for {game_name!r}; "
                    f"publish a package first"
                )
            version = candidates[-1]
        entry = state.entry(version)
        if entry.status == STATUS_CHAMPION:
            if entry.decision is not None:
                return entry.decision
            raise PromotionError(
                f"version {version} is already the champion"
            )
        champion = state.champion()
        decision = judge(
            challenger_version=version,
            challenger=entry.metrics,
            champion_version=champion.version if champion else None,
            champion=champion.metrics if champion else None,
            policy=policy,
        )
        self._apply(state, entry, decision)
        self._save_state(state, config)
        return decision

    def apply_decision(
        self,
        game_name: str,
        config: SnipConfig,
        decision: PromotionDecision,
    ) -> RegistryEntry:
        """Apply an externally computed decision to the ledger.

        The staged-rollout driver compares cohorts with the fleet
        reducers and records its verdict through this, so rollout
        promotions leave exactly the same kind of audit trail as
        metric-gated ones.
        """
        state = self.load_state(game_name, config)
        entry = state.entry(decision.version)
        self._apply(state, entry, decision)
        self._save_state(state, config)
        return entry

    @staticmethod
    def _apply(
        state: RegistryState, entry: RegistryEntry, decision: PromotionDecision
    ) -> None:
        entry.decision = decision
        if decision.promoted:
            if state.champion_version == entry.version:
                return  # already the champion; just refresh the record
            champion = state.champion()
            if champion is not None:
                champion.status = STATUS_RETIRED
            entry.status = STATUS_CHAMPION
            state.champion_version = entry.version
            state.champion_history = state.champion_history + (entry.version,)
        elif entry.status != STATUS_CHAMPION:
            entry.status = STATUS_REJECTED

    def rollback(
        self,
        game_name: str,
        config: SnipConfig,
        version: Optional[int] = None,
    ) -> RegistryEntry:
        """Restore a prior champion; returns the reinstated entry.

        With no ``version``, the champion before the current one is
        reinstated; with one, that specific registered version becomes
        the champion. The displaced champion is marked rolled back and
        drops out of the history, so repeated rollbacks walk further
        into the past instead of oscillating.
        """
        state = self.load_state(game_name, config)
        current = state.champion()
        if current is None:
            raise PromotionError(
                f"no champion to roll back for {game_name!r}"
            )
        history = tuple(
            entry_version
            for entry_version in state.champion_history
            if entry_version != current.version
        )
        if version is None:
            if not history:
                raise PromotionError(
                    f"champion version {current.version} has no predecessor "
                    f"to roll back to"
                )
            version = history[-1]
        if version == current.version:
            raise PromotionError(
                f"version {version} is already the champion"
            )
        target = state.entry(version)
        history = tuple(
            entry_version for entry_version in history
            if entry_version != version
        ) + (version,)
        current.status = STATUS_ROLLED_BACK
        target.status = STATUS_CHAMPION
        state.champion_version = target.version
        state.champion_history = history
        self._save_state(state, config)
        return target

    # -- hygiene -----------------------------------------------------------

    def gc(self, game_name: str, config: SnipConfig) -> GcStats:
        """Drop dead entries and reclaim their cache payloads.

        Removable entries are rejected or rolled-back versions that are
        neither the champion nor part of the rollback history; their
        payloads are deleted from the cache unless another live entry
        still references the digest. Uses the cache's own size
        accounting, so reclaimed bytes match ``cache stats``.
        """
        state = self.load_state(game_name, config)
        keep_versions = set(state.champion_history)
        if state.champion_version is not None:
            keep_versions.add(state.champion_version)
        removable = [
            version
            for version in sorted(state.entries)
            if version not in keep_versions
            and state.entries[version].status
            in (STATUS_REJECTED, STATUS_ROLLED_BACK)
        ]
        if not removable:
            return GcStats(0, 0, 0)
        dead_digests = {state.entries[version].digest for version in removable}
        for version in removable:
            del state.entries[version]
        self._save_state(state, config)
        # A digest may be shared across entries and slots (identical
        # content republished); never reclaim a payload any surviving
        # entry anywhere in the registry still references.
        live_digests = set()
        for _game, _fingerprint, other in self.slots():
            live_digests.update(
                entry.digest for entry in other.entries.values()
            )
        payloads = 0
        reclaimed = 0
        for digest in sorted(dead_digests - live_digests):
            freed = self.cache.remove(digest)
            if freed is not None:
                payloads += 1
                reclaimed += freed
        return GcStats(
            entries_removed=len(removable),
            payloads_removed=payloads,
            bytes_reclaimed=reclaimed,
        )
