"""Registry record types and their canonical JSON forms.

The registry's whole value is its *ledger*: for every candidate package
it remembers the gated metrics (table hit rate, selection accuracy,
selected-field count, table size, energy saved vs the unoptimised
baseline) and the promotion decision that was taken on them. Every
record here round-trips through plain JSON with sorted keys and no
wall-clock fields, so a registry state file is a pure function of the
publish and promotion history — byte-identical across ``--jobs``
settings and re-runs, matching the fleet determinism contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.config import SnipConfig
from repro.errors import RegistryError

#: Bump on incompatible changes to the registry state-file layout.
REGISTRY_FORMAT_VERSION = 1

#: Entry lifecycle states.
STATUS_CANDIDATE = "candidate"      # published, not yet judged
STATUS_CHAMPION = "champion"        # the active package
STATUS_RETIRED = "retired"          # former champion, displaced by a winner
STATUS_REJECTED = "rejected"        # challenger that failed floors/ranking
STATUS_ROLLED_BACK = "rolled_back"  # champion displaced by a rollback

_STATUSES = (
    STATUS_CANDIDATE,
    STATUS_CHAMPION,
    STATUS_RETIRED,
    STATUS_REJECTED,
    STATUS_ROLLED_BACK,
)


def config_fingerprint(config: SnipConfig) -> str:
    """Stable digest identifying one pipeline configuration.

    Registry state is partitioned per ``(game, config)``: packages
    built under different configs are never comparable (different
    gates, different forests), so they never compete for the same
    champion slot.
    """
    payload = {
        "format_version": REGISTRY_FORMAT_VERSION,
        "config": asdict(config),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class PackageMetrics:
    """The gated metrics recorded for every candidate package.

    ``energy_saved_fraction`` is optional because not every publisher
    can afford an energy measurement (fig12's learning loop publishes
    from accuracy evaluation alone); a ``None`` simply skips the energy
    floor during promotion.
    """

    hit_rate: float
    selection_accuracy: float
    selected_fields: int
    table_entries: int
    table_bytes: int
    energy_saved_fraction: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {
            "hit_rate": self.hit_rate,
            "selection_accuracy": self.selection_accuracy,
            "selected_fields": self.selected_fields,
            "table_entries": self.table_entries,
            "table_bytes": self.table_bytes,
            "energy_saved_fraction": self.energy_saved_fraction,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PackageMetrics":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                hit_rate=float(payload["hit_rate"]),
                selection_accuracy=float(payload["selection_accuracy"]),
                selected_fields=int(payload["selected_fields"]),
                table_entries=int(payload["table_entries"]),
                table_bytes=int(payload["table_bytes"]),
                energy_saved_fraction=(
                    None
                    if payload.get("energy_saved_fraction") is None
                    else float(payload["energy_saved_fraction"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed metrics record: {exc}") from exc


@dataclass(frozen=True)
class PromotionDecision:
    """Outcome of judging one challenger against the incumbent."""

    version: int                    # the judged challenger
    promoted: bool
    champion_version: Optional[int]  # incumbent at decision time
    challenger_score: float
    champion_score: Optional[float]
    reasons: Tuple[str, ...]        # why it was rejected (empty on promote)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {
            "version": self.version,
            "promoted": self.promoted,
            "champion_version": self.champion_version,
            "challenger_score": self.challenger_score,
            "champion_score": self.champion_score,
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PromotionDecision":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                version=int(payload["version"]),
                promoted=bool(payload["promoted"]),
                champion_version=(
                    None
                    if payload.get("champion_version") is None
                    else int(payload["champion_version"])
                ),
                challenger_score=float(payload["challenger_score"]),
                champion_score=(
                    None
                    if payload.get("champion_score") is None
                    else float(payload["champion_score"])
                ),
                reasons=tuple(str(reason) for reason in payload["reasons"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed decision record: {exc}") from exc


@dataclass
class RegistryEntry:
    """One versioned package in the ledger.

    The entry never embeds the package payload — ``digest`` points into
    the content-addressed :class:`~repro.core.package_cache.PackageCache`,
    so a package cached by the profiler and registered here exists on
    disk exactly once.
    """

    version: int
    digest: str
    game_name: str
    status: str
    metrics: PackageMetrics
    #: Where the candidate came from (``"profiler"``, ``"fig12"``,
    #: ``"fleet"`` ...) — provenance only, never part of any decision.
    source: str = "profiler"
    decision: Optional[PromotionDecision] = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise RegistryError(f"unknown entry status {self.status!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form."""
        return {
            "version": self.version,
            "digest": self.digest,
            "game_name": self.game_name,
            "status": self.status,
            "source": self.source,
            "metrics": self.metrics.to_dict(),
            "decision": self.decision.to_dict() if self.decision else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RegistryEntry":
        """Inverse of :meth:`to_dict`."""
        try:
            decision = payload.get("decision")
            return cls(
                version=int(payload["version"]),
                digest=str(payload["digest"]),
                game_name=str(payload["game_name"]),
                status=str(payload["status"]),
                source=str(payload.get("source", "profiler")),
                metrics=PackageMetrics.from_dict(payload["metrics"]),
                decision=(
                    PromotionDecision.from_dict(decision) if decision else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed registry entry: {exc}") from exc


@dataclass
class RegistryState:
    """Everything one ``(game, config)`` slot persists.

    ``champion_history`` records every champion version in promotion
    order; rollback pops it. Entries are keyed by version and versions
    are dense (1, 2, 3, ...), so re-publishing the same content is a
    no-op and state bytes are reproducible.
    """

    game_name: str
    config_fingerprint: str
    entries: Dict[int, RegistryEntry] = field(default_factory=dict)
    champion_version: Optional[int] = None
    champion_history: Tuple[int, ...] = ()

    @property
    def next_version(self) -> int:
        """Version the next published candidate receives."""
        return max(self.entries, default=0) + 1

    def champion(self) -> Optional[RegistryEntry]:
        """The active entry, or ``None`` before any promotion."""
        if self.champion_version is None:
            return None
        return self.entries[self.champion_version]

    def entry(self, version: int) -> RegistryEntry:
        """The entry for one version (raises on unknown versions)."""
        try:
            return self.entries[version]
        except KeyError:
            raise RegistryError(
                f"no version {version} registered for {self.game_name!r}"
            ) from None

    def by_digest(self, digest: str) -> Optional[RegistryEntry]:
        """The entry carrying ``digest``, if any (versions are dense,
        so the lowest matching version is the canonical one)."""
        for version in sorted(self.entries):
            if self.entries[version].digest == digest:
                return self.entries[version]
        return None

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (entry list sorted by version)."""
        return {
            "format_version": REGISTRY_FORMAT_VERSION,
            "game_name": self.game_name,
            "config_fingerprint": self.config_fingerprint,
            "champion_version": self.champion_version,
            "champion_history": list(self.champion_history),
            "entries": [
                self.entries[version].to_dict()
                for version in sorted(self.entries)
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RegistryState":
        """Inverse of :meth:`to_dict`."""
        version = payload.get("format_version")
        if version != REGISTRY_FORMAT_VERSION:
            raise RegistryError(
                f"unsupported registry format {version!r} "
                f"(this build supports {REGISTRY_FORMAT_VERSION})"
            )
        try:
            entries = {
                int(entry["version"]): RegistryEntry.from_dict(entry)
                for entry in payload["entries"]
            }
            return cls(
                game_name=str(payload["game_name"]),
                config_fingerprint=str(payload["config_fingerprint"]),
                entries=entries,
                champion_version=(
                    None
                    if payload.get("champion_version") is None
                    else int(payload["champion_version"])
                ),
                champion_history=tuple(
                    int(version) for version in payload["champion_history"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed registry state: {exc}") from exc
