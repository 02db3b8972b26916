"""Checkpoint/resume for partially completed fleet sweeps.

Layout of a run directory::

    <run_dir>/
      manifest.json              # format version, spec, fingerprints
      corrupt_evictions.count    # corrupt shards ever evicted (if any)
      shards/
        shard_00000.pkl    # one framed ShardResult per finished shard
        shard_00001.pkl
        ...

Shard files are the storage layer's framed pickles (a magic, the
pickle's length, the pickle), written atomically (tmp + rename), so a
run killed mid-write never leaves a truncated shard behind. Resume
skips every shard whose file loads and re-executes the rest; a shard
cut short or with bytes appended is evicted and counted first. The
manifest is written once and pins the spec's *layout* fingerprint
(spec + shard size): resuming with different parameters is refused
instead of silently mixing results.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import CheckpointError
from repro.fleet.spec import FLEET_FORMAT_VERSION, FleetSpec
from repro.fleet.work import ShardResult
from repro.storage import (
    FrameError, atomic_write, create_json, evict, evictions, frame, read_json, unframe,
)

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"
_SHARD_MAGIC = b"SNIPSHD1"


class CheckpointStore:
    """Persistence for one fleet run directory."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.shard_dir = self.run_dir / SHARD_DIR

    @property
    def corrupt_evictions(self) -> int:
        """Corrupt shard files this run directory ever evicted, across
        restarts (the package cache's counter, in the run directory)."""
        return evictions(self.run_dir)

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Where the run manifest lives."""
        return self.run_dir / MANIFEST_NAME

    def initialise(self, spec: FleetSpec) -> None:
        """Create the run directory, or validate it against ``spec``.

        A pre-existing directory must carry a manifest for the same
        spec and shard layout; anything else raises
        :class:`CheckpointError` rather than corrupting the sweep.

        Creation is race-safe: when two starters hit the same fresh run
        directory concurrently, exactly one publishes the manifest (via
        an ``O_EXCL`` temp file linked into place); the loser surfaces
        as :class:`CheckpointError` instead of silently clobbering the
        winner's manifest.
        """
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        if not self.manifest_path.exists():
            manifest = {
                "format_version": FLEET_FORMAT_VERSION,
                "fingerprint": spec.fingerprint(),
                "layout_fingerprint": spec.layout_fingerprint(),
                "shard_count": spec.shard_count,
                "spec": dataclasses.asdict(spec),
            }
            try:
                create_json(self.manifest_path, manifest)
                return
            except FileExistsError as exc:
                raise CheckpointError(
                    f"lost initialisation race for checkpoint at "
                    f"{self.run_dir}: another process published "
                    f"{MANIFEST_NAME} concurrently"
                ) from exc
        manifest = read_json(self.manifest_path, CheckpointError, "checkpoint manifest")
        if manifest.get("format_version") != FLEET_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {manifest.get('format_version')!r} does not "
                f"match this build ({FLEET_FORMAT_VERSION})"
            )
        if manifest.get("layout_fingerprint") != spec.layout_fingerprint():
            raise CheckpointError(
                f"checkpoint at {self.run_dir} belongs to a different "
                f"fleet spec or shard layout; use a fresh --checkpoint "
                f"directory or rerun with the original parameters"
            )

    # -- shards ------------------------------------------------------------

    def shard_path(self, index: int) -> Path:
        """File holding one shard's framed result."""
        return self.shard_dir / f"shard_{index:05d}.pkl"

    def completed_indices(self) -> List[int]:
        """Indices of every shard already persisted, ascending."""
        if not self.shard_dir.is_dir():
            return []
        indices = []
        for path in self.shard_dir.glob("shard_*.pkl"):
            try:
                indices.append(int(path.stem.split("_", 1)[1]))
            except (IndexError, ValueError):
                raise CheckpointError(f"stray file in checkpoint: {path}") from None
        return sorted(indices)

    def save(self, result: ShardResult) -> Path:
        """Persist one shard result atomically."""
        path = self.shard_path(result.shard_index)
        atomic_write(path, frame(_SHARD_MAGIC, result))
        return path

    def load(self, index: int) -> ShardResult:
        """Load one persisted shard result (raises on any corruption)."""
        path = self.shard_path(index)
        try:
            result = unframe(_SHARD_MAGIC, path.read_bytes())
        except (OSError, FrameError) as exc:
            raise CheckpointError(f"cannot load shard checkpoint {path}: {exc}") from exc
        if not isinstance(result, ShardResult) or result.shard_index != index:
            raise CheckpointError(f"shard checkpoint {path} holds the wrong payload")
        return result

    def load_resumable(self, index: int) -> Optional[ShardResult]:
        """Load one shard, evicting corrupt files as resumable misses.

        A truncated, garbage, or wrong-payload shard file is deleted
        (counted in :attr:`corrupt_evictions`) and reported as ``None``
        — the shard simply re-runs — instead of aborting the whole
        resume mid-stream.
        """
        try:
            return self.load(index)
        except CheckpointError:
            evict(self.shard_path(index), self.run_dir)
            return None

    def resumable_indices(self) -> List[int]:
        """Completed shard indices whose payloads actually load.

        Validates each persisted shard (loading and discarding it, one
        at a time — constant memory); corrupt ones are evicted so the
        engine schedules them as fresh work.
        """
        return [
            index
            for index in self.completed_indices()
            if self.load_resumable(index) is not None
        ]
