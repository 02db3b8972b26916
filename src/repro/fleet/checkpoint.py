"""Checkpoint/resume for partially completed fleet sweeps.

Layout of a run directory::

    <run_dir>/
      manifest.json        # format version, spec, fingerprints
      shards/
        shard_00000.pkl    # one pickled ShardResult per finished shard
        shard_00001.pkl
        ...

Shard files are written atomically (tmp + rename), so a run killed
mid-write never leaves a truncated shard behind; resume simply skips
every shard whose file exists and re-executes the rest. The manifest
pins the spec's *layout* fingerprint (spec + shard size): resuming with
different parameters is refused instead of silently mixing results.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import CheckpointError
from repro.fleet.spec import FLEET_FORMAT_VERSION, FleetSpec
from repro.fleet.work import ShardResult
from repro.storage import atomic_write, exclusive_create

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"


class CheckpointStore:
    """Persistence for one fleet run directory."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.shard_dir = self.run_dir / SHARD_DIR
        #: Corrupt/truncated shard files evicted by
        #: :meth:`load_resumable` (mirrors the package cache's
        #: ``corrupt_evictions`` accounting). The running total is
        #: persisted in the manifest, so a run that is killed and
        #: resumed keeps counting instead of resetting to 0 on every
        #: new store instance.
        self.corrupt_evictions = self._persisted_evictions()

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
                "corrupt_evictions": self.corrupt_evictions,
                "format_version": FLEET_FORMAT_VERSION,
                "fingerprint": spec.fingerprint(),
                "layout_fingerprint": spec.layout_fingerprint(),
                "shard_count": spec.shard_count,
                "spec": dataclasses.asdict(spec),
            }
            try:
                exclusive_create(
                    self.manifest_path,
                    json.dumps(manifest, indent=2, sort_keys=True).encode(),
                )
                return
            except FileExistsError as exc:
                raise CheckpointError(
                    f"lost initialisation race for checkpoint at "
                    f"{self.run_dir}: another process published "
                    f"{MANIFEST_NAME} concurrently"
                ) from exc
        manifest = self._read_manifest()
        if manifest.get("layout_fingerprint") != spec.layout_fingerprint():
            raise CheckpointError(
                f"checkpoint at {self.run_dir} belongs to a different "
                f"fleet spec or shard layout; use a fresh --checkpoint "
                f"directory or rerun with the original parameters"
            )
        self.corrupt_evictions = int(manifest.get("corrupt_evictions", 0))

    def _read_manifest(self) -> Dict:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest at {self.manifest_path}: {exc}"
            ) from exc
        if manifest.get("format_version") != FLEET_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {manifest.get('format_version')!r} does not "
                f"match this build ({FLEET_FORMAT_VERSION})"
            )
        return manifest

    # -- shards ------------------------------------------------------------

    def shard_path(self, index: int) -> Path:
        """File holding one shard's pickled result."""
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
        atomic_write(path, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        return path

    def load(self, index: int) -> ShardResult:
        """Load one persisted shard result (raises on any corruption)."""
        path = self.shard_path(index)
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except CheckpointError:
            raise
        except Exception as exc:
            # Unpickling a truncated or garbage file can raise nearly
            # anything (UnpicklingError, EOFError, AttributeError,
            # ValueError, ...); all of them mean the same thing here.
            raise CheckpointError(f"cannot load shard checkpoint {path}: {exc}") from exc
        if not isinstance(result, ShardResult) or result.shard_index != index:
            raise CheckpointError(f"shard checkpoint {path} holds the wrong payload")
        return result

    def load_resumable(self, index: int) -> Optional[ShardResult]:
        """Load one shard, evicting corrupt files as resumable misses.

        A truncated, garbage, or wrong-payload shard pickle is deleted
        (counted in :attr:`corrupt_evictions`) and reported as ``None``
        — the shard simply re-runs — instead of aborting the whole
        resume mid-stream.
        """
        try:
            return self.load(index)
        except CheckpointError:
            self.discard(index)
            self.corrupt_evictions += 1
            self._persist_evictions()
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

    def discard(self, index: int) -> None:
        """Remove one persisted shard file (eviction/spill cleanup)."""
        try:
            self.shard_path(index).unlink()
        except OSError:
            pass

    # -- eviction accounting -----------------------------------------------

    def _persisted_evictions(self) -> int:
        """Running eviction total recorded in the manifest, if any."""
        try:
            manifest = json.loads(self.manifest_path.read_text())
            return int(manifest.get("corrupt_evictions", 0))
        except (OSError, ValueError, TypeError):
            return 0

    def _persist_evictions(self) -> None:
        """Record the running eviction total in the manifest.

        Best-effort: stores without a (readable) manifest — e.g. the
        engine's anonymous spill directories — keep the in-memory
        counter only.
        """
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(manifest, dict):
            return
        manifest["corrupt_evictions"] = self.corrupt_evictions
        atomic_write(
            self.manifest_path, json.dumps(manifest, indent=2, sort_keys=True).encode()
        )
