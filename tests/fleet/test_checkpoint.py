"""Checkpoint store and interrupt/resume behaviour."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import CheckpointError
from repro.fleet import CheckpointStore, FleetEngine, SerialExecutor
from repro.fleet.work import run_shard
from repro.storage import exclusive_create


class InterruptingExecutor(SerialExecutor):
    """Serial executor that dies after streaming ``limit`` payloads —
    the test's stand-in for ctrl-C / power loss mid-sweep."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def stream(self, fn, payloads, telemetry=None, retry_budget=3):
        inner = super().stream(
            fn, payloads, telemetry=telemetry, retry_budget=retry_budget
        )
        for count, item in enumerate(inner):
            if count >= self.limit:
                raise KeyboardInterrupt("simulated interrupt")
            yield item


def test_initialise_writes_manifest_and_accepts_same_spec(tmp_path, small_spec):
    store = CheckpointStore(tmp_path / "run")
    store.initialise(small_spec)
    assert store.manifest_path.exists()
    store.initialise(small_spec)  # idempotent


def test_initialise_rejects_different_spec_or_layout(tmp_path, small_spec):
    store = CheckpointStore(tmp_path / "run")
    store.initialise(small_spec)
    with pytest.raises(CheckpointError, match="different"):
        store.initialise(replace(small_spec, seed=small_spec.seed + 1))
    with pytest.raises(CheckpointError, match="different"):
        store.initialise(replace(small_spec, shard_size=small_spec.shard_size + 1))


def test_save_load_roundtrip_and_completed_indices(
    tmp_path, small_spec, small_package
):
    from repro.core.config import SnipConfig
    from repro.fleet.work import ShardTask

    store = CheckpointStore(tmp_path / "run")
    store.initialise(small_spec)
    assert store.completed_indices() == []
    result = run_shard(
        ShardTask(
            shard_index=1,
            spec=small_spec,
            device_ids=(2, 3),
            selection=small_package.selection,
            table=small_package.table,
            config=SnipConfig(),
        )
    )
    store.save(result)
    assert store.completed_indices() == [1]
    loaded = store.load(1)
    assert loaded.spec_fingerprint == result.spec_fingerprint
    assert loaded.events_processed == result.events_processed


def test_load_rejects_corrupt_shard(tmp_path, small_spec):
    store = CheckpointStore(tmp_path / "run")
    store.initialise(small_spec)
    store.shard_path(0).write_bytes(b"not a pickle")
    with pytest.raises(CheckpointError, match="cannot load"):
        store.load(0)


def test_stray_checkpoint_files_are_loud(tmp_path, small_spec):
    store = CheckpointStore(tmp_path / "run")
    store.initialise(small_spec)
    (store.shard_dir / "shard_oops.pkl").write_bytes(b"")
    with pytest.raises(CheckpointError, match="stray"):
        store.completed_indices()


def test_initialise_race_loser_is_loud(tmp_path, small_spec, monkeypatch):
    """The create/validate race: both stores see no manifest, one wins.

    Reproduced deterministically by publishing the winner's manifest in
    the window between the loser's existence check and its write — the
    loser must surface as :class:`CheckpointError`, not clobber the
    winner (the old plain-rename write did exactly that, silently).
    """
    loser = CheckpointStore(tmp_path / "run")
    winner = CheckpointStore(tmp_path / "run")

    def write_after_winner(path, data):
        monkeypatch.undo()  # the winner publishes unimpeded
        winner.initialise(small_spec)
        exclusive_create(path, data)

    monkeypatch.setattr(
        "repro.fleet.checkpoint.exclusive_create", write_after_winner
    )
    with pytest.raises(CheckpointError, match="lost initialisation race"):
        loser.initialise(small_spec)
    # The winner's manifest survived intact and still validates.
    CheckpointStore(tmp_path / "run").initialise(small_spec)
    assert not list((tmp_path / "run").glob("*.tmp"))


def test_concurrent_initialise_publishes_exactly_one_manifest(
    tmp_path, small_spec
):
    import threading

    run_dir = tmp_path / "run"
    stores = [CheckpointStore(run_dir) for _ in range(8)]
    barrier = threading.Barrier(len(stores))
    outcomes = [None] * len(stores)

    def start(slot, store):
        barrier.wait()
        try:
            store.initialise(small_spec)
            outcomes[slot] = "ok"
        except CheckpointError:
            outcomes[slot] = "lost"

    threads = [
        threading.Thread(target=start, args=(slot, store))
        for slot, store in enumerate(stores)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Losers are allowed (and loud), silent corruption is not: however
    # the race resolved, the surviving manifest validates the spec.
    assert all(outcome in ("ok", "lost") for outcome in outcomes)
    assert "ok" in outcomes
    CheckpointStore(run_dir).initialise(small_spec)
    assert not list(run_dir.glob("*.tmp"))


def _persist_one_shard(store, spec, package, index=0):
    from repro.core.config import SnipConfig
    from repro.fleet.work import ShardTask

    store.save(
        run_shard(
            ShardTask(
                shard_index=index,
                spec=spec,
                device_ids=spec.shard_at(index).device_ids,
                selection=package.selection,
                table=package.table,
                config=SnipConfig(),
            )
        )
    )


def test_corrupt_evictions_survive_store_restarts(
    tmp_path, small_spec, small_package
):
    """The eviction total is a per-run-dir counter, not per-instance.

    Regression: the counter used to live only on the store object, so
    every resume started back at 0 and the operator-facing telemetry
    undercounted corruption.
    """
    store = CheckpointStore(tmp_path / "run")
    store.initialise(small_spec)
    _persist_one_shard(store, small_spec, small_package)
    store.shard_path(0).write_bytes(b"truncated garbage")
    assert store.resumable_indices() == []
    assert store.corrupt_evictions == 1

    reopened = CheckpointStore(tmp_path / "run")
    assert reopened.corrupt_evictions == 1  # before initialise, even
    reopened.initialise(small_spec)
    assert reopened.corrupt_evictions == 1

    # A second eviction in the new instance keeps accumulating.
    _persist_one_shard(reopened, small_spec, small_package)
    reopened.shard_path(0).write_bytes(b"more garbage")
    assert reopened.resumable_indices() == []
    assert reopened.corrupt_evictions == 2
    assert CheckpointStore(tmp_path / "run").corrupt_evictions == 2


def test_manifestless_store_counts_evictions_in_memory_only(tmp_path):
    # The engine's anonymous spill dirs have no manifest; eviction
    # accounting must not invent one.
    store = CheckpointStore(tmp_path / "spill")
    store.shard_dir.mkdir(parents=True)
    store.shard_path(0).write_bytes(b"junk")
    assert store.load_resumable(0) is None
    assert store.corrupt_evictions == 1
    assert not store.manifest_path.exists()


def test_interrupted_run_resumes_to_identical_report(tmp_path, small_spec):
    run_dir = tmp_path / "run"
    reference = FleetEngine(small_spec).run().to_text()

    with pytest.raises(KeyboardInterrupt):
        FleetEngine(
            small_spec,
            executor=InterruptingExecutor(limit=2),
            checkpoint=run_dir,
        ).run()
    partial = CheckpointStore(run_dir).completed_indices()
    assert len(partial) == 2  # progress survived the crash

    resumed = FleetEngine(small_spec, checkpoint=run_dir).run().to_text()
    assert resumed == reference
    # Every shard is now persisted; a third run is pure replay.
    assert (
        CheckpointStore(run_dir).completed_indices()
        == list(range(small_spec.shard_count))
    )
    replayed = FleetEngine(small_spec, checkpoint=run_dir).run().to_text()
    assert replayed == reference
