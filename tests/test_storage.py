"""The record layer: atomic publication and every store's damaged files.

`repro.storage` is the only module that writes files or imports
pickle; every other store publishes and reads through it. Publication
stages uniquely, leaves nothing behind and lets the last writer win;
a damaged file is always caught, as an evicted miss or a typed error.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Type

import pytest

from repro import storage
from repro.core.config import SnipConfig
from repro.core.package_cache import PackageCache
from repro.core.profiler import CloudProfiler
from repro.core.selection import SelectedInputs
from repro.core.serialization import dump_table, load_table, table_to_dict
from repro.core.table import SnipTable
from repro.errors import (
    CheckpointError,
    MemoizationError,
    RegistryError,
    ServiceError,
)
from repro.fleet import CheckpointStore, FleetSpec
from repro.fleet.work import ShardTask, run_shard
from repro.registry import PackageMetrics, PackageRegistry
from repro.service import CycleLedger, ServiceConfig, SnipService
from repro.service.reports import DeviceReport, ReportQueue
from repro.storage import atomic_write


def test_failed_replace_leaves_no_staged_file(tmp_path):
    target = tmp_path / "ledger.json"
    target.mkdir()
    (target / "occupant").write_text("x")
    with pytest.raises(OSError):
        atomic_write(target, b"payload")
    assert list(tmp_path.iterdir()) == [target]


def test_failed_staging_write_leaves_no_staged_file(tmp_path):
    with pytest.raises(TypeError):
        atomic_write(tmp_path / "doc.json", "text, not bytes")
    assert list(tmp_path.iterdir()) == []


def test_overlapping_writers_stage_under_separate_names(tmp_path, monkeypatch):
    """A rival write landing between staging and rename must not take
    this writer's staged file (a shared ``<name>.tmp`` would)."""
    target = tmp_path / "shard_00000.pkl"
    real_replace = os.replace

    def replace_after_rival(staged, path):
        monkeypatch.setattr(storage.os, "replace", real_replace)
        atomic_write(target, b"rival")
        real_replace(staged, path)

    monkeypatch.setattr(storage.os, "replace", replace_after_rival)
    atomic_write(target, b"mine")
    assert target.read_bytes() == b"mine"
    assert list(tmp_path.iterdir()) == [target]


class _HalfWriter:
    """A staging handle whose write lands half the payload, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(28, "No space left on device")


WRITERS = {
    "ota-table": lambda path: dump_table(SnipTable(SelectedInputs()), path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_failing_midway_leaves_previous_file(tmp_path, monkeypatch, writer):
    target = tmp_path / "document.json"
    target.write_bytes(b"previous")
    real_fdopen = os.fdopen
    monkeypatch.setattr(
        storage.os, "fdopen", lambda fd, mode: _HalfWriter(real_fdopen(fd, mode))
    )
    with pytest.raises(OSError):
        WRITERS[writer](str(target))
    assert target.read_bytes() == b"previous"
    assert list(tmp_path.iterdir()) == [target]


SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def _open_mode(call: ast.Call):
    """The mode of an ``open``-style call, or ``None`` for other calls."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        position = 1  # open(path, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "fdopen":
        position = 1  # os.fdopen(fd, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0  # Path.open(mode)
    else:
        return None
    mode = call.args[position] if len(call.args) > position else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "w?"  # a computed mode counts as a write


def _file_writes(tree: ast.AST):
    """Line numbers of every call in ``tree`` that writes or moves a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        mode = _open_mode(node)
        if mode is not None:
            if set(mode) & set("wax+"):
                yield node.lineno
        elif isinstance(func, ast.Attribute) and (
            func.attr in ("write_text", "write_bytes", "rename")
            or (
                func.attr in ("replace", "rename", "renames")
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            )
        ):
            yield node.lineno


def test_storage_is_the_only_write_site():
    writers = {}
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        lines = list(_file_writes(ast.parse(path.read_text(encoding="utf-8"))))
        if lines:
            writers[str(path.relative_to(SOURCE_ROOT))] = lines
    assert set(writers) == {"storage.py"}, writers


def _imports_pickle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name == "pickle" for alias in node.names
        ):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "pickle":
            return True
    return False


def test_storage_is_the_only_pickle_importer():
    importers = [
        str(path.relative_to(SOURCE_ROOT))
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        if _imports_pickle(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == ["storage.py"]


# -- the store fault matrix --------------------------------------------------
#
# Every persisted format, damaged four ways: cut at every proper
# prefix, one byte appended, replaced by garbage, and replaced by a
# JSON document that is not an object. A package entry or
# a checkpoint shard is evicted as a miss and counted once; every other
# file raises its store's typed error. The one damaged file a store may
# accept is a JSON document cut only in its trailing newline, which
# parses to the same document.

GAME = "colorphun"
GARBAGE = b"\x00\xff not a stored file \x80" * 4


@dataclass
class Persisted:
    """A real file one store wrote, and how that store reads it back."""

    path: Path
    load: Callable[[], Any]
    error: Optional[Type[Exception]] = None
    evictions: Optional[Callable[[], int]] = None


@pytest.fixture(scope="module")
def fault_spec():
    return FleetSpec(
        game_name=GAME,
        devices=1,
        duration_s=2.0,
        seed=1,
        shard_size=1,
        profile_duration_s=3.0,
        federate=False,
    )


@pytest.fixture(scope="module")
def fault_package(fault_spec):
    return CloudProfiler(SnipConfig(), cache=None).build_package_from_sessions(
        GAME, seeds=[1], duration_s=fault_spec.profile_duration_s
    )


def _package_entry(root, package, spec):
    cache = PackageCache(root)
    return Persisted(
        cache.store("key", package),
        lambda: cache.load("key"),
        evictions=cache.corrupt_evictions,
    )


def _checkpoint_shard(root, package, spec):
    store = CheckpointStore(root)
    store.initialise(spec)
    path = store.save(
        run_shard(
            ShardTask(
                shard_index=0,
                spec=spec,
                device_ids=(0,),
                selection=package.selection,
                table=package.table,
                config=SnipConfig(),
            )
        )
    )
    return Persisted(
        path,
        lambda: store.load_resumable(0),
        evictions=lambda: store.corrupt_evictions,
    )


def _checkpoint_manifest(root, package, spec):
    CheckpointStore(root).initialise(spec)
    return Persisted(
        CheckpointStore(root).manifest_path,
        lambda: CheckpointStore(root).initialise(spec),
        error=CheckpointError,
    )


def _service_manifest(root, package, spec):
    config = ServiceConfig(game_name=GAME)
    return Persisted(
        SnipService(config, root).manifest_path,
        lambda: SnipService(config, root).config,
        error=ServiceError,
    )


def _ledger(root, package, spec):
    path = root / "ledger.json"
    ledger = CycleLedger(path)
    ledger.begin_cycle(0)
    ledger.record_stage(0, "ingest", {"batches": [0], "reports": 1})
    ledger.complete_cycle(0)
    return Persisted(path, lambda: CycleLedger(path).to_dict(), error=ServiceError)


def _report_batch(root, package, spec):
    queue = ReportQueue(root)
    report = DeviceReport(
        device_id=0, archetype="casual", cohort="champion",
        sessions=1, events=40, hits=30, misses=10,
    )
    queue.enqueue([report], producer_cycle=0, sequence=0)
    return Persisted(
        queue.path(0), lambda: queue.load(0).to_dict(), error=ServiceError
    )


def _registry_state(root, package, spec):
    registry = PackageRegistry(root)
    config = SnipConfig()
    metrics = PackageMetrics(
        hit_rate=0.9, selection_accuracy=0.99, selected_fields=3,
        table_entries=package.table.entry_count, table_bytes=512,
    )
    registry.publish(GAME, config, package, metrics)
    return Persisted(
        registry.state_path(GAME, config),
        lambda: registry.load_state(GAME, config).to_dict(),
        error=RegistryError,
    )


def _ota_file(root, package, spec):
    path = root / "ota.json"
    dump_table(package.table, str(path))
    return Persisted(
        path, lambda: table_to_dict(load_table(str(path))), error=MemoizationError
    )


STORES = {
    "package-entry": _package_entry,
    "checkpoint-shard": _checkpoint_shard,
    "checkpoint-manifest": _checkpoint_manifest,
    "service-manifest": _service_manifest,
    "cycle-ledger": _ledger,
    "report-batch": _report_batch,
    "registry-state": _registry_state,
    "ota-file": _ota_file,
}


def _damaged(data: bytes):
    """Every proper prefix, one appended byte, garbage, and an array."""
    for cut in range(len(data)):
        yield data[:cut]
    yield data + b"x"
    yield GARBAGE
    yield b"[]\n"


@pytest.mark.parametrize("store", sorted(STORES))
def test_every_damaged_file_is_caught(tmp_path, store, fault_package, fault_spec):
    persisted = STORES[store](tmp_path, fault_package, fault_spec)
    data = persisted.path.read_bytes()
    intact = persisted.load()
    if persisted.evictions is not None:
        assert intact is not None  # the real file is a hit
    for damaged in _damaged(data):
        persisted.path.write_bytes(damaged)
        if persisted.evictions is not None:
            before = persisted.evictions()
            assert persisted.load() is None, len(damaged)
            assert not persisted.path.exists()
            assert persisted.evictions() == before + 1
            continue
        try:
            loaded = persisted.load()
        except persisted.error:
            continue
        assert damaged == data[:-1] and data.endswith(b"\n"), len(damaged)
        assert loaded == intact
