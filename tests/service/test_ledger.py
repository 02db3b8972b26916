"""CycleLedger: canonical bytes, dense cycles, record/replay semantics."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.service.ledger import (
    LEDGER_FORMAT_VERSION,
    CycleLedger,
    canonical_json,
    canonicalize,
)
from repro.storage import atomic_write, exclusive_create


def test_canonical_json_sorts_keys_and_ends_with_newline():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_canonicalize_normalises_tuples_and_rejects_garbage():
    assert canonicalize({"seeds": (1, 2)}) == {"seeds": [1, 2]}
    with pytest.raises(ServiceError, match="not JSON-serialisable"):
        canonicalize({"bad": object()})


def test_exclusive_create_surfaces_the_loser(tmp_path):
    target = tmp_path / "once.json"
    exclusive_create(target, b"winner")
    with pytest.raises(FileExistsError):
        exclusive_create(target, b"loser")
    assert target.read_bytes() == b"winner"
    # The loser's staging temp must not linger.
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_replaces_without_leaving_temps(tmp_path):
    target = tmp_path / "doc.json"
    atomic_write(target, b"one")
    atomic_write(target, b"two")
    assert target.read_bytes() == b"two"
    assert list(tmp_path.iterdir()) == [target]


def test_record_and_replay_roundtrip(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = CycleLedger(path)
    assert ledger.next_index() == 0
    ledger.begin_cycle(0)
    recorded = ledger.record_stage(0, "ingest", {"batches": (), "reports": 0})
    # The returned payload is the canonicalised form the ledger holds.
    assert recorded == {"batches": [], "reports": 0}
    assert ledger.stage(0, "ingest") == recorded
    assert ledger.stage(0, "profile") is None
    ledger.complete_cycle(0)

    # A fresh loader sees the same document, byte for byte.
    reloaded = CycleLedger(path)
    assert reloaded.to_json() == ledger.to_json()
    assert reloaded.completed_count() == 1
    assert reloaded.next_index() == 1


def test_persisted_bytes_are_canonical(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = CycleLedger(path)
    ledger.begin_cycle(0)
    ledger.record_stage(0, "ingest", {"z": 1, "a": 2})
    assert path.read_text() == ledger.to_json()
    assert path.read_text() == canonical_json(ledger.to_dict())


def test_next_index_resumes_the_inflight_cycle(tmp_path):
    ledger = CycleLedger(tmp_path / "ledger.json")
    ledger.begin_cycle(0)
    ledger.complete_cycle(0)
    ledger.begin_cycle(1)  # crash happens mid-cycle 1
    resumed = CycleLedger(tmp_path / "ledger.json")
    assert resumed.next_index() == 1
    assert resumed.completed_count() == 1


def test_begin_and_complete_are_idempotent(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = CycleLedger(path)
    ledger.begin_cycle(0)
    ledger.record_stage(0, "ingest", {"reports": 3})
    before = path.read_bytes()
    assert ledger.begin_cycle(0)["stages"]["ingest"] == {"reports": 3}
    assert path.read_bytes() == before
    ledger.complete_cycle(0)
    after = path.read_bytes()
    ledger.complete_cycle(0)
    assert path.read_bytes() == after


def test_begin_rejects_sparse_indices(tmp_path):
    ledger = CycleLedger(tmp_path / "ledger.json")
    with pytest.raises(ServiceError, match="cannot begin cycle 2"):
        ledger.begin_cycle(2)


def test_record_rejects_completed_and_unknown_cycles(tmp_path):
    ledger = CycleLedger(tmp_path / "ledger.json")
    with pytest.raises(ServiceError, match="never begun"):
        ledger.record_stage(0, "ingest", {})
    ledger.begin_cycle(0)
    ledger.complete_cycle(0)
    with pytest.raises(ServiceError, match="already complete"):
        ledger.record_stage(0, "ship", {})
    with pytest.raises(ServiceError, match="never begun"):
        ledger.complete_cycle(5)


def test_load_rejects_foreign_format_and_sparse_documents(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"format_version": 999, "cycles": []}))
    with pytest.raises(ServiceError, match="format 999"):
        CycleLedger(path)
    path.write_text(
        json.dumps(
            {
                "format_version": LEDGER_FORMAT_VERSION,
                "cycles": [{"index": 1, "complete": True, "stages": {}}],
            }
        )
    )
    with pytest.raises(ServiceError, match="not dense"):
        CycleLedger(path)
    path.write_text("{ torn")
    with pytest.raises(ServiceError, match="unreadable"):
        CycleLedger(path)
