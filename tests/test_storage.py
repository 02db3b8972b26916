"""Atomic publication: unique staging, no leftovers, last writer wins."""

from __future__ import annotations

import os

import pytest

from repro import storage
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
