"""Atomic publication: unique staging, no leftovers, last writer wins.

`repro.storage` is the only module that writes files; every other
store publishes through it.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest

from repro import storage
from repro.core.selection import SelectedInputs
from repro.core.serialization import dump_table
from repro.core.table import SnipTable
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
