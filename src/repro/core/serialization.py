"""Serialization of SNIP artifacts: the over-the-air update format.

The paper ships the PFI lookup table back to the phone "as an over-the-
air update". This module defines that wire format: a plain-JSON document
carrying the necessary-input selection and the gated table entries, plus
loaders that reconstruct live objects. Everything is versioned and
validated so a device can reject a malformed or incompatible update.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.android.events import EventType
from repro.core.fields import FieldInfo
from repro.core.selection import SelectedInputs
from repro.core.table import SnipTable, TableEntry
from repro.errors import MemoizationError
from repro.games.base import FieldWrite, InputCategory, OutputCategory
from repro.storage import FrameError, atomic_write, frame, read_json, unframe

#: Wire-format version; bumped on incompatible changes.
FORMAT_VERSION = 1


def _encode_value(value: Any) -> Dict[str, Any]:
    """Encode one field value, preserving tuple-ness through JSON."""
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [_encode_value(item) for item in value]}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return {"t": "scalar", "v": value}
    raise MemoizationError(f"unserialisable value of type {type(value).__name__}")


def _decode_value(payload: Dict[str, Any]) -> Any:
    kind = payload.get("t")
    if kind == "tuple":
        return tuple(_decode_value(item) for item in payload["v"])
    if kind == "scalar":
        return payload["v"]
    raise MemoizationError(f"malformed value payload: {payload!r}")


def _encode_write(write: FieldWrite) -> Dict[str, Any]:
    return {
        "name": write.name,
        "category": write.category.value,
        "value": _encode_value(write.value),
        "nbytes": write.nbytes,
        "changed": write.changed,
    }


def _decode_write(payload: Dict[str, Any]) -> FieldWrite:
    return FieldWrite(
        name=payload["name"],
        category=OutputCategory(payload["category"]),
        value=_decode_value(payload["value"]),
        nbytes=payload["nbytes"],
        changed=payload["changed"],
    )


def selection_to_dict(selection: SelectedInputs) -> Dict[str, Any]:
    """The necessary-input selection as a plain dict."""
    return {
        event_type.value: [
            {"name": info.name, "category": info.category.value,
             "nbytes": info.nbytes}
            for info in fields
        ]
        for event_type, fields in selection.by_event_type.items()
    }


def selection_from_dict(payload: Dict[str, Any]) -> SelectedInputs:
    """Inverse of :func:`selection_to_dict`."""
    selection = SelectedInputs()
    for type_name, fields in payload.items():
        selection.by_event_type[EventType(type_name)] = [
            FieldInfo(
                name=field["name"],
                category=InputCategory(field["category"]),
                nbytes=field["nbytes"],
            )
            for field in fields
        ]
    return selection


def table_to_dict(table: SnipTable) -> Dict[str, Any]:
    """The full OTA update document for one game's table."""
    entries: Dict[str, List[Dict[str, Any]]] = {}
    for event_type in table.event_types():
        rows = []
        for key, entry in table._entries[event_type].items():
            rows.append(
                {
                    "key": [_encode_value(value) for value in key],
                    "writes": [_encode_write(write) for write in entry.writes],
                    "avg_cycles": entry.avg_cycles,
                    "profile_weight": entry.profile_weight,
                }
            )
        entries[event_type.value] = rows
    return {
        "format_version": FORMAT_VERSION,
        "selection": selection_to_dict(table.selection),
        "entries": entries,
    }


def table_from_dict(payload: Dict[str, Any]) -> SnipTable:
    """Reconstruct a live table from an OTA document.

    Raises :class:`MemoizationError` for any document that is not a
    well-formed table of this format version.
    """
    if not isinstance(payload, dict):
        raise MemoizationError(
            f"malformed OTA table document: {type(payload).__name__}, not an object"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise MemoizationError(
            f"unsupported OTA format version {version!r} "
            f"(device supports {FORMAT_VERSION})"
        )
    try:
        selection = selection_from_dict(payload["selection"])
        table = SnipTable(selection)
        for type_name, rows in payload["entries"].items():
            event_type = EventType(type_name)
            for row in rows:
                key: Tuple = tuple(_decode_value(value) for value in row["key"])
                table.install_entry(
                    event_type,
                    key,
                    TableEntry(
                        writes=tuple(_decode_write(w) for w in row["writes"]),
                        avg_cycles=row["avg_cycles"],
                        profile_weight=row["profile_weight"],
                    ),
                )
        return table
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        # AttributeError: a nested part (``entries``, ``selection``, a
        # value payload) is a list or scalar where an object belongs.
        raise MemoizationError(f"malformed OTA table document: {exc}") from exc


def dump_table(table: SnipTable, path: str) -> int:
    """Atomically write the OTA document to ``path``; returns bytes written."""
    document = json.dumps(table_to_dict(table), separators=(",", ":")).encode("utf-8")
    atomic_write(path, document)
    return len(document)


def load_table(path: str) -> SnipTable:
    """Load an OTA document from ``path``.

    A missing file raises :class:`FileNotFoundError`; a torn or
    corrupted one raises :class:`MemoizationError`, as a malformed
    document does.
    """
    return table_from_dict(read_json(path, MemoizationError, "OTA table file"))


# -- cloud-side package wire format ----------------------------------------
#
# Unlike the OTA table document above (a versioned JSON contract a
# *device* must be able to validate), whole SnipPackages only ever move
# between trusted cloud-side processes — the package cache, the
# registry and fleet workers — so they use the storage layer's framed
# pickle, under their own magic.

_PACKAGE_MAGIC = b"SNIPPKG2"


def package_to_bytes(package: Any) -> bytes:
    """Serialize a :class:`~repro.core.profiler.SnipPackage`."""
    return frame(_PACKAGE_MAGIC, package)


def package_from_bytes(payload: bytes) -> Any:
    """Inverse of :func:`package_to_bytes`.

    Raises :class:`MemoizationError` on malformed payloads (a bad magic,
    a short header, a length mismatch or an unpickling error) so cache
    callers can treat corruption as a plain miss.
    """
    try:
        return unframe(_PACKAGE_MAGIC, payload)
    except FrameError as exc:
        raise MemoizationError(f"malformed package payload: {exc}") from exc
