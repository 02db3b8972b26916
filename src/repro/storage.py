"""Every store's record layer: how its files are encoded, published and read.

The stores (package cache, fleet checkpoints, the serve daemon's
manifest, ledger and report queue, the registry) keep their schemas,
checks and typed errors; the byte forms and the disk access live here.

* :func:`atomic_write` replaces a file (last writer wins);
  :func:`exclusive_create` publishes one once, and a later creator gets
  :class:`FileExistsError`. Both stage under a unique name beside the
  target, so concurrent writers never share a staging file and the
  final rename or link stays on one filesystem, and both remove the
  staged file either way. Neither fsyncs: they guard against torn
  reads and lost races, not against power loss. Callers wrap
  :class:`OSError` in their own error types.
* JSON documents are :func:`canonical_json` (sorted keys, indent 2,
  trailing newline), written by :func:`write_json` or
  :func:`create_json` and read back by :func:`read_json`.
* Objects only trusted cloud-side processes read (packages, checkpoint
  shards) are framed pickles: a magic, the pickle's ``<Q`` length, the
  pickle (:func:`frame`, :func:`unframe`).
* A store that evicts corrupt files as misses counts them in a
  one-line ``corrupt_evictions.count`` file (:func:`evict`).
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Any, Dict, Type, Union

StrPath = Union[str, "os.PathLike[str]"]


def atomic_write(path: StrPath, data: bytes) -> None:
    """Write ``data`` to ``path`` via a staged file and ``os.replace``."""
    staged = _stage(Path(path), data)
    try:
        os.replace(staged, path)
    except BaseException:
        _discard(staged)
        raise


def exclusive_create(path: StrPath, data: bytes) -> None:
    """Publish ``data`` at ``path`` unless something is already there.

    The staged file is hard-linked into place, which fails with
    :class:`FileExistsError` when ``path`` exists (a rename would
    silently replace it).
    """
    staged = _stage(Path(path), data)
    try:
        os.link(staged, path)
    finally:
        _discard(staged)


def _stage(path: Path, data: bytes) -> str:
    """Write ``data`` to a fresh ``O_EXCL`` file beside ``path``."""
    fd, staged = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
    except BaseException:
        _discard(staged)
        raise
    return staged


def _discard(path: StrPath) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def canonical_json(payload: Any) -> str:
    """Render a JSON document in the stores' canonical byte form."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: StrPath, payload: Any) -> None:
    """Atomically replace ``path`` with ``payload`` as canonical JSON."""
    atomic_write(path, canonical_json(payload).encode("utf-8"))


def create_json(path: StrPath, payload: Any) -> None:
    """Publish ``payload`` as canonical JSON at ``path`` once
    (:class:`FileExistsError` if something is there)."""
    exclusive_create(path, canonical_json(payload).encode("utf-8"))


def read_json(path: StrPath, error: Type[Exception], what: str) -> Dict[str, Any]:
    """The JSON object at ``path``.

    A missing file raises :class:`FileNotFoundError`; any other read or
    parse failure, or a document that is not an object, raises
    ``error("unreadable <what> <path>: <cause>")``.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise error(f"unreadable {what} {path}: {type(document).__name__}, not an object")
    return document


_LENGTH = struct.Struct("<Q")
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError,
    IndexError, ValueError, TypeError, struct.error,
)


class FrameError(ValueError):
    """A framed pickle is torn, foreign, or does not unpickle."""


def frame(magic: bytes, obj: Any) -> bytes:
    """``obj`` pickled behind ``magic`` and the pickle's length."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return magic + _LENGTH.pack(len(body)) + body


def unframe(magic: bytes, payload: bytes) -> Any:
    """Inverse of :func:`frame`; raises :class:`FrameError` on another
    magic, a short header, a length mismatch or an unpickling error."""
    header_end = len(magic) + _LENGTH.size
    if not payload.startswith(magic) or len(payload) < header_end:
        raise FrameError("bad header")
    (length,) = _LENGTH.unpack_from(payload, len(magic))
    if len(payload) != header_end + length:
        raise FrameError(f"{len(payload) - header_end} body bytes, header says {length}")
    try:
        return pickle.loads(payload[header_end:])
    except _UNPICKLE_ERRORS as exc:
        raise FrameError(f"cannot unpickle: {exc}") from exc


#: A rising count is the signal that something is truncating writes.
EVICTIONS_NAME = "corrupt_evictions.count"


def evictions(root: StrPath) -> int:
    """How many corrupt files the store at ``root`` ever evicted."""
    try:
        return int((Path(root) / EVICTIONS_NAME).read_text().strip() or 0)
    except (OSError, ValueError):
        return 0


def evict(path: StrPath, root: StrPath) -> None:
    """Delete the corrupt file at ``path`` and count it in ``root``
    (best effort: diagnostics never turn a miss into a crash)."""
    _discard(path)
    try:
        atomic_write(Path(root) / EVICTIONS_NAME, f"{evictions(root) + 1}\n".encode())
    except OSError:
        pass
