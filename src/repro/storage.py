"""Atomic file publication shared by every on-disk store.

Two ways to put bytes at a path so that no reader ever sees a torn
file:

* :func:`atomic_write` replaces whatever is there (last writer wins);
* :func:`exclusive_create` publishes once; every later creator gets
  :class:`FileExistsError` instead of clobbering the winner.

Both stage the payload under a unique name in the target's directory,
so concurrent writers never share a staging file and the final rename
or link stays on one filesystem, and both remove the staged file
whether or not publication succeeds. Neither fsyncs: they guard
against torn reads and lost races, not against power loss. Callers
wrap :class:`OSError` in their own error types.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

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


def _discard(staged: str) -> None:
    try:
        os.unlink(staged)
    except OSError:
        pass
