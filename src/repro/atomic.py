"""Crash-atomic file replacement for persisted state.

Live checkpoints and fitted-model artifacts are read back by later
runs, so a crash (or a full disk) mid-write must never leave a torn
file where the previous good one was.  :func:`write_atomic` writes a
sibling temp file, fsyncs it, renames it over the target, and fsyncs
the directory so the rename itself survives a power loss: a reader
sees either the old bytes or the new ones, never a prefix.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = ["write_atomic"]


def write_atomic(path: Union[str, Path], text: str) -> Path:
    """Replace ``path`` with the UTF-8 ``text``, crash-atomically."""
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
            os.fsync(fd)
        finally:
            os.close(fd)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
    return path


def _fsync_directory(directory: Path) -> None:
    """Make a rename in ``directory`` durable (best effort off POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms that cannot open a directory
        return
    try:
        os.fsync(fd)
    except OSError:  # filesystems that refuse directory fsync
        pass
    finally:
        os.close(fd)
