"""Durable file writes: fsync the data, rename atomically, fsync the directory.

In that order, a reader sees the old file or the new one, never a torn
one, and a rename the caller acted on survives a crash.  Temp files carry
their writer's pid, so a cleanup can tell a dead writer's leftovers from
a live writer's work in progress (:func:`pid_alive`).
"""

from __future__ import annotations

import os


def fsync_dir(path: str) -> None:
    """Make a directory mutation (rename, create, unlink) durable."""
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - transient mount hiccup
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replace_durably(src: str, dst: str) -> None:
    """Atomically rename ``src`` over ``dst`` and fsync the directory."""
    os.replace(src, dst)
    fsync_dir(os.path.dirname(dst))


def write_atomic(path: str, text: str, tmp: str) -> None:
    """Durably replace ``path``'s content with ``text`` through ``tmp``.

    ``tmp`` must live in ``path``'s directory (the caller names it, pid
    included), so the rename never crosses filesystems; the directory is
    created when missing.
    """
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    replace_durably(tmp, path)


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (conservatively True on EPERM)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM: the process exists but belongs to someone else
        pass
    return True
